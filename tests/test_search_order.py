"""The solver's and the model checker's search order, pinned by hashes.

The golden file holds hashes of the trace lines, statistics and verdicts
(and `sat` witnesses) over the size-6 sweep, `check` on every pointed
model with at most two states, `check` on a star model with seven
successors, `check` where state pinning and BOX1 coverage matter, a
list of wide instances and the witnesses of deep instances, plus every
SAT branch's entries in order; see `search_order.py`.  An engine change
that keeps the search order keeps every hash.
"""

import json

import pytest

import search_order

WANT = json.loads(search_order.GOLDEN.read_text())


@pytest.fixture(scope="module")
def got():
    return search_order.compute()


@pytest.mark.parametrize("name", sorted(WANT))
def test_search_order_unchanged(got, name):
    assert got[name] == WANT[name]


def test_no_unpinned_groups(got):
    assert sorted(got) == sorted(WANT)

"""Brute force's connected-subset enumeration on vertex masks against its
former sorted-list form: the same subsets, as tuples, in the same order."""

import random

import pytest

from minalliance import build_graph
from minalliance.alliances import _connected_subsets

from _oracles import connected_subsets_by_sorted_lists


@pytest.mark.parametrize("seed", range(20))
def test_mask_enumeration_keeps_the_sorted_list_order(seed):
    rng = random.Random(f"connected-subsets/{seed}")
    n = rng.randint(8, 16)
    p = rng.uniform(0.15, 0.6)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    g = build_graph(n, edges, [v for v in range(n) if rng.random() < 0.15])
    allowed = [v not in g.forbidden for v in range(n)]
    mask = sum(1 << v for v in range(n) if allowed[v])
    for size in range(1, 8):
        got = list(_connected_subsets(g, size, mask))
        assert got == list(connected_subsets_by_sorted_lists(g, size, allowed))

"""Differential fuzzing of the two parameterized solvers against brute force
and the scipy MILP oracle, on graphs with a planted modulator."""

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("scipy")

from hypothesis import given, settings, strategies as st

from _oracles import milp_min_alliance_size
from minalliance import brute_force_min_alliance, build_graph, solve_dtc, solve_twincover


def _relabel(draw, n, edges, planted):
    """The graph under a drawn renaming, with the planted modulator renamed."""
    perm = draw(st.permutations(range(n)))
    renamed = sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges)
    return build_graph(n, renamed), sorted(perm[v] for v in planted)


@st.composite
def _dtc_graphs(draw):
    """A clique on 1..9 vertices plus up to 3 outside vertices, each joined
    to a drawn set of the other vertices; the outside vertices are the
    modulator."""
    q = draw(st.integers(1, 9))
    k = draw(st.integers(0, 3))
    n = q + k
    edges = {(a, b) for a in range(q) for b in range(a + 1, q)}
    for o in range(q, n):
        for v in draw(st.sets(st.sampled_from([v for v in range(n) if v != o]))):
            edges.add((min(o, v), max(o, v)))
    return _relabel(draw, n, edges, range(q, n))


@st.composite
def _twincover_graphs(draw):
    """A cover of up to 4 vertices with drawn edges among them, and up to
    six cliques of 1..4 vertices; each clique is joined to one of up to
    three drawn cover signatures, so cliques share signatures.  In a drawn
    share of examples every clique has fewer vertices than its signature,
    so no clique alone carries an alliance and the solver's ILP gives every
    answer."""
    c = draw(st.integers(0, 4))
    cover = list(range(c))
    edges = {
        (a, b) for a in cover for b in cover[a + 1:] if draw(st.booleans())
    }
    small = c >= 2 and draw(st.booleans())
    signatures = draw(st.lists(
        st.sets(st.sampled_from(cover), min_size=2 if small else 0) if cover
        else st.just(set()), min_size=1, max_size=3))
    n = c
    for _ in range(draw(st.integers(1, 6))):
        signature = draw(st.sampled_from(signatures))
        most = len(signature) - 1 if small else 4
        size = draw(st.integers(1, min(most, 12 - n)))
        clique = list(range(n, n + size))
        n += size
        edges |= {(a, b) for a in clique for b in clique if a < b}
        edges |= {(s, v) for s in signature for v in clique}
        if n == 12:
            break
    return _relabel(draw, n, edges, cover)


def _check(g, solve, modulator):
    sol = solve(g, modulator)
    assert sol.valid
    assert sol.size == brute_force_min_alliance(g).size
    assert sol.size == milp_min_alliance_size(g.n, g.edges)
    assert solve(g, modulator) == sol


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_dtc_graphs())
def test_dtc_agrees_with_both_oracles(case):
    g, modulator = case
    _check(g, solve_dtc, modulator)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_twincover_graphs())
def test_twincover_agrees_with_both_oracles(case):
    g, cover = case
    _check(g, solve_twincover, cover)

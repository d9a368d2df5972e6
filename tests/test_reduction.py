"""Dominating-set-to-alliance construction and its gadget arithmetic."""

from fractions import Fraction

import pytest

from minalliance import (
    alliance_from_dominating_set,
    build_graph,
    build_reduction,
    extract_dominating_set,
    gadget_bounds,
    gadget_size_estimate,
    generate,
    girth_lower_bound,
    is_dominating_set,
    minimum_dominating_set,
    moore_bound,
)
from minalliance.graphs import VertexRangeError
from minalliance.reduction import NotCubicError, dominating_sets_upto

from _oracles import all_dominating_sets, dominates, gadget_estimate_oracle

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def k4():
    return build_graph(4, K4_EDGES)


def audit_degrees(inst):
    """Recompute the expected degree of every target vertex from scratch."""
    g = inst.target
    n = inst.source.n
    want = {}
    for i, c in enumerate(inst.vertex_map):
        want[c.s] = 4
        want[c.v[0]] = 6
        for j in (1, 2, 3):
            want[c.v[j]] = 5
        want[c.u[0]] = 5 if i == 0 else 6
        for j in (1, 2, 3):
            want[c.u[j]] = 6
        want[c.w[0]] = 5 if i == n - 1 else 6
        want[c.w[1]] = want[c.w[2]] = 6
        want[c.w[3]] = 5
    for v in range(g.n):
        if v in g.forbidden:
            assert g.degree(v) == 1, f"pad {v} has degree {g.degree(v)}"
        else:
            assert g.degree(v) == want[v], f"core vertex {v}"
    assert g.max_degree() == 6


# ---------------------------------------------------------------- construction


def test_prism_budget_and_shape(triangular_prism):
    inst = build_reduction(triangular_prism, 2)
    assert inst.k_prime == 40
    assert inst.target.n == 13 * 6 + 32 * 6
    assert inst.forbidden_count == 32 * 6
    assert len(inst.target.forbidden) == 32 * 6
    audit_degrees(inst)


def test_prism_selector_fanout(triangular_prism):
    inst = build_reduction(triangular_prism, 2)
    ids = inst.vertex_map
    tgt = inst.target

    def selector_neighbors(i):
        return set(tgt.adj[ids[i].s])

    # first selector covers first copies of its source's three neighbours
    assert selector_neighbors(0) == {
        ids[0].v[0], ids[1].v[1], ids[2].v[1], ids[5].v[1]
    }
    # the second selector finds slot 1 of vertex 2 already taken
    assert selector_neighbors(1) == {
        ids[1].v[0], ids[0].v[1], ids[2].v[2], ids[3].v[1]
    }


def test_every_copy_slot_gets_one_selector_edge(triangular_prism):
    inst = build_reduction(triangular_prism, 1)
    selectors = {c.s for c in inst.vertex_map}
    for c in inst.vertex_map:
        for j in (1, 2, 3):
            hits = [u for u in inst.target.adj[c.v[j]] if u in selectors]
            assert len(hits) == 1
        assert not [u for u in inst.target.adj[c.v[0]] if u in selectors and u != c.s]


def test_vertex_map_is_a_partition(triangular_prism):
    inst = build_reduction(triangular_prism, 2)
    core = []
    for c in inst.vertex_map:
        core += list(c.v) + list(c.u) + list(c.w) + [c.s]
    assert sorted(core) == list(range(13 * 6))
    assert sorted(inst.target.forbidden) == list(range(13 * 6, 45 * 6))


def test_rejects_non_cubic_and_bad_budget(square_bridge_clique):
    with pytest.raises(NotCubicError):
        build_reduction(square_bridge_clique, 1)
    with pytest.raises(ValueError):
        build_reduction(k4(), 0)
    with pytest.raises(ValueError):
        build_reduction(k4(), 5)


@pytest.mark.parametrize("seed", range(6))
def test_random_cubic_degree_audit(seed):
    g = generate("cubic:n=10", seed)
    audit_degrees(build_reduction(g, 2))


# ---------------------------------------------------------------- forward map


def test_prism_forward_witness(triangular_prism):
    inst = build_reduction(triangular_prism, 2)
    sol = alliance_from_dominating_set(inst, {1, 4})
    assert sol.size == 40
    assert sol.valid
    assert extract_dominating_set(inst, sol.members) == frozenset({1, 4})


def test_forward_witness_with_everything_dominated(triangular_prism):
    inst = build_reduction(triangular_prism, 6)
    sol = alliance_from_dominating_set(inst, range(6))
    assert sol.size == 4 * 6 + 8 * 6 == 72
    assert sol.valid


def test_k4_single_vertex_round_trip():
    inst = build_reduction(k4(), 1)
    assert inst.k_prime == 24
    for v in range(4):
        sol = alliance_from_dominating_set(inst, {v})
        assert sol.size == 24 and sol.valid
        assert extract_dominating_set(inst, sol.members) == frozenset({v})


def test_forward_rejects_bad_sets(triangular_prism):
    inst = build_reduction(triangular_prism, 1)
    with pytest.raises(ValueError):
        alliance_from_dominating_set(inst, {0})  # does not dominate
    with pytest.raises(ValueError):
        alliance_from_dominating_set(inst, {1, 4})  # dominates but exceeds k


@pytest.mark.parametrize("ids", [{0, 98}, {-1}, {4}])
def test_forward_rejects_ids_outside_the_source(ids):
    # 0 dominates K4 on its own, so only the range check rejects {0, 98}
    inst = build_reduction(k4(), 1)
    with pytest.raises(VertexRangeError, match=r"out of range for n=4"):
        alliance_from_dominating_set(inst, ids)


def test_extract_rejects_invalid_or_oversized(triangular_prism):
    inst = build_reduction(triangular_prism, 2)
    with pytest.raises(ValueError):
        extract_dominating_set(inst, {0})
    big = alliance_from_dominating_set(build_reduction(triangular_prism, 3), {0, 3, 4})
    with pytest.raises(ValueError):
        extract_dominating_set(inst, big.members)  # size 48 > k' = 40


def test_all_prism_minimum_dominating_sets_round_trip(triangular_prism):
    inst = build_reduction(triangular_prism, 2)
    sets = list(dominating_sets_upto(triangular_prism, 2))
    assert sets  # the prism has domination number 2
    for ds in sets:
        sol = alliance_from_dominating_set(inst, ds)
        assert sol.size == 4 * 6 + 8 * len(ds)
        assert extract_dominating_set(inst, sol.members) == ds


# ---------------------------------------------------------------- DS helpers


def test_is_dominating_set(triangular_prism):
    assert is_dominating_set(triangular_prism, {1, 4})
    assert not is_dominating_set(triangular_prism, {0})


def test_is_dominating_set_ignores_ids_outside_the_graph(triangular_prism):
    n = triangular_prism.n
    assert is_dominating_set(triangular_prism, {-1, 1, 4, n})
    assert not is_dominating_set(triangular_prism, {-1, 0, n})
    assert not is_dominating_set(triangular_prism, {-1, n})
    assert is_dominating_set(build_graph(0, []), {-1, 0})


def test_dominating_enumeration_matches_oracle(triangular_prism):
    got = sorted(map(sorted, dominating_sets_upto(triangular_prism, 3)))
    want = sorted(map(sorted, all_dominating_sets(6, triangular_prism.edges, 3)))
    assert got == want


def test_minimum_dominating_set(triangular_prism):
    ds = minimum_dominating_set(triangular_prism)
    assert len(ds) == 2
    assert dominates(6, triangular_prism.edges, ds)


# ---------------------------------------------------------------- arithmetic


def test_moore_bound_values():
    assert moore_bound(6, 5) == 37
    assert moore_bound(3, 4) == 6
    assert moore_bound(3, 3) == 4
    assert moore_bound(2, 7) == 7  # cycles achieve the bound exactly


def test_moore_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        moore_bound(1, 5)
    with pytest.raises(ValueError):
        moore_bound(3, 2)


def test_moore_bound_matches_closed_form():
    for r in range(3, 8):
        for g in range(3, 12):
            if g % 2:
                closed = (r * (r - 1) ** ((g - 1) // 2) - 2) // (r - 2)
            else:
                closed = (2 * (r - 1) ** (g // 2) - 2) // (r - 2)
            assert moore_bound(r, g) == closed


def test_girth_lower_bound_values():
    assert girth_lower_bound(6, 125) == 4  # (4/3) * log_5(125) exactly
    assert girth_lower_bound(6, 1) == 0
    with pytest.raises(ValueError):
        girth_lower_bound(2, 10)
    with pytest.raises(ValueError):
        girth_lower_bound(6, 0)


def test_girth_lower_bound_is_tight():
    for r in (3, 6):
        for n in (2, 10, 125, 1000, 328417):
            g = girth_lower_bound(r, n)
            assert (r - 1) ** (3 * g) >= n**4
            if g:
                assert (r - 1) ** (3 * (g - 1)) < n**4


@pytest.mark.parametrize(
    "budget,estimate",
    [(10, 328417), (40, 32147805), (100, 743477832)],
)
def test_gadget_size_estimates_frozen(budget, estimate):
    assert gadget_size_estimate(budget) == estimate
    assert gadget_estimate_oracle(budget) == estimate


def test_gadget_size_estimate_is_exact_ceiling():
    for budget in (0, 3, 10, 40, 100):
        e = gadget_size_estimate(budget)
        num = ((budget + 1) * 10000) ** 871
        den = 2871**871
        assert e**250 * den >= num
        assert (e - 1) ** 250 * den < num


def test_gadget_bounds_pipeline():
    rows = [gadget_bounds(6, b) for b in (10, 40, 100)]
    assert [r.girth_bound for r in rows] == [11, 15, 17]
    assert [r.moore_lower_bound for r in rows] == [94, 382, 766]
    for r in rows:
        assert r.exponent == Fraction(871, 250)
        assert r.moore_lower_bound == moore_bound(3, max(r.girth_bound, 3))
    # monotone: a bigger budget never shrinks the gadget
    sizes = [r.size_estimate for r in rows]
    assert sizes == sorted(sizes)

"""The two parameterized solvers and the partial-clique normalizer."""

import random

import pytest

from minalliance import (
    BudgetExceeded,
    brute_force_min_alliance,
    build_graph,
    build_reduction,
    demand,
    distance_to_clique_set,
    encode_min_alliance_ilp,
    generate,
    minimum_dominating_set,
    normalize_partial_cliques,
    partition_clique_sets,
    partition_twin_classes,
    solve_dtc,
    solve_dtc_detailed,
    solve_ilp,
    solve_min_alliance_search,
    solve_twincover,
    solve_twincover_detailed,
    twin_cover_set,
    verify_alliance,
)
from minalliance.cli import _pick_algorithm, _solve_one
from minalliance.fpt import _priced_picks
from minalliance.params import InvalidTwinCoverError, RemainderNotCliqueError

from _oracles import complete_graph, star


# ---------------------------------------------------------------- demand


def test_demand_on_degree_five_vertex():
    g = star(5)
    # centre 0 picked with one leaf: |N[0] cap P| = 2, threshold 3
    assert demand(g, 0, {0, 1}) == 1


def test_demand_isolated_vertex_is_settled():
    g = build_graph(1, [])
    assert demand(g, 0, {0}) == 0


def test_demand_on_degree_six_vertex():
    g = star(6)
    assert demand(g, 0, {0}) == 3


def test_demand_requires_picked_vertex():
    with pytest.raises(ValueError):
        demand(star(3), 0, {1})


def test_demand_can_go_negative():
    g = build_graph(3, [(0, 1), (0, 2)])
    assert demand(g, 0, {0, 1, 2}) == -1


def priced_pick_graphs():
    """About 100 generated graphs, with their dtc and twin-cover modulators."""
    specs = [f"cliqueplus:n={n},k={k}" for n in (8, 14, 26) for k in (1, 2, 3, 5)]
    specs += [f"twincover:n={n},t={t},zmax={z}" for n, t, z in
              ((10, 2, 3), (16, 3, 4), (24, 4, 5), (30, 5, 6), (40, 5, 12))]
    for spec in specs:
        for seed in range(4 if spec.startswith("cliqueplus") else 10):
            g = generate(spec, seed)
            for find in (distance_to_clique_set, twin_cover_set):
                mod = find(g, 5)
                if mod is not None:
                    yield spec, seed, g, tuple(sorted(mod))


def test_priced_picks_equal_demand():
    # the bitmask demands against the definition, for every pick of every modulator
    checked = 0
    for spec, seed, g, mod in priced_pick_graphs():
        picks = list(_priced_picks(g, mod))
        assert [pmask for pmask, _, _ in picks] == list(range(1 << len(mod)))
        for pmask, bits, demands in picks:
            assert bits == [i for i in range(len(mod)) if pmask >> i & 1]
            pset = frozenset(mod[i] for i in bits)
            assert demands == [demand(g, mod[i], pset) for i in bits], (spec, seed, pmask)
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize(
    "spec, seed, counts, members",
    [  # (guesses, ilp_solves, pruned) and the witness of the per-pick demand() loops
        ("cliqueplus:n=26,k=2", 3, (3, 3, 1), (0, 1, 2, 3, 4, 5, 7, 12, 14, 15, 17, 19, 20)),
        ("cliqueplus:n=40,k=2", 5, (4, 4, 6),
         (2, 3, 4, 5, 6, 8, 11, 12, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24, 25)),
        ("cliqueplus:n=30,k=3", 2, (11, 11, 15),
         (0, 2, 3, 4, 6, 10, 13, 14, 15, 16, 17, 19, 21, 22)),
        ("cliqueplus:n=20,k=5", 1, (25, 25, 28), (0, 1, 3, 4, 5, 6, 9, 12, 13)),
        ("twincover:n=30,t=4", 3, (1, 1, 15), (28,)),
        ("twincover:n=60,t=5", 5, (1, 1, 31), (17,)),
        ("twincover:n=26,t=5", 2, (1, 1, 31), (5, 8, 9)),
        ("twincover:n=36,t=3", 4, (1, 1, 7), (1, 9)),
    ],
)
def test_guess_loop_counts_and_witness_are_pinned(spec, seed, counts, members):
    g = generate(spec, seed)
    if spec.startswith("cliqueplus"):
        sol, stats = solve_dtc_detailed(g, distance_to_clique_set(g, 5))
    else:
        sol, stats = solve_twincover_detailed(g, twin_cover_set(g, 5))
    assert (stats.guesses, stats.ilp_solves, stats.pruned) == counts
    assert sol.members == members


# ---------------------------------------------------------------- solve_dtc


def test_dtc_route_builds_no_adjacency_sets():
    # the dtc route (modulator search, partition, guess loop), lowdeg and
    # search read `adj` only, and so does the degree test that routes them;
    # search keeps its own force masks on a reduction target's tight vertices
    reduction_source = generate("cubic:n=4", 1)
    reduction_target = build_reduction(
        reduction_source, len(minimum_dominating_set(reduction_source))
    ).target
    for g, named, route in [
        (generate("cliqueplus:n=26,k=2", 3), "dtc", "dtc"),
        (generate("cliqueplus:n=26,k=2", 3), "auto", "search"),
        (generate("cubic:n=20", 1), "auto", "lowdeg"),
        (generate("twincover:n=30,t=4", 2), "auto", "search"),
        (reduction_target, "auto", "search"),
    ]:
        algo, mod = _pick_algorithm(g, named, 5)
        assert algo == route
        assert _solve_one(g, algo, mod, None).valid
        assert "masks" not in g.__dict__


def test_dtc_on_k4_without_modulator():
    sol = solve_dtc(complete_graph(4), [])
    assert sol.size == 2
    assert sol.valid
    assert sol.members == (0, 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_dtc_on_cliques_matches_oracle(n):
    g = complete_graph(n)
    assert solve_dtc(g, []).size == brute_force_min_alliance(g).size


def test_dtc_on_k5_minus_edge():
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (0, 1)]
    g = build_graph(5, edges)
    sol = solve_dtc(g, [0])
    assert sol.valid
    assert sol.size == brute_force_min_alliance(g).size


def test_dtc_rejects_non_clique_remainder():
    with pytest.raises(RemainderNotCliqueError):
        solve_dtc(build_graph(4, [(0, 1), (1, 2), (2, 3)]), [0])


def test_dtc_rejects_forbidden_and_empty():
    with pytest.raises(ValueError):
        solve_dtc(build_graph(0, []), [])
    with pytest.raises(ValueError):
        solve_dtc(build_graph(2, [(0, 1)], forbidden=[0]), [])


def test_dtc_guess_budget():
    g = generate("cliqueplus:n=12,k=3", 11)
    mod = distance_to_clique_set(g, 3)
    sol, stats = solve_dtc_detailed(g, mod)
    assert sol.valid
    t = len(partition_twin_classes(g, mod).classes)
    assert stats.guesses <= 2 ** len(mod) * (t + 1)
    assert stats.ilp_solves <= stats.guesses


@pytest.mark.parametrize("seed", range(3))
def test_dtc_witness_is_least_over_every_level(seed):
    # levels that can only tie the best size are still solved, so the
    # witness is the least (size, members) over all guesses
    g = generate("cliqueplus:n=6,k=1", seed)
    sol = solve_dtc(g, distance_to_clique_set(g, 1))
    assert sol.size == brute_force_min_alliance(g).size
    assert sol.members == (0, 1, 3)


def test_dtc_frontier_graph_takes_one_guess_per_level():
    # 16 383 ILPs when every set of empty twin classes was a guess
    g = generate("cliqueplus:n=60,k=4", 7)
    mod = distance_to_clique_set(g, 4)
    sol, stats = solve_dtc_detailed(g, mod)
    assert sol.valid
    assert sol.size == solve_min_alliance_search(g).size
    t = len(partition_twin_classes(g, mod).classes)
    assert stats.guesses <= 2 ** len(mod) * (t + 1)


@pytest.mark.parametrize("seed", range(40))
def test_dtc_matches_both_oracles(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 13)
    k = rng.randint(0, 3)
    g = generate(f"cliqueplus:n={n},k={k}", 4000 + seed)
    mod = distance_to_clique_set(g, 3)
    assert mod is not None and len(mod) <= 3
    sol = solve_dtc(g, mod)
    assert sol.valid
    assert sol.size == brute_force_min_alliance(g).size
    assert sol.size == solve_ilp(encode_min_alliance_ilp(g)).objective_value


def _clock_after(reads):
    """A clock that stands still for `reads` reads, then jumps past any deadline."""
    ticks = iter(range(reads))
    return lambda: 0.0 if next(ticks, None) is not None else 1e9


@pytest.mark.parametrize(
    "solve, spec, find",
    [
        (solve_dtc, "cliqueplus:n=30,k=3", distance_to_clique_set),
        (solve_twincover, "twincover:n=20,t=3,zmax=4", twin_cover_set),
    ],
)
def test_budget_exit_carries_the_verified_incumbent(monkeypatch, solve, spec, find):
    import minalliance.fpt as fpt

    g = generate(spec, 1)
    mod = find(g, 3)
    full = solve(g, mod)
    exits, sizes = 0, []
    for reads in (1, 2, 3, 5, 8, 10**6):
        monkeypatch.setattr(fpt, "monotonic", _clock_after(reads))
        try:
            sol = solve(g, mod, time_limit=1.0)
        except BudgetExceeded as stop:
            exits += 1
            assert "time limit" in str(stop)
            assert stop.lower_bound is None
            inc = stop.alliance
            if inc is not None:
                assert inc.valid and inc.size >= full.size
                sizes.append(inc.size)
        else:
            assert sol == full
            sizes.append(sol.size)
    assert exits >= 3
    assert sizes[-1] == full.size  # the clock never ran out
    assert sizes == sorted(sizes, reverse=True)  # incumbents only improve


def test_no_clock_read_without_a_time_limit(monkeypatch):
    import minalliance.fpt as fpt

    def no_clock():
        raise AssertionError("the clock was read without a time limit")

    monkeypatch.setattr(fpt, "monotonic", no_clock)
    g = generate("cliqueplus:n=30,k=3", 1)
    assert solve_dtc(g, distance_to_clique_set(g, 3)).valid
    g = generate("twincover:n=20,t=3,zmax=4", 1)
    assert solve_twincover(g, twin_cover_set(g, 3)).valid


def test_dtc_accepts_oversized_modulator():
    # a modulator need not be minimum, only leave a clique behind
    g = complete_graph(5)
    assert solve_dtc(g, [0, 1]).size == solve_dtc(g, []).size


# ---------------------------------------------------------------- solve_twincover


def test_twincover_star_singleton_leaf():
    sol = solve_twincover(star(4), [0])
    assert sol.size == 1
    assert sol.members == (1,)


def test_twincover_case1_shortcut_value():
    # cover {0,1}; one clique {2,3,4,5} joined to both cover vertices:
    # t_i = 2, smallest clique of size >= 2 is the 4-clique, giving
    # ceil((4+2)/2) = 3 vertices inside it.
    edges = [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (0, 1)]
    edges += [(c, v) for c in (0, 1) for v in (2, 3, 4, 5)]
    g = build_graph(6, edges)
    sol = solve_twincover(g, [0, 1])
    assert sol.size == 3
    assert set(sol.members) <= {2, 3, 4, 5}
    assert sol.size == brute_force_min_alliance(g).size


def test_twincover_rejects_bad_cover():
    with pytest.raises(InvalidTwinCoverError):
        solve_twincover(build_graph(4, [(0, 1), (1, 2), (2, 3)]), [0])


def test_twincover_rejects_forbidden_and_empty():
    with pytest.raises(ValueError):
        solve_twincover(build_graph(0, []), [])
    with pytest.raises(ValueError):
        solve_twincover(build_graph(2, [(0, 1)], forbidden=[1]), [0])


@pytest.mark.parametrize("seed", range(40))
def test_twincover_matches_both_oracles(seed):
    rng = random.Random(8000 + seed)
    n = rng.randint(6, 13)
    t = rng.randint(1, 3)
    g = generate(f"twincover:n={n},t={t},zmax=4", 8000 + seed)
    cover = twin_cover_set(g, 3)
    assert cover is not None and len(cover) <= 3
    sol = solve_twincover(g, cover)
    assert sol.valid
    assert sol.size == brute_force_min_alliance(g).size
    assert sol.size == solve_ilp(encode_min_alliance_ilp(g)).objective_value


@pytest.mark.parametrize(
    "spec, seed, members",
    [
        ("twincover:n=7,t=2,zmax=2", 9008, (0, 5)),
        ("twincover:n=14,t=4,zmax=5", 9065, (0, 5)),
        ("twincover:n=6,t=2,zmax=3", 9143, (0, 1, 5)),
        ("twincover:n=13,t=4,zmax=3", 9173, (1, 4)),
    ],
)
def test_twincover_witness_is_least_over_every_pick(spec, seed, members):
    # picks whose lower bound only ties the best size are still solved, so
    # the witness is the least (size, members) over case 1 and every pick
    g = generate(spec, seed)
    sol = solve_twincover(g, twin_cover_set(g, 5))
    assert sol.size == brute_force_min_alliance(g).size
    assert sol.members == members


def test_twincover_guess_budget():
    # one ILP per pick of the cover, at most; the last two graphs took 21
    # and 75 guesses when each count of full and partial cliques was one
    for spec, seed in [
        ("twincover:n=12,t=2,zmax=3", 17),
        ("twincover:n=30,t=4", 2),
        ("twincover:n=60,t=5", 1),
    ]:
        g = generate(spec, seed)
        cover = twin_cover_set(g, 5)
        sol, stats = solve_twincover_detailed(g, cover)
        assert sol.valid
        assert stats.guesses <= 2 ** len(cover)
        assert stats.ilp_solves == stats.guesses


def _small_cliques_under_a_big_cover(n, seed):
    """Cover 0..4 with random edges, then cliques of 1..4 vertices up to n,
    each joined to a random set of cover vertices larger than the clique."""
    rng = random.Random(seed)
    cover = list(range(5))
    edges = {(a, b) for a in cover for b in cover if a < b and rng.random() < 0.5}
    v = 5
    while v < n:
        s = rng.randint(1, min(4, n - v))
        clique = range(v, v + s)
        edges |= {(a, b) for a in clique for b in clique if a < b}
        sig = rng.sample(cover, rng.randint(min(5, s + 1), 5))
        edges |= {(u, w) for u in sig for w in clique}
        v += s
    return build_graph(n, sorted(edges)), cover


def test_twincover_cliques_smaller_than_their_signatures():
    # no clique alone is an alliance here, so every answer comes from the
    # ILP of one cover pick; the optimum is large (32 of 80 vertices)
    pytest.importorskip("scipy")
    from _oracles import milp_min_alliance_size

    g, cover = _small_cliques_under_a_big_cover(80, 0)
    assert len(g.edges) == 403
    sol, stats = solve_twincover_detailed(g, cover, time_limit=10.0)
    assert sol.valid
    assert sol.size == milp_min_alliance_size(g.n, g.edges)
    assert stats.guesses <= 2 ** len(cover)


@pytest.mark.parametrize(
    "solve, spec, find",
    [
        (solve_dtc, "cliqueplus:n=30,k=3", distance_to_clique_set),
        (solve_dtc, "cliqueplus:n=12,k=3", distance_to_clique_set),
        (solve_twincover, "twincover:n=20,t=3,zmax=4", twin_cover_set),
        (solve_twincover, "twincover:n=30,t=4", twin_cover_set),
    ],
)
def test_fpt_solvers_verify_only_their_answer(monkeypatch, solve, spec, find):
    import minalliance.alliances as alliances

    checked = []

    def counting(g, members):
        checked.append(tuple(members))
        return verify_alliance(g, members)

    monkeypatch.setattr(alliances, "verify_alliance", counting)
    for seed in range(1, 6):
        g = generate(spec, seed)
        checked.clear()
        sol = solve(g, find(g, 5))
        assert checked == [sol.members]


def test_twincover_handles_uncovered_clique_component():
    # a clique set with an empty signature (isolated triangle) still solves
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    sol = solve_twincover(g, [])
    assert sol.size == brute_force_min_alliance(g).size == 1


# ---------------------------------------------------------------- normalizer


def _partial_counts(part, members):
    counts = {}
    for tc in part.classes:
        for size, cliques in tc.cliques_by_size().items():
            partial = sum(
                1 for cl in cliques if 0 < len(set(cl) & members) < size
            )
            counts[(tc.index, size)] = (partial, size)
    return counts


def test_normalize_is_identity_without_partials():
    g = star(4)
    part = partition_clique_sets(g, [0])
    # size-1 cliques are full or null, never partial: nothing to move
    out = normalize_partial_cliques(g, part, {0, 1, 2, 3})
    assert out == frozenset({0, 1, 2, 3})


def test_normalize_merges_two_half_cliques():
    # cover 0; two 2-cliques {1,2} and {3,4}, both fully joined to 0.
    edges = [(1, 2), (3, 4), (0, 1), (0, 2), (0, 3), (0, 4)]
    g = build_graph(5, edges)
    part = partition_clique_sets(g, [0])
    before = {0, 1, 3}  # both cliques half-picked
    assert verify_alliance(g, before).valid
    after = normalize_partial_cliques(g, part, before)
    assert len(after) == 3
    assert verify_alliance(g, after).valid
    counts = _partial_counts(part, after)
    assert counts[(0, 2)][0] <= 1  # at most l-1 = 1 partial clique remains
    assert after & {0} == {0}


def test_normalize_rejects_invalid_sets():
    g = star(4)
    part = partition_clique_sets(g, [0])
    with pytest.raises(ValueError):
        normalize_partial_cliques(g, part, set())


def test_normalize_needs_cliques_mode():
    g = complete_graph(4)
    part = partition_twin_classes(g, [])
    with pytest.raises(ValueError):
        normalize_partial_cliques(g, part, {0, 1})


@pytest.mark.parametrize("seed", range(30))
def test_normalize_property_sweep(seed):
    rng = random.Random(200 + seed)
    g = generate(f"twincover:n={rng.randint(8, 13)},t={rng.randint(1, 3)},zmax=4", seed)
    cover = twin_cover_set(g, 3)
    part = partition_clique_sets(g, cover)
    # harvest valid alliances of several sizes from random grown sets
    sets_checked = 0
    for trial in range(40):
        size = rng.randint(1, g.n)
        members = set(rng.sample(range(g.n), size))
        if not verify_alliance(g, members).valid:
            continue
        sets_checked += 1
        out = normalize_partial_cliques(g, part, members)
        assert len(out) == len(members)
        assert verify_alliance(g, out).valid
        assert out & set(cover) == members & set(cover)
        for (_idx, size_l), (partial, _s) in _partial_counts(part, out).items():
            assert partial <= size_l - 1
        # idempotent: a second pass changes nothing
        assert normalize_partial_cliques(g, part, out) == out
    assert sets_checked > 0

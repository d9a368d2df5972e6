"""Acceptance suite: the seven headline guarantees, one test each.

Every test prints a single [PASS]/[FAIL] line (visible even under captured
output) naming the criterion and the evidence volume.  A mismatch in the
oracle-equivalence suites writes a counterexample artifact before failing.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from minalliance import (
    IlpBudgetExceeded,
    IlpProblem,
    alliance_from_dominating_set,
    brute_force_min_alliance,
    build_graph,
    build_reduction,
    distance_to_clique_set,
    encode_min_alliance_ilp,
    extract_dominating_set,
    gadget_bounds,
    gadget_size_estimate,
    generate,
    girth_lower_bound,
    minimum_dominating_set,
    moore_bound,
    normalize_partial_cliques,
    partition_clique_sets,
    solve_dtc,
    solve_ilp,
    solve_min_alliance_lowdeg,
    solve_twincover,
    twin_cover_set,
    verify_alliance,
)
from minalliance.cli import write_counterexample
from minalliance.reduction import dominating_sets_upto

from _oracles import (
    gadget_estimate_oracle,
    grid_min,
    simple_cycles,
    smallest_clique_modulators,
    smallest_twin_covers,
)

ARTIFACTS = Path(__file__).resolve().parent / "counterexamples"


def report(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def emit_mismatch(name, g, got, want):
    path = write_counterexample(
        ARTIFACTS,
        name,
        g,
        {
            "solver": {"size": got.size, "witness": list(got.members)},
            "oracle": {"size": want.size, "witness": list(want.members)},
        },
    )
    return path


def test_criterion_1_lowdeg_oracle_equivalence(capsys, atlas_corpus):
    started = time.perf_counter()
    label = "criterion 1, max-degree-5 solver vs oracle"
    checked = 0
    for idx, g in enumerate(atlas_corpus):
        got = solve_min_alliance_lowdeg(g)
        want = brute_force_min_alliance(g)
        if got.size != want.size:
            path = emit_mismatch(f"lowdeg-atlas-{idx}", g, got, want)
            report(capsys, False, label, f"mismatch recorded at {path}")
        checked += 1
    randoms = 0
    for seed in range(500):
        n = 8 + seed % 5
        g = generate(f"degcap:n={n},dmax=5", 100_000 + seed)
        got = solve_min_alliance_lowdeg(g)
        want = brute_force_min_alliance(g)
        if got.size != want.size:
            path = emit_mismatch(f"lowdeg-random-{seed}", g, got, want)
            report(capsys, False, label, f"mismatch recorded at {path}")
        randoms += 1
    elapsed = time.perf_counter() - started
    ok = checked >= 800 and randoms >= 500 and elapsed < 300.0
    report(
        capsys, ok, label,
        f"exact on {checked} exhaustive (n<=7) + {randoms} random (n=8..12) "
        f"instances in {elapsed:.1f}s",
    )


def test_criterion_2_distance_to_clique_solver(capsys):
    label = "criterion 2, distance-to-clique solver vs two oracles"
    rng = random.Random(214)
    checked = 0
    for trial in range(200):
        n = rng.randint(8, 14)
        k = rng.randint(0, 3)
        g = generate(f"cliqueplus:n={n},k={k}", 200_000 + trial)
        mod = distance_to_clique_set(g, 3)
        assert mod is not None and len(mod) <= 3
        got = solve_dtc(g, mod)
        brute = brute_force_min_alliance(g)
        ilp = solve_ilp(encode_min_alliance_ilp(g))
        if not (got.size == brute.size == ilp.objective_value and got.valid):
            path = emit_mismatch(f"dtc-{trial}", g, got, brute)
            report(capsys, False, label, f"mismatch recorded at {path}")
        checked += 1
    report(capsys, True, label,
           f"size agreement on {checked}/200 instances (n<=14, |D|<=3)")


def _partial_clique_histogram(part, members):
    out = {}
    for tc in part.classes:
        for size, cliques in tc.cliques_by_size().items():
            partial = sum(1 for cl in cliques if 0 < len(set(cl) & members) < size)
            out[(tc.index, size)] = partial
    return out


def test_criterion_3_twin_cover_solver(capsys):
    label = "criterion 3, twin-cover solver vs two oracles"
    rng = random.Random(418)
    checked = 0
    for trial in range(200):
        n = rng.randint(8, 14)
        t = rng.randint(1, 3)
        g = generate(f"twincover:n={n},t={t},zmax=4", 300_000 + trial)
        cover = twin_cover_set(g, 3)
        assert cover is not None and len(cover) <= 3
        part = partition_clique_sets(g, cover)
        got = solve_twincover(g, cover)
        brute = brute_force_min_alliance(g)
        ilp = solve_ilp(encode_min_alliance_ilp(g))
        if not (got.size == brute.size == ilp.objective_value and got.valid):
            path = emit_mismatch(f"twincover-{trial}", g, got, brute)
            report(capsys, False, label, f"mismatch recorded at {path}")
        normal = normalize_partial_cliques(g, part, got.members)
        assert len(normal) == got.size
        assert verify_alliance(g, normal).valid
        for (_cls, size), partial in _partial_clique_histogram(part, normal).items():
            assert partial <= size - 1
        checked += 1
    report(capsys, True, label,
           f"size agreement and <= l-1 partial cliques on {checked}/200 instances")


def test_criterion_4_reduction_fidelity(capsys, triangular_prism):
    label = "criterion 4, dominating-set reduction fidelity"
    inst = build_reduction(triangular_prism, 2)
    assert inst.k_prime == 40
    witness = alliance_from_dominating_set(inst, {1, 4})
    assert witness.size == 40 and witness.valid
    assert extract_dominating_set(inst, witness.members) == frozenset({1, 4})

    def audit(instance):
        g = instance.target
        n = instance.source.n
        for i, c in enumerate(instance.vertex_map):
            assert g.degree(c.s) == 4
            assert g.degree(c.v[0]) == 6
            assert all(g.degree(c.v[j]) == 5 for j in (1, 2, 3))
            assert g.degree(c.u[0]) == (5 if i == 0 else 6)
            assert all(g.degree(c.u[j]) == 6 for j in (1, 2, 3))
            assert g.degree(c.w[0]) == (5 if i == n - 1 else 6)
            assert g.degree(c.w[1]) == g.degree(c.w[2]) == 6
            assert g.degree(c.w[3]) == 5
        assert all(g.degree(f) == 1 for f in g.forbidden)
        assert g.max_degree() == 6

    audit(inst)
    graphs, round_trips = 0, 0
    for trial in range(50):
        n = (4, 6, 8, 10, 12)[trial % 5]
        g = generate(f"cubic:n={n}", 400_000 + trial)
        k = len(minimum_dominating_set(g))
        instance = build_reduction(g, k)
        audit(instance)
        for ds in dominating_sets_upto(g, k):
            sol = alliance_from_dominating_set(instance, ds)
            assert sol.valid
            assert sol.size == 4 * n + 8 * len(ds) <= instance.k_prime
            assert extract_dominating_set(instance, sol.members) == ds
            round_trips += 1
        graphs += 1
    report(capsys, True, label,
           f"forward witness, degree audit and round trip on the 6-vertex "
           f"benchmark plus {graphs} random cubic graphs ({round_trips} dominating sets)")


def test_criterion_5_reverse_direction_spot_check(capsys):
    label = "criterion 5, reverse direction on the smallest cubic instance"
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    inst = build_reduction(k4, 1)
    assert inst.k_prime == 4 * 4 + 8 * 1 == 24
    try:
        sol = solve_ilp(encode_min_alliance_ilp(inst.target), time_limit=600.0)
        members = [v for v, x in enumerate(sol.assignment) if x]
        ds = extract_dominating_set(inst, members)
        ok = sol.objective_value == 24 and len(ds) == 1
        report(capsys, ok, label,
               f"ILP optimum {sol.objective_value} == 24, extracted "
               f"dominating set {sorted(ds)} of size {len(ds)}")
    except IlpBudgetExceeded as stop:
        # budget form: whatever alliances of size <= 24 we hold must extract
        candidates = []
        if stop.incumbent is not None and stop.incumbent_value <= 24:
            candidates.append([v for v, x in enumerate(stop.incumbent) if x])
        for v in range(4):
            candidates.append(alliance_from_dominating_set(inst, {v}).members)
        assert candidates
        for members in candidates:
            ds = extract_dominating_set(inst, members)
            assert len(ds) <= 1
        report(capsys, True, label,
               f"budget exceeded; property form held on {len(candidates)} "
               f"alliances of size <= 24")


def test_criterion_6_bound_arithmetic(capsys):
    label = "criterion 6, gadget bound arithmetic"
    assert moore_bound(6, 5) == 37
    assert moore_bound(3, 4) == 6
    rows = [gadget_bounds(6, b) for b in (10, 40, 100)]
    for row in rows:
        # the estimate is the exact rational ceiling, certified two ways
        assert row.size_estimate == gadget_estimate_oracle(row.budget)
        assert row.size_estimate == gadget_size_estimate(row.budget)
        assert row.exponent == Fraction(871, 250)
        g = row.girth_bound
        assert g == girth_lower_bound(6, row.size_estimate)
        assert 5 ** (3 * g) >= row.size_estimate**4 > 5 ** (3 * (g - 1))
        assert row.moore_lower_bound == moore_bound(3, max(g, 3))
    sizes = [row.size_estimate for row in rows]
    assert sizes == sorted(sizes) and len(set(sizes)) == 3
    report(capsys, True, label,
           f"moore(6,5)=37, moore(3,4)=6, pipeline sizes {sizes} exact and monotone")


def test_criterion_7_property_suites(capsys, atlas_corpus):
    label = "criterion 7, property suites"
    # 7a: every simple cycle of a max-degree-5 graph is an alliance
    cycles = 0
    corpus = list(atlas_corpus)
    for seed in range(100):
        corpus.append(generate(f"degcap:n={8 + seed % 3},dmax=5", 700_000 + seed))
    for g in corpus:
        assert g.max_degree() <= 5
        for cyc in simple_cycles(g.n, g.edges):
            assert verify_alliance(g, cyc).valid
            cycles += 1
    # 7b: the integer-program engine equals grid enumeration
    rng = random.Random(77)
    problems = 0
    for _ in range(300):
        p = rng.randint(1, 4)
        bounds = []
        for _v in range(p):
            lo = rng.randint(-3, 3)
            bounds.append((lo, lo + rng.randint(0, 6)))
        objective = tuple(rng.randint(-4, 4) for _v in range(p))
        constraints = tuple(
            (tuple(rng.randint(-3, 3) for _v in range(p)), rng.randint(-6, 6))
            for _c in range(rng.randint(0, 4))
        )
        sol = solve_ilp(IlpProblem(objective=objective, constraints=constraints,
                                   bounds=tuple(bounds)))
        want = grid_min(objective, constraints, bounds)
        if want is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal" and sol.objective_value == want[0]
        problems += 1
    # 7c: modulator minimality, exhaustively checked for n <= 9
    rng = random.Random(99)
    modulators = 0
    for _ in range(120):
        n = rng.randint(3, 9)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < rng.choice((0.3, 0.5, 0.7))
        ]
        g = build_graph(n, edges)
        dtc = distance_to_clique_set(g, n)
        assert dtc in smallest_clique_modulators(n, edges)
        cover = twin_cover_set(g, n)
        assert cover in smallest_twin_covers(n, edges)
        modulators += 2
    report(capsys, True, label,
           f"{cycles} cycle alliances, {problems} engine-vs-grid problems, "
           f"{modulators} exhaustively verified modulators")

import random
from fractions import Fraction

import pytest

from minalliance import (
    IlpBudgetExceeded,
    IlpProblem,
    brute_force_min_alliance,
    build_graph,
    encode_min_alliance_ilp,
    generate,
    solve_ilp,
    solve_min_alliance_ilp,
)
from minalliance import ilp
from minalliance.ilp import _lp_min

from _oracles import complete_graph, grid_min


def prob(objective, constraints, bounds):
    return IlpProblem(
        objective=tuple(objective),
        constraints=tuple((tuple(a), b) for a, b in constraints),
        bounds=tuple(bounds),
    )


def test_single_variable_floor():
    sol = solve_ilp(prob([1], [([1], 3)], [(0, 10)]))
    assert sol.status == "optimal"
    assert sol.assignment == (3,)
    assert sol.objective_value == 3


def test_bound_forced_split():
    sol = solve_ilp(prob([1, 1], [([1, 1], 3)], [(0, 1), (0, 5)]))
    assert sol.status == "optimal"
    assert sol.objective_value == 3


def test_infeasible_by_bounds():
    sol = solve_ilp(prob([1], [([1], 5)], [(0, 2)]))
    assert sol.status == "infeasible"
    assert sol.assignment is None
    assert sol.objective_value is None


def test_negative_coefficients_and_bounds():
    # push a variable toward its negative floor
    sol = solve_ilp(prob([1, -2], [([1, -1], -4)], [(-3, 3), (-3, 3)]))
    want = grid_min((1, -2), (((1, -1), -4),), ((-3, 3), (-3, 3)))
    assert sol.status == "optimal"
    assert sol.objective_value == want[0]


def test_zero_variable_problems():
    assert solve_ilp(prob([], [([], 0)], [])).status == "optimal"
    assert solve_ilp(prob([], [([], 2)], [])).status == "infeasible"


def test_validation_rejects_ragged_vectors():
    with pytest.raises(ValueError):
        IlpProblem(objective=(1, 1), constraints=(((1,), 0),), bounds=((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        IlpProblem(objective=(1,), constraints=(), bounds=((2, 1),))


def expire_after(monkeypatch, nodes):
    """Stand `ilp.monotonic` still for the read that sets the deadline and
    the checks of `nodes` branch-and-bound nodes, then jump past any
    deadline: a timed `solve_ilp` stops before its next node."""
    ticks = iter(range(nodes + 1))
    monkeypatch.setattr(ilp, "monotonic", lambda: 0.0 if next(ticks, None) is not None else 1e9)


def test_node_budget_raises(monkeypatch):
    g = generate("degcap:n=12,dmax=5", 3)
    expire_after(monkeypatch, 1)
    with pytest.raises(IlpBudgetExceeded):
        solve_ilp(encode_min_alliance_ilp(g), time_limit=1.0)


def test_budget_carries_incumbent_when_found(monkeypatch):
    g = complete_graph(6)
    problem = encode_min_alliance_ilp(g)
    best = solve_ilp(problem)
    # generous node budget: enough to find an optimum, not to prove it
    for limit in range(2, 400):
        expire_after(monkeypatch, limit)
        try:
            sol = solve_ilp(problem, time_limit=1.0)
        except IlpBudgetExceeded as stop:
            if stop.incumbent is not None:
                assert stop.incumbent_value >= best.objective_value
                assert sum(stop.incumbent) == stop.incumbent_value
                return
        else:
            assert sol.objective_value == best.objective_value
            return
    raise AssertionError("no budget outcome observed")


@pytest.mark.parametrize("seed", range(120))
def test_random_problems_match_grid(seed):
    rng = random.Random(seed)
    p = rng.randint(1, 4)
    bounds = []
    for _ in range(p):
        lo = rng.randint(-3, 3)
        bounds.append((lo, lo + rng.randint(0, 6)))
    objective = [rng.randint(-4, 4) for _ in range(p)]
    constraints = []
    for _ in range(rng.randint(0, 4)):
        coeffs = [rng.randint(-3, 3) for _ in range(p)]
        constraints.append((coeffs, rng.randint(-6, 6)))
    sol = solve_ilp(prob(objective, constraints, bounds))
    want = grid_min(tuple(objective), [(tuple(a), b) for a, b in constraints], bounds)
    if want is None:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal", (objective, constraints, bounds)
        assert sol.objective_value == want[0]
        # re-check the returned point independently
        assert all(lo <= x <= hi for x, (lo, hi) in zip(sol.assignment, bounds))
        for coeffs, rhs in constraints:
            assert sum(a * x for a, x in zip(coeffs, sol.assignment)) >= rhs
        assert (
            sum(c * x for c, x in zip(objective, sol.assignment)) == want[0]
        )


def _random_lp(seed):
    """A small LP for _lp_min; the seed's residues force the edge cases."""
    rng = random.Random(5000 + seed)
    p = rng.randint(1, 5)
    c = [rng.randint(-4, 4) for _ in range(p)]
    if seed % 3 == 0:
        c[rng.randrange(p)] = -rng.randint(1, 4)
    ub = [rng.randint(0, 5) for _ in range(p)]
    if seed % 4 == 0:
        ub[rng.randrange(p)] = 0
    rows, rhs = [], []
    for _ in range(rng.randint(0, 5)):
        rows.append([rng.randint(-3, 3) for _ in range(p)])
        rhs.append(rng.randint(-6, 3))
    if seed % 5 == 0:
        rows.append([rng.randint(-3, 3) for _ in range(p)])
        rhs.append(-rng.randint(0, 6))
    if seed % 7 == 0:
        i = rng.randint(0, len(rows))
        rows.insert(i, [0] * p)
        rhs.insert(i, rng.randint(1, 3))
    return c, rows, rhs, ub


@pytest.mark.parametrize("seed", range(200))
def test_lp_relaxation_matches_highs(seed):
    linprog = pytest.importorskip("scipy.optimize").linprog
    c, rows, rhs, ub = _random_lp(seed)
    status, y = _lp_min(c, rows, rhs, ub)
    ref = linprog(
        c,
        A_ub=[[-a for a in row] for row in rows] or None,
        b_ub=[-b for b in rhs] or None,
        bounds=[(0, u) for u in ub],
        method="highs",
    )
    assert ref.status in (0, 2), ref.message
    if ref.status == 2:
        assert (status, y) == ("infeasible", None)
        return
    assert status == "optimal"
    assert all(0 <= yj <= u for yj, u in zip(y, ub))
    for row, b in zip(rows, rhs):
        assert sum(a * yj for a, yj in zip(row, y)) >= b
    assert abs(float(sum(cj * yj for cj, yj in zip(c, y))) - ref.fun) <= 1e-9


def test_lp_values_are_ints_exactly_when_integral():
    # an integral value is an int, never a Fraction with denominator 1
    for seed in range(200):
        _status, y = _lp_min(*_random_lp(seed))
        for yj in y or ():
            assert type(yj) is int or (type(yj) is Fraction and yj.denominator != 1), (seed, y)


def test_fractional_lp_value_stays_a_fraction():
    # y0 <= 1/2 through a flipped column (negative cost), y1 >= 1 at its bound
    status, y = _lp_min([-1, 1], [[-2, 0], [0, 1]], [-1, 1], [1, 1])
    assert (status, y) == ("optimal", [Fraction(1, 2), 1])
    assert [type(yj) for yj in y] == [Fraction, int]
    sol = solve_ilp(prob([-1, 1], [([-2, 0], -1), ([0, 1], 1)], [(0, 1), (0, 1)]))
    assert (sol.assignment, sol.objective_value) == ((0, 1), 1)


def test_encode_k1():
    sol = solve_ilp(encode_min_alliance_ilp(build_graph(1, [])))
    assert sol.objective_value == 1


def test_encode_c4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert solve_ilp(encode_min_alliance_ilp(g)).objective_value == 2


def test_encode_k4():
    assert solve_ilp(encode_min_alliance_ilp(complete_graph(4))).objective_value == 2


def test_encode_respects_forbidden():
    g = build_graph(2, [(0, 1)], forbidden=[0])
    problem = encode_min_alliance_ilp(g)
    assert problem.bounds[0] == (0, 0)
    sol = solve_min_alliance_ilp(g)
    assert sol is not None
    assert sol.members == (1,)


def test_solver_returns_none_when_everything_blocked():
    g = build_graph(2, [(0, 1)], forbidden=[0, 1])
    assert solve_min_alliance_ilp(g) is None


@pytest.mark.parametrize("seed", range(25))
def test_encode_matches_brute_force(seed):
    n = 6 + seed % 7  # up to n=12
    g = generate(f"degcap:n={n},dmax={3 + seed % 3}", 700 + seed)
    sol = solve_min_alliance_ilp(g)
    ref = brute_force_min_alliance(g)
    assert sol.size == ref.size
    assert sol.valid

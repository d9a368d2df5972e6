"""Exact integer linear programs: rational simplex relaxation + branch and bound.

Problems are minimization over integer variables with >= constraints and
finite integer box bounds.  Each node's relaxation is solved by a dual
simplex from the slack basis, negative-cost columns flipped, so one phase
suffices.  All arithmetic is exact: the simplex works on integer-scaled rows
(every comparison it makes -- signs and cross-multiplied ratios -- is
invariant under positive row scaling), and each solution value is read as
an `int` when it is integral and as a `fractions.Fraction` otherwise.  No
floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from time import monotonic
from typing import Sequence

from .alliances import BudgetExceeded, checked_alliance
from .graphs import Graph


class IlpError(ValueError):
    """Malformed problem data."""


class IlpBudgetExceeded(BudgetExceeded):
    """Raised when solve_ilp runs past its time budget.

    Carries the best integer solution seen so far (if any) so callers can
    still use the incumbent as an upper-bound witness.
    `solve_min_alliance_ilp` also sets `alliance` to that incumbent as a
    verified AllianceSolution.  `lower_bound` stays None: the branch and
    bound keeps no global bound.
    """

    def __init__(
        self,
        message: str,
        incumbent: tuple[int, ...] | None = None,
        incumbent_value: int | None = None,
    ) -> None:
        super().__init__(message)
        self.incumbent = incumbent
        self.incumbent_value = incumbent_value


@dataclass(frozen=True)
class IlpProblem:
    """minimize objective . x  s.t.  coeffs . x >= rhs for each constraint,
    lo_j <= x_j <= hi_j, x integer."""

    objective: tuple[int, ...]
    constraints: tuple[tuple[tuple[int, ...], int], ...]
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        p = len(self.objective)
        if len(self.bounds) != p:
            raise IlpError(f"{len(self.bounds)} bounds for {p} variables")
        for coeffs, _rhs in self.constraints:
            if len(coeffs) != p:
                raise IlpError(f"constraint has {len(coeffs)} coefficients, expected {p}")
        for lo, hi in self.bounds:
            if lo > hi:
                raise IlpError(f"empty bound range [{lo}, {hi}]")

    @property
    def var_count(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class IlpSolution:
    status: str  # "optimal" | "infeasible"
    assignment: tuple[int, ...] | None
    objective_value: int | None


def _row_reduce(row: list[int]) -> None:
    g = 0
    for x in row:
        g = math.gcd(g, x)
        if g == 1:
            return
    if g > 1:
        for j in range(len(row)):
            row[j] //= g


def _lp_min(
    c: Sequence[int],
    rows_in: Sequence[Sequence[int]],
    rhs_in: Sequence[int],
    ub: Sequence[int],
) -> tuple[str, list[int | Fraction] | None]:
    """Exact LP:  min c.y  s.t.  rows.y >= rhs,  0 <= y <= ub.

    Dual simplex from the slack basis, negative-cost columns flipped.  Each
    column with c_j < 0 is rewritten as ub_j - y_j, so every reduced cost
    starts non-negative and the basis of the row slacks s_i = a_i.y - b_i
    and the bound slacks u_j = ub_j - y_j is dual feasible at once.  Bland's
    rule in dual form keeps it from cycling: the infeasible row whose basic
    variable has the least index leaves, and the column with the least
    ratio z_j / -a_rj enters, ties going to the least index.  Columns are
    ordered y | s | u.  Stored rows, the reduced-cost row z included, are
    positive integer multiples of the true tableau rows; signs and
    cross-multiplied ratios are all the method reads.  Returns
    ("optimal", y) or ("infeasible", None): with finite bounds the LP is
    never unbounded.

    A basic y_j is its row's right-hand side over its own entry, which the
    scaling keeps positive.  It is an `int` when that entry divides the
    right-hand side and a `Fraction` only otherwise, so y_j is an `int`
    exactly when it is integral.  `solve_ilp` reads `.denominator`, floor
    and ceil, which both types give alike, so an integral optimum, the
    usual case in the FPT guess loops, costs only integer arithmetic.
    """
    p, m = len(c), len(rows_in)
    ncols = p + m + p
    flip = [cj < 0 for cj in c]
    rows: list[list[int]] = []
    for i, (a, b) in enumerate(zip(rows_in, rhs_in)):
        # -a.y + s_i = -b, with each flipped y_j replaced by ub_j - y_j
        row = [0] * (ncols + 1)
        for j, aj in enumerate(a):
            if flip[j]:
                row[j] = aj
                b -= aj * ub[j]
            else:
                row[j] = -aj
        row[p + i] = 1
        row[-1] = -b
        rows.append(row)
    for j in range(p):
        row = [0] * (ncols + 1)
        row[j] = row[p + m + j] = 1
        row[-1] = ub[j]
        rows.append(row)
    basis = list(range(p, ncols))
    z = [abs(cj) for cj in c] + [0] * (m + p)
    while True:
        leave = -1
        for i, row in enumerate(rows):
            if row[-1] < 0 and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            break
        prow = rows[leave]
        enter = -1
        for j in range(ncols):
            a = prow[j]
            if a < 0 and (enter < 0 or z[j] * -prow[enter] < z[enter] * -a):
                enter = j
        if enter < 0:
            return "infeasible", None
        # the pivot entry is negative: negate the row to keep its scale positive
        prow = [-x for x in prow]
        _row_reduce(prow)
        rows[leave] = prow
        piv = prow[enter]
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                row = [piv * x - f * y for x, y in zip(row, prow)]
                _row_reduce(row)
                rows[i] = row
        f = z[enter]
        if f:
            z = [piv * x - f * y for x, y in zip(z, prow)]
            _row_reduce(z)
        basis[leave] = enter
    y: list[int | Fraction] = [0] * p
    for row, col in zip(rows, basis):
        if col < p:
            num, den = row[-1], row[col]  # den > 0: the row's scale
            y[col] = num // den if num % den == 0 else Fraction(num, den)
    return "optimal", [ub[j] - yj if flip[j] else yj for j, yj in enumerate(y)]


def _tighten_bounds(
    cons: Sequence[tuple[Sequence[int], int]],
    lo: list[int],
    hi: list[int],
) -> bool:
    """Exact bound propagation; returns False when some domain empties."""
    changed = True
    while changed:
        changed = False
        for coeffs, b in cons:
            # maximum achievable activity, and each variable's own span
            total = 0
            for j, a in enumerate(coeffs):
                total += a * (hi[j] if a > 0 else lo[j])
            if total < b:
                return False
            for j, a in enumerate(coeffs):
                if a == 0:
                    continue
                rest = total - a * (hi[j] if a > 0 else lo[j])
                need = b - rest
                if a > 0:
                    new_lo = -((-need) // a)  # ceil(need / a)
                    if new_lo > lo[j]:
                        if new_lo > hi[j]:
                            return False
                        lo[j] = new_lo
                        changed = True
                else:
                    new_hi = need // a  # floor for negative divisor
                    if new_hi < hi[j]:
                        if new_hi < lo[j]:
                            return False
                        hi[j] = new_hi
                        changed = True
    return True


def solve_ilp(prob: IlpProblem, *, time_limit: float | None = None) -> IlpSolution:
    """Exact branch and bound over the rational relaxation.

    Branches on the lowest-index fractional variable, floor side first, and
    prunes a node when its relaxation bound cannot beat the incumbent.  The
    first optimum found is kept, so results are deterministic.
    """
    p = prob.var_count
    if p == 0:
        if all(rhs <= 0 for _c, rhs in prob.constraints):
            return IlpSolution(status="optimal", assignment=(), objective_value=0)
        return IlpSolution(status="infeasible", assignment=None, objective_value=None)
    c = list(prob.objective)
    cons = [(list(a), b) for a, b in prob.constraints]
    deadline = None if time_limit is None else monotonic() + time_limit
    best_val: int | None = None
    best_x: tuple[int, ...] | None = None
    nodes = 0
    stack = [([lo for lo, _ in prob.bounds], [hi for _, hi in prob.bounds])]
    while stack:
        if deadline is not None and monotonic() > deadline:
            raise IlpBudgetExceeded(
                f"time limit exceeded after {nodes} nodes", best_x, best_val
            )
        lo, hi = stack.pop()
        nodes += 1
        if not _tighten_bounds(cons, lo, hi):
            continue
        if best_val is not None:
            floor_obj = sum(a * (lo[j] if a > 0 else hi[j]) for j, a in enumerate(c))
            if floor_obj >= best_val:
                continue
        shift_rhs = [b - sum(a * l for a, l in zip(coeffs, lo)) for coeffs, b in cons]
        width = [h - l for l, h in zip(lo, hi)]
        status, y = _lp_min(c, [coeffs for coeffs, _ in cons], shift_rhs, width)
        if status != "optimal":
            continue
        obj = sum(cj * yj for cj, yj in zip(c, y)) + sum(
            cj * lj for cj, lj in zip(c, lo)
        )
        bound = math.ceil(obj)  # objective coefficients are integral
        if best_val is not None and bound >= best_val:
            continue
        frac_j = next((j for j in range(p) if y[j].denominator != 1), None)
        if frac_j is None:
            x = tuple(int(yj) + lj for yj, lj in zip(y, lo))
            val = int(obj)
            if best_val is None or val < best_val:
                best_val, best_x = val, x
            continue
        split = math.floor(y[frac_j] + lo[frac_j])
        up_lo = list(lo)
        up_lo[frac_j] = split + 1
        down_hi = list(hi)
        down_hi[frac_j] = split
        stack.append((up_lo, list(hi)))  # ceil branch, explored second
        stack.append((list(lo), down_hi))  # floor branch, explored first
    if best_val is None:
        return IlpSolution(status="infeasible", assignment=None, objective_value=None)
    return IlpSolution(status="optimal", assignment=best_x, objective_value=best_val)


def encode_min_alliance_ilp(g: Graph) -> IlpProblem:
    """0-1 program whose optimum is the minimum defensive alliance size.

    One variable per vertex; protection at v reads
    2 * sum(x_u for u in N[v]) >= (d(v)+1) * x_v, plus non-emptiness.
    Forbidden vertices are pinned to zero through their bounds.
    """
    cons: list[tuple[tuple[int, ...], int]] = []
    for v in range(g.n):
        coeffs = [0] * g.n
        coeffs[v] = 2 - (g.degree(v) + 1)
        for u in g.adj[v]:
            coeffs[u] = 2
        cons.append((tuple(coeffs), 0))
    cons.append((tuple([1] * g.n), 1))
    bounds = tuple((0, 0) if v in g.forbidden else (0, 1) for v in range(g.n))
    return IlpProblem(
        objective=tuple([1] * g.n),
        constraints=tuple(cons),
        bounds=bounds,
    )


def solve_min_alliance_ilp(g: Graph, *, time_limit: float | None = None):
    """Minimum alliance via the 0-1 encoding; returns a verified AllianceSolution.

    Raises IlpBudgetExceeded past `time_limit`, with the incumbent (if any)
    as checked by `checked_alliance` in its `alliance` attribute; an
    incumbent that fails the check raises InternalVerificationError.
    """
    try:
        sol = solve_ilp(encode_min_alliance_ilp(g), time_limit=time_limit)
    except IlpBudgetExceeded as exc:
        if exc.incumbent is not None:
            exc.alliance = checked_alliance(
                g, [v for v, xv in enumerate(exc.incumbent) if xv], "ILP incumbent"
            )
        raise
    if sol.status == "infeasible":
        return None
    members = [v for v, xv in enumerate(sol.assignment) if xv]
    return checked_alliance(g, members, "ILP witness")


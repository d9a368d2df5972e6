"""Exact integer linear programs: rational simplex relaxation + branch and bound.

Problems are minimization over integer variables with >= constraints and
finite integer box bounds.  All arithmetic is exact: the simplex works on
integer-scaled rows (every comparison it makes -- reduced-cost signs and
ratio tests -- is invariant under positive row scaling), and solutions are
extracted as `fractions.Fraction` values.  No floating point anywhere.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .alliances import BudgetExceeded, protection_threshold
from .graphs import Graph


class IlpError(ValueError):
    """Malformed problem data."""


class IlpBudgetExceeded(BudgetExceeded):
    """Raised when solve_ilp runs past its time or node budget.

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


class _Simplex:
    """Primal simplex with Bland's rule on integer-scaled tableau rows.

    Each stored row is the true canonical row multiplied by some positive
    integer; signs and cross-multiplied ratios are all the algorithm needs,
    so no rationals appear during pivoting.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], ncols: int):
        self.rows = rows  # each row has ncols coefficients then the rhs
        self.basis = basis
        self.ncols = ncols

    def pivot(self, r: int, c: int) -> None:
        rows = self.rows
        prow = rows[r]
        piv = prow[c]
        if piv < 0:  # row scale must stay positive
            for j in range(len(prow)):
                prow[j] = -prow[j]
            piv = -piv
        _row_reduce(prow)
        piv = prow[c]
        for i, row in enumerate(rows):
            if i == r or row[c] == 0:
                continue
            f = row[c]
            rows[i] = [piv * x - f * y for x, y in zip(row, prow)]
            _row_reduce(rows[i])
        self.basis[r] = c

    def run(self, z: list[int], banned: frozenset[int] = frozenset()) -> str:
        """Minimize; z is an integer-scaled reduced-cost row (updated in place)."""
        rows = self.rows
        while True:
            enter = -1
            for j in range(self.ncols):
                if j not in banned and z[j] < 0:
                    enter = j
                    break
            if enter == -1:
                return "optimal"
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a <= 0:
                    continue
                if leave == -1:
                    leave = i
                    continue
                lr = rows[leave]
                # compare row_i rhs/a against current best, exactly
                d = row[-1] * lr[enter] - lr[-1] * a
                if d < 0 or (d == 0 and self.basis[i] < self.basis[leave]):
                    leave = i
            if leave == -1:
                return "unbounded"
            self.pivot(leave, enter)
            # refresh the z row against the new pivot row
            prow = rows[leave]
            f = z[enter]
            if f != 0:
                piv = prow[enter]
                for j in range(len(z)):
                    z[j] = piv * z[j] - f * prow[j]
                _row_reduce(z)

    def value_of(self, col: int) -> Fraction:
        for r, b in enumerate(self.basis):
            if b == col:
                return Fraction(self.rows[r][-1], self.rows[r][col])
        return Fraction(0)


def _lp_min(
    c: Sequence[int],
    rows_in: Sequence[Sequence[int]],
    rhs_in: Sequence[int],
    ub: Sequence[int],
) -> tuple[str, list[Fraction] | None]:
    """Exact LP:  min c.y  s.t.  rows.y >= rhs,  0 <= y <= ub."""
    p = len(c)
    mc = len(rows_in)
    # columns: y (p) | surplus (mc) | ub slack (p) | artificials
    base_cols = p + mc + p
    rows: list[list[int]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    pending_art: list[int] = []  # row indices needing an artificial
    for i in range(mc):
        a = list(rows_in[i])
        b = rhs_in[i]
        row = [0] * base_cols + [0]
        if b <= 0:
            # negate: -a.y + s = -b >= 0, surplus column enters the basis
            for j in range(p):
                row[j] = -a[j]
            row[p + i] = 1
            row[-1] = -b
            rows.append(row)
            basis.append(p + i)
        else:
            for j in range(p):
                row[j] = a[j]
            row[p + i] = -1
            row[-1] = b
            rows.append(row)
            basis.append(-1)  # placeholder, artificial assigned below
            pending_art.append(len(rows) - 1)
    for j in range(p):
        row = [0] * base_cols + [0]
        row[j] = 1
        row[p + mc + j] = 1
        row[-1] = ub[j]
        rows.append(row)
        basis.append(p + mc + j)
    ncols = base_cols + len(pending_art)
    for row in rows:
        row[-1:-1] = [0] * len(pending_art)
    for k, ri in enumerate(pending_art):
        col = base_cols + k
        rows[ri][col] = 1
        basis[ri] = col
        art_cols.append(col)
    sx = _Simplex(rows, basis, ncols)

    if art_cols:
        # phase 1: drive sum of artificials to zero
        z = [0] * ncols
        for col in art_cols:
            z[col] = 1
        for ri in pending_art:
            row = rows[ri]
            for j in range(ncols):
                z[j] -= row[j]
        _row_reduce(z)
        status = sx.run(z)
        if status != "optimal":
            raise RuntimeError("phase-1 simplex cannot be unbounded")
        for col in art_cols:
            if sx.value_of(col) != 0:
                return "infeasible", None
        banned = frozenset(art_cols)
        for r in range(len(sx.rows)):
            if sx.basis[r] in banned:
                # degenerate artificial: pivot it out, or drop a redundant row
                row = sx.rows[r]
                done = False
                for j in range(base_cols):
                    if row[j] != 0:
                        sx.pivot(r, j)
                        done = True
                        break
                if not done:
                    sx.rows[r] = [0] * len(row)  # redundant constraint
    else:
        banned = frozenset()

    # phase 2: price the real objective against the current basis, exactly
    zf = [Fraction(c[j]) if j < p else Fraction(0) for j in range(ncols)]
    for r, b in enumerate(sx.basis):
        if b < 0 or b >= ncols or b in banned:
            continue
        cb = Fraction(c[b]) if b < p else Fraction(0)
        if cb == 0:
            continue
        prow = sx.rows[r]
        piv = prow[b]
        if piv == 0:
            continue
        for j in range(ncols):
            if prow[j]:
                zf[j] -= cb * Fraction(prow[j], piv)
    denom = math.lcm(*[f.denominator for f in zf]) if zf else 1
    z2 = [int(f * denom) for f in zf]
    status = sx.run(z2, banned)
    if status != "optimal":
        raise RuntimeError("bounded LP reported unbounded")
    y = [sx.value_of(j) for j in range(p)]
    return "optimal", y


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


def solve_ilp(
    prob: IlpProblem,
    *,
    time_limit: float | None = None,
    node_limit: int | None = None,
) -> IlpSolution:
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
    deadline = None if time_limit is None else time.monotonic() + time_limit
    best_val: int | None = None
    best_x: tuple[int, ...] | None = None
    nodes = 0
    stack = [([lo for lo, _ in prob.bounds], [hi for _, hi in prob.bounds])]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise IlpBudgetExceeded(
                f"time limit exceeded after {nodes} nodes", best_x, best_val
            )
        if node_limit is not None and nodes >= node_limit:
            raise IlpBudgetExceeded(
                f"node limit {node_limit} reached", best_x, best_val
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
    verified in its `alliance` attribute.
    """
    from .alliances import InternalVerificationError, verify_alliance

    try:
        sol = solve_ilp(encode_min_alliance_ilp(g), time_limit=time_limit)
    except IlpBudgetExceeded as exc:
        if exc.incumbent is not None:
            exc.alliance = verify_alliance(
                g, [v for v, xv in enumerate(exc.incumbent) if xv]
            )
        raise
    if sol.status == "infeasible":
        return None
    members = [v for v, xv in enumerate(sol.assignment) if xv]
    checked = verify_alliance(g, members)
    if not checked.valid:
        raise InternalVerificationError(
            f"ILP witness {members} fails alliance verification"
        )
    return checked


def dump_lp(prob: IlpProblem) -> str:
    """Human-readable LP-format text for a problem (stable field order)."""
    out = ["Minimize", " obj: " + _linear(prob.objective), "Subject To"]
    for i, (coeffs, rhs) in enumerate(prob.constraints):
        out.append(f" c{i}: {_linear(coeffs)} >= {rhs}")
    out.append("Bounds")
    for j, (lo, hi) in enumerate(prob.bounds):
        out.append(f" {lo} <= x{j} <= {hi}")
    out.append("End")
    return "\n".join(out) + "\n"


def _linear(coeffs: Sequence[int]) -> str:
    parts: list[str] = []
    for j, a in enumerate(coeffs):
        if a == 0:
            continue
        if not parts:
            prefix = "" if a > 0 else "- "
        else:
            prefix = "+ " if a > 0 else "- "
        mag = abs(a)
        parts.append(f"{prefix}{'' if mag == 1 else str(mag) + ' '}x{j}")
    if not parts:
        return "0"
    return " ".join(parts)

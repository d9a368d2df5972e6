"""Parameterized exact solvers: guess enumeration over a small modulator plus
tiny integer programs for the interchangeable remainder vertices.

Both solvers follow the same shape.  Fix how the solution meets the modulator
(and, for dtc, a threshold level; for twin cover, how many cliques are full
or partial), check the guess is internally coherent, then let an ILP choose
how many interchangeable vertices each group contributes.  Materialised
witnesses are always re-verified; a failure there is a solver bug, never a
caller error.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic

from .alliances import (
    AllianceSolution,
    BudgetExceeded,
    InternalVerificationError,
    protection_threshold,
    verify_alliance,
)
from .graphs import Graph
from .ilp import IlpProblem, solve_ilp
from .params import partition_clique_sets, partition_twin_classes


@dataclass(frozen=True)
class DtcGuess:
    picked_modulator: tuple[int, ...]
    # the threshold level L (row X >= L), or None where every class is empty
    level: int | None


@dataclass(frozen=True)
class TcGuess:
    picked_cover: tuple[int, ...]
    # (class index, clique size, full count, partial count) per used group
    counts: tuple[tuple[int, int, int, int], ...]


@dataclass
class SolveStats:
    guesses: int = 0
    ilp_solves: int = 0
    pruned: int = 0
    best_guess: object = None


def demand(g: Graph, u: int, picked: frozenset[int] | set[int]) -> int:
    """Defenders vertex u still needs beyond `picked` members (u must be picked)."""
    if u not in picked:
        raise ValueError(f"demand is defined for picked vertices only, got {u}")
    have = 1 + sum(1 for w in g.adj[u] if w in picked)
    return protection_threshold(g.degree(u)) - have


def _require_plain(g: Graph) -> None:
    if g.n == 0:
        raise ValueError("the empty graph has no alliance")
    if g.forbidden:
        raise ValueError("parameterized solvers do not support forbidden vertices")


def _over_budget(solver: str, g: Graph, best) -> BudgetExceeded:
    """The budget exit: the verified incumbent (or None), no lower bound."""
    return BudgetExceeded(
        f"time limit exceeded in the {solver} guess loop",
        alliance=None if best is None else verify_alliance(g, best[1]),
    )


def solve_dtc(g: Graph, modulator, *, time_limit: float | None = None) -> AllianceSolution:
    sol, _stats = solve_dtc_detailed(g, modulator, time_limit=time_limit)
    return sol


def solve_dtc_detailed(
    g: Graph, modulator, *, time_limit: float | None = None
) -> tuple[AllianceSolution, SolveStats]:
    """Minimum alliance when `g` minus `modulator` is a clique.

    Enumerates every subset P of the modulator and, per P, one threshold
    level; a per-guess ILP picks how many vertices each twin class C_i of
    the remainder contributes.  All members of C_i share the signature
    sig_i and one degree, hence one threshold thr_i.

    Exactness: the remainder is one clique, so a picked member of C_i is
    defended by every picked remainder vertex (itself included) and by
    sig_i cap P.  With X the number of picked remainder vertices, P plus
    the picks is an alliance iff the demand rows of P hold and
    X >= req_i = thr_i - |sig_i cap P| for every class in use, that is
    X >= L for L the largest req_i in use.  So the 2^t choices of classes
    to leave empty collapse to the levels L in the sorted distinct req_i:
    the level-L ILP lets each class with req_i <= L take 0..|C_i| vertices,
    fixes the others at 0 and adds the one row X >= L.  Every solution of
    it is an alliance, and an optimum whose largest used req_i is L is
    feasible for it.  When P is non-empty one more level fixes every class
    at 0 (P alone); when P is empty every req_i = thr_i >= 1, so X >= L
    keeps the set non-empty.  A level costs at least |P| + max(L, 0)
    vertices and levels are visited in that order, so the loop stops at the
    first level that cannot reach the best size.  That makes at most
    2^|D| * (t + 1) guesses.

    The witness is the least (size, sorted members) over all guesses, where
    each class gives its lowest-id members.  Past `time_limit` seconds
    (checked once per guess) the solver raises BudgetExceeded with the
    verified incumbent (or None) and no lower bound.
    """
    _require_plain(g)
    part = partition_twin_classes(g, modulator)
    mod = part.modulator
    classes = part.classes
    t = len(classes)
    stats = SolveStats()
    deadline = None if time_limit is None else monotonic() + time_limit
    best: tuple[int, tuple[int, ...]] | None = None
    best_guess: DtcGuess | None = None
    # all members of a class share one degree, hence one threshold
    thr = [protection_threshold(g.degree(tc.members[0])) for tc in classes]
    ones = tuple([1] * t)
    for pmask in range(1 << len(mod)):
        picked = [mod[i] for i in range(len(mod)) if pmask >> i & 1]
        pset = frozenset(picked)
        demand_rows = [
            (tuple(1 if u in tc.signature else 0 for tc in classes), demand(g, u, pset))
            for u in picked
        ]
        req = [
            thr[i] - sum(1 for w in tc.signature if w in pset)
            for i, tc in enumerate(classes)
        ]
        levels: list[int | None] = sorted(set(req))
        if picked:
            levels.insert(0, None)  # every class empty: P alone
        for idx, level in enumerate(levels):
            floor = 0 if level is None else max(level, 0)
            if best is not None and len(picked) + floor > best[0]:
                stats.pruned += len(levels) - idx
                break
            if deadline is not None and monotonic() > deadline:
                raise _over_budget("dtc", g, best)
            stats.guesses += 1
            if level is None:
                bounds = ((0, 0),) * t
                cons = demand_rows
            else:
                bounds = tuple(
                    (0, len(tc.members)) if req[i] <= level else (0, 0)
                    for i, tc in enumerate(classes)
                )
                cons = demand_rows + [(ones, level)]
            prob = IlpProblem(
                objective=ones, constraints=tuple(cons), bounds=bounds
            )
            stats.ilp_solves += 1
            sol = solve_ilp(prob)
            if sol.status != "optimal":
                continue
            size = len(picked) + sol.objective_value
            if best is not None and size > best[0]:
                continue
            members = list(picked)
            for tc, cnt in zip(classes, sol.assignment):
                members.extend(tc.members[:cnt])
            cand = (size, tuple(sorted(members)))
            if best is None or cand < best:
                checked = verify_alliance(g, cand[1])
                if not checked.valid:
                    raise InternalVerificationError(
                        f"dtc guess produced invalid witness {cand[1]}: "
                        f"{checked.violations}"
                    )
                best = cand
                best_guess = DtcGuess(picked_modulator=tuple(picked), level=level)
    if best is None:
        raise InternalVerificationError("no feasible guess on a non-empty graph")
    stats.best_guess = best_guess
    return verify_alliance(g, best[1]), stats


def solve_twincover(
    g: Graph, cover, *, time_limit: float | None = None
) -> AllianceSolution:
    sol, _stats = solve_twincover_detailed(g, cover, time_limit=time_limit)
    return sol


def solve_twincover_detailed(
    g: Graph, cover, *, time_limit: float | None = None
) -> tuple[AllianceSolution, SolveStats]:
    """Minimum alliance given a twin cover of `g`.

    Case 1: if some clique has at least as many vertices as its set's cover
    signature, the smallest such clique alone carries an alliance of
    ceil((|C|+t_i)/2) vertices, and any optimum touching so big a clique is
    at least that large.  Case 2 therefore forces every such clique empty and
    enumerates, per (clique set, size): how many cliques are fully picked and
    how many partially, with an ILP choosing the partial amounts.  The answer
    is the better of the two cases.  Past `time_limit` seconds (checked once
    per case-2 guess) the solver raises BudgetExceeded with the verified
    incumbent (or None) and no lower bound.
    """
    _require_plain(g)
    part = partition_clique_sets(g, cover)
    cov = part.modulator
    stats = SolveStats()
    deadline = None if time_limit is None else monotonic() + time_limit
    best: tuple[int, tuple[int, ...]] | None = None
    best_guess: TcGuess | None = None

    def offer(cand: tuple[int, tuple[int, ...]], guess: TcGuess) -> None:
        nonlocal best, best_guess
        if best is None or cand < best:
            checked = verify_alliance(g, cand[1])
            if not checked.valid:
                raise InternalVerificationError(
                    f"twin-cover witness {cand[1]} invalid: {checked.violations}"
                )
            best = cand
            best_guess = guess

    # --- case 1: one sufficiently large clique on its own
    for tc in part.classes:
        t_i = len(tc.signature)
        for cl in tc.cliques:  # sorted by (size, lex); first hit is smallest
            if len(cl) >= t_i:
                need = protection_threshold(len(cl) - 1 + t_i)
                offer((need, tuple(sorted(cl[:need]))), TcGuess((), ()))
                break

    # --- case 2: cliques of size >= t_i stay empty
    groups: list[tuple[int, int, tuple[tuple[int, ...], ...]]] = []
    for tc in part.classes:
        t_i = len(tc.signature)
        for size, cliques in tc.cliques_by_size().items():
            if size < t_i:
                groups.append((tc.index, size, cliques))
    groups.sort(key=lambda grp: (grp[0], grp[1]))
    sig_of = {tc.index: tc.signature for tc in part.classes}
    t_of = {tc.index: len(tc.signature) for tc in part.classes}

    def finish(picked: list[int], pset: frozenset[int],
               demands: list[tuple[int, int]], sig_in_p: dict[int, int],
               chosen: list[tuple[int, int, int, int]]) -> None:
        variables: list[tuple[int, int, int]] = []  # (class, size, slot)
        vbounds: list[tuple[int, int]] = []
        for ci, size, _f, y in chosen:
            thr = protection_threshold(size - 1 + t_of[ci])
            lo = max(1, thr - sig_in_p[ci])
            if y and lo > size - 1:
                return  # partials cannot be protected under this guess
            for slot in range(y):
                variables.append((ci, size, slot))
                vbounds.append((lo, size - 1))
        cons: list[tuple[tuple[int, ...], int]] = []
        for u, du in demands:
            rhs = du
            coeffs = [0] * len(variables)
            for ci, size, f, _y in chosen:
                if u in sig_of[ci]:
                    rhs -= size * f
            for j, (ci, _size, _slot) in enumerate(variables):
                if u in sig_of[ci]:
                    coeffs[j] = 1
            cons.append((tuple(coeffs), rhs))
        prob = IlpProblem(
            objective=tuple([1] * len(variables)),
            constraints=tuple(cons),
            bounds=tuple(vbounds),
        )
        stats.ilp_solves += 1
        sol = solve_ilp(prob)
        if sol.status != "optimal":
            return
        total = (
            len(picked)
            + sum(sz * f for _ci, sz, f, _y in chosen)
            + sum(sol.assignment)
        )
        members = list(picked)
        offset = 0
        for ci, sz, f, y in chosen:
            cliques = cliques_of[(ci, sz)]
            for cl in cliques[:f]:
                members.extend(cl)
            for slot in range(y):
                members.extend(cliques[f + slot][: sol.assignment[offset + slot]])
            offset += y
        offer(
            (total, tuple(sorted(members))),
            TcGuess(picked_cover=tuple(picked), counts=tuple(chosen)),
        )

    cliques_of = {(ci, size): cls for ci, size, cls in groups}

    for pmask in range(1 << len(cov)):
        picked = [cov[i] for i in range(len(cov)) if pmask >> i & 1]
        pset = frozenset(picked)
        demands = [(u, demand(g, u, pset)) for u in picked]
        sig_in_p = {i: sum(1 for w in sig_of[i] if w in pset) for i in sig_of}

        def walk(idx: int, chosen: list[tuple[int, int, int, int]], base: int):
            if best is not None and base > best[0]:
                stats.pruned += 1
                return
            if idx == len(groups):
                if not picked and not chosen:
                    return  # the empty set is not an alliance
                if deadline is not None and monotonic() > deadline:
                    raise _over_budget("twin-cover", g, best)
                stats.guesses += 1
                finish(picked, pset, demands, sig_in_p, chosen)
                return
            ci, size, cliques = groups[idx]
            m = len(cliques)
            thr_full = protection_threshold(size - 1 + t_of[ci])
            full_ok = sig_in_p[ci] + size >= thr_full
            for y in range(min(size - 1, m) + 1):
                for f in range(m - y + 1):
                    if f and not full_ok:
                        continue  # fully picked cliques would go unprotected
                    nxt = chosen + [(ci, size, f, y)] if (f or y) else chosen
                    walk(idx + 1, nxt, base + size * f + y)

        walk(0, [], len(picked))

    if best is None:
        raise InternalVerificationError("no feasible guess on a non-empty graph")
    stats.best_guess = best_guess
    return verify_alliance(g, best[1]), stats


def normalize_partial_cliques(g: Graph, partition, members) -> frozenset[int]:
    """Rebalance an alliance so each (clique set, size-l) group keeps at most
    l-1 partially picked cliques.

    Repeatedly empties the least-filled partial clique by moving one vertex
    into each of the most-filled other partials (lex-smallest choices on
    ties).  Receivers are at least as full as the donor, so every moved-to
    clique clears the donor's protection threshold; totals per clique set are
    unchanged, so cover members keep their defenders.  Size and validity are
    preserved, and the result is a fixed point of the procedure.
    """
    if partition.mode != "cliques-remainder":
        raise ValueError("normalisation needs a cliques-remainder partition")
    start = verify_alliance(g, members)
    if not start.valid:
        raise ValueError("normalisation expects a valid alliance")
    result = set(start.members)
    for tc in partition.classes:
        for size, cliques in tc.cliques_by_size().items():
            while True:
                fills = [(len(result & set(cl)), cl) for cl in cliques]
                partials = sorted(
                    (cnt, cl) for cnt, cl in fills if 0 < cnt < size
                )
                if len(partials) < 2:
                    break
                cnt, donor = partials[0]
                receivers = sorted(
                    partials[1:], key=lambda pair: (-pair[0], pair[1])
                )
                if cnt > len(receivers):
                    break  # cannot place one vertex per other partial clique
                for v in donor:
                    result.discard(v)
                for _rcnt, rcl in receivers[:cnt]:
                    free = [v for v in rcl if v not in result]
                    result.add(free[0])
    final = verify_alliance(g, result)
    if not final.valid or final.size != start.size:
        raise InternalVerificationError(
            "normalisation broke validity or changed the size"
        )
    return frozenset(final.members)

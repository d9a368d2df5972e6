"""Parameterized exact solvers: guess enumeration over a small modulator plus
tiny integer programs for the interchangeable remainder vertices.

Both solvers follow the same shape.  Fix how the solution meets the modulator
(and, for dtc, a threshold level), then let an ILP choose how many
interchangeable vertices each group contributes (for twin cover, also over
how many of its cliques they spread).  Each solver verifies its answer, and
a budget exit's incumbent, once; a failure there is a solver bug, never a
caller error.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic

from .alliances import (
    AllianceSolution,
    BudgetExceeded,
    InternalVerificationError,
    checked_alliance,
    protection_threshold,
    verify_alliance,
)
from .graphs import Graph
from .ilp import IlpProblem, solve_ilp
from .params import partition_clique_sets, partition_twin_classes


@dataclass
class SolveStats:
    guesses: int = 0
    ilp_solves: int = 0
    pruned: int = 0


def demand(g: Graph, u: int, picked: frozenset[int] | set[int]) -> int:
    """Defenders vertex u still needs beyond `picked` members (u must be picked).

    The definition; the guess loops compute it from bitmasks (`_priced_picks`).
    """
    if u not in picked:
        raise ValueError(f"demand is defined for picked vertices only, got {u}")
    have = 1 + sum(1 for w in g.adj[u] if w in picked)
    return protection_threshold(g.degree(u)) - have


def _mask(mod: tuple[int, ...], vertices) -> int:
    """The pick bits of the modulator vertices among `vertices`: bit i
    stands for mod[i]."""
    return sum(1 << i for i, v in enumerate(mod) if v in vertices)


def _priced_picks(g: Graph, mod: tuple[int, ...]):
    """Every pick P of the modulator `mod`, pmask 0 to 2^|mod| - 1, as
    (pmask, bits, demands): `bits` lists the set bits of pmask (bit i stands
    for mod[i]) and `demands` the demand(g, mod[i], P) of each, in order.

    A picked u has itself and its picked neighbours as defenders, so its
    demand is its threshold - 1 - |N(u) cap P|.  The threshold and the mask
    of N(u) cap mod are built once per solve, the mask from u's adjacency
    list, which makes a demand one popcount instead of a walk of N(u) per
    pick.
    """
    spare = [protection_threshold(g.degree(u)) - 1 for u in mod]
    nbrs = [_mask(mod, g.adj[u]) for u in mod]
    k = len(mod)
    for pmask in range(1 << k):
        bits = [i for i in range(k) if pmask >> i & 1]
        yield pmask, bits, [spare[i] - (nbrs[i] & pmask).bit_count() for i in bits]


def _require_plain(g: Graph) -> None:
    if g.n == 0:
        raise ValueError("the empty graph has no alliance")
    if g.forbidden:
        raise ValueError("parameterized solvers do not support forbidden vertices")


def _answer(solver: str, g: Graph, best) -> AllianceSolution:
    if best is None:
        raise InternalVerificationError("no feasible guess on a non-empty graph")
    return checked_alliance(g, best[1], f"{solver} witness")


def _over_budget(solver: str, g: Graph, best) -> BudgetExceeded:
    """The budget exit: the verified incumbent (or None), no lower bound."""
    return BudgetExceeded(
        f"time limit exceeded in the {solver} guess loop",
        alliance=None if best is None else checked_alliance(g, best[1], f"{solver} witness"),
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
    # all members of a class share one degree, hence one threshold
    thr = [protection_threshold(g.degree(tc.members[0])) for tc in classes]
    sigs = [_mask(mod, tc.signature) for tc in classes]
    # the coefficients of mod[i]'s demand row: the classes it defends
    coefs = [tuple(sig >> i & 1 for sig in sigs) for i in range(len(mod))]
    ones = tuple([1] * t)
    for pmask, bits, demands in _priced_picks(g, mod):
        req = [thr_i - (sig & pmask).bit_count() for thr_i, sig in zip(thr, sigs)]
        levels: list[int | None] = sorted(set(req))
        if bits:
            levels.insert(0, None)  # every class empty: P alone
        for idx, level in enumerate(levels):
            floor = 0 if level is None else max(level, 0)
            if best is not None and len(bits) + floor > best[0]:
                stats.pruned += len(levels) - idx
                break
            if deadline is not None and monotonic() > deadline:
                raise _over_budget("dtc", g, best)
            stats.guesses += 1
            if idx == 0:  # the pick's first guess: no level of it was pruned
                demand_rows = [(coefs[i], d) for i, d in zip(bits, demands)]
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
            members = [mod[i] for i in bits]
            for tc, cnt in zip(classes, sol.assignment):
                members.extend(tc.members[:cnt])
            cand = (len(members), tuple(sorted(members)))
            if best is None or cand < best:
                best = cand
    return _answer("dtc", g, best), stats


def solve_twincover(
    g: Graph, cover, *, time_limit: float | None = None
) -> AllianceSolution:
    sol, _stats = solve_twincover_detailed(g, cover, time_limit=time_limit)
    return sol


def solve_twincover_detailed(
    g: Graph, cover, *, time_limit: float | None = None
) -> tuple[AllianceSolution, SolveStats]:
    """Minimum alliance given a twin cover C of `g`.

    Outside C, `g` is a disjoint union of cliques; the cliques of clique set
    i all see the cover signature sig_i, t_i = |sig_i|.  With P = S cap C, a
    picked vertex of a clique K of size s in set i is defended by S cap K
    and by sig_i cap P, and needs thr = ceil((s + t_i) / 2) defenders.

    Case 1: a clique with s >= t_i alone carries an alliance of thr
    vertices, and any alliance touching it has at least thr, so the smallest
    such clique per set is a candidate.  Case 2 keeps those cliques empty.

    Case 2 solves one ILP per subset P of C.  A clique K then holds 0
    vertices or between lo = max(1, thr - |sig_i cap P|) and s, and a cover
    vertex u in P only sees how many vertices the sets with u in their
    signature hold.  So each live (set, size) group (lo <= s) of m cliques
    gets j in [0, m] cliques used and T in [0, m*s] vertices taken, with
    lo*j <= T <= s*j; the ILP minimises the sum of T subject to, per u in
    P, the T of the groups whose signature holds u summing to at least
    demand(u, P), and to the sum of T being at least 1 when P is empty.  A
    case-2 alliance meeting C in P gives a feasible (j, T) of its size, and
    a feasible (j, T) is realised by the group's first j cliques in (size,
    lex) order, each taking its first lo vertices and the surplus filling
    the earliest up to s.  Only the remainder can supply u's demand, so P
    costs at least |P| plus its largest demand: picks above the best size
    are skipped, ties are solved.  At most 2^|C| guesses, each an ILP of at
    most 2 * 2^|C| * |C| variables (only sizes below t_i <= |C| form groups).

    The witness is the least (size, sorted members) over case 1 and one ILP
    optimum per P.  Past `time_limit` seconds (checked once per pick) the
    solver raises BudgetExceeded with the verified incumbent (or None) and
    no lower bound.
    """
    _require_plain(g)
    part = partition_clique_sets(g, cover)
    cov = part.modulator
    stats = SolveStats()
    deadline = None if time_limit is None else monotonic() + time_limit
    best: tuple[int, tuple[int, ...]] | None = None

    # --- case 1: one sufficiently large clique on its own
    for tc in part.classes:
        t_i = len(tc.signature)
        for cl in tc.cliques:  # sorted by (size, lex); first hit is smallest
            if len(cl) >= t_i:
                need = protection_threshold(len(cl) - 1 + t_i)
                cand = (need, tuple(sorted(cl[:need])))
                if best is None or cand < best:
                    best = cand
                break

    # --- case 2: cliques of size >= t_i stay empty; one ILP per pick P
    groups = [  # (signature mask, size, cliques, thr)
        (_mask(cov, tc.signature), size, cliques,
         protection_threshold(size - 1 + len(tc.signature)))
        for tc in part.classes
        for size, cliques in tc.cliques_by_size().items()
        if size < len(tc.signature)
    ]
    for pmask, bits, demands in _priced_picks(g, cov):
        if deadline is not None and monotonic() > deadline:
            raise _over_budget("twin-cover", g, best)
        if best is not None and len(bits) + max(demands + [0]) > best[0]:
            stats.pruned += 1
            continue
        live = [  # (signature mask, size, cliques, lo) of the groups that can be used
            (sig, size, cliques, lo)
            for sig, size, cliques, thr in groups
            if (lo := max(1, thr - (sig & pmask).bit_count())) <= size
        ]
        # variables 2k and 2k+1: the cliques used and the vertices taken in group k
        taken = (0, 1) * len(live)  # the objective
        cons = []
        for k, (_sig, size, _cliques, lo) in enumerate(live):
            for link in ((-lo, 1), (size, -1)):  # lo*j <= T <= size*j
                cons.append(((0, 0) * k + link + (0, 0) * (len(live) - k - 1), 0))
        for i, du in zip(bits, demands):
            cons.append((tuple(c * (grp[0] >> i & 1) for grp in live for c in (0, 1)), du))
        if not bits:
            cons.append((taken, 1))
        bounds = tuple(
            b for _sig, size, cl, _lo in live for b in ((0, len(cl)), (0, len(cl) * size))
        )
        stats.guesses += 1
        stats.ilp_solves += 1
        sol = solve_ilp(IlpProblem(objective=taken, constraints=tuple(cons), bounds=bounds))
        if sol.status != "optimal":
            continue
        members = [cov[i] for i in bits]
        for k, (_sig, size, cliques, lo) in enumerate(live):
            used, total = sol.assignment[2 * k], sol.assignment[2 * k + 1]
            surplus = total - lo * used
            for cl in cliques[:used]:
                extra = min(size - lo, surplus)
                members.extend(cl[: lo + extra])
                surplus -= extra
        cand = (len(members), tuple(sorted(members)))
        if best is None or cand < best:
            best = cand
    return _answer("twin-cover", g, best), stats


def normalize_partial_cliques(g: Graph, partition, members) -> frozenset[int]:
    """Rebalance an alliance so each (clique set, size-l) group keeps at most
    l-1 partially picked cliques.

    Repeatedly empties the least-filled partial clique by moving one vertex
    into each of the most-filled other partials (lex-smallest choices on
    ties).  Receivers are at least as full as the donor, so every moved-to
    clique clears the donor's protection threshold; totals per clique set are
    unchanged, so cover members keep their defenders.  Size and validity are
    preserved, and the result is a fixed point of the procedure.  This is
    the paper's lemma; `solve_twincover_detailed` does not rely on it.
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

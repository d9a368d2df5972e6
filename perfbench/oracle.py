"""Independent checks of a solve's answer, run after the timed phase.

The graph is read back from the DIMACS file with this module's own parser.
A witness must pass this module's own protection check, and its size must
equal an optimum from `scipy.optimize.milp` (HiGHS) over a 0-1 program built
here.  For n <= 24 the package's exhaustive search is a second oracle, run
only when `auto` did not route the instance to that same search.  For
reduction targets the witness must also project back to a dominating set of
the source graph within the budget k.
"""

from __future__ import annotations

from pathlib import Path

BRUTE_MAX_N = 24


class OracleError(RuntimeError):
    """The oracle itself could not reach a verdict."""


def read_graph(path: Path) -> tuple[int, list[set[int]], set[int]]:
    """(n, adjacency sets, forbidden set), 0-indexed, from DIMACS text."""
    n = -1
    adj: list[set[int]] = []
    forbidden: set[int] = set()
    for line in path.read_text().splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            n = int(fields[2])
            adj = [set() for _ in range(n)]
        elif fields[0] == "e":
            u, v = int(fields[1]) - 1, int(fields[2]) - 1
            adj[u].add(v)
            adj[v].add(u)
        elif fields[0] == "f":
            forbidden.add(int(fields[1]) - 1)
    if n < 0:
        raise OracleError(f"{path}: no problem line")
    return n, adj, forbidden


def protection_violation(graph, witness) -> str | None:
    """Why `witness` (1-indexed vertex list) is not a defensive alliance, or None."""
    n, adj, forbidden = graph
    if not isinstance(witness, list) or not witness:
        return "empty or missing witness"
    if any(not isinstance(v, int) or not 1 <= v <= n for v in witness):
        return "vertex out of range"
    members = {v - 1 for v in witness}
    if len(members) != len(witness):
        return "repeated vertex"
    if members & forbidden:
        return "forbidden vertex in witness"
    for v in members:
        inside = len(adj[v] & members)
        # v and its neighbours inside must be at least its neighbours outside
        if 1 + inside < len(adj[v]) - inside:
            return f"vertex {v + 1} is unprotected"
    return None


def milp_optimum(graph) -> int:
    """Minimum alliance size from HiGHS over the 0-1 program
    sum_{u in N(v)} x_u >= ceil((d(v) - 1) / 2) * x_v,  sum x >= 1.

    Twins (equal open or equal closed neighbourhoods, equal forbidden status)
    are interchangeable, so x_u >= x_v for consecutive twins u < v keeps the
    optimum and spares HiGHS the symmetric branches of dense graphs.  A
    vertex cannot have both an open and a closed twin, so the chains are
    disjoint and hold together.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_array

    n, adj, forbidden = graph
    twins: dict[tuple, list[int]] = {}
    for v in range(n):
        twins.setdefault(("open", frozenset(adj[v]), v in forbidden), []).append(v)
        twins.setdefault(("closed", frozenset(adj[v] | {v}), v in forbidden), []).append(v)
    pairs = [(u, v) for chain in twins.values() for u, v in zip(chain, chain[1:])]
    rows = lil_array((n + 1 + len(pairs), n))
    for v in range(n):
        for u in adj[v]:
            rows[v, u] = 1
        rows[v, v] = -(len(adj[v]) // 2)
        rows[n, v] = 1
    for r, (u, v) in enumerate(pairs, start=n + 1):
        rows[r, u] = 1
        rows[r, v] = -1
    lower = np.zeros(n + 1 + len(pairs))
    lower[n] = 1
    upper = np.array([0 if v in forbidden else 1 for v in range(n)])
    res = milp(
        np.ones(n),
        constraints=LinearConstraint(rows.tocsr(), lower, np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, upper),
        options={"time_limit": 60},
    )
    if res.status != 0:
        raise OracleError(f"HiGHS did not prove an optimum: {res.message}")
    return int(round(res.fun))


def brute_optimum(path: Path) -> int | None:
    from minalliance.alliances import brute_force_min_alliance
    from minalliance.dimacs import parse_dimacs

    sol = brute_force_min_alliance(parse_dimacs(path.read_text()))
    return None if sol is None else sol.size


def reduction_violation(inst, witness) -> str | None:
    """Why the witness does not project to a dominating set of size <= k."""
    from minalliance.reduction import extract_dominating_set

    try:
        ds = extract_dominating_set(inst, [v - 1 for v in witness])
    except (ValueError, RuntimeError) as exc:
        return f"extract_dominating_set failed: {exc}"
    src = inst.source
    if len(ds) > inst.k:
        return f"extracted {len(ds)} > k={inst.k} vertices"
    undominated = [v for v in range(src.n) if v not in ds and not set(src.adj[v]) & ds]
    if undominated:
        return f"extracted set leaves vertex {undominated[0] + 1} undominated"
    return None

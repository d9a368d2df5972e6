"""Seeded graph generators for test corpora.

Each generator takes a spec (either a GeneratorSpec or a compact string such
as "cubic:n=8" or "twincover:n=12,t=3,zmax=4") plus a seed, and is fully
deterministic for a given (spec, seed) pair.

Every graph is built from per-vertex neighbour sets, each edge added at both
ends at once, and frozen by `graphs._from_neighbour_sets`.  The order and the
arguments of the `random.Random` calls are part of the output's contract:
the same (spec, seed) gives the same graph from one release to the next, so
a seeded corpus keeps its bytes, and a change that reorders a draw changes
every graph after it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import Graph, _from_neighbour_sets, is_connected

_RETRIES = 500


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: tuple[tuple[str, int], ...]

    def get(self, key: str, default: int | None = None) -> int:
        for k, v in self.params:
            if k == key:
                return v
        if default is None:
            raise GeneratorError(f"generator '{self.kind}' needs parameter '{key}'")
        return default


def parse_generator_spec(text: str) -> GeneratorSpec:
    """Parse "kind:key=value,key=value" into a GeneratorSpec."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if not kind:
        raise GeneratorError(f"empty generator kind in {text!r}")
    params = []
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise GeneratorError(f"bad parameter {item!r} in {text!r}")
            try:
                params.append((key.strip(), int(val)))
            except ValueError:
                raise GeneratorError(f"non-integer value in {item!r}") from None
    return GeneratorSpec(kind=kind, params=tuple(params))


def generate(spec: GeneratorSpec | str, seed: int) -> Graph:
    """The graph of `spec` and `seed`; a GeneratorError names an unknown
    kind, and a key the kind does not take or that is given twice."""
    if isinstance(spec, str):
        spec = parse_generator_spec(spec)
    if spec.kind not in _GENERATORS:
        raise GeneratorError(f"unknown generator kind {spec.kind!r}")
    build, keys = _GENERATORS[spec.kind]
    names = [key for key, _ in spec.params]
    for key in names:
        if key not in keys:
            raise GeneratorError(
                f"generator '{spec.kind}' has no parameter {key!r} (it takes {', '.join(keys)})"
            )
        if names.count(key) > 1:
            raise GeneratorError(f"generator '{spec.kind}' got parameter {key!r} twice")
    return build(spec, random.Random(seed))


def _join(neigh: list[set[int]], a: int, bs: list[int]) -> None:
    """Join a to every vertex of bs, both ends of each edge at once."""
    neigh[a].update(bs)
    for b in bs:
        neigh[b].add(a)


def _degree_capped(spec: GeneratorSpec, rng: random.Random) -> Graph:
    """Random connected graph with max degree at most dmax."""
    n = spec.get("n")
    dmax = spec.get("dmax")
    if n < 1:
        raise GeneratorError(f"need n >= 1, got {n}")
    if n > 1 and dmax < 1:
        raise GeneratorError("dmax < 1 cannot connect anything")
    neigh: list[set[int]] = [set() for _ in range(n)]
    for v in range(1, n):
        spots = [u for u in range(v) if len(neigh[u]) < dmax]
        if not spots or len(neigh[v]) >= dmax:
            raise GeneratorError(f"degree cap {dmax} cannot host a spanning tree")
        u = rng.choice(spots)
        neigh[u].add(v)
        neigh[v].add(u)
    room = n * dmax // 2 - (n - 1)
    extra = rng.randint(0, max(0, room)) if room > 0 else 0
    attempts = 0
    while extra > 0 and attempts < 20 * n:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or v in neigh[u] or len(neigh[u]) >= dmax or len(neigh[v]) >= dmax:
            continue
        neigh[u].add(v)
        neigh[v].add(u)
        extra -= 1
    return _from_neighbour_sets(neigh)


def _cubic(spec: GeneratorSpec, rng: random.Random) -> Graph:
    """Random connected 3-regular graph by the pairing model."""
    n = spec.get("n")
    if n < 4 or n % 2:
        raise GeneratorError(f"3-regular graphs need even n >= 4, got {n}")
    points = [v for v in range(n) for _ in range(3)]
    for _ in range(_RETRIES):
        stubs = points.copy()
        rng.shuffle(stubs)
        neigh: list[set[int]] = [set() for _ in range(n)]
        for u, v in zip(stubs[::2], stubs[1::2]):
            if u == v or v in neigh[u]:
                break
            neigh[u].add(v)
            neigh[v].add(u)
        else:
            g = _from_neighbour_sets(neigh)
            if is_connected(g):
                return g
    raise GeneratorError(f"no connected cubic pairing found for n={n}")


def _clique_plus(spec: GeneratorSpec, rng: random.Random) -> Graph:
    """A planted clique with k outside vertices attached to it."""
    n = spec.get("n")
    k = spec.get("k")
    q = n - k
    if k < 0 or q < 1:
        raise GeneratorError(f"need 0 <= k <= n-1, got n={n}, k={k}")
    labels = list(range(n))
    rng.shuffle(labels)
    clique, outside = labels[:q], labels[q:]
    neigh: list[set[int]] = [set() for _ in range(n)]
    for a in clique:
        neigh[a].update(clique)
        neigh[a].discard(a)
    for o in outside:
        _join(neigh, o, rng.sample(clique, rng.randint(1, q)))
    for i, o in enumerate(outside):
        for o2 in outside[i + 1 :]:
            if rng.random() < 0.25:
                neigh[o].add(o2)
                neigh[o2].add(o)
    return _from_neighbour_sets(neigh)


def _twin_cover_structured(spec: GeneratorSpec, rng: random.Random) -> Graph:
    """Connected graph with a planted twin cover of t vertices; outside the
    cover, cliques of size <= zmax, all members sharing one cover signature."""
    n = spec.get("n")
    t = spec.get("t")
    zmax = spec.get("zmax", 4)
    if not (1 <= t <= n):
        raise GeneratorError(f"need 1 <= t <= n, got t={t}, n={n}")
    if zmax < 1:
        raise GeneratorError(f"need zmax >= 1, got {zmax}")
    for _ in range(_RETRIES):
        labels = list(range(n))
        rng.shuffle(labels)
        cover, rest = labels[:t], labels[t:]
        neigh: list[set[int]] = [set() for _ in range(n)]
        for i, a in enumerate(cover):
            for b in cover[i + 1 :]:
                if rng.random() < 0.5:
                    neigh[a].add(b)
                    neigh[b].add(a)
        idx = 0
        while idx < len(rest):
            size = rng.randint(1, min(zmax, len(rest) - idx))
            cl = rest[idx : idx + size]
            idx += size
            # the clique and its cover picks share one update per member
            picks = rng.sample(cover, rng.randint(1, t))
            for a in cl:
                neigh[a].update(cl, picks)
                neigh[a].discard(a)
            for c in picks:
                neigh[c].update(cl)
        g = _from_neighbour_sets(neigh)
        if is_connected(g):
            return g
    raise GeneratorError(f"no connected twin-cover instance for n={n}, t={t}")


def _gnp(spec: GeneratorSpec, rng: random.Random) -> Graph:
    """Erdős–Rényi G(n, p) with p = pct / 100: each pair u < v, u ascending
    and then v ascending, is an edge when its draw falls below p.  The graph
    need not be connected."""
    n = spec.get("n")
    pct = spec.get("pct")
    if n < 1:
        raise GeneratorError(f"need n >= 1, got {n}")
    if not (0 <= pct <= 100):
        raise GeneratorError(f"need 0 <= pct <= 100, got {pct}")
    p = pct / 100
    draw = rng.random
    neigh: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        _join(neigh, u, [v for v in range(u + 1, n) if draw() < p])
    return _from_neighbour_sets(neigh)


# each kind's builder and the parameters it reads
_GENERATORS = {
    "degcap": (_degree_capped, ("n", "dmax")),
    "cubic": (_cubic, ("n",)),
    "cliqueplus": (_clique_plus, ("n", "k")),
    "twincover": (_twin_cover_structured, ("n", "t", "zmax")),
    "gnp": (_gnp, ("n", "pct")),
}

"""Seeded graph generators for test corpora.

Each generator takes a spec (either a GeneratorSpec or a compact string such
as "cubic:n=8" or "twincover:n=12,t=3,zmax=4") plus a seed, and is fully
deterministic for a given (spec, seed) pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import Graph, build_graph, is_connected

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


def _degree_capped(spec: GeneratorSpec, rng: random.Random) -> Graph:
    """Random connected graph with max degree at most dmax."""
    n = spec.get("n")
    dmax = spec.get("dmax")
    if n < 1:
        raise GeneratorError(f"need n >= 1, got {n}")
    if n > 1 and dmax < 1:
        raise GeneratorError("dmax < 1 cannot connect anything")
    deg = [0] * n
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        spots = [u for u in range(v) if deg[u] < dmax]
        if not spots or deg[v] >= dmax:
            raise GeneratorError(f"degree cap {dmax} cannot host a spanning tree")
        u = rng.choice(spots)
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    room = n * dmax // 2 - (n - 1)
    extra = rng.randint(0, max(0, room)) if room > 0 else 0
    attempts = 0
    while extra > 0 and attempts < 20 * n:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in edges or deg[u] >= dmax or deg[v] >= dmax:
            continue
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
        extra -= 1
    return build_graph(n, sorted(edges))


def _cubic(spec: GeneratorSpec, rng: random.Random) -> Graph:
    """Random connected 3-regular graph by the pairing model."""
    n = spec.get("n")
    if n < 4 or n % 2:
        raise GeneratorError(f"3-regular graphs need even n >= 4, got {n}")
    for _ in range(_RETRIES):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (min(u, v), max(u, v))
            if e in edges:
                ok = False
                break
            edges.add(e)
        if not ok:
            continue
        g = build_graph(n, sorted(edges))
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
    edges = {
        (min(a, b), max(a, b))
        for i, a in enumerate(clique)
        for b in clique[i + 1 :]
    }
    for o in outside:
        for a in rng.sample(clique, rng.randint(1, q)):
            edges.add((min(o, a), max(o, a)))
    for i, o in enumerate(outside):
        for o2 in outside[i + 1 :]:
            if rng.random() < 0.25:
                edges.add((min(o, o2), max(o, o2)))
    return build_graph(n, sorted(edges))


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
        edges: set[tuple[int, int]] = set()
        for i, a in enumerate(cover):
            for b in cover[i + 1 :]:
                if rng.random() < 0.5:
                    edges.add((min(a, b), max(a, b)))
        idx = 0
        while idx < len(rest):
            size = rng.randint(1, min(zmax, len(rest) - idx))
            cl = rest[idx : idx + size]
            idx += size
            for i, a in enumerate(cl):
                for b in cl[i + 1 :]:
                    edges.add((min(a, b), max(a, b)))
            for c in rng.sample(cover, rng.randint(1, t)):
                for a in cl:
                    edges.add((min(a, c), max(a, c)))
        g = build_graph(n, sorted(edges))
        if is_connected(g):
            return g
    raise GeneratorError(f"no connected twin-cover instance for n={n}, t={t}")


# each kind's builder and the parameters it reads
_GENERATORS = {
    "degcap": (_degree_capped, ("n", "dmax")),
    "cubic": (_cubic, ("n",)),
    "cliqueplus": (_clique_plus, ("n", "k")),
    "twincover": (_twin_cover_structured, ("n", "t", "zmax")),
}

"""Seeded corpora for the benchmark workloads.

Each workload is a *block*: a fixed list of instance recipes.  The corpus
repeats the block a fixed number of times (about 1.5 times the blocks one run
needs today; a faster program wraps around), drawing every generator seed
from the run seed, so the same seed always gives byte-identical DIMACS files
and every seed gives the same mix of families and sizes.  The timed phase measures whole
blocks.  Where a family with steady solve times exists, a block holds
several copies of it at the rank where the median or the 90th percentile
falls, so that quantile moves with the program and not with the draw of
graphs.

A workload may also have a *prelude*: instances solved once at the start of
every run, before the first block.

Timings in the comments below were measured with Python 3.11 on a shared
virtual machine with two 2.1 GHz vCPUs.

Recipes:
  ("gen", spec)            a `minalliance.generators` graph
  ("union", spec, spec)    the disjoint union of two generator graphs
  ("reduction", spec)      the dominating-set reduction target of a cubic
                           graph at k = its domination number
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from pathlib import Path

from minalliance.dimacs import emit_dimacs
from minalliance.generators import generate
from minalliance.graphs import Graph, build_graph
from minalliance.reduction import ReductionInstance, build_reduction, minimum_dominating_set

# Max degree <= 5 and connected, so `auto` routes every instance to `lowdeg`.  n stays
# at or below 56 so that one run holds at least 100 solves (cubic:n=120 alone
# takes about 3.5 s).  The cubic:n=38 graphs hold the median and the
# cubic:n=56 graphs, a fifth of the block, the 90th percentile.
SPARSE_LOWDEG = (
    ("gen", "cubic:n=30"),
    ("gen", "cubic:n=38"),
    ("gen", "degcap:n=30,dmax=3"),
    ("gen", "cubic:n=38"),
    ("gen", "degcap:n=32,dmax=5"),
    ("gen", "cubic:n=56"),
    ("gen", "cubic:n=38"),
    ("gen", "degcap:n=36,dmax=4"),
    ("gen", "cubic:n=38"),
    ("gen", "degcap:n=40,dmax=5"),
    ("gen", "cubic:n=48"),
    ("gen", "cubic:n=38"),
    ("gen", "degcap:n=44,dmax=3"),
    ("gen", "cubic:n=56"),
    ("gen", "cubic:n=56"),
)

# `auto` routes cliqueplus graphs to `dtc` and twincover graphs to
# `twincover`.  Solve times vary a lot within one family (the guess loop is
# exponential in the number of twin classes; the lexicographic pass of the
# modulator search stops at a random place), so the block holds many small
# solves rather than a few large ones.  Left out: cliqueplus with k >= 3,
# whose solve times spread as much as their mean (0.02 to 0.7 s at n = 30; at
# k = 4 some take more than 2 s), so that one of them per block moved the
# throughput of a run by a fifth; twincover with t = 5 at n = 36..48, some
# of which take more than 2 s.  cliqueplus stays at n >= 26: below, the
# brute-force cross-check takes about 10 s on these dense graphs.  The
# cliqueplus:n=26,k=2 graphs hold the median, the twincover:n=30,t=4 graphs
# the 90th percentile.
MODULATOR_FPT = (
    ("gen", "twincover:n=20,t=2"),
    ("gen", "twincover:n=30,t=4"),
    ("gen", "cliqueplus:n=26,k=2"),
    ("gen", "twincover:n=26,t=5"),
    ("gen", "twincover:n=24,t=3"),
    ("gen", "twincover:n=30,t=4"),
    ("gen", "cliqueplus:n=26,k=2"),
    ("gen", "cliqueplus:n=34,k=2"),
    ("gen", "twincover:n=36,t=3"),
    ("gen", "twincover:n=30,t=4"),
    ("gen", "cliqueplus:n=26,k=2"),
    ("gen", "twincover:n=60,t=5"),
    ("gen", "twincover:n=30,t=4"),
    ("gen", "cliqueplus:n=40,k=2"),
)

# Inputs no specialised solver accepts: `auto` falls back to brute force
# (n <= 24) or to one large ILP (unions with n > 24, reduction targets).
# Left out: random degcap graphs with n > 24 (a quarter of them take more
# than 2 s, at random) and random degcap:dmax=8 graphs with n >= 18 (brute
# force takes up to 0.9 s on some).  The prelude holds the reduction target
# of a cubic:n=6 graph (270 vertices), on which the ILP takes about 5 s, so
# the general path's cost on a large target shows in every run exactly once.
# The fixed hard graphs degcap:n=40,dmax=8 seed 3 and degcap:n=30,dmax=8
# seed 1 are left out: each runs for 20 s or more, longer than a whole run.
# The unions of two cubic graphs, whose ILP times vary little, hold the
# median.  The four reduction targets of cubic:n=4 (one 180-vertex graph, K4
# being the only cubic graph on four vertices), a fifth of the block, hold
# the 90th percentile, so that it falls inside that family rather than on
# its fastest member.
DENSE_PRELUDE = (("reduction", "cubic:n=6"),)
DENSE_FALLBACK = (
    ("gen", "degcap:n=16,dmax=6"),
    ("union", "cubic:n=12", "cubic:n=14"),
    ("gen", "degcap:n=18,dmax=7"),
    ("union", "cubic:n=14", "cubic:n=14"),
    ("reduction", "cubic:n=4"),
    ("gen", "degcap:n=20,dmax=6"),
    ("union", "cubic:n=12", "cubic:n=14"),
    ("gen", "degcap:n=16,dmax=8"),
    ("reduction", "cubic:n=4"),
    ("union", "cubic:n=12", "cubic:n=14"),
    ("gen", "degcap:n=22,dmax=7"),
    ("union", "cubic:n=14", "cubic:n=14"),
    ("reduction", "cubic:n=4"),
    ("gen", "degcap:n=24,dmax=6"),
    ("union", "degcap:n=14,dmax=5", "cubic:n=12"),
    ("reduction", "cubic:n=4"),
    ("gen", "degcap:n=24,dmax=7"),
    ("union", "cubic:n=12", "cubic:n=14"),
    ("union", "cubic:n=12", "cubic:n=14"),
)

WORKLOADS = ("sparse-lowdeg", "modulator-fpt", "dense-fallback")


@dataclass
class Instance:
    index: int
    label: str
    seeds: tuple[int, ...]
    path: Path
    n: int
    m: int
    reduction: ReductionInstance | None = None

    @property
    def id(self) -> str:
        return f"{self.index:03d}"


@dataclass
class Setup:
    prelude: list[Instance]
    blocks: list[list[Instance]]
    digest: str
    generate_s: float
    reduction_s: float
    total_s: float

    @property
    def instances(self) -> list[Instance]:
        return self.prelude + [inst for block in self.blocks for inst in block]


def _plan(workload: str) -> tuple[tuple, tuple, int]:
    """(prelude recipes, block recipes, number of blocks) of a workload."""
    if workload == "sparse-lowdeg":
        return (), SPARSE_LOWDEG, 14
    if workload == "modulator-fpt":
        return (), MODULATOR_FPT, 50
    if workload == "dense-fallback":
        return DENSE_PRELUDE, DENSE_FALLBACK, 10
    raise ValueError(f"unknown workload {workload!r}")


def _union(a: Graph, b: Graph) -> Graph:
    shifted = [(u + a.n, v + a.n) for u, v in b.edges]
    return build_graph(a.n + b.n, list(a.edges) + shifted)


class _CorpusWriter:
    """Turns recipes into DIMACS files, timing the program calls it makes."""

    def __init__(self, seed: int, workload: str, directory: Path):
        self.rng = random.Random(f"{workload}/{seed}")
        self.directory = directory
        self.digest = hashlib.sha256()
        self.generate_s = 0.0
        self.reduction_s = 0.0
        self.count = 0

    def _generate(self, spec: str, seed: int) -> Graph:
        t0 = time.perf_counter()
        g = generate(spec, seed)
        self.generate_s += time.perf_counter() - t0
        return g

    def _reduce(self, g: Graph) -> ReductionInstance:
        t0 = time.perf_counter()
        inst = build_reduction(g, len(minimum_dominating_set(g)))
        self.reduction_s += time.perf_counter() - t0
        return inst

    def build(self, recipe: tuple) -> Instance:
        kind = recipe[0]
        reduction = None
        if kind == "gen":
            seeds = (self.rng.randrange(2**31),)
            g = self._generate(recipe[1], seeds[0])
            label = recipe[1]
        elif kind == "union":
            seeds = (self.rng.randrange(2**31), self.rng.randrange(2**31))
            g = _union(self._generate(recipe[1], seeds[0]), self._generate(recipe[2], seeds[1]))
            label = f"union({recipe[1]};{recipe[2]})"
        elif kind == "reduction":
            seeds = (self.rng.randrange(2**31),)
            reduction = self._reduce(self._generate(recipe[1], seeds[0]))
            g = reduction.target
            label = f"reduction({recipe[1]},k={reduction.k})"
        else:
            raise ValueError(f"unknown recipe kind {kind!r}")
        index = self.count
        self.count += 1
        text = emit_dimacs(g, comment=f"{label} seeds={','.join(map(str, seeds))}")
        path = self.directory / f"{index:03d}.dimacs"
        path.write_text(text)
        self.digest.update(f"{path.name}\n".encode())
        self.digest.update(text.encode())
        return Instance(index, label, seeds, path, g.n, g.m, reduction)


def build_corpus(workload: str, seed: int, directory: Path) -> Setup:
    """Generate the workload's corpus for `seed` and write it as DIMACS files."""
    t0 = time.perf_counter()
    prelude, block, count = _plan(workload)
    directory.mkdir(parents=True, exist_ok=True)
    writer = _CorpusWriter(seed, workload, directory)
    pre = [writer.build(r) for r in prelude]
    blocks = [[writer.build(r) for r in block] for _ in range(count)]
    return Setup(
        prelude=pre,
        blocks=blocks,
        digest=writer.digest.hexdigest(),
        generate_s=writer.generate_s,
        reduction_s=writer.reduction_s,
        total_s=time.perf_counter() - t0,
    )

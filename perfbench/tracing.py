"""Spans around the program's layers, recorded from outside the program.

The tracer replaces every module-level binding of a traced function, in every
loaded `minalliance` module including the defining one, with a wrapper that
records a span: name, start, end, parent span and instance id.  Spans stay in
memory until the run writes them out.  Nothing under `src/` changes, and
uninstalling restores every original binding.  A traced function the program
no longer has is skipped and named in `Tracer.missing`.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (defining module, function) -> span name
TRACED = {
    ("dimacs", "parse_dimacs"): "dimacs.parse",
    ("lowdeg", "solve_min_alliance_lowdeg"): "lowdeg.solve",
    ("graphs", "shortest_cycle_with_vertices"): "graphs.shortest_cycle",
    ("graphs", "min_disjoint_path_pair"): "graphs.disjoint_pair",
    ("graphs", "distances_from"): "graphs.bfs",
    ("graphs", "bfs_path"): "graphs.bfs",
    ("alliances", "verify_alliance"): "alliances.verify",
    ("alliances", "brute_force_min_alliance"): "alliances.brute",
    ("params", "distance_to_clique_set"): "params.dtc_set",
    ("params", "twin_cover_set"): "params.twin_cover",
    ("params", "partition_twin_classes"): "params.partition",
    ("params", "partition_clique_sets"): "params.partition",
    ("fpt", "solve_dtc"): "fpt.solve",
    ("fpt", "solve_twincover"): "fpt.solve",
    ("ilp", "solve_ilp"): "ilp.solve",
}
# `solve_dtc` and `solve_twincover` call these through their module globals;
# they are wrapped only to read the SolveStats counters, without a span.
FPT_DETAILED = (("fpt", "solve_dtc_detailed"), ("fpt", "solve_twincover_detailed"))

ROOT = "cli.solve"
ROUTES = ("lowdeg", "dtc", "twincover", "brute", "ilp")

# per-layer metric -> (unit, better, the end-to-end metric it should move)
PER_LAYER = {
    "graphs.shortest_cycle.calls": ("count", "lower", "instances_per_s, solve_s.p90 on sparse-lowdeg; about 0 elsewhere"),
    "graphs.shortest_cycle.s": ("s", "lower", "instances_per_s, solve_s.p90 on sparse-lowdeg (most of lowdeg time)"),
    "graphs.shortest_cycle.share_of_lowdeg": ("ratio", "lower", "graphs.shortest_cycle.s / lowdeg.solve.s on sparse-lowdeg"),
    "graphs.disjoint_pair.calls": ("count", "lower", "instances_per_s, solve_s.p90 on sparse-lowdeg"),
    "graphs.disjoint_pair.s": ("s", "lower", "instances_per_s, solve_s.p90 on sparse-lowdeg"),
    "graphs.bfs.calls": ("count", "lower", "instances_per_s, solve_s.p90 on sparse-lowdeg"),
    "graphs.bfs.s": ("s", "lower", "instances_per_s, solve_s.p90 on sparse-lowdeg"),
    "lowdeg.solve.calls": ("count", "lower", "sparse-lowdeg"),
    "lowdeg.solve.s": ("s", "lower", "instances_per_s, solve_s.p50 on sparse-lowdeg"),
    "lowdeg.self_s": ("s", "lower", "sparse-lowdeg"),
    "alliances.verify.calls": ("count", "lower", "solve_s.p50 on sparse-lowdeg (n + 1 per solve) and modulator-fpt"),
    "alliances.verify.s": ("s", "lower", "solve_s.p50 on sparse-lowdeg and modulator-fpt"),
    "alliances.brute.calls": ("count", "lower", "solve_s.p50 on dense-fallback (the n <= 24 half)"),
    "alliances.brute.s": ("s", "lower", "solve_s.p50 on dense-fallback (the n <= 24 half)"),
    "params.dtc_set.calls": ("count", "lower", "solve_s.p90, instances_per_s on modulator-fpt; about 0 on sparse-lowdeg"),
    "params.dtc_set.s": ("s", "lower", "solve_s.p90, instances_per_s on modulator-fpt; a cheap reject on dense-fallback"),
    "params.dtc_set.per_dtc_solve": ("ratio", "lower", "2 today: auto picks, then solves; modulator-fpt"),
    "params.twin_cover.calls": ("count", "lower", "solve_s.p90, instances_per_s on modulator-fpt"),
    "params.twin_cover.s": ("s", "lower", "solve_s.p90, instances_per_s on modulator-fpt"),
    "params.partition.s": ("s", "lower", "solve_s.p90, instances_per_s on modulator-fpt"),
    "fpt.solve.calls": ("count", "lower", "instances_per_s on modulator-fpt"),
    "fpt.self_s": ("s", "lower", "instances_per_s on modulator-fpt"),
    "fpt.guesses": ("count", "lower", "instances_per_s on modulator-fpt"),
    "fpt.pruned": ("count", "higher", "instances_per_s on modulator-fpt"),
    "fpt.ilp_solves": ("count", "lower", "instances_per_s on modulator-fpt"),
    "ilp.solve.calls": ("count", "lower", "thousands of tiny programs on modulator-fpt; one large one per instance on dense-fallback"),
    "ilp.solve.s": ("s", "lower", "instances_per_s on modulator-fpt; instances_per_s, verified_frac on dense-fallback"),
    "ilp.optimal_ratio": ("ratio", "higher", "useful ILP outcomes per ILP solve"),
    "ilp.vars_max": ("count", "lower", "size of the largest program; dense-fallback"),
    "ilp.budget_exceeded": ("count", "lower", "verified_frac on dense-fallback"),
    "dimacs.parse.calls": ("count", "lower", "solve_s.p50 wherever solves take milliseconds"),
    "dimacs.parse.s": ("s", "lower", "solve_s.p50 wherever solves take milliseconds"),
    "cli.self_s": ("s", "lower", "solve_s.p50 wherever solves take milliseconds"),
    **{
        f"cli.routed.{r}": ("count", "lower" if r in ("brute", "ilp") else "higher", "explains routing shifts on dense-fallback")
        for r in ROUTES
    },
    "generators.generate.s": ("s", "lower", "setup_s"),
    "reduction.build.s": ("s", "lower", "setup_s"),
    "trace.overhead_frac": ("ratio", "lower", "1 - traced / untraced instances_per_s"),
}


class Tracer:
    """Spans and counters of one traced pass.

    The wrappers read counters with getattr defaults, so that a later change
    to the program's result types loses a counter, not the run.
    """

    def __init__(self):
        # each span: [name, start, end, parent index or -1, instance id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance: str | None = None
        self.counters: Counter = Counter()
        self.ilp_vars_max = 0
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    def abort(self) -> None:
        """Close every span a timeout left open."""
        now = time.perf_counter()
        for span in self.spans:
            if span[2] is None:
                span[2] = now
        self.stack.clear()

    def _wrap(self, name: str, func):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_ilp(self, func):
        tracer = self
        from minalliance.ilp import IlpBudgetExceeded

        def traced(prob, *args, **kwargs):
            tracer.ilp_vars_max = max(tracer.ilp_vars_max, getattr(prob, "var_count", 0))
            idx = tracer.open("ilp.solve")
            try:
                sol = func(prob, *args, **kwargs)
            except IlpBudgetExceeded:
                tracer.counters["ilp.budget_exceeded"] += 1
                raise
            finally:
                tracer.close(idx)
            if getattr(sol, "status", None) == "optimal":
                tracer.counters["ilp.optimal"] += 1
            return sol

        return traced

    def _wrap_stats(self, func):
        tracer = self

        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            stats = result[-1] if isinstance(result, tuple) else None
            for name in ("guesses", "pruned", "ilp_solves"):
                tracer.counters[f"fpt.{name}"] += getattr(stats, name, 0)
            return result

        return counted

    def install(self) -> None:
        wrappers = {}
        for key in list(TRACED) + list(FPT_DETAILED):
            module, name = key
            try:
                func = getattr(importlib.import_module(f"minalliance.{module}"), name, None)
            except ModuleNotFoundError:
                func = None
            if func is None:
                self.missing.append(f"{module}.{name}")
            elif key == ("ilp", "solve_ilp"):
                wrappers[func] = self._wrap_ilp(func)
            elif key in FPT_DETAILED:
                wrappers[func] = self._wrap_stats(func)
            else:
                wrappers[func] = self._wrap(TRACED[key], func)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "minalliance" and not mod_name.startswith("minalliance."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, func in reversed(self._saved):
            setattr(mod, attr, func)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, inclusive seconds and self seconds per span name."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _inst in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for idx, (name, start, end, _parent, _inst) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
        out: dict[str, float] = {}
        for name in set(TRACED.values()) | {ROOT}:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        return out

    def per_layer(self, route: dict[str, str]) -> dict[str, float]:
        """The span and counter metrics of PER_LAYER; `route` maps each
        instance id to the algorithm `auto` picked for it."""
        layers = self.layer_metrics()
        routed = list(route.values())
        dtc_solves = routed.count("dtc")
        dtc_sets_in_dtc_solves = sum(
            1 for span in self.spans if span[0] == "params.dtc_set" and route.get(span[4]) == "dtc"
        )
        # the span metrics PER_LAYER names as they are; the rest below
        out = {k: layers[k] for k in PER_LAYER if k in layers}
        out.update({
            "graphs.shortest_cycle.share_of_lowdeg": _ratio(layers["graphs.shortest_cycle.s"], layers["lowdeg.solve.s"]),
            "lowdeg.self_s": layers["lowdeg.solve.self_s"],
            "params.dtc_set.per_dtc_solve": _ratio(dtc_sets_in_dtc_solves, dtc_solves),
            "fpt.self_s": layers["fpt.solve.self_s"],
            "fpt.guesses": self.counters["fpt.guesses"],
            "fpt.pruned": self.counters["fpt.pruned"],
            "fpt.ilp_solves": self.counters["fpt.ilp_solves"],
            "ilp.optimal_ratio": _ratio(self.counters["ilp.optimal"], layers["ilp.solve.calls"]),
            "ilp.vars_max": self.ilp_vars_max,
            "ilp.budget_exceeded": self.counters["ilp.budget_exceeded"],
            "cli.self_s": layers[f"{ROOT}.self_s"],
        })
        out.update({f"cli.routed.{r}": routed.count(r) for r in ROUTES})
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

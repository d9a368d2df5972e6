"""Benchmark: verified `minalliance solve` throughput on seeded corpora.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-lowdeg --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

One run of one workload:

1. Setup, SETUP_REPEATS times: generate the seeded corpus, build the
   reduction targets and write the DIMACS files; `setup_s` is the median.
2. Timed phase, untraced: a closed loop with one client.  Each solve is
   `minalliance.cli.run_command(["solve", <file>])` in this process, with the
   default `--algo auto --kmax 5`, timed from outside and cut at LIMIT_S by
   SIGALRM.  The prelude, then whole blocks of the corpus, until `--seconds`
   have passed and MIN_SOLVES solves are done.  `peak_rss_mb` is read at its
   end.
3. With `--trace 1` only: the traced pass solves every attempted instance
   once more with spans around the program's layers (tracing.py), and each
   untraced witness must equal the traced one byte for byte.
4. Untimed checks (oracle.py) classify every solve as ok, timeout, crash,
   invalid, wrong_size or nondeterministic.

Times in the end-to-end metrics are machine-normalised seconds.  On a shared
virtual machine (two 2.1 GHz vCPUs) the speed of a Python process drifts by
25 % and more within seconds, the same for the program and for any Python
code.  So before every
solve, and around every setup, the benchmark times a fixed pure-Python
reference task that does not touch the program, and scales each measured
time by REF_NOMINAL_S / (the median reference time of the five nearest
samples).  A time reads as the seconds it would take on a machine that runs
the reference task in REF_NOMINAL_S.  Raw seconds are in the report and in
the rows.

The last line of stdout carries the end-to-end metrics (`--trace 0`) or the
per-layer metrics (`--trace 1`); the lines before it are a report.  Rows per
solve, spans and reproducers go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# far above the slowest solve in any corpus (about 6 s), so that a timeout
# means a hang, not a slow moment of the machine
LIMIT_S = 30.0
# enough solves that at least ten lie beyond the 90th percentile
MIN_SOLVES = 110
SETUP_REPEATS = 5
REF_NOMINAL_S = 0.005
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
FAILURES = ("timeout", "crash", "invalid", "wrong_size", "nondeterministic")
END_TO_END = {
    "instances_per_s": "1/s",
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "verified_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def reference_task_s() -> float:
    """Wall seconds, now, of a fixed pure-Python task that does not touch the
    program: dict, set and integer work like the solvers' inner loops."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[int] = set()
    for i in range(20_000):
        table[i % 997] = table.get(i % 997, 0) + i
        seen.add(i & 4095)
    return time.perf_counter() - t0


def speed_scales(samples: list[float]) -> list[float]:
    """Per-sample factors that turn measured seconds into machine-normalised
    ones, from the median of the five nearest reference samples."""
    return [
        REF_NOMINAL_S / statistics.median(samples[max(0, i - 2):i + 3])
        for i in range(len(samples))
    ]


class SolveTimeout(BaseException):
    """Raised inside a solve that passed the per-instance limit.

    A BaseException, so that no `except Exception` in the program stops it.
    """


class Deadline:
    """Per-solve wall-clock limit for the one benchmark process (SIGALRM)."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        self._previous = None

    def _fire(self, _signum, _frame):
        # a signal delivered just after the solve returned must not raise
        if self.armed:
            self.armed = False
            raise SolveTimeout()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, fn, *args):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.armed = False


@dataclass
class Outcome:
    status: str
    time_s: float
    algorithm: str | None = None
    size: int | None = None
    witness: list | None = None
    detail: str = ""


def solve(cli, path: Path, deadline: Deadline) -> Outcome:
    """One `solve` through the CLI entry point, timed from outside."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = deadline.run(cli, ["solve", str(path)])
        elapsed = time.perf_counter() - t0
    except SolveTimeout:
        return Outcome("timeout", time.perf_counter() - t0, detail=f"over {deadline.seconds} s")
    except Exception as exc:  # an escaped exception is a failure; the loop goes on
        return Outcome("crash", time.perf_counter() - t0, detail=f"{type(exc).__name__}: {exc}")
    text = buf.getvalue()
    if code != 0:
        return Outcome("crash", elapsed, detail=f"exit code {code}: {text[:300]}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return Outcome("crash", elapsed, detail=f"stdout is not one JSON document: {exc}")
    if not isinstance(doc, dict):
        return Outcome("crash", elapsed, detail="stdout is not a JSON object")
    return Outcome("ok", elapsed, doc.get("algorithm"), doc.get("size"), doc.get("witness"))


@dataclass
class Attempt:
    instance: object  # corpus.Instance
    block: int  # -1 for the prelude
    outcome: Outcome
    reference_s: float  # the reference task just before this solve
    scale: float = 1.0
    status: str = ""
    detail: str = ""


def timed_phase(setup, seconds: float, cli, deadline: Deadline):
    """The prelude, then whole blocks until `seconds` have passed and
    MIN_SOLVES solves are done.

    Returns the attempts, and the wall time of each block (-1: the prelude)
    without the reference tasks.
    """
    attempts = []
    walls = {}

    def run_block(b, instances):
        first = len(attempts)
        t0 = time.perf_counter()
        for inst in instances:
            ref = reference_task_s()
            attempts.append(Attempt(inst, b, solve(cli, inst.path, deadline), ref))
        walls[b] = time.perf_counter() - t0 - sum(a.reference_s for a in attempts[first:])

    t_start = time.perf_counter()
    if setup.prelude:
        run_block(-1, setup.prelude)
    b = 0
    while b == 0 or time.perf_counter() - t_start < seconds or len(attempts) < MIN_SOLVES:
        run_block(b, setup.blocks[b % len(setup.blocks)])
        b += 1
    for a, scale in zip(attempts, speed_scales([a.reference_s for a in attempts])):
        a.scale = scale
    return attempts, walls


def traced_pass(instances, cli, deadline: Deadline):
    """Solve each instance once more with the tracer installed.

    Returns the outcomes and speed scales by instance index, and the tracer.
    """
    from tracing import ROOT as ROOT_SPAN, Tracer

    tracer = Tracer()

    def traced_cli(argv):
        idx = tracer.open(ROOT_SPAN)
        try:
            return cli(argv)
        finally:
            tracer.close(idx)

    traced = {}
    refs = []
    tracer.install()
    try:
        for inst in instances:
            refs.append(reference_task_s())
            tracer.instance = inst.id
            traced[inst.index] = solve(traced_cli, inst.path, deadline)
            if traced[inst.index].status == "timeout":
                tracer.abort()
    finally:
        tracer.uninstall()
    scales = dict(zip((inst.index for inst in instances), speed_scales(refs)))
    return traced, scales, tracer


def check(attempts: list[Attempt], traced: dict[int, Outcome], out: Path) -> dict[int, dict]:
    """Classify every attempt in place; return the oracle verdict per instance."""
    import oracle

    verdicts: dict[int, dict] = {}
    for a in attempts:
        inst, o = a.instance, a.outcome
        if o.status != "ok" or inst.index in verdicts:
            continue
        graph = oracle.read_graph(inst.path)
        t0 = time.perf_counter()
        v = {"graph": graph, "optimum": oracle.milp_optimum(graph), "brute": None}
        if inst.n <= oracle.BRUTE_MAX_N and o.algorithm != "brute":
            v["brute"] = oracle.brute_optimum(inst.path)
        v["oracle_s"] = time.perf_counter() - t0
        verdicts[inst.index] = v

    first_ok: dict[int, Outcome] = {}
    for a in attempts:
        inst, o = a.instance, a.outcome
        if o.status != "ok":
            a.status, a.detail = o.status, o.detail
            continue
        v = verdicts[inst.index]
        why = oracle.protection_violation(v["graph"], o.witness)
        if why is None and o.size != len(o.witness):
            why = f"size {o.size} but {len(o.witness)} witness vertices"
        if why is None and inst.reduction is not None:
            why = oracle.reduction_violation(inst.reduction, o.witness)
        ref = traced.get(inst.index)
        if ref is None or ref.status != "ok":
            ref = first_ok.setdefault(inst.index, o)
        if why is not None:
            a.status, a.detail = "invalid", why
        elif o.size != v["optimum"] or (v["brute"] is not None and o.size != v["brute"]):
            a.status, a.detail = "wrong_size", f"size {o.size}, milp {v['optimum']}, brute {v['brute']}"
        elif json.dumps(o.witness) != json.dumps(ref.witness):
            a.status, a.detail = "nondeterministic", f"witness {o.witness} vs {ref.witness}"
        else:
            a.status = "ok"
        if a.status != "ok":
            shutil.copyfile(inst.path, out / "reproducers" / f"{inst.id}.dimacs")
            (out / "reproducers" / f"{inst.id}.json").write_text(json.dumps({
                "spec": inst.label, "seeds": list(inst.seeds), "status": a.status, "detail": a.detail,
                "oracle": {"milp": v["optimum"], "brute": v["brute"]},
                "untraced": asdict(o), "traced": asdict(traced[inst.index]) if inst.index in traced else None,
            }, indent=2) + "\n")
    return verdicts


def run_workload(args) -> int:
    import minalliance
    from minalliance.cli import run_command

    if not Path(minalliance.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"error: imported {minalliance.__file__}, not the program under src/", file=sys.stderr)
        return 2
    import corpus

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    (out / "reproducers").mkdir(parents=True)

    setups, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        refs = [reference_task_s() for _ in range(3)]
        setups.append(corpus.build_corpus(args.workload, args.seed, out / "corpus"))
        refs += [reference_task_s() for _ in range(3)]
        setup_s.append(setups[-1].total_s * REF_NOMINAL_S / statistics.median(refs))
    if len({s.digest for s in setups}) != 1:
        print("error: one seed gave two different corpora", file=sys.stderr)
        return 2
    setup = setups[-1]

    with Deadline(LIMIT_S) as deadline:
        attempts, walls = timed_phase(setup, args.seconds, run_command, deadline)
        # before the traced pass and before the oracle imports scipy
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        unique = list({a.instance.index: a.instance for a in attempts}.values())
        traced, traced_scales, tracer = (
            traced_pass(unique, run_command, deadline) if args.trace else ({}, {}, None)
        )
    verdicts = check(attempts, traced, out)

    statuses = [a.status for a in attempts]
    ok = statuses.count("ok")
    # a failed solve counts at the limit, which is wall-clock time: not scaled
    raw = [a.outcome.time_s if a.status == "ok" else LIMIT_S for a in attempts]
    times = [t * a.scale if a.status == "ok" else LIMIT_S for t, a in zip(raw, attempts)]
    # the phase: each solve's time (a timeout's at the limit), plus the
    # client's time between solves at its block's mean scale
    spent = [LIMIT_S if a.outcome.status == "timeout" else a.outcome.time_s * a.scale for a in attempts]
    between = sum(
        (w - sum(a.outcome.time_s for a in attempts if a.block == b))
        * statistics.mean(a.scale for a in attempts if a.block == b)
        for b, w in walls.items()
    )
    end_to_end = {
        "instances_per_s": ok / (sum(spent) + between),
        "solve_s.p50": statistics.median(times),
        "solve_s.p90": statistics.quantiles(times, n=10)[8],
        "verified_frac": ok / len(attempts),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_s),
    }
    raw_metrics = {
        "instances_per_s": ok / sum(walls.values()),
        "solve_s.p50": statistics.median(raw),
        "solve_s.p90": statistics.quantiles(raw, n=10)[8],
        "setup_s": statistics.median(s.total_s for s in setups),
    }
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "corpus_sha256": setup.digest, "corpus_instances": len(setup.instances),
        "limit_s": LIMIT_S, "attempted": len(attempts), "blocks": sum(b >= 0 for b in walls),
        "timed_wall_s": sum(walls.values()),
        "speed_scale": {"min": min(a.scale for a in attempts), "max": max(a.scale for a in attempts)},
        "raw": raw_metrics,
        "failed_frac": (len(attempts) - ok) / len(attempts),
        "beyond_p90": sum(t > end_to_end["solve_s.p90"] for t in times),
        "failures": {f: statuses.count(f) for f in FAILURES},
        "oracle_s": sum(v["oracle_s"] for v in verdicts.values()),
        "end_to_end": end_to_end,
    }
    if args.trace:
        first = {}
        for a, t in zip(attempts, times):
            if a.status == "ok":
                first.setdefault(a.instance.index, t)
        both = [i for i in first if traced[i].status == "ok"]
        untraced_s = sum(first[i] for i in both)
        traced_s = sum(traced[i].time_s * traced_scales[i] for i in both)
        route = {inst.id: traced[inst.index].algorithm for inst in unique if traced[inst.index].status == "ok"}
        summary["per_layer"] = {
            **tracer.per_layer(route),
            "generators.generate.s": statistics.median(s.generate_s for s in setups),
            "reduction.build.s": statistics.median(s.reduction_s for s in setups),
            "trace.overhead_frac": 1 - untraced_s / traced_s if traced_s else 0.0,
        }
        summary["traced_instances"] = len(unique)
        summary["traced_failures"] = {f: sum(o.status == f for o in traced.values()) for f in ("timeout", "crash")}
        summary["untraced_functions"] = tracer.missing
        with gzip.open(out / "spans.jsonl.gz", "wt") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    with (out / "rows.jsonl").open("w") as fh:
        for a in attempts:
            inst, v, t = a.instance, verdicts.get(a.instance.index, {}), traced.get(a.instance.index)
            fh.write(json.dumps({
                "workload": args.workload, "block": a.block, "instance": inst.id, "spec": inst.label,
                "seed": list(inst.seeds), "n": inst.n, "m": inst.m, "algorithm": a.outcome.algorithm,
                "time_s": a.outcome.time_s, "speed_scale": a.scale,
                "status": a.status, "detail": a.detail,
                "size": a.outcome.size, "oracle_size": v.get("optimum"), "brute_size": v.get("brute"),
                "traced_time_s": t and t.time_s, "traced_status": t and t.status,
            }) + "\n")
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    report(summary)
    if args.trace:
        from tracing import PER_LAYER

        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in summary["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    print(json.dumps({
        "correct": all(summary["failures"][f] == 0 for f in FAILURES if f != "timeout"),
        "attempted": len(attempts),
        "failed": len(attempts) - ok,
        "metrics": metrics,
    }))
    return 0


def report(summary: dict) -> None:
    e2e, fails = summary["end_to_end"], summary["failures"]
    print(f"== {summary['workload']}  seed {summary['seed']}  corpus sha256 {summary['corpus_sha256']}")
    print(f"   closed loop, 1 client: {summary['attempted']} solves ({summary['blocks']} blocks) in "
          f"{summary['timed_wall_s']:.2f} s, limit {summary['limit_s']} s per solve; "
          f"checks took {summary['oracle_s']:.1f} s")
    print(f"end-to-end (untraced; machine-normalised, speed scale "
          f"{summary['speed_scale']['min']:.3f}..{summary['speed_scale']['max']:.3f}; raw in brackets):")
    for name, unit in END_TO_END.items():
        raw = f"[{summary['raw'][name]:.6f}]" if name in summary["raw"] else ""
        print(f"  {name:<28} {e2e[name]:>12.6f} {unit:<6} {raw}")
    print(f"  {'failed_frac':<28} {summary['failed_frac']:>12.6f} ratio")
    print(f"  {summary['beyond_p90']} solves lie beyond solve_s.p90")
    print("failures: " + "  ".join(f"{f} {fails[f]}" for f in FAILURES)
          + ("" if summary["trace"] else "  (witnesses are compared with a traced run only with --trace 1)"))
    if not summary["trace"]:
        return
    from tracing import PER_LAYER

    layers = summary["per_layer"]
    print(f"per-layer (traced pass over {summary['traced_instances']} instances; "
          + ", ".join(f"{f} {n}" for f, n in summary["traced_failures"].items()) + "):")
    if summary["untraced_functions"]:
        print(f"  not traced, missing from the program: {', '.join(summary['untraced_functions'])}")
    for name, value in layers.items():
        unit, _better, moves = PER_LAYER[name]
        print(f"  {name:<40} {value:>14.6f} {unit:<6} moves: {moves}")
    if layers["lowdeg.solve.calls"]:
        share = layers["graphs.shortest_cycle.share_of_lowdeg"]
        print(f"check: graphs.shortest_cycle.s is {share:.1%} of lowdeg.solve.s; "
              f"most of it: {'yes' if share > 0.5 else 'no'}")
    if layers["cli.routed.dtc"]:
        per_dtc = layers["params.dtc_set.per_dtc_solve"]
        print(f"check: params.dtc_set.calls per dtc solve = {per_dtc:.3f}; "
              f"2 per dtc solve: {'yes' if per_dtc == 2 else 'no'}")


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    import corpus

    results = {}
    for workload in corpus.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "minalliance" / "__init__.py").is_file():
        print(f"error: the program is missing: no package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    import corpus

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {corpus.WORKLOADS}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every subcommand prints one JSON document on stdout, as one compact line
(the files it writes stay indented).  Exit codes: 0 success, 1 invalid input
(a usage error too) or a budget overrun, 2 a solver returned a witness that
failed verification.  `--help`, on its own or after a subcommand, prints one
`{"kind": "help", "help": ...}` document and exits 0.

`_pick_algorithm` alone resolves `--algo` to a solver and searches its
modulator.  `auto` sends a graph with forbidden vertices or none at all to
`search`, one of maximum degree at most five to `lowdeg`, and any other to
the branch and bound `search`, which hands a stalled walk to the paper's
`dtc`: past `search.HANDOFF_NODES` nodes it searches a distance-to-clique
set within `--kmax` once, and `dtc` answers with it, or with none the walk
goes on.  It counts nodes, not seconds, so the route and the witness depend
on the graph alone.  The twin-cover solver runs only when named.  Brute
force and the ILP encoding stay selectable and are `--oracle`'s oracles:
brute force up to `BRUTE_MAX_N` vertices, the ILP above.  Past
`--time-limit`, which covers a hand-off's walk and `dtc` together, every
solver but brute force raises `BudgetExceeded`, printed as one `"kind":
"budget"` document with the verified incumbent and the proven lower bound,
each null when unknown.  A negative limit or `--kmax` is invalid input,
rejected before the graph is read.

A `solve` document, and each record of `bench`'s list, holds `algorithm`
(the solver that ran), `instance`, `n`, `m`, `params`, `size`, `witness`
(1-indexed), `valid` and `wall_time_s`, which times the solver (after a
hand-off, the walk, the modulator search and `dtc`) but neither a named
route's modulator search nor the oracle.  With no alliance, `size` and
`valid` are null and `witness` is empty.  `--oracle` adds `match` and,
unless the oracle finds no alliance, `oracle_size`; an ILP oracle past
`--time-limit` leaves `match` null.  `bench` runs the oracle once per graph.
A `bench` entry that cannot take a graph (a guard, a missing modulator, a
degree bound) or runs past `--time-limit` gets the error document `solve`
would print, with `algorithm` and `instance`, no oracle check, and `bench`
goes on; it exits 2 on an oracle mismatch, else 1 if any entry erred, else
0.  A file that fails to parse, or a witness that fails verification, still
stops `bench` with one error document.  A `verify` document holds the
`solve` fields except `algorithm` and `wall_time_s`, which say nothing about a
verification, plus `violations`.

`run_command` builds the argparse tree once per process, and with it a table:
for each subcommand, its positional dests and the namespace argparse gives
the subcommand followed by those dests as words (`reduce`, whose `--k` is
required, has none).  A plain command line, a subcommand followed by exactly
its positionals, none starting with "-", fills a copy of that namespace
without argparse, whose parse costs several times the solve on a small graph.
Any other line, an option, `-h` or `--` among them, goes to argparse on the
whole tree, so every option, help and error document is argparse's, word for
word.  A seeded differential test of the table against the full tree keeps
the two in step.  Each call parses into a fresh namespace, so no option
carries over to the next.  Input and output files are opened by the path as
given (input files unbuffered), and one shared encoder prints every success
document.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from .alliances import (
    BRUTE_MAX_N,
    BudgetExceeded,
    InternalVerificationError,
    brute_force_min_alliance,
    verify_alliance,
)
from .dimacs import emit_dimacs, parse_dimacs
from .fpt import solve_dtc, solve_twincover
from .generators import generate
from .graphs import Graph
from .ilp import solve_min_alliance_ilp
from .lowdeg import solve_min_alliance_lowdeg
from .params import distance_to_clique_set, partition_clique_sets, twin_cover_set
from .reduction import (
    alliance_from_dominating_set,
    build_reduction,
    extract_dominating_set,
    is_dominating_set,
)
from .search import solve_min_alliance_search

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2

SEED_ENV = "MINALLIANCE_SEED"

ALGORITHMS = ("auto", "search", "brute", "lowdeg", "ilp", "dtc", "twincover")

# the smallest modulators of the near-clique graphs that stall search: 7 to 10
KMAX_DEFAULT = 10

# built once: json.dumps with any option set builds a new encoder per call
_encode = json.JSONEncoder(sort_keys=True).encode


def _read_graph(path: str | Path) -> Graph:
    # unbuffered: the one read takes the whole file, and a buffered open
    # costs more than the read on a small graph
    with open(path, "rb", buffering=0) as fh:
        return parse_dimacs(fh.read())


def _write_text(path: str, text: str) -> None:
    # by the path as given: Path("") is ".", whose error would not name ""
    with open(path, "w") as fh:
        fh.write(text)


def _read_vertex_set(path: str, n: int) -> list[int]:
    """1-indexed vertex ids in 1..n separated by whitespace or commas; 'c'/'#'
    lines are comments.  A bad byte, token or id is a ValueError that names
    its line and the id as written."""
    with open(path, "rb", buffering=0) as fh:
        lines = fh.read().splitlines()
    out = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"line {lineno}: byte {raw[exc.start]:#04x} is not UTF-8"
            ) from None
        if not line or line.startswith(("c", "#")):
            continue
        for tok in line.replace(",", " ").split():
            try:
                v = int(tok)
            except ValueError:
                raise ValueError(f"line {lineno}: {tok!r} is not a vertex id") from None
            if not 1 <= v <= n:
                raise ValueError(f"line {lineno}: vertex {v} outside 1..{n}")
            out.append(v - 1)
    return out


def _parse_witness_ds(text: str, n: int) -> list[int]:
    """The 0-indexed vertices of `--witness-ds`, comma-separated ids in 1..n;
    the ValueError names every token that is not such an id, as written."""
    out, bad = [], []
    for tok in text.split(","):
        try:
            v = int(tok)
        except ValueError:
            v = 0
        if 1 <= v <= n:
            out.append(v - 1)
        else:
            bad.append(tok)
    if bad:
        raise ValueError(
            f"--witness-ds: not vertex ids in 1..{n}: {', '.join(map(repr, bad))}"
        )
    return out


class _HandOff(Exception):
    """Raised through `auto`'s stalled search with the modulator `dtc` takes."""


def _pick_algorithm(g: Graph, algo: str, kmax: int):
    """Resolve `algo` to the solver that runs and what it runs with: a named
    `dtc` or `twincover` its modulator within `kmax` (else a ValueError),
    `auto`'s `search` its stall hook."""
    if algo == "auto":
        # lowdeg and dtc take no forbidden vertex and no empty graph
        if g.forbidden or not g.n:
            return "search", None
        if g.max_degree() <= 5:
            return "lowdeg", None

        def hand_off():  # a modulator within kmax ends the walk, and dtc answers
            mod = distance_to_clique_set(g, kmax)
            if mod is not None:
                raise _HandOff(mod)

        return "search", hand_off
    if algo == "dtc":
        mod = distance_to_clique_set(g, kmax)
        if mod is None:
            raise ValueError(f"no distance-to-clique set within k_max={kmax}")
        return "dtc", mod
    if algo == "twincover":
        cover = twin_cover_set(g, kmax)
        if cover is None:
            raise ValueError(f"no twin cover within k_max={kmax}")
        return "twincover", cover
    return algo, None


def _solve_one(g: Graph, algo: str, mod, time_limit: float | None):
    """Run `algo` with what `_pick_algorithm` found for it."""
    if algo == "lowdeg":
        return solve_min_alliance_lowdeg(g, time_limit=time_limit)
    if algo == "search":
        return solve_min_alliance_search(g, time_limit=time_limit, stall=mod)
    if algo == "brute":
        return brute_force_min_alliance(g)
    if algo == "ilp":
        return solve_min_alliance_ilp(g, time_limit=time_limit)
    if algo == "dtc":
        return solve_dtc(g, mod, time_limit=time_limit)
    if algo == "twincover":
        return solve_twincover(g, mod, time_limit=time_limit)
    raise ValueError(f"unknown algorithm {algo!r}")


def _document(g: Graph, instance: str, sol) -> dict:
    """The fields `solve`, `bench` and `verify` share; `sol` None is no alliance."""
    return {
        "instance": instance,
        "n": g.n,
        "m": g.m,
        "params": {"max_degree": g.max_degree(), "forbidden": len(g.forbidden)},
        "size": None if sol is None else sol.size,
        "witness": [] if sol is None else [v + 1 for v in sol.members],
        "valid": None if sol is None else sol.valid,
    }


def _check_limits(time_limit: float | None, kmax: int) -> None:
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"--time-limit must be a nonnegative number, got {time_limit}")
    if kmax < 0:
        raise ValueError(f"--kmax must be nonnegative, got {kmax}")


def _solve_record(g: Graph, instance: str, algo: str, args) -> dict:
    """Run `algo` with the `--kmax` and `--time-limit` of `args`."""
    algo, mod = _pick_algorithm(g, algo, args.kmax)
    t0 = time.perf_counter()
    try:
        sol = _solve_one(g, algo, mod, args.time_limit)
    except _HandOff as exc:  # dtc gets what the walk left of the limit
        left = args.time_limit and max(0.0, args.time_limit + t0 - time.perf_counter())
        algo, sol = "dtc", solve_dtc(g, exc.args[0], time_limit=left)
    wall_time_s = round(time.perf_counter() - t0, 6)
    if sol is not None and not sol.valid:
        raise InternalVerificationError(
            f"{algo} returned an invalid witness on {instance}"
        )
    return {"algorithm": algo, **_document(g, instance, sol), "wall_time_s": wall_time_s}


def _check_oracle(g: Graph, records: list[dict], time_limit: float | None) -> None:
    """Run the oracle once and set `oracle_size` (absent when it finds no
    alliance) and `match` on every record; an ILP oracle past `time_limit`
    sets `match` to null."""
    try:
        if g.n <= BRUTE_MAX_N:
            ref = brute_force_min_alliance(g)
        else:
            ref = solve_min_alliance_ilp(g, time_limit=time_limit)
    except BudgetExceeded:
        for rec in records:
            rec["match"] = None
        return
    for rec in records:
        if ref is not None:
            rec["oracle_size"] = ref.size
        rec["match"] = rec["size"] == (None if ref is None else ref.size)


def write_counterexample(
    directory: str | Path,
    instance_id: str,
    g: Graph,
    records: dict[str, object],
) -> Path:
    """Persist a mismatch: the instance in DIMACS plus every witness, as JSON."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{instance_id}.dimacs").write_text(emit_dimacs(g))
    payload = {"instance": instance_id, "records": records}
    path = directory / f"{instance_id}.counterexample.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _cmd_verify(args) -> tuple[int, dict]:
    g = _read_graph(args.graph)
    members = _read_vertex_set(args.set, g.n)
    sol = verify_alliance(g, members)
    out = _document(g, args.graph, sol)
    out["violations"] = [
        {"vertex": v + 1, "defenders": have, "needed": need}
        for v, have, need in sol.violations
    ]
    return EXIT_OK, out


def _cmd_solve(args) -> tuple[int, dict]:
    _check_limits(args.time_limit, args.kmax)
    g = _read_graph(args.graph)
    rec = _solve_record(g, args.graph, args.algo, args)
    if args.oracle:
        _check_oracle(g, [rec], args.time_limit)
    return EXIT_OK, rec


def _cmd_params(args) -> tuple[int, dict]:
    _check_limits(None, args.kmax)
    g = _read_graph(args.graph)
    dtc = distance_to_clique_set(g, args.kmax)
    cover = twin_cover_set(g, args.kmax)
    out = {
        "instance": args.graph,
        "n": g.n,
        "m": g.m,
        "max_degree": g.max_degree(),
        "distance_to_clique": None if dtc is None else sorted(v + 1 for v in dtc),
        "twin_cover": None if cover is None else sorted(v + 1 for v in cover),
    }
    if cover is not None:
        part = partition_clique_sets(g, cover)
        out["max_clique_outside_cover"] = part.max_clique_size()
    return EXIT_OK, out


def _cmd_reduce(args) -> tuple[int, dict]:
    g = _read_graph(args.graph)
    inst = build_reduction(g, args.k)
    out = {
        "instance": args.graph,
        "k": inst.k,
        "k_prime": inst.k_prime,
        "target_n": inst.target.n,
        "target_m": inst.target.m,
        "forbidden_count": inst.forbidden_count,
    }
    if args.out is not None:
        _write_text(args.out, emit_dimacs(inst.target))
        out["target_path"] = args.out
    if args.instance_out is not None:
        payload = {
            "kind": "dominating-set-reduction",
            "k": inst.k,
            "source_dimacs": emit_dimacs(g),
        }
        _write_text(args.instance_out, json.dumps(payload, indent=2) + "\n")
        out["instance_path"] = args.instance_out
    if args.witness_ds is not None:
        ds = _parse_witness_ds(args.witness_ds, g.n)
        if not is_dominating_set(g, ds):  # named here, in the ids as written
            raise ValueError(
                f"--witness-ds {sorted({v + 1 for v in ds})} does not dominate the source graph"
            )
        sol = alliance_from_dominating_set(inst, ds)
        out["witness_size"] = sol.size
        out["witness"] = [v + 1 for v in sol.members]
    return EXIT_OK, out


def _cmd_extract(args) -> tuple[int, dict]:
    payload = json.loads(Path(args.instance).read_text())
    if not isinstance(payload, dict) or payload.get("kind") != "dominating-set-reduction":
        raise ValueError(f"{args.instance} is not a reduction instance file")
    source, k = payload.get("source_dimacs"), payload.get("k")
    # `type`, not isinstance: JSON true and false load as bools, which are ints
    if not isinstance(source, str) or type(k) is not int:
        raise ValueError(
            f"{args.instance} lacks a DIMACS string 'source_dimacs' or an integer 'k'"
        )
    inst = build_reduction(parse_dimacs(source), k)
    members = _read_vertex_set(args.set, inst.target.n)
    ds = extract_dominating_set(inst, members)
    return EXIT_OK, {
        "instance": args.instance,
        "k": inst.k,
        "dominating_set": sorted(v + 1 for v in ds),
    }


def _cmd_gen(args) -> tuple[int, dict]:
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"{SEED_ENV}={raw!r} is not an integer seed") from None
    g = generate(args.spec, seed)
    text = emit_dimacs(g, comment=f"{args.spec} seed={seed}")
    out = {
        "spec": args.spec,
        "seed": seed,
        "n": g.n,
        "m": g.m,
        "max_degree": g.max_degree(),
    }
    if args.out is not None:
        _write_text(args.out, text)
        out["path"] = args.out
    else:
        out["dimacs"] = text
    return EXIT_OK, out


def _bench_record(g: Graph, instance: str, algo: str, args) -> dict:
    """`_solve_record`, or, when the entry cannot take the graph or runs
    past its budget, the error document `run_command` would print for it,
    with `algorithm` and `instance`."""
    try:
        return _solve_record(g, instance, algo, args)
    except (BudgetExceeded, ValueError) as exc:
        return {"algorithm": algo, "instance": instance, **_error_document(exc)}


def _cmd_bench(args) -> tuple[int, list[dict]]:
    _check_limits(args.time_limit, args.kmax)
    if not args.artifacts:
        # Path("") is ".", which would write the artifacts where bench runs
        raise ValueError(f"--artifacts must name a directory, got {args.artifacts!r}")
    corpus = sorted(Path(args.corpus).glob("*.dimacs"))
    if not corpus:
        raise ValueError(f"no .dimacs files under {args.corpus}")
    algos = args.algo.split(",")
    unknown = [algo for algo in algos if algo not in ALGORITHMS]
    if unknown:
        raise ValueError(f"--algo: unknown algorithm {', '.join(map(repr, unknown))}")
    records = []
    mismatch = False
    for path in corpus:
        g = _read_graph(path)
        recs = [_bench_record(g, path.name, algo, args) for algo in algos]
        records += recs
        solved = [rec for rec in recs if "error" not in rec]
        if args.oracle and solved:
            _check_oracle(g, solved, args.time_limit)
            if any(rec["match"] is False for rec in solved):
                write_counterexample(
                    args.artifacts, path.stem, g, dict(zip(algos, recs))
                )
                mismatch = True
    if mismatch:
        return EXIT_INTERNAL, records
    if any("error" in rec for rec in records):
        return EXIT_INVALID, records
    return EXIT_OK, records


class _HelpRequested(Exception):
    """`--help`: carries the parser's help text to `run_command`."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, which `run_command` prints as one
    invalid-input document, and `--help` as _HelpRequested, which it prints
    as one help document; subparsers inherit the class."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="minalliance",
        description="Exact minimum defensive alliance toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a vertex set against a graph")
    p.add_argument("graph")
    p.add_argument("set")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="find a minimum defensive alliance")
    p.add_argument("graph")
    p.add_argument(
        "--algo",
        default="auto",
        choices=ALGORITHMS,
    )
    p.add_argument("--kmax", type=int, default=KMAX_DEFAULT)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--time-limit", type=float, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("params", help="report structural parameters")
    p.add_argument("graph")
    p.add_argument("--kmax", type=int, default=KMAX_DEFAULT)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("reduce", help="build the dominating-set reduction")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None, help="write target graph DIMACS here")
    p.add_argument("--instance-out", dest="instance_out", default=None)
    p.add_argument(
        "--witness-ds",
        default=None,
        help="comma-separated 1-indexed dominating set to map forward",
    )
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("extract", help="project an alliance back to a dominating set")
    p.add_argument("instance", help="instance JSON produced by reduce --instance-out")
    p.add_argument("set", help="alliance member file, 1-indexed")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("gen", help="generate a corpus graph")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run solvers across a corpus directory")
    p.add_argument("corpus")
    p.add_argument("--algo", default="auto")
    p.add_argument("--kmax", type=int, default=KMAX_DEFAULT)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--artifacts", default="counterexamples")
    p.set_defaults(func=_cmd_bench)

    return ap


@functools.cache
def _shared_parser() -> tuple[
    argparse.ArgumentParser, dict[str, tuple[list[str], argparse.Namespace]]
]:
    """The argparse tree, built once per process, and by subcommand name its
    positional dests and the namespace argparse gives the subcommand followed
    by those dests as words (`reduce`, whose `--k` is required, has none)."""
    ap = build_parser()
    (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    plain = {}
    for name, p in sub.choices.items():
        dests = [a.dest for a in p._actions if not a.option_strings]
        try:
            plain[name] = dests, ap.parse_args([name, *dests])
        except ValueError:
            pass
    return ap, plain


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`: a subcommand followed by exactly its
    positionals, none starting with "-", fills a copy of the subcommand's
    namespace, and any other `argv` goes through argparse on the whole tree."""
    ap, plain = _shared_parser()
    dests, args = plain.get(argv[0] if argv else "", ((), None))
    words = argv[1:]
    if args is None or len(words) != len(dests) or any(w[:1] == "-" for w in words):
        return ap.parse_args(argv)
    return argparse.Namespace(**{**vars(args), **dict(zip(dests, words))})


def _error_document(exc: BudgetExceeded | ValueError | OSError) -> dict:
    """The `"kind": "budget"` document of a budget exit, with the verified
    incumbent and the proven lower bound, or the `"kind": "invalid-input"`
    document of any other error."""
    if isinstance(exc, BudgetExceeded):
        inc = exc.alliance
        members = None if inc is None else [v + 1 for v in inc.members]
        return {
            "error": str(exc),
            "kind": "budget",
            "incumbent": members,
            "incumbent_size": None if members is None else len(members),
            "lower_bound": exc.lower_bound,
        }
    return {"error": str(exc), "kind": "invalid-input"}


def run_command(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
        status, payload = args.func(args)
    except _HelpRequested as exc:
        print(json.dumps({"help": str(exc), "kind": "help"}))
        return EXIT_OK
    except InternalVerificationError as exc:
        print(json.dumps({"error": str(exc), "kind": "internal"}))
        return EXIT_INTERNAL
    except (BudgetExceeded, ValueError, OSError) as exc:
        print(json.dumps(_error_document(exc)))
        return EXIT_INVALID
    print(_encode(payload))
    return status


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

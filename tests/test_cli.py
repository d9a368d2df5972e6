"""End-to-end command-line checks: every subcommand, exit codes, artifacts."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from minalliance import (
    BRUTE_MAX_N,
    build_graph,
    degree_alliance,
    distance_to_clique_set,
    emit_dimacs,
    generate,
    parse_dimacs,
    solve_dtc,
    verify_alliance,
)
from minalliance.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    KMAX_DEFAULT,
    SEED_ENV,
    run_command,
    write_counterexample,
)

from _oracles import milp_min_alliance_size
from conftest import SQUARE_BRIDGE_CLIQUE_EDGES, TRIANGULAR_PRISM_EDGES


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def bridge_file(tmp_path):
    g = build_graph(9, SQUARE_BRIDGE_CLIQUE_EDGES)
    path = tmp_path / "bridge.dimacs"
    path.write_text(emit_dimacs(g))
    return str(path)


@pytest.fixture
def prism_file(tmp_path):
    g = build_graph(6, TRIANGULAR_PRISM_EDGES)
    path = tmp_path / "prism.dimacs"
    path.write_text(emit_dimacs(g))
    return str(path)


def vertex_file(tmp_path, name, vertices_one_indexed):
    path = tmp_path / name
    path.write_text(" ".join(str(v) for v in vertices_one_indexed) + "\n")
    return str(path)


def test_verify_valid_set(capsys, tmp_path, bridge_file):
    spaced = vertex_file(tmp_path, "set.txt", [5, 6, 7])
    commas = tmp_path / "commas.txt"
    commas.write_text("# members\n5,6\n7\n")
    for sfile in (spaced, str(commas)):
        code, out = run(capsys, "verify", bridge_file, sfile)
        assert code == EXIT_OK
        assert out["valid"] is True
        assert out["size"] == 3
        assert out["witness"] == [5, 6, 7]
        assert out["violations"] == []


def test_verify_reports_violations(capsys, tmp_path, bridge_file):
    sfile = vertex_file(tmp_path, "set.txt", [5])
    code, out = run(capsys, "verify", bridge_file, sfile)
    assert code == EXIT_OK
    assert out["valid"] is False
    assert out["violations"] == [{"vertex": 5, "defenders": 1, "needed": 3}]


def test_verify_document_holds_exactly_its_fields(capsys, tmp_path, bridge_file):
    # no `algorithm` and no `wall_time_s`: no solver runs in a verification
    code, out = run(capsys, "verify", bridge_file, vertex_file(tmp_path, "set.txt", [5]))
    assert code == EXIT_OK
    assert set(out) == {
        "instance", "n", "m", "params", "size", "witness", "valid", "violations"
    }


@pytest.mark.parametrize(
    "content, expected",
    [
        (b"1\n\xff\n", ["line 2:", "0xff"]),
        (b"1 x", ["line 1:", "'x'"]),
        (b"0", ["line 1:", "vertex 0 "]),
        (b"4", ["line 1:", "vertex 4 "]),
    ],
)
def test_verify_names_the_line_and_id_of_a_bad_set_file(capsys, tmp_path, content, expected):
    graph = tmp_path / "path.dimacs"
    graph.write_text(emit_dimacs(build_graph(3, [(0, 1), (1, 2)])))
    sfile = tmp_path / "set.txt"
    sfile.write_bytes(content)
    code, out = run(capsys, "verify", str(graph), str(sfile))
    assert code == EXIT_INVALID
    assert out["kind"] == "invalid-input"
    for part in expected:
        assert part in out["error"]


def test_solve_lowdeg(capsys, bridge_file):
    code, out = run(capsys, "solve", bridge_file, "--algo", "lowdeg")
    assert code == EXIT_OK
    assert out["algorithm"] == "lowdeg"
    assert out["size"] == 2
    assert out["valid"] is True
    assert len(out["witness"]) == 2


def test_solve_auto_picks_lowdeg(capsys, bridge_file):
    code, out = run(capsys, "solve", bridge_file)
    assert code == EXIT_OK
    assert out["algorithm"] == "lowdeg"


def test_solve_auto_on_high_degree_clique_attachments(capsys, tmp_path):
    g = generate("cliqueplus:n=12,k=2", 3)
    assert g.max_degree() > 5  # otherwise the dispatcher rightly picks lowdeg
    assert degree_alliance(g) is None  # optimum > 2, else search answers
    # dtc could run, but search answers before any hand-off
    assert distance_to_clique_set(g, KMAX_DEFAULT) is not None
    path = tmp_path / "cp.dimacs"
    path.write_text(emit_dimacs(g))
    code, out = run(capsys, "solve", str(path), "--oracle")
    assert code == EXIT_OK
    assert out["algorithm"] == "search"
    assert out["match"] is True


def test_auto_sends_a_large_distance_to_clique_set_to_dtc(capsys, tmp_path):
    # search stalls on this graph, whose smallest dtc set has 8 vertices,
    # within the default --kmax
    path = tmp_path / "cp.dimacs"
    path.write_text(emit_dimacs(generate("cliqueplus:n=100,k=8", 16)))
    code, out = run(capsys, "solve", str(path))
    assert (code, out["algorithm"], out["valid"]) == (EXIT_OK, "dtc", True)


# the near-clique graphs on which search stalls: each ran past 5 s, four with
# no incumbent, before a stalled walk was handed to dtc
NEAR_CLIQUE_TAIL = [
    ("cliqueplus:n=60,k=9", 19),
    ("cliqueplus:n=60,k=10", 8),
    ("cliqueplus:n=100,k=8", 16),
    ("cliqueplus:n=100,k=9", 9),
    ("cliqueplus:n=100,k=9", 16),
    ("cliqueplus:n=100,k=10", 8),
]


def tail_file(tmp_path, spec, seed):
    g = generate(spec, seed)
    path = tmp_path / "tail.dimacs"
    path.write_text(emit_dimacs(g))
    return g, str(path)


@pytest.mark.parametrize("spec, seed", NEAR_CLIQUE_TAIL)
def test_auto_hands_the_near_clique_tail_to_dtc_within_a_second(capsys, tmp_path, spec, seed):
    g, path = tail_file(tmp_path, spec, seed)
    t0 = time.perf_counter()
    code, out = run(capsys, "solve", path)
    elapsed = time.perf_counter() - t0
    assert (code, out["algorithm"], out["valid"]) == (EXIT_OK, "dtc", True)
    assert elapsed < 1.0
    assert out["size"] == solve_dtc(g, distance_to_clique_set(g, KMAX_DEFAULT)).size
    if (spec, seed) in (("cliqueplus:n=60,k=10", 8), ("cliqueplus:n=100,k=8", 16)):
        pytest.importorskip("scipy.optimize")
        assert out["size"] == milp_min_alliance_size(g.n, g.edges)


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` and return the list its calls append to."""
    calls, func = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or func(*args))
    return calls


def test_a_stall_without_a_modulator_keeps_the_search_document(capsys, tmp_path, monkeypatch):
    import minalliance.cli as cli

    # G(30, 0.4) walks 77 482 nodes, past the hand-off, and has no
    # distance-to-clique set within the default --kmax
    rng = random.Random(1)
    n = 30
    g = build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4])
    path = tmp_path / "gnp.dimacs"
    path.write_text(emit_dimacs(g))
    calls = count_calls(monkeypatch, cli, "distance_to_clique_set")
    code, auto = run(capsys, "solve", str(path))
    assert code == EXIT_OK and len(calls) == 1
    code, search = run(capsys, "solve", str(path), "--algo", "search")
    assert code == EXIT_OK and len(calls) == 1
    for doc in (auto, search):
        doc.pop("wall_time_s")
    assert auto == search and auto["algorithm"] == "search"


def test_a_named_search_never_hands_off(capsys, tmp_path, monkeypatch):
    import minalliance.cli as cli
    import minalliance.search as search

    _, path = tail_file(tmp_path, "cliqueplus:n=100,k=8", 16)
    calls = count_calls(monkeypatch, cli, "distance_to_clique_set")
    # the clock stands still for twice the hand-off's nodes, then jumps past
    # any deadline
    ticks = iter(range(2 * search.HANDOFF_NODES))
    monkeypatch.setattr(search, "monotonic", lambda: 0.0 if next(ticks, None) is not None else 1e9)
    code, out = run(capsys, "solve", path, "--algo", "search", "--time-limit", "1")
    assert (code, out["kind"]) == (EXIT_INVALID, "budget")
    assert calls == []


def test_the_hand_off_does_not_depend_on_the_clock(capsys, tmp_path):
    _, path = tail_file(tmp_path, "cliqueplus:n=60,k=9", 19)
    docs = []
    for argv in ([], ["--time-limit", "60"]):
        code, out = run(capsys, "solve", path, *argv)
        assert code == EXIT_OK
        out.pop("wall_time_s")
        docs.append(out)
    assert docs[0] == docs[1] and docs[0]["algorithm"] == "dtc"


@pytest.mark.parametrize("k", range(2, 6))
@pytest.mark.parametrize("n, seed", [(10, 1), (10, 2), (10, 3), (14, 1), (14, 2), (18, 1)])
def test_auto_matches_brute_force_on_cliqueplus(capsys, tmp_path, k, n, seed):
    path = tmp_path / "cp.dimacs"
    path.write_text(emit_dimacs(generate(f"cliqueplus:n={n},k={k}", seed)))
    code, out = run(capsys, "solve", str(path), "--oracle")
    assert (code, out["algorithm"], out["match"]) == (EXIT_OK, "search", True)


def test_solve_every_algorithm_agrees(capsys, tmp_path):
    g = generate("twincover:n=11,t=2,zmax=3", 9)
    path = tmp_path / "tc.dimacs"
    path.write_text(emit_dimacs(g))
    sizes = {}
    for algo in ("brute", "ilp", "twincover"):
        code, out = run(capsys, "solve", str(path), "--algo", algo)
        assert code == EXIT_OK
        sizes[algo] = out["size"]
    assert len(set(sizes.values())) == 1


def test_solve_oracle_match_flag(capsys, bridge_file):
    code, out = run(capsys, "solve", bridge_file, "--algo", "brute", "--oracle")
    assert code == EXIT_OK
    assert out["oracle_size"] == 2
    assert out["match"] is True


def test_solve_oracle_above_brute_force_limit_uses_ilp(capsys, tmp_path):
    g = generate("cubic:n=30", 1)
    path = tmp_path / "cubic30.dimacs"
    path.write_text(emit_dimacs(g))
    code, out = run(capsys, "solve", str(path), "--oracle")
    assert code == EXIT_OK
    assert out["algorithm"] == "lowdeg"
    assert out["oracle_size"] == out["size"] == 2
    assert out["match"] is True


def test_ilp_budget_overrun_is_one_json_document(capsys, tmp_path):
    g = generate("degcap:n=40,dmax=8", 3)
    path = tmp_path / "hard.dimacs"
    path.write_text(emit_dimacs(g))
    code = run_command(["solve", str(path), "--algo", "ilp", "--time-limit", "0.2"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["kind"] == "budget"
    assert "time limit" in out["error"]
    if out["incumbent"] is None:
        assert out["incumbent_size"] is None
    else:
        assert out["incumbent_size"] == len(out["incumbent"])
        assert verify_alliance(g, [v - 1 for v in out["incumbent"]]).valid


def test_ilp_budget_overrun_reports_verified_incumbent(capsys, bridge_file, monkeypatch):
    import minalliance.ilp as ilp

    def out_of_time(prob, **_kw):
        # vertices 5, 6, 7 (1-indexed) form an alliance of the bridge graph
        x = tuple(1 if v in (4, 5, 6) else 0 for v in range(prob.var_count))
        raise ilp.IlpBudgetExceeded("time limit exceeded after 3 nodes", x, 3)

    monkeypatch.setattr(ilp, "solve_ilp", out_of_time)
    code, out = run(capsys, "solve", bridge_file, "--algo", "ilp", "--time-limit", "1")
    assert code == EXIT_INVALID
    assert out == {
        "error": "time limit exceeded after 3 nodes",
        "kind": "budget",
        "incumbent": [5, 6, 7],
        "incumbent_size": 3,
        "lower_bound": None,
    }


def test_ilp_budget_overrun_with_invalid_incumbent_is_internal(
    capsys, bridge_file, monkeypatch
):
    import minalliance.ilp as ilp

    def out_of_time(prob, **_kw):
        # vertex 1 alone has one defender against two attackers
        x = tuple(1 if v == 0 else 0 for v in range(prob.var_count))
        raise ilp.IlpBudgetExceeded("time limit exceeded after 3 nodes", x, 1)

    monkeypatch.setattr(ilp, "solve_ilp", out_of_time)
    code, out = run(capsys, "solve", bridge_file, "--algo", "ilp", "--time-limit", "1")
    assert code == EXIT_INTERNAL
    assert out["kind"] == "internal"
    assert "ILP incumbent" in out["error"]


def test_solve_auto_falls_back_to_search(capsys, tmp_path):
    # max degree 8, no small modulator: once 20 s and more in the ILP
    g = generate("degcap:n=40,dmax=8", 3)
    path = tmp_path / "hard.dimacs"
    path.write_text(emit_dimacs(g))
    code, out = run(capsys, "solve", str(path))
    assert code == EXIT_OK
    assert out["algorithm"] == "search"
    assert out["size"] == 8
    assert verify_alliance(g, [v - 1 for v in out["witness"]]).valid


def test_solve_search_with_oracle(capsys, bridge_file):
    code, out = run(capsys, "solve", bridge_file, "--algo", "search", "--oracle")
    assert code == EXIT_OK
    assert out["algorithm"] == "search"
    assert out["witness"] == [1, 2]
    assert out["match"] is True


def test_search_budget_overrun_reports_lower_bound(capsys, tmp_path, monkeypatch):
    import minalliance.search as search

    # K6 on 1..6 and vertex 0 joined to 1 and 2: no alliance of one or two,
    # so the degrees leave the search to run
    edges = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)] + [(0, 1), (0, 2)]
    g = build_graph(7, edges)
    assert degree_alliance(g) is None
    path = tmp_path / "k6.dimacs"
    path.write_text(emit_dimacs(g))
    reads = iter([0.0])  # the deadline is set at 0 + 1 s; every later read is past it
    monkeypatch.setattr(search, "monotonic", lambda: next(reads, 1e9))
    code, out = run(capsys, "solve", str(path), "--algo", "search", "--time-limit", "1")
    assert code == EXIT_INVALID
    # vertex 0 needs 2 defenders but its neighbours 4 each, and the rest
    # need 3, so size 3 is searched first
    assert out == {
        "error": "time limit exceeded while searching size 3",
        "kind": "budget",
        "incumbent": None,
        "incumbent_size": None,
        "lower_bound": 3,
    }


@pytest.mark.parametrize(
    "spec, seed, route, kmax",
    [
        ("twincover:n=200,t=5,zmax=60", 3, "twincover", 5),
        ("twincover:n=200,t=5,zmax=60", 4, "twincover", 5),
        ("cliqueplus:n=100,k=8", 3, "dtc", 8),
        ("cliqueplus:n=60,k=4", 14, "dtc", 5),
        ("cliqueplus:n=100,k=3", 5, "dtc", 5),
    ],
)
def test_search_solves_the_structured_frontier_within_a_second(
    capsys, tmp_path, spec, seed, route, kmax
):
    # the root bound starts the climb at the optimum on these graphs, and
    # the node bound cuts the walk on the last two; each ran past any
    # budget without them.  The paper's solver for the family checks the
    # size
    g = generate(spec, seed)
    path = tmp_path / "g.dimacs"
    path.write_text(emit_dimacs(g))
    code, out = run(capsys, "solve", str(path), "--algo", "search", "--time-limit", "1")
    assert (code, out["algorithm"], out["valid"]) == (EXIT_OK, "search", True)
    _, ref = run(capsys, "solve", str(path), "--algo", route, "--kmax", str(kmax))
    assert out["size"] == ref["size"]


def test_search_budget_overrun_carries_the_incumbent(
    capsys, tmp_path, monkeypatch, search_turns
):
    import minalliance.search as search

    rng = random.Random(4005)
    n = 40
    g = build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5])
    path = tmp_path / "gnp.dimacs"
    path.write_text(emit_dimacs(g))
    # the clock stands still through the lower bound's level and the
    # incumbent's pass, then jumps past any deadline
    monkeypatch.setattr(search, "monotonic", lambda: 0.0 if len(search_turns) < 2 else 1e9)
    code, out = run(capsys, "solve", str(path), "--algo", "search", "--time-limit", "1")
    assert code == EXIT_INVALID
    assert search_turns[0] is None and search_turns[1] is not None
    assert out["kind"] == "budget"
    assert out["incumbent"] is not None
    assert out["incumbent_size"] == len(out["incumbent"]) >= out["lower_bound"]
    assert verify_alliance(g, [v - 1 for v in out["incumbent"]]).valid
    assert f"searching size {out['lower_bound']}" in out["error"]


def test_dtc_budget_overrun_is_one_json_document(capsys, tmp_path, monkeypatch):
    import minalliance.fpt as fpt

    g = generate("cliqueplus:n=30,k=3", 1)
    path = tmp_path / "cp.dimacs"
    path.write_text(emit_dimacs(g))
    reads = iter([0.0])  # the deadline is set at 0 + 1 s; every later read is past it
    monkeypatch.setattr(fpt, "monotonic", lambda: next(reads, 1e9))
    # optimum <= 2, so auto routes this graph to search: name dtc
    code, out = run(capsys, "solve", str(path), "--algo", "dtc", "--time-limit", "1")
    assert code == EXIT_INVALID
    assert out == {
        "error": "time limit exceeded in the dtc guess loop",
        "kind": "budget",
        "incumbent": None,
        "incumbent_size": None,
        "lower_bound": None,
    }


def test_lowdeg_budget_overrun_is_one_json_document(capsys, tmp_path, monkeypatch):
    import minalliance.lowdeg as lowdeg

    # C_8(1, 2) without the edge (4, 5): no alliance of two, so lowdeg searches
    edges = [(i, (i + d) % 8) for i in range(8) for d in (1, 2)]
    g = build_graph(8, sorted({tuple(sorted(e)) for e in edges} - {(4, 5)}))
    path = tmp_path / "c8.dimacs"
    path.write_text(emit_dimacs(g))
    reads = iter([0.0])  # the deadline is set at 0 + 1 s; every later read is past it
    monkeypatch.setattr(lowdeg, "monotonic", lambda: next(reads, 1e9))
    code, out = run(capsys, "solve", str(path), "--time-limit", "1")
    assert code == EXIT_INVALID
    assert out == {
        "error": "time limit exceeded in lowdeg pass 1",
        "kind": "budget",
        "incumbent": None,
        "incumbent_size": None,
        "lower_bound": 3,
    }


def test_auto_sends_an_optimum_of_two_past_the_modulator_search(capsys, tmp_path):
    g = generate("twincover:n=30,t=4", 2)
    assert g.max_degree() > 5 and not g.forbidden
    path = tmp_path / "tc.dimacs"
    path.write_text(emit_dimacs(g))
    _, auto = run(capsys, "solve", str(path))
    _, search = run(capsys, "solve", str(path), "--algo", "search")
    _, cover = run(capsys, "solve", str(path), "--algo", "twincover")
    assert auto["algorithm"] == "search"
    assert auto["witness"] == search["witness"] == [v + 1 for v in degree_alliance(g)]
    assert auto["size"] == cover["size"] == 2


def test_auto_keeps_an_optimum_of_three_on_twincover(capsys, tmp_path):
    g = generate("twincover:n=16,t=3", 10)
    assert g.max_degree() > 5 and degree_alliance(g) is None
    path = tmp_path / "tc.dimacs"
    path.write_text(emit_dimacs(g))
    code, out = run(capsys, "solve", str(path), "--oracle")
    assert (code, out["algorithm"], out["size"], out["match"]) == (EXIT_OK, "search", 3, True)
    # the paper's twin-cover solver, named, agrees
    code, cover = run(capsys, "solve", str(path), "--algo", "twincover")
    assert (code, cover["algorithm"], cover["size"]) == (EXIT_OK, "twincover", 3)


def test_auto_sends_large_twin_classes_to_search(capsys, tmp_path):
    # the root bound starts `search` at the optimum here; on this family it
    # once took up to 1 515x the twin-cover route's time
    pytest.importorskip("scipy.optimize")
    g = generate("twincover:n=200,t=5,zmax=60", 3)
    path = tmp_path / "tc.dimacs"
    path.write_text(emit_dimacs(g))
    code, out = run(capsys, "solve", str(path))
    assert (code, out["algorithm"], out["size"]) == (EXIT_OK, "search", 8)
    assert out["size"] == milp_min_alliance_size(g.n, g.edges)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "cubic:n=8"],  # auto: lowdeg
        ["solve", "twincover:n=30,t=4"],  # auto: search, optimum 1
        ["solve", "cliqueplus:n=12,k=3"],  # auto: dtc
        ["solve", "cliqueplus:n=12,k=3", "--algo", "search"],
        ["params", "cliqueplus:n=12,k=3"],
        ["bench", "cubic:n=8"],
    ],
)
def test_a_negative_kmax_is_invalid_input_before_the_graph_is_read(capsys, tmp_path, argv):
    command, spec, *extra = argv
    path = tmp_path / "g.dimacs"
    path.write_text(emit_dimacs(generate(spec, 1)))
    target = tmp_path if command == "bench" else path
    code, out = run(capsys, command, str(target), *extra, "--kmax", "-1")
    assert (code, out) == (
        EXIT_INVALID, {"error": "--kmax must be nonnegative, got -1", "kind": "invalid-input"}
    )
    # the same answer where no graph could be read
    code, out = run(capsys, command, str(tmp_path / "missing"), *extra, "--kmax", "-1")
    assert (code, out["error"]) == (EXIT_INVALID, "--kmax must be nonnegative, got -1")


@pytest.mark.parametrize("limit", ["-1", "-0.5", "nan"])
@pytest.mark.parametrize(
    "spec, extra",
    [
        ("cubic:n=8", []),  # auto: lowdeg
        ("cliqueplus:n=12,k=3", []),  # auto: dtc
        ("cliqueplus:n=12,k=3", ["--algo", "search"]),
    ],
)
def test_solve_rejects_a_negative_time_limit(capsys, tmp_path, spec, extra, limit):
    path = tmp_path / "g.dimacs"
    path.write_text(emit_dimacs(generate(spec, 1)))
    code = run_command(["solve", str(path), *extra, f"--time-limit={limit}"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["kind"] == "invalid-input"
    assert "--time-limit" in out["error"]


def test_bench_rejects_a_negative_time_limit(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "g.dimacs").write_text(emit_dimacs(generate("cubic:n=8", 1)))
    code, out = run(capsys, "bench", str(corpus), "--time-limit=-1")
    assert code == EXIT_INVALID
    assert out["kind"] == "invalid-input"


def test_solve_prints_one_compact_json_line(capsys, bridge_file):
    assert run_command(["solve", bridge_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_solve_reports_the_line_of_a_bad_byte(capsys, tmp_path):
    path = tmp_path / "bad.dimacs"
    path.write_bytes(b"p edge 2 1\ne 1 2\n\xff\n")
    code, out = run(capsys, "solve", str(path))
    assert code == EXIT_INVALID
    assert out == {"error": "line 3: byte 0xff is not UTF-8", "kind": "invalid-input"}


def test_bench_reports_the_line_of_a_bad_byte(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.dimacs").write_bytes(b"p edge 2 1\ne 1 2\n\xff\n")
    code, out = run(capsys, "bench", str(corpus))
    assert code == EXIT_INVALID
    assert out == {"error": "line 3: byte 0xff is not UTF-8", "kind": "invalid-input"}


def test_solve_kmax_too_small_is_invalid_input(capsys, tmp_path):
    g = generate("cliqueplus:n=12,k=3", 1)
    path = tmp_path / "cp.dimacs"
    path.write_text(emit_dimacs(g))
    code, out = run(capsys, "solve", str(path), "--algo", "dtc", "--kmax", "0")
    assert code == EXIT_INVALID
    assert out["kind"] == "invalid-input"


def test_params_of_star(capsys, tmp_path):
    g = build_graph(7, [(0, i) for i in range(1, 7)])
    path = tmp_path / "star.dimacs"
    path.write_text(emit_dimacs(g))
    code, out = run(capsys, "params", str(path))
    assert code == EXIT_OK
    assert out["twin_cover"] == [1]
    assert out["max_clique_outside_cover"] == 1
    assert out["distance_to_clique"] is not None
    assert len(out["distance_to_clique"]) == 5


def test_reduce_reports_budget(capsys, prism_file):
    code, out = run(capsys, "reduce", prism_file, "--k", "2")
    assert code == EXIT_OK
    assert out["k_prime"] == 40
    assert out["target_n"] == 270
    assert out["forbidden_count"] == 192


def test_reduce_extract_round_trip(capsys, tmp_path, prism_file):
    target = tmp_path / "target.dimacs"
    instance = tmp_path / "instance.json"
    code, out = run(
        capsys,
        "reduce", prism_file, "--k", "2",
        "--out", str(target),
        "--instance-out", str(instance),
        "--witness-ds", "2,5",
    )
    assert code == EXIT_OK
    assert out["witness_size"] == 40
    tg = parse_dimacs(target.read_text())
    assert tg.n == 270 and len(tg.forbidden) == 192
    assert verify_alliance(tg, [v - 1 for v in out["witness"]]).valid

    members = vertex_file(tmp_path, "alliance.txt", out["witness"])
    code, out2 = run(capsys, "extract", str(instance), members)
    assert code == EXIT_OK
    assert out2["dominating_set"] == [2, 5]


def test_reduce_rejects_non_dominating_witness(capsys, prism_file):
    code, out = run(
        capsys, "reduce", prism_file, "--k", "2", "--witness-ds", "1,2"
    )
    assert code == EXIT_INVALID
    assert out["kind"] == "invalid-input"


def test_reduce_names_non_dominating_ids_as_written(capsys, tmp_path):
    c6 = tmp_path / "c6.dimacs"
    c6.write_text(emit_dimacs(generate("cubic:n=6", 1)))
    code, out = run(capsys, "reduce", str(c6), "--k", "2", "--witness-ds", "1,3")
    assert (code, out["kind"]) == (EXIT_INVALID, "invalid-input")
    assert "[1, 3] does not dominate" in out["error"]
    assert "[0, 2]" not in out["error"]


@pytest.mark.parametrize(
    "ids, named",
    [("1,99", "'99'"), ("0", "'0'"), ("2,x,-1,5", "'x', '-1', '5'"), ("", "''")],
)
def test_reduce_names_witness_ids_outside_the_source(capsys, tmp_path, ids, named):
    k4 = tmp_path / "k4.dimacs"
    k4.write_text(emit_dimacs(build_graph(4, [(a, b) for b in range(4) for a in range(b)])))
    code, out = run(capsys, "reduce", str(k4), "--k", "1", "--witness-ds", ids)
    assert code == EXIT_INVALID
    assert out["kind"] == "invalid-input"
    assert out["error"].endswith(f"1..4: {named}")


@pytest.mark.parametrize(
    "argv",
    [["gen", "cubic:n=4", "--out"], ["reduce", "K4", "--k", "1", "--out"],
     ["reduce", "K4", "--k", "1", "--instance-out"]],
    ids=["gen --out", "reduce --out", "reduce --instance-out"],
)
def test_an_empty_output_path_is_named_as_written(capsys, tmp_path, argv):
    # an empty value is read, not taken for an absent option, and the file is
    # opened by the path as given, as `solve ''` opens its graph
    k4 = tmp_path / "k4.dimacs"
    k4.write_text(emit_dimacs(build_graph(4, [(a, b) for b in range(4) for a in range(b)])))
    code, out = run(capsys, *[str(k4) if a == "K4" else a for a in argv], "")
    assert (code, out["kind"]) == (EXIT_INVALID, "invalid-input")
    assert out["error"].endswith("No such file or directory: ''")


def test_extract_rejects_foreign_json(capsys, tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"kind": "something-else"}))
    sfile = vertex_file(tmp_path, "s.txt", [1])
    code, out = run(capsys, "extract", str(bogus), sfile)
    assert code == EXIT_INVALID


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"kind": "dominating-set-reduction", "k": 2},
    {"kind": "dominating-set-reduction", "source_dimacs": "p edge 1 0\n"},
    # a valid source with a JSON boolean k, which Python counts as an int
    {"kind": "dominating-set-reduction", "k": True,
     "source_dimacs": emit_dimacs(generate("cubic:n=4", 0))},
])
def test_extract_rejects_malformed_instance(capsys, tmp_path, payload):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps(payload))
    sfile = vertex_file(tmp_path, "s.txt", [1])
    code, out = run(capsys, "extract", str(bogus), sfile)
    assert code == EXIT_INVALID
    assert out["kind"] == "invalid-input"
    assert out["error"].startswith(f"{bogus} "), out  # the file is at fault, not the set


def test_gen_inline_and_to_file(capsys, tmp_path):
    code, out = run(capsys, "gen", "cubic:n=8", "--seed", "5")
    assert code == EXIT_OK
    g = parse_dimacs(out["dimacs"])
    assert g.n == 8 and all(g.degree(v) == 3 for v in range(8))

    path = tmp_path / "gen.dimacs"
    code, out2 = run(capsys, "gen", "cubic:n=8", "--seed", "5", "--out", str(path))
    assert code == EXIT_OK
    assert parse_dimacs(path.read_text()).edges == g.edges


def test_module_entry_point_prints_one_document():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "minalliance.cli", "gen", "cubic:n=6", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_OK
    out = json.loads(proc.stdout)  # exactly one JSON document
    assert out["n"] == 6 and out["seed"] == 1


def test_gen_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "11")
    _, from_env = run(capsys, "gen", "degcap:n=9,dmax=4")
    _, from_flag = run(capsys, "gen", "degcap:n=9,dmax=4", "--seed", "11")
    assert from_env["dimacs"] == from_flag["dimacs"]
    assert from_env["seed"] == 11


def test_gen_names_a_bad_seed_env(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "abc")
    code, out = run(capsys, "gen", "cubic:n=4")
    assert (code, out["kind"]) == (EXIT_INVALID, "invalid-input")
    assert out["error"] == f"{SEED_ENV}='abc' is not an integer seed"


def test_gen_rejects_bad_spec(capsys):
    code, out = run(capsys, "gen", "cubic:n=5")
    assert code == EXIT_INVALID
    assert out["kind"] == "invalid-input"


def small_corpus(tmp_path, count=2):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in range(count):
        g = generate("degcap:n=9,dmax=5", seed)
        (corpus / f"g{seed}.dimacs").write_text(emit_dimacs(g))
    return str(corpus)


def test_bench_rejects_empty_artifacts_before_reading_a_graph(capsys, tmp_path, monkeypatch):
    # Path("") is ".": without the check, a mismatch would write its
    # reproducer files into the working directory
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "g.dimacs").write_text(emit_dimacs(generate("degcap:n=9,dmax=5", 4)))
    import minalliance.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "solve_min_alliance_lowdeg",
        lambda graph, *, time_limit=None: verify_alliance(graph, range(graph.n)),
    )
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    for target in (corpus, tmp_path / "missing"):
        code, out = run(
            capsys, "bench", str(target), "--algo", "lowdeg", "--oracle", "--artifacts", ""
        )
        assert (code, out) == (
            EXIT_INVALID,
            {"error": "--artifacts must name a directory, got ''", "kind": "invalid-input"},
        )
    assert sorted(tmp_path.rglob("*")) == before


def test_bench_clean_corpus(capsys, tmp_path):
    code, out = run(
        capsys, "bench", small_corpus(tmp_path, 3), "--algo", "lowdeg,brute", "--oracle",
        "--artifacts", str(tmp_path / "bad"),
    )
    assert code == EXIT_OK
    assert len(out) == 6
    assert all(rec["match"] for rec in out)
    assert [rec["instance"] for rec in out] == sorted(
        rec["instance"] for rec in out
    )
    assert not (tmp_path / "bad").exists()


def test_bench_mismatch_writes_artifact(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    g = generate("degcap:n=9,dmax=5", 4)
    (corpus / "g.dimacs").write_text(emit_dimacs(g))

    import minalliance.cli as cli_mod

    def oversized_solver(graph, *, time_limit=None):
        # valid alliance, wrong size: the whole graph is always an alliance
        return verify_alliance(graph, range(graph.n))

    monkeypatch.setattr(cli_mod, "solve_min_alliance_lowdeg", oversized_solver)
    code, out = run(
        capsys, "bench", str(corpus), "--algo", "lowdeg", "--oracle",
        "--artifacts", str(tmp_path / "bad"),
    )
    assert code == EXIT_INTERNAL
    assert (tmp_path / "bad" / "g.dimacs").exists()
    payload = json.loads((tmp_path / "bad" / "g.counterexample.json").read_text())
    assert payload["instance"] == "g"
    assert payload["records"]["lowdeg"]["match"] is False


def recording(calls, label, func):
    """`func`, appending `label` to `calls` on each call."""

    def wrapped(*args, **kwargs):
        calls.append(label)
        return func(*args, **kwargs)

    return wrapped


def test_bench_runs_the_oracle_once_per_graph(capsys, tmp_path, monkeypatch):
    import minalliance.cli as cli_mod

    calls = []
    real = cli_mod.brute_force_min_alliance
    monkeypatch.setattr(cli_mod, "brute_force_min_alliance", recording(calls, "brute", real))
    code, out = run(
        capsys, "bench", small_corpus(tmp_path), "--algo", "auto,search,ilp", "--oracle",
        "--artifacts", str(tmp_path / "bad"),
    )
    assert code == EXIT_OK
    assert len(out) == 6 and all(rec["match"] is True for rec in out)
    assert calls == ["brute", "brute"]


def test_bench_prints_one_record_per_repeated_algo_entry(capsys, tmp_path):
    code, out = run(
        capsys, "bench", small_corpus(tmp_path), "--algo", "search,lowdeg,search",
        "--oracle", "--artifacts", str(tmp_path / "bad"),
    )
    assert code == EXIT_OK
    assert [(rec["instance"], rec["algorithm"]) for rec in out] == [
        (f"g{i}.dimacs", algo) for i in range(2) for algo in ("search", "lowdeg", "search")
    ]
    assert all(rec["match"] is True for rec in out)


@pytest.mark.parametrize(
    "spec, seed, algo, same_witness",
    [
        # auto sends both graphs to search; the named route prints the same
        # document under its own name, with another witness of the same
        # size on the cliqueplus graph
        pytest.param("cliqueplus:n=12,k=2", 3, "dtc", False, id="cliqueplus:n=12,k=2-3-dtc"),
        pytest.param(
            "twincover:n=16,t=3", 10, "twincover", True, id="twincover:n=16,t=3-10-twincover"
        ),
    ],
)
def test_an_explicit_modulator_route_prints_autos_document(
    capsys, tmp_path, spec, seed, algo, same_witness
):
    path = tmp_path / "g.dimacs"
    path.write_text(emit_dimacs(generate(spec, seed)))
    docs = []
    for argv in ([], ["--algo", algo]):
        code, out = run(capsys, "solve", str(path), "--oracle", *argv)
        assert code == EXIT_OK
        assert isinstance(out.pop("wall_time_s"), float)
        docs.append(out)
    assert docs[0].pop("algorithm") == "search"
    assert docs[1].pop("algorithm") == algo
    assert docs[0]["match"] is docs[1]["match"] is True
    if not same_witness:
        assert docs[0].pop("witness") != docs[1].pop("witness")
    assert docs[0] == docs[1]


def out_of_time_ilp(monkeypatch):
    """Stub the ILP engine so that the ILP oracle always overruns."""
    import minalliance.ilp as ilp

    def out_of_time(prob, **_kw):
        raise ilp.IlpBudgetExceeded("time limit exceeded after 1 nodes")

    monkeypatch.setattr(ilp, "solve_ilp", out_of_time)


def test_an_oracle_overrun_keeps_the_solver_answer(capsys, tmp_path, monkeypatch):
    out_of_time_ilp(monkeypatch)
    path = tmp_path / "cubic60.dimacs"
    path.write_text(emit_dimacs(generate("cubic:n=60", 1)))
    code, out = run(capsys, "solve", str(path), "--oracle", "--time-limit", "0.05")
    assert code == EXIT_OK
    assert (out["algorithm"], out["size"], out["valid"]) == ("lowdeg", 2, True)
    assert out["match"] is None
    assert "oracle_size" not in out


def test_bench_records_an_oracle_overrun_and_goes_on(capsys, tmp_path, monkeypatch):
    out_of_time_ilp(monkeypatch)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in (1, 2):
        (corpus / f"c{seed}.dimacs").write_text(emit_dimacs(generate("cubic:n=60", seed)))
    code, out = run(
        capsys, "bench", str(corpus), "--oracle", "--time-limit", "0.05",
        "--artifacts", str(tmp_path / "bad"),
    )
    assert code == EXIT_OK
    assert [rec["instance"] for rec in out] == ["c1.dimacs", "c2.dimacs"]
    for rec in out:
        assert (rec["algorithm"], rec["size"], rec["match"]) == ("lowdeg", 2, None)
        assert "oracle_size" not in rec
    assert not (tmp_path / "bad").exists()


def cycle_corpus(tmp_path, sizes):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for n in sizes:
        g = build_graph(n, [(v, (v + 1) % n) for v in range(n)])
        (corpus / f"c{n:02d}.dimacs").write_text(emit_dimacs(g))
    return str(corpus)


@pytest.mark.parametrize("extra", [[], ["--oracle"]])
def test_bench_records_an_entrys_error_and_goes_on(capsys, tmp_path, extra):
    corpus = cycle_corpus(tmp_path, (5, BRUTE_MAX_N + 1))
    code, out = run(
        capsys, "bench", corpus, "--algo", "auto,brute", *extra,
        "--artifacts", str(tmp_path / "bad"),
    )
    assert code == EXIT_INVALID
    assert [(rec["instance"], rec["algorithm"]) for rec in out] == [
        (f"c{n:02d}.dimacs", algo) for n in (5, BRUTE_MAX_N + 1) for algo in ("lowdeg", "brute")
    ]
    assert out[3] == {
        "algorithm": "brute",
        "instance": f"c{BRUTE_MAX_N + 1}.dimacs",
        "error": f"refusing exhaustive search on n={BRUTE_MAX_N + 1} (guard max_n={BRUTE_MAX_N})",
        "kind": "invalid-input",
    }
    for rec in out[:3]:
        assert (rec["size"], rec["valid"]) == (2, True)
        assert rec.get("match", True) is True
    assert not (tmp_path / "bad").exists()


def test_bench_records_a_budget_exit_with_its_incumbent(capsys, tmp_path, monkeypatch):
    import minalliance.cli as cli_mod
    from minalliance import BudgetExceeded

    def out_of_time(graph, *, time_limit=None, stall=None):
        incumbent = verify_alliance(graph, range(graph.n))
        raise BudgetExceeded("time limit exceeded", alliance=incumbent, lower_bound=2)

    monkeypatch.setattr(cli_mod, "solve_min_alliance_search", out_of_time)
    code, out = run(capsys, "bench", cycle_corpus(tmp_path, (4,)), "--algo", "search,lowdeg")
    assert code == EXIT_INVALID
    assert out[0] == {
        "algorithm": "search",
        "instance": "c04.dimacs",
        "error": "time limit exceeded",
        "kind": "budget",
        "incumbent": [1, 2, 3, 4],
        "incumbent_size": 4,
        "lower_bound": 2,
    }
    assert (out[1]["algorithm"], out[1]["size"]) == ("lowdeg", 2)


def test_bench_exits_2_on_a_mismatch_beside_an_error(capsys, tmp_path, monkeypatch):
    import minalliance.cli as cli_mod

    def oversized_solver(graph, *, time_limit=None):
        return verify_alliance(graph, range(graph.n))

    monkeypatch.setattr(cli_mod, "solve_min_alliance_lowdeg", oversized_solver)
    code, out = run(
        capsys, "bench", cycle_corpus(tmp_path, (5, BRUTE_MAX_N + 1)), "--algo", "brute,lowdeg",
        "--oracle", "--artifacts", str(tmp_path / "bad"),
    )
    assert code == EXIT_INTERNAL
    assert [rec["kind"] for rec in out if "error" in rec] == ["invalid-input"]
    assert [rec["match"] for rec in out if "error" not in rec] == [True, False, False]
    assert sorted(p.name for p in (tmp_path / "bad").iterdir()) == [
        f"c{n:02d}.{ext}" for n in (5, BRUTE_MAX_N + 1) for ext in ("counterexample.json", "dimacs")
    ]


def test_bench_rejects_an_unknown_algo_before_any_graph(capsys, tmp_path):
    code, out = run(capsys, "bench", cycle_corpus(tmp_path, (4,)), "--algo", "auto,fast")
    assert code == EXIT_INVALID
    assert out == {"error": "--algo: unknown algorithm 'fast'", "kind": "invalid-input"}


@pytest.mark.parametrize("extra", [[], ["--oracle"]])
def test_auto_answers_the_empty_graph_with_no_alliance(capsys, tmp_path, extra):
    path = tmp_path / "empty.dimacs"
    path.write_text("p edge 0 0\n")
    code, out = run(capsys, "solve", str(path), *extra)
    assert code == EXIT_OK
    assert (out["algorithm"], out["size"], out["witness"], out["valid"]) == (
        "search", None, [], None
    )
    if extra:
        assert out["match"] is True and "oracle_size" not in out
    else:
        assert "match" not in out


@pytest.mark.parametrize("n, oracle", [(BRUTE_MAX_N, "brute"), (BRUTE_MAX_N + 1, "ilp")])
def test_the_oracle_is_brute_force_up_to_its_guard(capsys, tmp_path, monkeypatch, n, oracle):
    import minalliance.cli as cli_mod

    used = []
    for name, label in (("brute_force_min_alliance", "brute"), ("solve_min_alliance_ilp", "ilp")):
        monkeypatch.setattr(cli_mod, name, recording(used, label, getattr(cli_mod, name)))
    path = tmp_path / "cycle.dimacs"
    path.write_text(emit_dimacs(build_graph(n, [(v, (v + 1) % n) for v in range(n)])))
    code, out = run(capsys, "solve", str(path), "--oracle")
    assert code == EXIT_OK
    assert (out["algorithm"], out["size"], out["oracle_size"], out["match"]) == ("lowdeg", 2, 2, True)
    assert used == [oracle]


def test_invalid_witness_is_internal_error(capsys, bridge_file, monkeypatch):
    import minalliance.cli as cli_mod
    from minalliance import AllianceSolution

    def broken_solver(graph, *, time_limit=None):
        return AllianceSolution(members=(0,), size=1, valid=False, violations=())

    monkeypatch.setattr(cli_mod, "solve_min_alliance_lowdeg", broken_solver)
    code, out = run(capsys, "solve", bridge_file, "--algo", "lowdeg")
    assert code == EXIT_INTERNAL
    assert out["kind"] == "internal"


def test_missing_file_is_invalid_input(capsys):
    code, out = run(capsys, "solve", "/no/such/file.dimacs")
    assert code == EXIT_INVALID
    assert out["kind"] == "invalid-input"


def test_bad_dimacs_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "junk.dimacs"
    path.write_text("p edge 2 1\ne 1 5\n")
    code, out = run(capsys, "verify", str(path), str(path))
    assert code == EXIT_INVALID


def test_unknown_flag_is_invalid_input(capsys):
    assert run_command(["solve", "--nonsense"]) == EXIT_INVALID
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["solve", "GRAPH", "--kmax", "abc"], "'abc'"),
        (["frob"], "'frob'"),
        ([], "command"),
        (["verify", "GRAPH"], "set"),
    ],
)
def test_usage_error_is_one_invalid_input_document(capsys, bridge_file, argv, named):
    code = run_command([bridge_file if a == "GRAPH" else a for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.err == ""
    (line,) = captured.out.splitlines()
    out = json.loads(line)
    assert out["kind"] == "invalid-input"
    assert out["error"].startswith("minalliance")
    assert named in out["error"]


def test_json_output_is_deterministic(capsys, bridge_file):
    first = run(capsys, "solve", bridge_file, "--algo", "lowdeg")
    second = run(capsys, "solve", bridge_file, "--algo", "lowdeg")
    assert first[1]["witness"] == second[1]["witness"]
    assert first[1]["size"] == second[1]["size"]


def test_write_counterexample_helper(tmp_path):
    g = build_graph(3, [(0, 1), (1, 2)])
    path = write_counterexample(
        tmp_path / "artifacts", "case7", g, {"lowdeg": {"size": 3}}
    )
    assert path.name == "case7.counterexample.json"
    assert (tmp_path / "artifacts" / "case7.dimacs").read_text() == emit_dimacs(g)
    assert json.loads(path.read_text())["records"]["lowdeg"]["size"] == 3


def test_options_do_not_carry_over_between_calls(capsys, tmp_path):
    # a smallest dtc set of 6 vertices: a named dtc runs with it, and auto's
    # search answers before any hand-off
    g = generate("cliqueplus:n=14,k=6", 1)
    assert degree_alliance(g) is None  # optimum > 2, else search answers
    assert len(distance_to_clique_set(g, 8)) == 6
    path = tmp_path / "cp.dimacs"
    path.write_text(emit_dimacs(g))
    code, out = run(capsys, "solve", str(path), "--algo", "search", "--kmax", "8", "--oracle")
    assert (code, out["algorithm"], out["match"]) == (EXIT_OK, "search", True)
    code, out = run(capsys, "solve", str(path), "--algo", "dtc", "--kmax", "8")
    assert (code, out["algorithm"]) == (EXIT_OK, "dtc")
    code, plain = run(capsys, "solve", str(path))
    # auto with the default kmax, and no --oracle fields
    assert (code, plain["algorithm"]) == (EXIT_OK, "search")
    assert "match" not in plain and "oracle_size" not in plain
    assert plain["size"] == out["size"]


def test_errors_and_help_leave_the_next_call_intact(capsys, bridge_file):
    _, want = run(capsys, "solve", bridge_file)
    assert run_command(["solve", bridge_file, "--algo", "nope"]) == EXIT_INVALID
    assert run_command(["solve", "--help"]) == EXIT_OK
    assert run_command(["--help"]) == EXIT_OK
    assert run_command([]) == EXIT_INVALID
    capsys.readouterr()
    code, out = run(capsys, "solve", bridge_file)  # one JSON document
    assert code == EXIT_OK
    assert {k: v for k, v in out.items() if k != "wall_time_s"} == {
        k: v for k, v in want.items() if k != "wall_time_s"
    }


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_is_one_json_document(capsys, argv):
    assert run_command(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    (line,) = captured.out.splitlines()
    doc = json.loads(line)
    assert doc["kind"] == "help"
    assert doc["help"].startswith(" ".join(["usage: minalliance", *argv[:-1]]))
    assert ("--kmax" in doc["help"]) == (argv[0] == "solve")


def test_parser_is_built_at_most_once(capsys, monkeypatch, bridge_file):
    import minalliance.cli as cli_mod

    built = []
    real = cli_mod.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli_mod, "build_parser", counting)
    cli_mod._shared_parser.cache_clear()
    for argv in (["solve", bridge_file], ["gen", "cubic:n=6"], ["solve", "--nonsense"]) * 5:
        run_command(argv)
    capsys.readouterr()
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv",
    [
        [], ["--help"], ["-h"], ["frob"], ["-x", "solve", "GRAPH"], ["solve"],
        ["solve", "--help"], ["solve", "GRAPH", "-h"],
        ["solve", "GRAPH", "--nonsense"], ["solve", "--nonsense", "GRAPH"],
        ["solve", "GRAPH", "extra"],
        ["solve", "GRAPH", "--kmax", "abc"], ["solve", "GRAPH", "--kmax"],
        ["solve", "GRAPH", "--algo", "nope"], ["solve", "GRAPH", "--alg", "search"],
        ["solve", "GRAPH", "--orac"], ["solve", "--", "GRAPH"],
        ["verify", "GRAPH"], ["verify", "GRAPH", "MISSING"], ["bench"],
        ["solve", "MISSING"], ["solve", "DIR"],
        ["solve", "GRAPH"], ["solve", "GRAPH", "--algo=lowdeg", "--oracle", "--kmax", "2"],
        ["params", "GRAPH", "--kmax", "1"], ["gen", "cubic:n=6", "--seed", "3"],
        ["solve", "--algo", "search", "--kmax", "8", "GRAPH"],
        ["solve", "GRAPH", "--kmax", "1", "--algo", "lowdeg", "--kmax", "7"],
        ["solve", "--oracle", "GRAPH", "--oracle", "--algo", "brute"],
        ["solve", "GRAPH", "--time-limit", "nan"], ["solve", "GRAPH", "--kmax", "007"],
        ["gen", "--seed", "3", "--seed", "1_0", "cubic:n=6"], ["gen", "cubic:n=4,foo=1"],
        ["reduce", "--k", "1", "GRAPH"], ["reduce", "GRAPH"], ["bench", "DIR", "--algo", "auto,search"],
    ],
    ids=lambda argv: " ".join(argv) or "(no arguments)",
)
def test_one_pass_parse_matches_the_full_parser(capsys, monkeypatch, tmp_path, bridge_file, argv):
    # run_command reads a plain command line off the table of the shared
    # tree and hands any other to argparse; the full tree, built anew, must
    # give the same exit code and document
    import minalliance.cli as cli_mod

    paths = {"GRAPH": bridge_file, "MISSING": str(tmp_path / "missing"), "DIR": str(tmp_path)}
    argv = [paths.get(a, a) for a in argv]

    def outcome():
        code = run_command(list(argv))
        captured = capsys.readouterr()
        assert captured.err == ""
        (line,) = captured.out.splitlines()
        doc = json.loads(line)
        for record in doc if isinstance(doc, list) else [doc]:  # bench prints a list
            record.pop("wall_time_s", None)
        return code, doc

    got = outcome()
    monkeypatch.setattr(cli_mod, "_parse_args", lambda argv: cli_mod.build_parser().parse_args(argv))
    assert got == outcome()


def _parse_outcome(parse, argv):
    """The namespace `parse` gives `argv` (a float by its repr, so that nan
    equals nan), or "error" / "help" when it raises."""
    import minalliance.cli as cli_mod

    try:
        args = parse(argv)
    except ValueError:
        return "error"
    except cli_mod._HelpRequested:
        return "help"
    return {k: repr(v) if isinstance(v, float) else v for k, v in vars(args).items()}


def _tree_words():
    """By subcommand, its positional dests and its long option strings, read
    off a fresh tree."""
    import argparse

    import minalliance.cli as cli_mod

    ap = cli_mod.build_parser()
    (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: (
            [a.dest for a in p._actions if not a.option_strings],
            sorted(s for a in p._actions for s in a.option_strings if s.startswith("--")),
        )
        for name, p in sub.choices.items()
    }


def _random_argv(rng, words):
    """A command line drawn from subcommands, their positionals, options and
    values, and words argparse reads otherwise: abbreviations, `=` forms, -h,
    --, the empty word, negative-looking, padded and non-numeric values.  A
    share of the draws is exactly a subcommand and its positionals."""
    noise = [
        "-h", "--help", "--", "", "-1", "-", "-x", "--nonsense", "007", "abc", "nan", "inf",
        "1_0", " 5", "a b", "-x y", "1.5", "search", "lowdeg", "nope", "auto,search",
        "cubic:n=6", "--alg", "--km", "--orac", "--time", "--inst", "--wit", "--se", "--o",
        "--algo=search", "--kmax=3", "--seed=3", "--k=1", "frob", "solve", "gen",
    ]
    values = ["G", "3", "0", "007", "1_0", " 5", "-1", "nan", "2.5", "abc", "", "search",
              "lowdeg", "auto,search", "nope", "cubic:n=6", "a b"]
    command = rng.choice(sorted(words)) if rng.random() < 0.95 else rng.choice(noise)
    argv = [command]
    positionals, options = words.get(command, (["graph"], ["--algo", "--kmax"]))
    if rng.random() < 0.3:
        return argv + [rng.choice(values + ["S", "x.dimacs"]) for _ in positionals]
    for _ in range(rng.randrange(6)):
        r = rng.random()
        if r < 0.1:
            argv.append(rng.choice(noise))
        elif r < 0.45:
            argv.append(rng.choice(["G", "S", "x.dimacs"]))
        else:
            argv.append(rng.choice(options))
            if rng.random() < 0.8:
                argv.append(rng.choice(values))
    return argv


def test_the_plain_reader_agrees_with_argparse_or_declines(monkeypatch):
    # a seeded random walk over command lines: whenever the table reads a
    # line, its namespace is the one the full tree gives; every other line
    # reaches argparse
    import minalliance.cli as cli_mod

    class Declined(Exception):
        pass

    class Declining:
        def parse_args(self, argv):
            raise Declined

    _, plain = cli_mod._shared_parser()
    monkeypatch.setattr(cli_mod, "_shared_parser", lambda: (Declining(), plain))
    full = cli_mod.build_parser()
    words = _tree_words()
    rng = random.Random(28)
    accepted = declined = 0
    for _ in range(15000):
        argv = _random_argv(rng, words)
        try:
            args = cli_mod._parse_args(argv)
        except Declined:
            declined += 1
            continue
        accepted += 1
        assert _parse_outcome(lambda _: args, argv) == _parse_outcome(full.parse_args, argv), argv
    assert accepted >= 1000 and declined >= 1000, (accepted, declined)


def test_plain_command_lines_skip_argparse(capsys, monkeypatch, tmp_path, bridge_file):
    import argparse

    import minalliance.cli as cli_mod

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bridge.dimacs").write_text(Path(bridge_file).read_text())
    members = tmp_path / "members.txt"
    members.write_text("1\n")
    cli_mod._shared_parser()  # the table is read off argparse once, before any line
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)

    def parses(*argv):
        calls.clear()
        run_command(list(argv))
        capsys.readouterr()
        return len(calls)

    assert parses("solve", bridge_file) == 0
    assert parses("verify", bridge_file, str(members)) == 0
    assert parses("params", bridge_file) == 0
    assert parses("gen", "cubic:n=6") == 0
    assert parses("bench", str(corpus)) == 0
    # only the parse counts here: extract then fails on the missing instance
    assert parses("extract", str(tmp_path / "instance.json"), str(members)) == 0
    for argv in (
        ["solve", bridge_file, "--algo", "search", "--kmax", "8", "--oracle"],
        ["gen", "cubic:n=6", "--seed", "3"],
        ["bench", str(corpus), "--algo", "auto,search"],
        *(["solve", bridge_file, *extra]
          for extra in (["-h"], ["--alg", "search"], ["--algo=lowdeg"], ["--nonsense"])),
    ):
        assert parses(*argv) >= 1, argv


@pytest.mark.parametrize("path", ["", "./no-such.dimacs"])
def test_a_missing_graph_is_named_as_written(capsys, path):
    # the file is opened by the path as given, and the message names it so
    code, out = run(capsys, "solve", path)
    assert code == EXIT_INVALID
    assert out["kind"] == "invalid-input"
    assert out["error"].endswith(f"No such file or directory: {path!r}")

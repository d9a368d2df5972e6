import pytest

from minalliance import build_graph, build_reduction, emit_dimacs, generate, parse_dimacs
from minalliance.cli import _pick_algorithm, _solve_one
from minalliance.dimacs import (
    DimacsError,
    DuplicateEdgeError,
    EdgeRangeError,
    MalformedHeaderError,
    _id_table,
    _parse_canonical,
    _parse_lines,
)
from minalliance.graphs import Graph

from conftest import TRIANGULAR_PRISM_EDGES


def test_parse_k2():
    g = parse_dimacs("p edge 2 1\ne 1 2\n")
    assert (g.n, g.m) == (2, 1)
    assert g.has_edge(0, 1)


def test_parse_triangle():
    g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert (g.n, g.m) == (3, 3)
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_accepts_bytes_comments_blanks():
    g = parse_dimacs(b"c a remark\n\np edge 2 1\nc another\ne 1 2\n")
    assert g.m == 1


def test_parse_forbidden_lines():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\nf 3\n")
    assert g.forbidden == frozenset({2})


def test_parse_cubic_file_feeds_reduction(tmp_path):
    g = build_graph(6, TRIANGULAR_PRISM_EDGES)
    text = emit_dimacs(g, comment="triangular prism")
    back = parse_dimacs(text)
    assert back.edges == g.edges
    assert build_reduction(back, 2).k_prime == 40


@pytest.mark.parametrize(
    "text,err,line",
    [
        ("p edge x 1\ne 1 2\n", MalformedHeaderError, 1),
        ("p vertex 2 1\ne 1 2\n", MalformedHeaderError, 1),
        ("e 1 2\n", MalformedHeaderError, 1),
        ("p edge 2 1\ne 1 2\ne 2 1\n", DuplicateEdgeError, 3),
        ("p edge 2 2\ne 1 2\ne 2 1\n", DuplicateEdgeError, 3),
        ("p edge 2 1\ne 1 3\n", EdgeRangeError, 2),
        ("p edge 2 1\ne 0 1\n", EdgeRangeError, 2),
        ("p edge 2 1\nf 9\n", EdgeRangeError, 2),
        (b"p edge 2 1\ne 1 2\n\xff\n", DimacsError, 3),
        (b"p edge 2 1\r\ne 1 \xe92\n", DimacsError, 2),
        # U+2028 ends a line for str.splitlines, so "e 1 2" is edge data
        # before the problem line, not part of the comment
        ("c x\u2028e 1 2\np edge 2 1\ne 1 2\n", MalformedHeaderError, 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, err, line):
    with pytest.raises(err) as info:
        parse_dimacs(text)
    assert info.value.line == line
    assert isinstance(info.value, DimacsError)


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(DimacsError):
        parse_dimacs("p edge 3 2\ne 1 2\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p edge 3 1\ne 1 2\ne 2 3\n")


def test_parse_rejects_self_loop():
    with pytest.raises(DimacsError):
        parse_dimacs("p edge 2 1\ne 1 1\n")


def test_emit_bit_exact_round_trip():
    g = build_graph(4, [(2, 3), (0, 1), (1, 3)], forbidden=[3, 0])
    text = emit_dimacs(g)
    assert text == "p edge 4 3\ne 1 2\ne 2 4\ne 3 4\nf 1\nf 4\n"
    again = emit_dimacs(parse_dimacs(text))
    assert again == text


def test_emit_comment_header():
    g = build_graph(2, [(0, 1)])
    text = emit_dimacs(g, comment="two lines\nof remarks")
    assert text.startswith("c two lines\nc of remarks\np edge 2 1\n")
    assert emit_dimacs(parse_dimacs(text)) == emit_dimacs(g)


@pytest.mark.parametrize(
    "spec",
    ["cubic:n=30", "degcap:n=24,dmax=5", "degcap:n=16,dmax=8",
     "cliqueplus:n=20,k=3", "twincover:n=24,t=4"],
)
def test_parse_of_emit_is_the_same_graph(spec):
    for seed in range(3):
        g = generate(spec, seed)
        assert parse_dimacs(emit_dimacs(g)) == g


def test_parse_of_emit_keeps_forbidden_vertices():
    target = build_reduction(generate("cubic:n=4", 0), 1).target
    assert target.forbidden
    back = parse_dimacs(emit_dimacs(target))
    assert back == target
    assert (back.adj, back.masks, back.forbidden) == (
        target.adj, target.masks, target.forbidden
    )


@pytest.mark.parametrize(
    "g, comment",
    [(generate(spec, 5), f"{spec} seed=5")
     for spec in ("cubic:n=30", "degcap:n=24,dmax=8", "cliqueplus:n=20,k=3",
                  "twincover:n=24,t=4")]
    + [(build_reduction(generate("cubic:n=4", 0), 1).target, "forbidden vertices"),
       (build_graph(3, [(0, 2), (1, 2)]), "two lines\n\tof remarks"),
       (build_graph(0, []), None)],
)
def test_emit_output_takes_the_fast_path(g, comment):
    text = emit_dimacs(g, comment=comment)
    fast = _parse_canonical(text)
    assert fast is not None
    assert fast == _parse_lines(text) == g
    assert fast.masks == g.masks


def test_id_tables_are_shared_across_sizes_without_leaking_between_them():
    # each n = 5 text has an id the n = 10 or n = 12 table would accept, or a
    # leading zero; a shared table must miss it as a fresh one does
    def small(*lines):
        return "p edge 5 %d\n" % sum(line[0] == "e" for line in lines) + "".join(
            f"{line}\n" for line in lines
        )

    fives = [
        small("e 1 2", "e 2 3", "e 4 5"),
        small("e 1 2", "e 3 7"),
        small("e 1 2", "f 6"),
        small("e 2 007"),
        small("e 1 005", "f 3"),
    ]
    texts = [emit_dimacs(generate("cubic:n=10", 1)), *fives,
             emit_dimacs(generate("degcap:n=12,dmax=4", 2), comment="twelve"), *fives]
    _id_table.cache_clear()
    for text in texts:
        try:
            want = _parse_lines(text)
        except DimacsError as exc:
            with pytest.raises(type(exc)) as info:
                parse_dimacs(text)
            got = info.value
            assert (type(got), got.line, str(got)) == (type(exc), exc.line, str(exc))
        else:
            assert parse_dimacs(text) == want
    assert _id_table.cache_info().hits >= len(fives)
    for n in (5, 10, 12):
        assert _id_table(n) == {str(v + 1): v for v in range(n)}


@pytest.mark.parametrize(
    "text",
    ["p edge 3 2\ne 2 3\ne 1 2\n", "p edge 4 3\ne 1 3\ne 1 2\ne 3 4\n",
     "c out of order\np edge 4 2\ne 2 4\ne 1 4\nf 2\n"],
)
def test_edges_out_of_order_take_the_line_parser(text):
    assert _parse_canonical(text) is None
    g = parse_dimacs(text)
    assert g == _parse_lines(text)
    assert g.edges == tuple(sorted(g.edges)) and g.m == len(g.edges)


def _reduction_target() -> Graph:
    return build_reduction(generate("cubic:n=4", 1), 1).target


@pytest.mark.parametrize(
    "make, route",
    [(lambda: generate("cubic:n=30", 1), "lowdeg"),
     (lambda: generate("degcap:n=30,dmax=4", 2), "lowdeg"),
     (lambda: generate("cliqueplus:n=26,k=2", 3), "search"),
     (lambda: generate("twincover:n=30,t=4", 2), "search"),
     (_reduction_target, "search")],
    ids=["cubic", "degcap", "cliqueplus", "twincover", "reduction-target"],
)
def test_the_fast_path_and_a_solve_leave_edges_unbuilt(make, route):
    g = parse_dimacs(emit_dimacs(make()))
    algo, mod = _pick_algorithm(g, "auto", 5)
    assert algo == route
    assert _solve_one(g, algo, mod, None).valid
    assert "edges" not in vars(g)


@pytest.mark.parametrize(
    "make",
    [lambda: generate(spec, 4)
     for spec in ("cubic:n=30", "degcap:n=24,dmax=8", "cliqueplus:n=20,k=3",
                  "twincover:n=24,t=4")]
    + [_reduction_target,
       lambda: build_graph(5, [(4, 1), (0, 3), (2, 0), (3, 4), (1, 0)], [2]),
       lambda: build_graph(1, []),
       lambda: build_graph(0, [])],
    ids=["cubic", "degcap", "cliqueplus", "twincover", "reduction-target",
         "unsorted", "one-vertex", "empty"],
)
def test_seeded_edges_equal_the_ones_derived_from_adj(make):
    built = make()
    text = emit_dimacs(built)
    by_lines, fast = _parse_lines(text), _parse_canonical(text)
    assert "edges" in vars(built) and "edges" in vars(by_lines)
    assert "edges" not in vars(fast)
    derive = Graph.edges.func
    assert built.edges == derive(built) == by_lines.edges == derive(by_lines)
    assert fast.edges == built.edges == tuple(sorted(built.edges))
    assert built == by_lines == fast
    assert built.m == by_lines.m == fast.m == len(built.edges)

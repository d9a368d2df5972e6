"""`parse_dimacs` against the line parser on mutated canonical texts.

Each case starts from `emit_dimacs` output, which the fast path reads, and
applies a few mutations that either keep the graph (CRLF endings, reversed
endpoints, leading zeros, blank lines, comments between edge lines, two edge
lines swapped, a repeated `f` line, no final newline) or break the file
(self-loops, the ids 0 and n + 1, a repeated edge, a wrong edge count,
`p edge 0 0`, a line-separator character inside a comment, a byte that is
not UTF-8).  Swapped edge lines keep the fast path's layout but break its
ascending order.  `parse_dimacs` must give what the line parser, called
directly, gives: the same graph with the same adjacency sets, edges and
edge count, or the same exception type, message and line.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from minalliance import build_graph, emit_dimacs, parse_dimacs
from minalliance.dimacs import DimacsError, _parse_lines

# every boundary str.splitlines breaks a line at
SEPARATORS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029")

MUTATIONS = ("crlf", "separator", "reverse", "self-loop", "leading-zero",
             "id-zero", "id-past-n", "blank", "comment-between", "repeat-edge",
             "repeat-forbidden", "no-final-newline", "wrong-m", "empty-header",
             "bad-byte", "swap-edges")


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    forbidden = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return build_graph(n, edges, forbidden)


def _mutate(draw, lines: list[str], mutation: str, n: int) -> None:
    """Apply `mutation` to `lines` (no terminators) in place."""
    kinds = {key: [i for i, ln in enumerate(lines) if ln.startswith(key)]
             for key in ("p", "e", "f")}
    data = kinds["e"] + kinds["f"]
    if mutation == "separator":
        sep = draw(st.sampled_from(SEPARATORS))
        tail = draw(st.sampled_from(("", "x", "e 1 2", "p edge 2 1", "f 1", "c y")))
        lines.insert(draw(st.integers(0, len(lines))), f"c x{sep}{tail}")
    elif mutation == "reverse" and kinds["e"]:
        i = draw(st.sampled_from(kinds["e"]))
        key, u, v = lines[i].split()
        lines[i] = f"{key} {v} {u}"
    elif mutation == "self-loop" and kinds["e"]:
        i = draw(st.sampled_from(kinds["e"]))
        lines[i] = "e {0} {0}".format(lines[i].split()[1])
    elif mutation in ("leading-zero", "id-zero", "id-past-n") and data:
        i = draw(st.sampled_from(data))
        fields = lines[i].split()
        j = draw(st.integers(1, len(fields) - 1))
        fields[j] = {"leading-zero": "0" + fields[j], "id-zero": "0",
                     "id-past-n": str(n + 1)}[mutation]
        lines[i] = " ".join(fields)
    elif mutation == "blank":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "  ", "\t"))))
    elif mutation == "swap-edges" and len(kinds["e"]) >= 2:
        i, j = draw(st.lists(st.sampled_from(kinds["e"]), min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    elif mutation == "comment-between" and kinds["e"]:
        lines.insert(draw(st.sampled_from(kinds["e"])) + 1, "c between edges")
    elif mutation in ("repeat-edge", "repeat-forbidden"):
        rows = kinds["e" if mutation == "repeat-edge" else "f"]
        if rows:
            i, j = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            if i != j and draw(st.booleans()):  # overwrite: the count still holds
                lines[j] = lines[i]
            else:
                lines.insert(i + 1, lines[i])
    elif mutation == "wrong-m":
        i = kinds["p"][0]
        *head, m = lines[i].split()
        lines[i] = " ".join(head + [str(int(m) + draw(st.sampled_from((-1, 1))))])
    elif mutation == "empty-header":
        lines[kinds["p"][0]] = "p edge 0 0"
        if draw(st.booleans()):  # drop the data too: a valid empty graph
            lines[:] = [ln for ln in lines if not ln.startswith(("e", "f"))]


@st.composite
def _texts(draw):
    g = draw(_graphs())
    comment = draw(st.sampled_from((None, "one", "two\nlines", "tab\there")))
    lines = emit_dimacs(g, comment=comment).splitlines()
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=3))
    for mutation in mutations:
        _mutate(draw, lines, mutation, g.n)
    newline = "\r\n" if "crlf" in mutations else "\n"
    text = newline.join(lines)
    if "no-final-newline" not in mutations:
        text += newline
    data = text.encode("utf-8")
    if "bad-byte" in mutations:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def outcome(parse, source):
    try:
        g = parse(source)
    except DimacsError as exc:
        return type(exc), str(exc), exc.line
    return g, g.masks, g.edges, g.m


def by_lines(data: bytes):
    """The line parser's outcome; for bytes that are not UTF-8, the decoding
    error, which `parse_dimacs` raises before either path is tried."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        result = outcome(parse_dimacs, data)
        assert result[0] is DimacsError and "not UTF-8" in result[1]
        return result
    return outcome(_parse_lines, text)


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(_texts())
def test_parse_dimacs_matches_the_line_parser(data):
    expected = by_lines(data)
    assert outcome(parse_dimacs, data) == expected
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    assert outcome(parse_dimacs, text) == expected


@pytest.mark.parametrize("sep", SEPARATORS)
def test_a_separator_in_a_comment_ends_the_comment(sep):
    text = f"c x{sep}e 1 2\np edge 2 1\ne 1 2\n"
    assert outcome(parse_dimacs, text) == outcome(_parse_lines, text)
    with pytest.raises(DimacsError):
        parse_dimacs(text)

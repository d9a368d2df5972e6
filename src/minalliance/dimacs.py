"""DIMACS edge-format reading and writing, with an `f` line extension that
marks forbidden vertices.  Vertices are 1-indexed on disk, 0-indexed in code.

`parse_dimacs` reads text in the exact layout `emit_dimacs` writes on a fast
path (`_parse_canonical`) and everything else line by line (`_parse_lines`);
both give the same graph, and every fault is reported by the line parser.
The fast path also needs the edge lines in ascending order of (u, v), as
`emit_dimacs` writes them; edges in any other order take the line parser.

The fast path's pattern repeats comment lines, then edge lines, then
forbidden lines.  On Python 3.11 and later each repeat is possessive: it
never gives back a line it has matched.  That changes no match.  A line
matches in one way only, and each repeated line starts with its own letter
(`c`, `e`, `f`), which cannot start what follows the repeat (the `p` line,
an `f` line, the end of the text).  A match that stopped a repeat a line
early would need that line to be read as what follows, which its first
letter rules out; so backtracking into a repeat never helps, and the
possessive form only spares the engine the attempt.
"""

from __future__ import annotations

import functools
import re
import sys

from .graphs import Graph, _freeze, _from_neighbours

# The layout `emit_dimacs` writes: comment lines, the problem line, edge
# lines, forbidden lines, single spaces, every line ended by "\n".  A comment
# must not span a line break that `str.splitlines` (the line parser's split)
# sees, so its class excludes every such separator, not only "\n".  The three
# line repeats are possessive where the `re` module has them (Python 3.11 and
# later): see the module docstring for why that matches the same texts.
_LINES = "*+" if sys.version_info >= (3, 11) else "*"
_CANONICAL = re.compile(
    r"(?:c[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*\n)" + _LINES
    + r"p edge ([0-9]+) ([0-9]+)\n"
    + r"((?:e [0-9]+ [0-9]+\n)" + _LINES + ")"
    + r"((?:f [0-9]+\n)" + _LINES + ")"
)


class DimacsError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedHeaderError(DimacsError):
    pass


class DuplicateEdgeError(DimacsError):
    pass


class EdgeRangeError(DimacsError):
    pass


@functools.lru_cache(maxsize=16)
def _id_table(n: int) -> dict[str, int]:
    """{"1": 0, ..., str(n): n - 1}, shared by every parse with this n, so
    its callers only read it."""
    return dict(zip(map(str, range(1, n + 1)), range(n)))


def _parse_canonical(text: str) -> Graph | None:
    """The graph of `text` when it is in `emit_dimacs`'s layout with valid
    data, else None.

    Valid means m edges with 1 <= u < v <= n, each pair strictly after the
    one before it, and forbidden ids in 1..n.  `emit_dimacs` writes its edges
    in ascending order, which also rules out a repeated edge, and one loop
    over the pairs checks the order while it fills the adjacency lists, which
    come out sorted (see `_freeze`); a file whose edges are valid but out of
    order goes to the line parser.  Each id is looked up in a
    {"1": 0, ..., str(n): n - 1} dict, which parses and range-checks it in
    one step; "0", an id above n and a leading zero all miss.  The edge count
    is checked before the dict is built, so a header that promises more edges
    than the text holds costs no O(n) work."""
    match = _CANONICAL.fullmatch(text)
    if match is None:
        return None
    n, m = int(match[1]), int(match[2])
    fields = match[3].split()
    if len(fields) != 3 * m:
        return None
    get = _id_table(n).__getitem__
    neigh: list[list[int]] = [[] for _ in range(n)]
    lu = lv = -1  # the previous pair
    try:
        for u, v in zip(map(get, fields[1::3]), map(get, fields[2::3])):
            if v <= u or u < lu or (u == lu and v <= lv):
                return None
            lu, lv = u, v
            neigh[u].append(v)
            neigh[v].append(u)
        forbidden = set(map(get, match[4].split()[1::2]))
    except KeyError:
        return None
    return _from_neighbours(n, m, neigh, forbidden)


def parse_dimacs(text: str | bytes) -> Graph:
    """Parse "p edge n m" followed by m "e u v" lines and optional "f u" lines.

    Bytes are read as UTF-8; a bad byte is a DimacsError on its line.  Text
    in `emit_dimacs`'s layout, edges in ascending order, takes the fast path;
    any other text, and every fault, goes through the line parser, which
    names the line at fault."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bad byte starts or continues the last line of the valid prefix
            line = len((text[: exc.start].decode("utf-8") + "x").splitlines())
            raise DimacsError(f"byte {text[exc.start]:#04x} is not UTF-8", line) from None
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


def _parse_lines(text: str) -> Graph:
    """The line parser: any accepted layout, and a DimacsError naming the
    line of the first fault."""
    n = m = -1
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    forbidden: set[int] = set()
    header_line = 0
    # one split per line; edge lines, nearly all of a file, come first, and
    # the stripped line is built only for a message or the header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        key = fields[0]
        if key == "e" and n >= 0:
            if len(fields) != 3:
                raise DimacsError(f"bad edge line {raw.strip()!r}", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(f"non-integer endpoint in {raw.strip()!r}", lineno) from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise EdgeRangeError(f"endpoint outside 1..{n} in {raw.strip()!r}", lineno)
            if u == v:
                raise EdgeRangeError(f"self-loop at {u}", lineno)
            e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if e in seen:
                raise DuplicateEdgeError(f"edge {u} {v} repeats", lineno)
            seen.add(e)
            edges.append(e)
            continue
        if key[0] == "c":
            continue
        line = raw.strip()
        if key == "p":
            if n >= 0:
                raise MalformedHeaderError("second problem line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise MalformedHeaderError(f"bad problem line {line!r}", lineno)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise MalformedHeaderError(f"non-integer sizes in {line!r}", lineno) from None
            if n < 0 or m < 0:
                raise MalformedHeaderError(f"negative sizes in {line!r}", lineno)
            header_line = lineno
        elif n < 0:
            raise MalformedHeaderError("edge data before the problem line", lineno)
        elif key == "f":
            if len(fields) != 2:
                raise DimacsError(f"bad forbidden line {line!r}", lineno)
            try:
                u = int(fields[1])
            except ValueError:
                raise DimacsError(f"non-integer vertex in {line!r}", lineno) from None
            if not (1 <= u <= n):
                raise EdgeRangeError(f"vertex outside 1..{n} in {line!r}", lineno)
            forbidden.add(u - 1)
        else:
            raise DimacsError(f"unrecognised line {line!r}", lineno)
    if n < 0:
        raise MalformedHeaderError("missing problem line", max(1, header_line))
    if len(edges) != m:
        raise DimacsError(f"header promised {m} edges, found {len(edges)}", header_line)
    # every edge and forbidden vertex was checked above, with its line number
    return _freeze(n, edges, forbidden)


def emit_dimacs(g: Graph, comment: str | None = None) -> str:
    """Canonical text for a graph: sorted edges, unix newlines, 1-indexed."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p edge {g.n} {g.m}")
    for u, v in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    for v in sorted(g.forbidden):
        lines.append(f"f {v + 1}")
    return "\n".join(lines) + "\n"

"""The DGN text format for weighted dual graphs.

Line oriented; `#` starts a comment anywhere on a line.  Directives:

    v <id> <weight> [C]      declare a vertex, optionally C-marked
    e <u> <v>                declare an edge between existing vertices
    chain <first-id> <w1> <w2> ...
                             declare a path of fresh consecutive ids

serialize_dgn writes a canonical form (sorted `v` lines, then sorted `e`
lines) that parse_dgn maps back to an equal graph; serializing a parsed
canonical document reproduces it byte for byte.
"""

from __future__ import annotations

from .errors import ParseError
from .graphs import DualGraph


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def parse_dgn(text: str) -> DualGraph:
    weights: dict[int, int] = {}
    c: int | None = None
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    seen_edges: set[tuple[int, int]] = set()

    def add_vertex(vid: int, weight: int, marked: bool, line_no: int) -> None:
        nonlocal c
        if vid in weights:
            raise ParseError(line_no, f"duplicate vertex id {vid}")
        weights[vid] = weight
        if marked:
            if c is not None:
                raise ParseError(
                    line_no, f"second C mark on vertex {vid} (already on {c})"
                )
            c = vid

    def add_edge(u: int, v: int, line_no: int) -> None:
        if u == v:
            raise ParseError(line_no, f"loop edge at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen_edges:
            raise ParseError(line_no, f"duplicate edge ({key[0]},{key[1]})")
        seen_edges.add(key)
        edges.append(key)
        edge_lines.append(line_no)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "v":
            if len(args) == 3 and args[2] == "C":
                marked = True
                args = args[:2]
            elif len(args) == 2:
                marked = False
            else:
                raise ParseError(line_no, "expected: v <id> <weight> [C]")
            vid = _int(args[0], line_no, "vertex id")
            weight = _int(args[1], line_no, "vertex weight")
            add_vertex(vid, weight, marked, line_no)
        elif kind == "e":
            if len(args) != 2:
                raise ParseError(line_no, "expected: e <u> <v>")
            add_edge(
                _int(args[0], line_no, "edge endpoint"),
                _int(args[1], line_no, "edge endpoint"),
                line_no,
            )
        elif kind == "chain":
            if len(args) < 2:
                raise ParseError(line_no, "expected: chain <first-id> <w1> ...")
            first = _int(args[0], line_no, "chain first id")
            ws = [
                _int(tok, line_no, "chain weight") for tok in args[1:]
            ]
            for i, w in enumerate(ws):
                add_vertex(first + i, w, False, line_no)
            for i in range(len(ws) - 1):
                add_edge(first + i, first + i + 1, line_no)
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")

    for (u, v), line_no in zip(edges, edge_lines):
        if u not in weights or v not in weights:
            missing = u if u not in weights else v
            raise ParseError(line_no, f"edge references undeclared vertex {missing}")
    # every check DualGraph() makes has been made above, with line numbers
    g = DualGraph.__new__(DualGraph)
    g._init(None, None, weights, tuple(sorted(edges)), c)
    return g


def serialize_dgn(g: DualGraph) -> str:
    lines = []
    for v in g.vertex_ids:
        mark = " C" if g.c == v else ""
        lines.append(f"v {v} {g.weight(v)}{mark}")
    for u, v in sorted(g.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")

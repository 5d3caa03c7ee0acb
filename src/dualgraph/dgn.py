"""The DGN text format for weighted dual graphs.

Line oriented; `#` starts a comment anywhere on a line.  Directives:

    v <id> <weight> [C]      declare a vertex, optionally C-marked
    e <u> <v>                declare an edge between existing vertices
    chain <first-id> <w1> <w2> ...
                             declare a path of fresh consecutive ids

serialize_dgn writes a canonical form (sorted `v` lines, then sorted `e`
lines) that parse_dgn maps back to an equal graph; serializing a parsed
canonical document reproduces it byte for byte.  parse_dgn gives the graph
vertex-level data only; serialize_dgn reads the compact form when the graph
holds it (a family build, a cut, an edit of one, or a parsed graph that a
query has compressed), walking its runs in id order, so the text of a run
costs one join over its ids and nothing is sorted per vertex.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from .errors import ParseError
from .graphs import DualGraph, _id_order


def _not_int(line_no: int, named: Iterable[tuple[str, str]]) -> ParseError:
    """The error for the first (what, token) of named whose token is not an
    integer; a line's tokens are converted together and this names the
    culprit only once a conversion has failed."""
    for what, token in named:
        try:
            int(token)
        except ValueError:
            return ParseError(line_no, f"{what} must be an integer, got {token!r}")
    raise AssertionError("every token is an integer")


def parse_dgn(text: str) -> DualGraph:
    weights: dict[int, int] = {}
    c: int | None = None
    edges: dict[tuple[int, int], int] = {}  # edge -> its line, in order

    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "v":
            if len(tokens) == 3:
                marked = False
            elif len(tokens) == 4 and tokens[3] == "C":
                marked = True
            else:
                raise ParseError(line_no, "expected: v <id> <weight> [C]")
            try:
                vid = int(tokens[1])
                weight = int(tokens[2])
            except ValueError:
                raise _not_int(
                    line_no,
                    (("vertex id", tokens[1]), ("vertex weight", tokens[2])),
                ) from None
            if vid in weights:
                raise ParseError(line_no, f"duplicate vertex id {vid}")
            weights[vid] = weight
            if marked:
                if c is not None:
                    raise ParseError(
                        line_no, f"second C mark on vertex {vid} (already on {c})"
                    )
                c = vid
        elif kind == "e":
            if len(tokens) != 3:
                raise ParseError(line_no, "expected: e <u> <v>")
            try:
                u = int(tokens[1])
                v = int(tokens[2])
            except ValueError:
                raise _not_int(
                    line_no, (("edge endpoint", tok) for tok in tokens[1:])
                ) from None
            if u < v:
                key = (u, v)
            elif u > v:
                key = (v, u)
            else:
                raise ParseError(line_no, f"loop edge at vertex {u}")
            if key in edges:
                raise ParseError(line_no, f"duplicate edge ({key[0]},{key[1]})")
            edges[key] = line_no
        elif kind == "chain":
            if len(tokens) < 3:
                raise ParseError(line_no, "expected: chain <first-id> <w1> ...")
            try:
                first = int(tokens[1])
                ws = [int(tok) for tok in tokens[2:]]
            except ValueError:
                raise _not_int(
                    line_no,
                    [("chain first id", tokens[1])]
                    + [("chain weight", tok) for tok in tokens[2:]],
                ) from None
            for vid, w in enumerate(ws, start=first):
                if vid in weights:
                    raise ParseError(line_no, f"duplicate vertex id {vid}")
                weights[vid] = w
            for u in range(first, first + len(ws) - 1):
                if (u, u + 1) in edges:
                    raise ParseError(line_no, f"duplicate edge ({u},{u + 1})")
                edges[u, u + 1] = line_no
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")

    for (u, v), line_no in edges.items():
        if u not in weights or v not in weights:
            missing = u if u not in weights else v
            raise ParseError(line_no, f"edge references undeclared vertex {missing}")
    # every check DualGraph() makes has been made above, with line numbers
    return DualGraph._make(None, None, weights, tuple(sorted(edges)), c)


def serialize_dgn(g: DualGraph) -> str:
    """The canonical text of g: its v lines, then its e lines, both sorted.

    A graph that holds the compact form is written from its walk in id order
    (graphs._id_order), so the lines of a range run are one join over its
    ids and nothing is sorted per vertex; a graph that holds only
    vertex-level data is written from it, sorting its weights by id (edges
    are kept sorted).  Both give the same bytes.
    """
    c = g.c
    if g._core is None:
        weights, edges = g._expand()
        items = sorted(weights.items())
        blocks = [f"v {v} {w}" for v, w in items]
        if c is not None:
            blocks[bisect_left(items, (c,))] += " C"
        blocks += [f"e {u} {v}" for u, v in edges]
    else:
        core = g._core
        vertices, edges = _id_order(core, g._links)
        blocks = []
        for v, ids in vertices:
            if ids is None:
                blocks.append(f"v {v} {core.get(v, -2)}" + (" C" if v == c else ""))
            elif c is not None and c in ids:
                blocks += [f"v {i} -2" + (" C" if i == c else "") for i in ids]
            else:
                blocks.append("\n".join([f"v {i} -2" for i in ids]))
        for u, v, ids in edges:
            if ids is None:
                blocks.append(f"e {u} {v}")
            else:
                blocks.append("\n".join([f"e {x} {y}" for x, y in zip(ids, ids[1:])]))
    return "\n".join(blocks) + ("\n" if blocks else "")

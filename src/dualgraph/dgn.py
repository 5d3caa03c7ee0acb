"""The DGN text format for weighted dual graphs.

Line oriented; `#` starts a comment anywhere on a line.  Directives:

    v <id> <weight> [C]      declare a vertex, optionally C-marked
    e <u> <v>                declare an edge between existing vertices
    chain <first-id> <w1> <w2> ...
                             declare a path of fresh consecutive ids

serialize_dgn writes a canonical form (sorted `v` lines, then sorted `e`
lines) that parse_dgn maps back to an equal graph; serializing a parsed
canonical document reproduces it byte for byte.  serialize_dgn reads the
compact form when the graph holds it (a family build, a cut, an edit of one,
or a parsed graph that read an `e` block or that a query has compressed),
walking its runs in id order, so the text of a run is one string over its ids
and nothing is sorted per vertex.

A range run has one spelling, which the writer and the reader share
(_run_text): `v i -2` or `e i i+1` for consecutive i.  parse_dgn reads a
block of lines so spelled in one step (_block) and every other line on its
own; a block that repeats an id or an edge is read up to that line, which
the loop then refuses, so every ParseError keeps its line and message.  The
graph holds the vertex-level data it was given, and a text in which an `e`
block was read also gets its compact form at once (_compress); a text
without one is compressed by its first query.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain, compress, count, islice, repeat
from operator import eq
from typing import Iterable

from .errors import ParseError
from .graphs import DualGraph, _id_order, _normalize


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


# A block is looked for only after a line whose id is a multiple of _STEP and
# when the line _STEP past the next one spells the run too: every run of more
# than 2 * _STEP lines has such a place, and shorter ones cost less line by line.
_STEP = 16


def _run_text(kind: str, first: int, stop: int) -> str:
    """The lines `v i -2` ("v") or `e i i+1` ("e"), first <= i < stop, joined
    by newlines: how serialize_dgn writes a range run, and parse_dgn reads it."""
    ids = range(first, stop)
    if kind == "v":
        return ("\nv %d -2" * len(ids) % tuple(ids))[1:]
    pairs = chain.from_iterable(zip(ids, range(first + 1, stop + 1)))
    return ("\ne %d %d" * len(ids) % tuple(pairs))[1:]


def _block(lines: list[str], at: int, kind: str, first: int, held: dict):
    """The keys of the block from lines[at] (which exists) that spells the run
    from the id first: its ids ("v") or edges ("e"), up to the first that held
    has, whose line the loop then refuses.  Chunks of doubling size are
    compared with _run_text as one string each, and the first wrong line of
    the chunk that fails ends the block."""
    n, step = 0, 1
    while step:
        got = lines[at + n : at + n + step]
        want = _run_text(kind, first + n, first + n + step)
        if "\n".join(got) != want:
            n += list(map(eq, got, want.split("\n"))).index(False)
            break
        n += step
        step = min(2 * step, len(lines) - at - n)
    ids = range(first, first + n)
    keys = ids if kind == "v" else list(zip(ids, range(first + 1, ids.stop + 1)))
    dup = next(filter(held.__contains__, keys), None)
    return keys if dup is None else keys[: keys.index(dup)]


def _compress(weights: dict[int, int], edges: dict, runs) -> tuple:
    """The compact form of a parsed graph whose edges (i, i + 1), a <= i < b,
    stand from place at on in edges, for each (at, a, b) of runs.  Each stretch
    of such a block whose inner ids weigh -2 and meet no other edge is one
    link to _normalize, any other edge a link alone, sorted by their ends as
    DualGraph._compact's are, so that the core comes out in the same order."""
    keys = list(edges)
    alone, last = [], 0
    for at, a, b in runs:
        alone += keys[last:at]
        last = at + b - a
    alone += keys[last:]
    ends = sorted(set(chain.from_iterable(alone)))
    nodes = dict(weights)
    links = [(u, v, ()) for u, v in alone]
    for _, a, b in runs:
        inner = range(a + 1, b)
        # an inner id that another edge meets, or that weighs other than -2,
        # cuts the block: the links run between the cuts
        heavy = compress(inner, map((-2).__ne__, map(weights.__getitem__, inner)))
        cuts = sorted({*ends[bisect_right(ends, a) : bisect_left(ends, b)], *heavy})
        for x, y in zip([a, *cuts], [*cuts, b]):
            ids = range(x + 1, y)
            deque(map(nodes.pop, ids), 0)  # drop them, in C
            links.append((x, y, ids or ()))
    links.sort(key=lambda link: link[:2])
    return _normalize(nodes, links)


def parse_dgn(text: str) -> DualGraph:
    """The graph a DGN text declares; ParseError names the first fault and
    its line.  See the module docstring for blocks read in one step."""
    weights: dict[int, int] = {}
    c: int | None = None
    edges: dict[tuple[int, int], int] = {}  # edge -> its line, in order
    runs: list[tuple[int, int, int]] = []  # e blocks; see _compress

    lines = text.splitlines()
    end = len(lines)
    rest = enumerate(lines, start=1)
    for line_no, line in rest:
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
            # lines[line_no] is the next line, where a block would start
            if weight == -2 and not vid % _STEP and line_no + _STEP < end and (
                lines[line_no + _STEP] == f"v {vid + _STEP + 1} -2"
            ):
                ids = _block(lines, line_no, "v", vid + 1, weights)
                weights.update(zip(ids, repeat(-2)))
                next(islice(rest, len(ids), len(ids)), None)  # skip the block
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
            if v == u + 1 and not u % _STEP and line_no + _STEP < end and (
                lines[line_no + _STEP] == f"e {v + _STEP} {v + _STEP + 1}"
            ):
                pairs = _block(lines, line_no, "e", v, edges)
                runs.append((len(edges) - 1, u, v + len(pairs)))
                edges.update(zip(pairs, count(line_no + 1)))
                next(islice(rest, len(pairs), len(pairs)), None)  # skip the block
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

    del lines  # free, as the line loop's exhausted iterator frees them
    for (u, v), line_no in edges.items():
        if u not in weights or v not in weights:
            missing = u if u not in weights else v
            raise ParseError(line_no, f"edge references undeclared vertex {missing}")
    # every check DualGraph() makes has been made above, with line numbers
    core, links = _compress(weights, edges, runs) if runs else (None, None)
    return DualGraph._make(core, links, weights, tuple(sorted(edges)), c)


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
                blocks.append(_run_text("v", ids[0], ids[-1] + 1))
        for u, v, ids in edges:
            if ids is None:
                blocks.append(f"e {u} {v}")
            else:
                blocks.append(_run_text("e", ids[0], ids[-1]))
    return "\n".join(blocks) + ("\n" if blocks else "")

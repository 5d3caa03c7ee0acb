"""The DGN text format for weighted dual graphs.

Line oriented; `#` starts a comment anywhere on a line.  Directives:

    v <id> <weight> [C]      declare a vertex, optionally C-marked
    e <u> <v>                declare an edge between existing vertices
    chain <first-id> <w1> <w2> ...
                             declare a path of fresh consecutive ids

Every id and weight is spelled in ASCII as -?[0-9]+; whatever else int()
would take ("1_0", "+5", "٣") is refused as not an integer.

serialize_dgn writes a canonical form (sorted `v` lines, then sorted `e`
lines) that parse_dgn maps back to an equal graph; serializing a parsed
canonical document reproduces it byte for byte.  serialize_dgn reads the
compact form when the graph holds it (a family build, a cut, an edit of one,
a parsed canonical text, or a graph that a query has compressed), walking
its runs in id order, so the text of a run is one string over its ids and
nothing is sorted per vertex.

A range run has one spelling, which the writer and the reader share
(_run_text): `v i -2` or `e i i+1` for consecutive i.  parse_dgn reads a
block of lines so spelled in one step (_block) and keeps it as a span of
ids, never as one entry per vertex or edge; every other line is read on
its own into the loose-line dicts.  While the declared ids ascend no id can
repeat, so a `v` block needs no check; an `e` block is cut before the first
edge that an earlier span or loose line holds, and the loop then refuses
that line, so every ParseError keeps its line and message.  Undeclared
endpoints are found by span coverage after the last line.

Who holds vertex-level data: a text with an `e` block whose ids ascend (as
serialize_dgn, `family build` and the benchmark write them) gives a graph
holding only its compact form, built from the spans (_compress), whose
weights expand in id order, which is line order.  At the first `v` or
`chain` id that does not ascend, the spans read so far are folded into the
loose-line dicts in id order (_fold), and the text keeps vertex-level data
in line order, as a text without an `e` block does; the first is also given
its compact form at once, and the second is compressed by its first query.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain, islice, repeat
from operator import eq, itemgetter
from typing import Iterable

from .errors import ParseError
from .graphs import DualGraph, _id_order, _normalize


def _ascii_int(token: str) -> int:
    """int(token) for a token spelled -?[0-9]+ in ASCII; ValueError for
    anything else, though int() takes "1_0", "+5" and "٣"."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _not_int(line_no: int, named: Iterable[tuple[str, str]]) -> ParseError:
    """The error for the first (what, token) of named whose token is not an
    integer; a line's tokens are converted together and this names the
    culprit only once a conversion has failed."""
    for what, token in named:
        try:
            _ascii_int(token)
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


def _block(lines: list[str], at: int, kind: str, first: int) -> int:
    """How many lines from lines[at] (which exists) spell the run from the
    id first.  Chunks of doubling size are compared with _run_text as one
    string each, and the first wrong line of the chunk that fails ends the
    block."""
    n, step = 0, 1
    while step:
        got = lines[at + n : at + n + step]
        want = _run_text(kind, first + n, first + n + step)
        if "\n".join(got) != want:
            return n + list(map(eq, got, want.split("\n"))).index(False)
        n += step
        step = min(2 * step, len(lines) - at - n)
    return n


# A span (start, stop, ...) stands for the ids start <= i < stop of a v block,
# or for the edges (i, i + 1) of an e block, the first of them on the line
# that follows start; spans are kept sorted and disjoint.
_start = itemgetter(0)


def _span_at(spans, i: int):
    """The span of spans that holds i, or None."""
    k = bisect_right(spans, i, key=_start)
    return spans[k - 1] if k and i < spans[k - 1][1] else None


def _fresh(edges: dict, spans: list, first: int, stop: int) -> int:
    """stop, or the first i, first <= i < stop, whose edge (i, i + 1) an
    e span or a loose line already holds; the loose lines are scanned when
    they are fewer than the ids."""
    k = bisect_left(spans, first, key=_start)
    if k < len(spans):
        stop = min(stop, spans[k][0])
    if len(edges) < stop - first:
        return min((a for a, b in edges if b == a + 1 and first <= a < stop), default=stop)
    return next((a for a in range(first, stop) if (a, a + 1) in edges), stop)


def _fold(weights: dict[int, int], spans) -> dict[int, int]:
    """weights with the (-2)-ids of the v spans put in, in id order, where
    the keys of weights ascend and no span holds one."""
    if not spans:
        return weights
    items = list(weights.items())
    out: dict[int, int] = {}
    at = 0
    for start, stop in spans:
        k = bisect_left(items, start, lo=at, key=_start)
        out.update(items[at:k])
        out.update(zip(range(start, stop), repeat(-2)))
        at = k
    out.update(items[at:])
    return out


def _undeclared(weights: dict, vspans, lo: int, hi: int) -> int | None:
    """The first id of lo..hi (both included) that neither weights nor a v
    span declares, or None."""
    while lo <= hi:
        if lo in weights:
            lo += 1
        else:
            span = _span_at(vspans, lo)
            if span is None:
                return lo
            lo = span[1]
    return None


def _outside(spans, holes) -> list[tuple[int, int]]:
    """The parts (start, stop) of the sorted, disjoint spans that the
    sorted, disjoint holes (start, stop) leave."""
    out, k = [], 0
    for start, stop in spans:
        while k < len(holes) and holes[k][1] <= start:
            k += 1
        j = k
        while j < len(holes) and holes[j][0] < stop:
            lo, hi = holes[j]
            if start < lo:
                out.append((start, lo))
            start = max(start, hi)
            j += 1
        if start < stop:
            out.append((start, stop))
    return out


def _compress(weights: dict[int, int], vspans, edges: dict, espans) -> tuple:
    """The compact form of a parsed graph: the loose weights and v spans,
    the loose edges and the e spans.  Each stretch of an e span whose inner
    ids weigh -2 and meet no loose edge is one link to _normalize, any other
    edge a link alone, sorted by their ends as DualGraph._compact's are; the
    nodes are the ids no stretch holds inside, in line order, so that the
    core comes out in the same order.  The keys of weights ascend wherever
    vspans is not empty."""
    keys = sorted(weights)  # linear where they ascend
    ends = sorted(set(chain.from_iterable(edges)))
    links = [(u, v, ()) for u, v in edges]
    holes = []
    for a, b, _ in espans:  # the path a, a + 1, ..., b
        inner = keys[bisect_right(keys, a) : bisect_left(keys, b)]
        heavy = [v for v in inner if weights[v] != -2]
        # an inner id that a loose edge meets, or that weighs other than -2,
        # cuts the span: the links run between the cuts
        cuts = sorted({*ends[bisect_right(ends, a) : bisect_left(ends, b)], *heavy})
        for x, y in zip([a, *cuts], [*cuts, b]):
            links.append((x, y, range(x + 1, y) or ()))
            if y > x + 1:
                holes.append((x + 1, y))
    links.sort(key=lambda link: link[:2])
    inside = {v for lo, hi in holes for v in keys[bisect_left(keys, lo) : bisect_left(keys, hi)]}
    loose = {v: w for v, w in weights.items() if v not in inside} if inside else weights
    return _normalize(_fold(loose, _outside(vspans, holes)), links)


def parse_dgn(text: str) -> DualGraph:
    """The graph a DGN text declares; ParseError names the first fault and
    its line.  See the module docstring for blocks, spans and who holds
    vertex-level data."""
    weights: dict[int, int] = {}  # loose v and chain lines, in line order
    vspans: list[tuple[int, int]] | None = []  # None once folded into weights
    top = float("-inf")  # the largest id declared so far
    c: int | None = None
    edges: dict[tuple[int, int], int] = {}  # loose edge -> its line, in order
    espans: list[tuple[int, int, int]] = []  # (first u, stop, first line)
    # a text in ASCII without "_" or "+" (in its comments too) spells every
    # integer as int() reads it; any other is read token by token
    to_int = int if text.isascii() and "_" not in text and "+" not in text else _ascii_int

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
                vid = to_int(tokens[1])
                weight = to_int(tokens[2])
            except ValueError:
                raise _not_int(
                    line_no,
                    (("vertex id", tokens[1]), ("vertex weight", tokens[2])),
                ) from None
            if vid > top:
                top = vid
            else:  # the ids stop ascending: from here on weights holds them all
                weights, vspans = _fold(weights, vspans), None
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
                n = _block(lines, line_no, "v", vid + 1)
                ids = range(vid + 1, vid + 1 + n)
                if vspans is None:
                    dup = next(filter(weights.__contains__, ids), None)
                    ids = ids if dup is None else range(ids.start, dup)
                    weights.update(zip(ids, repeat(-2)))
                elif ids:  # every id above top: none declared yet
                    vspans.append((ids.start, ids.stop))
                top = max(top, ids.stop - 1)
                next(islice(rest, len(ids), len(ids)), None)  # skip the block
        elif kind == "e":
            if len(tokens) != 3:
                raise ParseError(line_no, "expected: e <u> <v>")
            try:
                u = to_int(tokens[1])
                v = to_int(tokens[2])
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
            if key in edges or (
                espans and key[1] == key[0] + 1 and _span_at(espans, key[0])
            ):
                raise ParseError(line_no, f"duplicate edge ({key[0]},{key[1]})")
            if v == u + 1 and not u % _STEP and line_no + _STEP < end and (
                lines[line_no + _STEP] == f"e {v + _STEP} {v + _STEP + 1}"
            ):
                stop = _fresh(edges, espans, v, v + _block(lines, line_no, "e", v))
                insort(espans, (u, stop, line_no))
                next(islice(rest, stop - v, stop - v), None)  # skip the block
            else:
                edges[key] = line_no
        elif kind == "chain":
            if len(tokens) < 3:
                raise ParseError(line_no, "expected: chain <first-id> <w1> ...")
            try:
                first = to_int(tokens[1])
                ws = [to_int(tok) for tok in tokens[2:]]
            except ValueError:
                raise _not_int(
                    line_no,
                    [("chain first id", tokens[1])]
                    + [("chain weight", tok) for tok in tokens[2:]],
                ) from None
            ids = range(first, first + len(ws))
            if first <= top:  # as for a v line
                weights, vspans = _fold(weights, vspans), None
                dup = next(filter(weights.__contains__, ids), None)
                if dup is not None:
                    raise ParseError(line_no, f"duplicate vertex id {dup}")
            top = max(top, ids[-1])
            weights.update(zip(ids, ws))
            for u in ids[:-1]:
                if (u, u + 1) in edges or _span_at(espans, u):
                    raise ParseError(line_no, f"duplicate edge ({u},{u + 1})")
                edges[u, u + 1] = line_no
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")

    del lines  # free, as the line loop's exhausted iterator frees them
    held = vspans or ()
    faults = []  # (line, undeclared id): the first loose line and each span's
    for (u, v), line_no in edges.items():
        if u not in weights or v not in weights:
            missing = _undeclared(weights, held, u, u)
            if missing is None:
                missing = _undeclared(weights, held, v, v)
            if missing is not None:
                faults.append((line_no, missing))
                break
    for a, b, line_no in espans:
        missing = _undeclared(weights, held, a, b)
        if missing is not None:
            faults.append((line_no + max(missing - 1, a) - a, missing))
    if faults:
        line_no, missing = min(faults)
        raise ParseError(line_no, f"edge references undeclared vertex {missing}")
    # every check DualGraph() makes has been made above, with line numbers
    if not espans:
        return DualGraph._make(None, None, _fold(weights, vspans), tuple(sorted(edges)), c)
    if vspans is not None:
        return DualGraph._make(*_compress(weights, vspans, edges, espans), None, None, c)
    pairs = chain(edges, *(zip(range(a, b), range(a + 1, b + 1)) for a, b, _ in espans))
    core, links = _compress(weights, (), edges, espans)
    return DualGraph._make(core, links, weights, tuple(sorted(pairs)), c)


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

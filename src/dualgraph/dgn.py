"""The DGN text format for weighted dual graphs.

Line oriented; `#` starts a comment anywhere on a line.  Directives:

    v <id> <weight> [C]      declare a vertex, optionally C-marked
    e <u> <v>                declare an edge between existing vertices
    chain <first-id> <w1> <w2> ...
                             declare a path of fresh consecutive ids

A line ends only at "\n", and one "\r" before it is dropped.  Tokens are
separated only by ASCII spaces and tabs: any other break or space stays
inside its token, and the line is refused.  Every id and weight is spelled
in ASCII as -?[0-9]+; whatever else int() would take ("1_0", "+5", "٣") is
refused as not an integer.

serialize_dgn writes a canonical form (sorted `v` lines, then sorted `e`
lines) that parse_dgn maps back to an equal graph; serializing a parsed
canonical document reproduces it byte for byte.  serialize_dgn reads the
compact form when the graph holds it (a family build, a cut, an edit of one,
a text parsed with a block, or a graph that a query has compressed), walking
its runs in id order, so the text of a run is one string over its ids and
nothing is sorted per vertex.

A range run has one spelling, which the writer and the reader share
(_run_text): `v i -2` or `e i i+1` for consecutive i.  parse_dgn reads a
block of lines so spelled in one step (_block) and keeps it as a span, from
the line whose probe found it, never as one entry per vertex or edge; every
other line is read on its own into the loose-line dicts.  One rule refuses a
repeated id and a repeated edge: a loose line or a span holds it (_span_at
for one id or edge, _fresh for a block or a chain line).  A block is cut
before the first id or edge held already, and the loop then refuses that
line, so every ParseError keeps its line and message.  Undeclared endpoints
are found by span coverage after the last line.

Who holds vertex-level data: a text with no block read in bulk gives a graph
holding its weights, in line order, and its edges, which its first query
compresses.  A text with a block (every text serialize_dgn or `family build`
writes) gives a graph holding only its compact form, built from the loose
lines and the spans (_compress), whose weights expand in id order.
"""

from __future__ import annotations

import re
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


# ASCII that str.splitlines, str.split or int() read unlike DGN
_ODD = "\x0b\x0c\x1c\x1d\x1e\x1f_+"
_token = re.compile(r"[^ \t]+").findall

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
    string each, a chunk first halved until its last line spells the run,
    so that none is formatted far past the run's end; the first wrong line
    of a chunk that fails ends the block."""
    n, step = 0, 1
    while step:
        while step > 1 and lines[at + n + step - 1] != _run_text(
            kind, first + n + step - 1, first + n + step
        ):
            step //= 2
        got = lines[at + n : at + n + step]
        want = _run_text(kind, first + n, first + n + step)
        if "\n".join(got) != want:
            return n + list(map(eq, got, want.split("\n"))).index(False)
        n += step
        step = min(2 * step, len(lines) - at - n)
    return n


# A span (start, stop) stands for the ids start <= i < stop of a v block, and
# (start, stop, line) for the edges (i, i + 1) of an e block, the first of
# them on the line given; spans of a kind are kept sorted and disjoint.
_start = itemgetter(0)


def _span_at(spans, i: int):
    """The span of spans that holds i, or None."""
    k = bisect_right(spans, i, key=_start)
    return spans[k - 1] if k and i < spans[k - 1][1] else None


def _fresh(loose: dict, spans: list, first: int, stop: int, edges: bool = False) -> int:
    """stop, or the first i, first <= i < stop, that a span or a loose line
    already holds: the id i, or with edges the edge (i, i + 1).  The loose
    lines are scanned when they are fewer than the ids."""
    k = bisect_right(spans, first, key=_start)
    if k and first < spans[k - 1][1]:
        return first
    if k < len(spans):
        stop = min(stop, spans[k][0])
    if len(loose) < stop - first:
        held = (a for a, b in loose if b == a + 1) if edges else loose
        return min((i for i in held if first <= i < stop), default=stop)
    return next((i for i in range(first, stop) if ((i, i + 1) if edges else i) in loose), stop)


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
    """The compact form of a parsed graph with a block, from its loose lines
    and spans.  Each stretch of an e span whose inner ids weigh -2 and meet
    no loose edge is one link to _normalize, any other edge a link alone,
    sorted by their ends as DualGraph._compact's are; the nodes are the ids
    no stretch holds inside, in id order whatever the order of the lines."""
    keys = sorted(weights)
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
    # two runs in id order, which one sort merges
    nodes = [(v, weights[v]) for v in keys if v not in inside]
    nodes += chain.from_iterable(zip(range(*p), repeat(-2)) for p in _outside(vspans, holes))
    nodes.sort()
    return _normalize(dict(nodes), links)


def parse_dgn(text: str) -> DualGraph:
    """The graph a DGN text declares; ParseError names the first fault and
    its line.  See the module docstring for blocks, spans and who holds
    vertex-level data."""
    weights: dict[int, int] = {}  # loose v and chain lines, in line order
    c: int | None = None
    edges: dict[tuple[int, int], int] = {}  # loose edge -> its line, in order
    vspans: list[tuple[int, int]] = []  # (first id, stop)
    espans: list[tuple[int, int, int]] = []  # (first u, stop, first line)
    # an ASCII text with no character of _ODD and no "\r" off a CRLF, in its
    # comments too, is read by str.splitlines, str.split and int() as DGN reads it
    crlf = "\r" not in text or text.count("\r") == text.count("\r\n")
    if text.isascii() and crlf and not any(ch in text for ch in _ODD):
        lines, split, to_int = text.splitlines(), str.split, int
    else:
        lines = [line.removesuffix("\r") for line in text.split("\n")]
        split, to_int = _token, _ascii_int

    end = len(lines)
    rest = enumerate(lines, start=1)
    for line_no, line in rest:
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = split(line)
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
            if vid in weights or (vspans and _span_at(vspans, vid)):
                raise ParseError(line_no, f"duplicate vertex id {vid}")
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
                stop = _fresh(weights, vspans, vid + 1, vid + 1 + n)
                insort(vspans, (vid, stop))
                next(islice(rest, stop - vid - 1, stop - vid - 1), None)  # skip the block
            else:
                weights[vid] = weight
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
                stop = _fresh(edges, espans, v, v + _block(lines, line_no, "e", v), True)
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
            stop = first + len(ws)
            dup = _fresh(weights, vspans, first, stop)
            if dup < stop:
                raise ParseError(line_no, f"duplicate vertex id {dup}")
            dup = _fresh(edges, espans, first, stop - 1, True)
            if dup < stop - 1:
                raise ParseError(line_no, f"duplicate edge ({dup},{dup + 1})")
            weights.update(zip(range(first, stop), ws))
            edges.update(zip(zip(range(first, stop), range(first + 1, stop)), repeat(line_no)))
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")

    del lines  # free, as the line loop's exhausted iterator frees them
    faults = []  # (line, undeclared id): the first loose line and each span's
    for (u, v), line_no in edges.items():
        if u not in weights or v not in weights:
            missing = _undeclared(weights, vspans, u, u)
            if missing is None:
                missing = _undeclared(weights, vspans, v, v)
            if missing is not None:
                faults.append((line_no, missing))
                break
    for a, b, line_no in espans:
        missing = _undeclared(weights, vspans, a, b)
        if missing is not None:
            faults.append((line_no + max(missing - 1, a) - a, missing))
    if faults:
        line_no, missing = min(faults)
        raise ParseError(line_no, f"edge references undeclared vertex {missing}")
    # every check DualGraph() makes has been made above, with line numbers
    if vspans or espans:
        return DualGraph._make(*_compress(weights, vspans, edges, espans), None, None, c)
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
                blocks.append(_run_text("v", ids[0], ids[-1] + 1))
        for u, v, ids in edges:
            if ids is None:
                blocks.append(f"e {u} {v}")
            else:
                blocks.append(_run_text("e", ids[0], ids[-1]))
    return "\n".join(blocks) + ("\n" if blocks else "")

"""DGN parsing and canonical serialization."""

import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualgraph import dgn
from dualgraph.dgn import parse_dgn, serialize_dgn
from dualgraph.errors import ParseError
from dualgraph.families import FamilyInstance, build_family
from dualgraph.graphs import DualGraph, contract_all
from oracles import parse_dgn_lines


def test_parse_basic_document():
    g = parse_dgn(
        """
        # a chain with a marked end
        v 1 -2
        v 2 -1 C
        e 1 2
        """
    )
    assert g == DualGraph({1: -2, 2: -1}, [(1, 2)], c=2)


def test_parse_chain_directive():
    g = parse_dgn("chain 3 -2 -3 -2\n")
    assert g == DualGraph({3: -2, 4: -3, 5: -2}, [(3, 4), (4, 5)])


def test_parse_chain_single_vertex():
    assert parse_dgn("chain 7 -5") == DualGraph({7: -5}, [])


def test_parse_mixed_directives_and_comments():
    g = parse_dgn(
        "v 10 0 C # the marked curve\nchain 1 -2 -2 # twig\ne 10 1\n"
    )
    assert g.c == 10
    assert g.has_edge(10, 1) and g.has_edge(1, 2)


def test_parse_empty_text_is_empty_graph():
    assert parse_dgn("") == DualGraph({}, [])
    assert parse_dgn("# nothing\n\n") == DualGraph({}, [])


def test_parse_edge_before_vertex_is_fine():
    g = parse_dgn("e 1 2\nv 1 -2\nv 2 -3\n")
    assert g.edges == ((1, 2),)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("v 1 -2\nv 1 -3\n", 2, "duplicate vertex"),
        ("v 1 -1 C\nv 2 -2 C\n", 2, "second C mark"),
        ("v 1 -2\ne 1 9\n", 2, "undeclared vertex"),
        ("e 1 1\n", 1, "loop"),
        ("v 1 -2\nv 2 -2\ne 1 2\ne 2 1\n", 4, "duplicate edge"),
        ("w 1 -2\n", 1, "unknown directive"),
        ("v 1\n", 1, "expected"),
        ("v x -2\n", 1, "integer"),
        ("chain 4\n", 1, "expected"),
        ("chain 1 -2 -2\nv 2 -3\n", 2, "duplicate vertex"),
        ("e 1\n", 1, "expected"),
        # two faults: the one met first wins ...
        ("v 1 -2\nv 2 -2\ne 1 2\ne 2 1\nv x -2\n", 4, "duplicate edge"),
        ("v 1 -2\nv y -3\ne 1 9\n", 2, "integer"),
        # ... and undeclared endpoints are met only after the last line
        ("e 1 9\nv 1 -2\nv z -3\n", 3, "integer"),
        ("v 1 -2 c\n", 1, "expected"),
        ("v 1 -2 X\n", 1, "expected"),
        ("v 1 -2#glued\nv 1 -3\n", 2, "duplicate vertex"),
        ("v 1#-2\n", 1, "expected"),
        ("v 3 -2\nchain 1 -2 -2 -2\n", 2, "duplicate vertex"),
        ("chain 1 -2 -2\nv 5 -3\nchain 4 -2 -2\n", 3, "duplicate vertex"),
        ("e 1 2\nchain 1 -2 -2\n", 2, "duplicate edge"),
        ("chain 1 -2 -2\nv 4 -3\nchain 5 -2 q\n", 3, "chain weight"),
        ("chain p -2\n", 1, "chain first id"),
        ("v 1 -2\ne 1 x\n", 2, "edge endpoint must be an integer, got 'x'"),
        ("v 1 -2\ne 1.5 1\n", 2, "edge endpoint must be an integer, got '1.5'"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_dgn(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_serialize_canonical_form():
    g = DualGraph({2: -1, 1: -2, 3: -4}, [(3, 2), (1, 2)], c=2)
    assert serialize_dgn(g) == "v 1 -2\nv 2 -1 C\nv 3 -4\ne 1 2\ne 2 3\n"


def test_serialize_empty():
    assert serialize_dgn(DualGraph({}, [])) == ""


def test_round_trip_is_exact():
    text = "v 1 -2\nv 2 -1 C\nv 3 -4\ne 1 2\ne 2 3\n"
    assert serialize_dgn(parse_dgn(text)) == text


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 8))
    ids = draw(
        st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True)
    )
    weights = {
        v: draw(st.integers(-6, 1)) for v in ids
    }
    possible = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    edges = [e for e in possible if draw(st.booleans())]
    c = draw(st.sampled_from(ids + [None]))
    return DualGraph(weights, edges, c)


@given(random_graphs())
def test_round_trip_any_graph(g):
    text = serialize_dgn(g)
    assert parse_dgn(text) == g
    assert serialize_dgn(parse_dgn(text)) == text


# -- blocks read in bulk ---------------------------------------------------------


def _vs(first, stop, weight=-2):
    return "".join(f"v {i} {weight}\n" for i in range(first, stop))


def _es(first, stop):
    return "".join(f"e {i} {i + 1}\n" for i in range(first, stop))


def _outcome(parse, text):
    """What a parse gives: its weights in order, its edges, its mark and its
    compact form with the core in order, or the line and message of its
    error; and whether the graph holds only its compact form (None for an
    error)."""
    try:
        g = parse(text)
    except ParseError as exc:
        return (exc.line, exc.message), None
    only = g._weights is None
    core, links = g._compact()
    return (list(g.weights.items()), g.edges, g.c, list(core.items()), links), only


def _check_bulk_read(text):
    """The bulk read gives what the line loop gives, and holds only the
    compact form exactly when it read a block.  Such a graph keeps no line
    order, so its weights and core are compared as sorted pairs; a graph
    holding vertex-level data is compared in line order."""
    with mock.patch.object(dgn, "_block", wraps=dgn._block) as block:
        got, only = _outcome(parse_dgn, text)
    want, _ = _outcome(parse_dgn_lines, text)
    if only:
        got, want = (
            (sorted(w), e, c, sorted(core), links) for w, e, c, core, links in (got, want)
        )
    assert got == want
    if only is not None:
        assert only == block.called


_CHAIN = _vs(0, 100) + _es(0, 99)


_BULK_CASES = {
    "chain": _CHAIN,
    "crlf": _CHAIN.replace("\n", "\r\n"),
    # a duplicate id or a duplicate edge inside a block
    "repeated id before": "v 70 -3\n" + _CHAIN,
    "repeated id after": _CHAIN + "v 70 -3\n",
    "repeated edge before": "e 40 41\n" + _CHAIN,
    "repeated edge reversed": _vs(0, 100) + "e 41 40\n" + _es(0, 99),
    # a chord to a block's inner vertex, and one between its ends
    "chord inside": _CHAIN + "e 10 50\n",
    "chord between ends": _vs(0, 100, -3) + _es(0, 99) + "e 0 99\n",
    # a C mark on a run vertex, a comment and a lone CRLF inside a block
    "mark inside": _CHAIN.replace("v 50 -2\n", "v 50 -2 C\n"),
    "comment in v block": _CHAIN.replace("v 50 -2\n", "v 50 -2 # mid-run\n"),
    "comment in e block": _CHAIN.replace("e 50 51\n", "e 50 51 # mid-run\n"),
    "one crlf": _CHAIN.replace("v 50 -2\n", "v 50 -2\r\n"),
    # descending and negative ids
    "descending v": "".join(reversed(_vs(0, 100).splitlines(True))) + _es(0, 99),
    "descending e": _vs(0, 100) + "".join(f"e {i + 1} {i}\n" for i in range(98, -1, -1)),
    "negative ids": _vs(-100, 0) + _es(-100, -1),
    # a chain line overlapping a block, before it and after it
    "chain before": "chain 50 -2 -2\n" + _CHAIN,
    "chain after": _CHAIN + "chain 40 -2 -2\n",
    "chains apart": _vs(0, 100) + "chain 200 -2 -2\n" + _es(0, 99) + "chain 300 -1\n",
    "chain on an end": "chain 150 -2 -2\n" + _vs(100, 150) + _es(100, 151),
    # a block cut by a non-run line, and a weight other than -2 inside
    "cut": _vs(0, 50) + "v 200 -5\n" + _vs(50, 100) + _es(0, 49) + "e 200 0\n" + _es(49, 99),
    "weight inside": _CHAIN.replace("v 50 -2\n", "v 50 -3\n"),
    # an undeclared endpoint inside an e block, and edges before vertices
    "undeclared": _vs(0, 50) + _es(0, 99),
    "edges first": _es(0, 99) + _vs(0, 100),
    # core-free cycles, whose smallest ids become core in order
    "cycles": _vs(0, 160) + _es(100, 159) + "e 100 159\n" + _es(0, 49) + "e 0 49\n",
    # a run too short to be looked for, and an e block that is no link
    "short": _vs(1, 21) + _es(1, 20),
    "no link": _vs(0, 100, -3) + _es(0, 99),
    # ids that stop ascending after a block, by a v line or a chain line,
    # with the edge block after them or before them
    "v below a block": _vs(0, 100) + "v -5 -3\n" + _es(0, 99) + "e -5 0\n",
    "chain below a block": _vs(0, 100) + "chain -20 -2 -3\n" + _es(0, 99),
    "chain into a gap": _vs(0, 50) + _vs(52, 100) + "chain 50 -2 -2\n" + _es(0, 50) + _es(51, 99),
    "chain edge in a block": _vs(0, 50) + _vs(52, 100) + "chain 50 -2 -2\n" + _es(0, 99),
    "edges, then ids out of order": _es(0, 99) + _vs(50, 100) + _vs(0, 50),
    # duplicate e lines around a block: after it, reversed, a block read
    # twice, a block running into an earlier one, a chain over a block, and
    # a block cut by one of many loose lines
    "repeated edge after": _CHAIN + "e 40 41\n",
    "repeated edge reversed after": _CHAIN + "e 41 40\n",
    "block twice": _CHAIN + _es(0, 99),
    "block into a block": _vs(0, 200) + _es(100, 199) + _es(0, 150),
    "chain over a block": _es(0, 99) + "chain 0 -2 -2\n",
    "many loose edges": "".join(f"e {i + 1} {i}\n" for i in range(300, 199, -1))
    + _vs(0, 400) + _es(160, 210),
    # repeated ids around a v block: a block running into an earlier one, a
    # block read after the ids stopped ascending, a chain line over a block
    # and a loose line deep inside one; and v blocks with no e block, out of
    # order
    "v block into a v block": _vs(100, 200) + _vs(0, 150),
    "v block after ids out of order": "v 500 -3\nv 7 -3\n" + _vs(0, 7) + _vs(8, 100) + _es(0, 99),
    "chain over a v block": _vs(0, 100) + "chain 60 -2 -2\n" + _es(0, 99),
    "loose v deep in a v block": _vs(0, 300) + "v 250 -3\n" + _es(0, 299),
    "v blocks alone, out of order": _vs(200, 300) + _vs(0, 100) + _vs(100, 200, -3),
}


@pytest.mark.parametrize("text", _BULK_CASES.values(), ids=_BULK_CASES.keys())
def test_bulk_read_matches_the_line_loop(text):
    _check_bulk_read(text)


@st.composite
def _run_texts(draw):
    """Canonical texts of one or two paths of (-2)-vertices, long enough to
    be read in bulk, then a few edits: a line dropped, repeated, moved,
    marked, commented or ended by CRLF, a weight changed, and a chord, an
    edge closing a cycle, a vertex or a chain line added."""
    lines = []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(st.integers(-80, 80))
        hi = lo + draw(st.integers(20, 90))
        lines += _vs(lo, hi).splitlines(True) + _es(lo, hi - 1).splitlines(True)
    ids = st.integers(-90, 180)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from([
            "drop", "repeat", "move", "mark", "comment", "crlf", "weight",
            "chord", "cycle", "vertex", "chain",
        ]))
        line = lines[i].rstrip("\r\n")
        if edit == "drop":
            del lines[i]
        elif edit in ("repeat", "move"):
            if edit == "move":
                del lines[i]
            lines.insert(draw(st.integers(0, len(lines))), line + "\n")
        elif edit in ("mark", "comment", "crlf"):
            lines[i] = line + {"mark": " C\n", "comment": " # x\n", "crlf": "\r\n"}[edit]
        elif edit == "weight" and line.startswith("v"):
            lines[i] = f"v {line.split()[1]} {draw(st.integers(-4, 0))}\n"
        elif edit == "cycle" and line.startswith("e"):
            first = int(line.split()[1])
            lines.append(f"e {first} {first + draw(st.integers(2, 40))}\n")
        elif edit == "chord":
            lines.append(f"e {draw(ids)} {draw(ids)}\n")
        elif edit == "vertex":
            lines.insert(i, f"v {draw(ids)} {draw(st.integers(-4, 0))}\n")
        elif edit == "chain":
            lines.insert(i, f"chain {draw(ids)} -2 -2\n")
    return "".join(lines)


@given(_run_texts())
def test_bulk_read_matches_the_line_loop_on_any_text(text):
    _check_bulk_read(text)


def test_a_text_with_a_block_holds_its_compact_form_and_one_without_it_does_not():
    """A text with a block read in bulk gives a graph holding only its
    compact form, whose weights expand in id order, whatever the order of
    its lines; a text without one keeps only vertex-level data, in line
    order."""
    for text in (_CHAIN, _vs(50, 100) + _vs(0, 50) + _es(0, 99), _vs(50, 100) + _vs(0, 50)):
        g = parse_dgn(text)
        assert g._weights is None and g._edges is None and g._core is not None
        assert list(g.weights) == list(range(100))
    g = parse_dgn(_vs(11, 21) + _vs(1, 11) + _es(1, 20))
    assert len(g) == 20 and list(g.weights) == [*range(11, 21), *range(1, 11)]
    assert g._core is None  # len and weights read the vertex-level data


def test_a_block_is_formatted_no_further_than_its_run():
    """_block formats the run's lines and a few single-line probes past its
    end, not the rest of a chunk of doubling size (8,191 lines here)."""
    formatted = []

    def counted(kind, first, stop, real=dgn._run_text):
        formatted.append(stop - first)
        return real(kind, first, stop)

    with mock.patch.object(dgn, "_run_text", counted):
        g = parse_dgn(_vs(0, 5000) + _vs(5001, 25000, -3))
    assert len(g) == 24999 and 5000 <= sum(formatted) < 5200, sum(formatted)


def _long_run_text():
    """The canonical text of family (3) at l = 10**5: 101,003 vertices."""
    g = build_family(FamilyInstance(3, A=(1000,), n=2, l=10**5))
    return g, serialize_dgn(g)


def test_a_parsed_long_run_keeps_no_vertex_level_data():
    """The parsed text of 101,003 vertices keeps its compact form alone,
    under 1 MB (the vertex-level dicts took about 21 MB)."""
    g, text = _long_run_text()
    tracemalloc.start()
    try:
        parsed = parse_dgn(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert parsed == g and parsed._weights is None
    assert held < 10**6, held


def test_a_parsed_long_run_contracts_on_its_compact_form():
    """contract_all of the parsed text takes the compact path, in time
    independent of the run length: under 0.1 s, where splicing the 101,003
    vertices took about 0.25 s on a 2-core machine."""
    g, text = _long_run_text()
    parsed = parse_dgn(text)
    start = time.perf_counter()
    done = contract_all(parsed)
    elapsed = time.perf_counter() - start
    assert done._weights is None and done == contract_all(g)
    assert elapsed < 0.1, elapsed


@pytest.mark.parametrize("line", [
    "v 1_0 -2", "v +5 -2", "v \u0663 -2", "v 1 -2_0", "v 1 +2", "v 1 \uff12",
    "e 1_0 2", "e 1 +2", "e \u0663 2", "chain 1_0 -2", "chain +1 -2",
    "chain 1 -2 -\u0663", "v -+1 -2", "v --1 -2", "v - -2",
])
def test_integers_are_ascii_digits_with_an_optional_minus(line):
    """Every id and weight is spelled -?[0-9]+ in ASCII, though int() takes
    more; the line and message are those of any other token that is no
    integer."""
    text = "v 1 -2\nv 2 -2 # +_\u0663 in a comment is fine\n" + line + "\n"
    with pytest.raises(ParseError) as exc:
        parse_dgn(text)
    assert exc.value.line == 3
    assert "must be an integer, got" in exc.value.message
    assert parse_dgn("v -0 -07 # +1_0\nv 3 -2\ne -0 3\n") == DualGraph({0: -7, 3: -2}, [(0, 3)])


_SEPARATORS = [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029",
    "\u00a0", "\u2003", "\r",
]


@pytest.mark.parametrize("sep", _SEPARATORS, ids=[f"U+{ord(ch):04X}" for ch in _SEPARATORS])
def test_a_line_ends_at_a_newline_and_tokens_part_at_spaces_and_tabs(sep):
    """Every other break or space, and a "\\r" that does not end a line,
    stays inside its token, and the line is refused under its own number,
    in a block too; the line loop splits alike."""
    cases = [
        (f"v 1 -2{sep}v 1 -3", 1, "expected: v <id> <weight> [C]"),
        (f"v 1{sep}-2\n", 1, "expected: v <id> <weight> [C]"),
        (f"v 0 -3\nv 1 -2{sep} \n", 2, f"vertex weight must be an integer, got {'-2' + sep!r}"),
        (_CHAIN.replace("e 60 61\n", f"e 60{sep}61\n"), 161, "expected: e <u> <v>"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_dgn(text)
        assert (exc.value.line, exc.value.message) == (line, message)
        _check_bulk_read(text)
    assert parse_dgn(f"v 1 -2\r\nv 2 -2 # {sep}\r\ne 1 2\r\n") == DualGraph({1: -2, 2: -2}, [(1, 2)])

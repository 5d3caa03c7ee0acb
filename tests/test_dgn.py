"""DGN parsing and canonical serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualgraph.dgn import parse_dgn, serialize_dgn
from dualgraph.errors import ParseError
from dualgraph.graphs import DualGraph
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
    """What a parse gives: the vertex-level data in its order and the compact
    form with its core in order, or the line and message of its error."""
    try:
        g = parse(text)
    except ParseError as exc:
        return exc.line, exc.message
    core, links = g._compact()
    return list(g._weights.items()), g._edges, g.c, list(core.items()), links


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
}


@pytest.mark.parametrize("text", _BULK_CASES.values(), ids=_BULK_CASES.keys())
def test_bulk_read_matches_the_line_loop(text):
    assert _outcome(parse_dgn, text) == _outcome(parse_dgn_lines, text)


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
    assert _outcome(parse_dgn, text) == _outcome(parse_dgn_lines, text)


def test_a_text_with_a_block_holds_its_compact_form_and_one_without_it_does_not():
    assert parse_dgn(_CHAIN)._core is not None
    g = parse_dgn(_vs(1, 21) + _es(1, 20))
    assert len(g) == 20 and 10 in g.weights
    assert g._core is None  # len and weights read the vertex-level data

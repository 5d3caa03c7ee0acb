"""DGN parsing and canonical serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualgraph.dgn import parse_dgn, serialize_dgn
from dualgraph.errors import ParseError
from dualgraph.graphs import DualGraph


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

"""Graph core: matrices, determinants, definiteness, blow-downs, shapes."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualgraph import graphs
from dualgraph.canonical import compute_dnatural, k_type_report
from dualgraph.dgn import parse_dgn, serialize_dgn
from dualgraph.errors import (
    DomainError,
    NotContractible,
    NotContractibleCurve,
    WouldBreakChain,
    WouldCreateCycle,
)
from dualgraph.graphs import (
    DualGraph,
    blow_down,
    blow_up_at,
    blow_up_edge,
    blow_up_free,
    canonical_form,
    chain_graph,
    contract_all,
    graph_d,
    intersection_matrix,
    is_forest,
    is_negative_definite,
    is_tree,
    isomorphic,
    shape_report,
    signed_determinant,
)
from dualgraph.families import FamilyInstance, build_family
from dualgraph.twigs import twig_determinant

from oracles import (
    canonical_form_dfs,
    charpoly_negdef,
    contract_all_rescan,
    dense_adjunction_solve,
    dense_det,
    graph_neg_matrix,
    principal_minor_negdef,
    shape_report_dfs,
    sylvester_negdef,
)


def neg_chain(twig):
    """Chain graph carrying a twig, i.e. weights -a_i."""
    return chain_graph([-a for a in twig])


# -- construction and validation -----------------------------------------


def test_construction_basics():
    g = DualGraph({1: -2, 2: -3}, [(2, 1)])
    assert g.vertex_ids == (1, 2)
    assert g.edges == ((1, 2),)  # normalized to (min, max)
    assert g.weight(2) == -3
    assert g.neighbors(1) == (2,)
    assert g.degree(2) == 1
    assert g.c is None
    assert len(g) == 2
    assert 1 in g and 3 not in g


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        DualGraph({1: -2}, [(1, 1)])  # loop
    with pytest.raises(ValueError):
        DualGraph({1: -2, 2: -2}, [(1, 2), (2, 1)])  # duplicate edge
    with pytest.raises(ValueError):
        DualGraph({1: -2}, [(1, 2)])  # dangling edge
    with pytest.raises(ValueError):
        DualGraph({1: -2}, [], c=5)  # mark on missing vertex


def test_equality_and_mark():
    g1 = DualGraph({1: -1, 2: -2}, [(1, 2)], c=1)
    g2 = DualGraph({2: -2, 1: -1}, [(2, 1)], c=1)
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != g1.with_mark(None)
    assert g1.minus_c() == DualGraph({2: -2}, [])


def test_delete_drops_mark_with_vertex():
    g = DualGraph({1: -1, 2: -2}, [(1, 2)], c=1)
    assert g.delete(1).c is None
    assert g.delete(2).c == 1


# -- intersection matrices and determinants --------------------------------


def test_intersection_matrix_of_chain():
    m = intersection_matrix(neg_chain([2, 3]))
    assert m.order == (1, 2)
    assert m.rows == ((-2, 1), (1, -3))


def test_signed_determinant_examples():
    assert signed_determinant(neg_chain([2, 3])) == 5
    two_vertex = DualGraph({1: 0, 2: -2}, [(1, 2)], c=1)
    assert signed_determinant(two_vertex) == -1
    assert graph_d(two_vertex) == -1


def test_empty_graph_determinants():
    empty = DualGraph({}, [])
    assert graph_d(empty) == 1
    assert signed_determinant(empty) == 1
    assert is_negative_definite(empty)


def test_graph_d_matches_twig_determinant_small():
    for r in range(5):
        for twig in itertools.product(range(2, 7), repeat=r):
            assert graph_d(neg_chain(twig)) == twig_determinant(twig)


@given(st.lists(st.integers(2, 9), min_size=5, max_size=8))
def test_graph_d_matches_twig_determinant_random(twig):
    assert graph_d(neg_chain(twig)) == twig_determinant(twig)


def test_graph_d_multiplicative_over_components():
    g = DualGraph({1: -2, 5: -3, 6: -2}, [(5, 6)])
    assert graph_d(g) == 2 * twig_determinant((3, 2))


def test_determinants_against_dense_oracle_on_cycles():
    for n in (3, 4, 5):
        for ws in itertools.product((-3, -2, -1), repeat=n):
            edges = [(i, i % n + 1) for i in range(1, n + 1)]
            g = DualGraph(dict(enumerate(ws, start=1)), edges)
            neg = graph_neg_matrix(g)
            assert graph_d(g) == dense_det(neg)
            assert signed_determinant(g) == dense_det(
                [[-x for x in row] for row in neg]
            )


@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 10**6), min_size=n - 2, max_size=n - 2),
            st.lists(st.integers(-5, 1), min_size=n, max_size=n),
        )
    )
)
def test_graph_d_on_random_trees_matches_oracle(data):
    pruefer, ws = data
    g = _tree_from_pruefer(pruefer, ws)
    assert graph_d(g) == dense_det(graph_neg_matrix(g))


def _tree_from_pruefer(pruefer, weights):
    """Labeled tree on 1..n from a sequence of length n-2 (entries mod n)."""
    import heapq

    n = len(weights)
    verts = dict(enumerate(weights, start=1))
    if n <= 1:
        return DualGraph(verts, [])
    seq = [p % n + 1 for p in pruefer]
    degree = {v: 1 for v in range(1, n + 1)}
    for p in seq:
        degree[p] += 1
    heap = [v for v in degree if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for p in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, p))
        degree[leaf] -= 1
        degree[p] -= 1
        if degree[p] == 1:
            heapq.heappush(heap, p)
    u, v = [x for x in degree if degree[x] == 1]
    edges.append((u, v))
    return DualGraph(verts, edges)


# -- negative definiteness --------------------------------------------------


def test_negdef_frozen_examples():
    assert is_negative_definite(neg_chain([2, 2]))
    assert is_negative_definite(neg_chain([2, 3, 2]))
    assert not is_negative_definite(DualGraph({1: 0}, []))
    assert is_negative_definite(DualGraph({1: -1}, []))
    # a (-2)-chain is definite, but appending weight -1 at the end of a long
    # run makes r pivots die for r large enough
    assert is_negative_definite(chain_graph([-2, -2, -2, -1]))
    assert not is_negative_definite(chain_graph([-1, -2, -1]))


def test_negdef_exhaustive_trees_small():
    for n in range(1, 5):
        for pruefer in itertools.product(range(n), repeat=max(n - 2, 0)):
            for ws in itertools.product(range(-3, 1), repeat=n):
                g = _tree_from_pruefer(list(pruefer), list(ws))
                neg = graph_neg_matrix(g)
                assert is_negative_definite(g) == principal_minor_negdef(neg)


def test_negdef_on_cycles_matches_oracle():
    for n in (3, 4, 5):
        for ws in itertools.product((-4, -2, -1), repeat=n):
            edges = [(i, i % n + 1) for i in range(1, n + 1)]
            g = DualGraph(dict(enumerate(ws, start=1)), edges)
            assert is_negative_definite(g) == sylvester_negdef(graph_neg_matrix(g))


def test_negdef_long_runs_match_oracle():
    # stars with (-2)-runs exercise the closed-form run crossing
    rng = random.Random(7)
    for trial in range(40):
        arms = rng.randint(1, 3)
        weights = {0: rng.choice([-2, -3, -4])}
        edges = []
        nxt = 1
        for _ in range(arms):
            run = rng.randint(0, 5)
            prev = 0
            for _ in range(run):
                weights[nxt] = -2
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            weights[nxt] = rng.choice([-1, -2, -3, -5])
            edges.append((prev, nxt))
            nxt += 1
        g = DualGraph(weights, edges)
        assert is_negative_definite(g) == sylvester_negdef(graph_neg_matrix(g))


def test_negdef_agrees_with_charpoly_oracle():
    for ws in itertools.product((-3, -2, -1, 0), repeat=4):
        g = DualGraph(dict(enumerate(ws, start=1)), [(1, 2), (2, 3), (2, 4)])
        assert is_negative_definite(g) == charpoly_negdef(graph_neg_matrix(g))


# -- the one elimination pass for graphs with cycles --------------------------


@st.composite
def _cyclic_graphs(draw):
    """Small connected graphs with at least one cycle: a random spanning tree
    plus chords, scattered ids and weights in -5..0 (or -5..-2, so that the
    adjunction solve applies), so definite, indefinite and singular -I all
    occur, and zero pivots force row swaps."""
    n = draw(st.integers(3, 8))
    ids = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True))
    top = draw(st.sampled_from((0, -2)))
    ws = draw(st.lists(st.integers(-5, top), min_size=n, max_size=n))
    tree = [(ids[i], ids[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    keys = {frozenset(e) for e in tree}
    others = [p for p in itertools.combinations(ids, 2) if frozenset(p) not in keys]
    chords = draw(
        st.lists(st.sampled_from(others), min_size=1, max_size=4, unique=True)
    )
    return DualGraph(dict(zip(ids, ws)), tree + chords)


@settings(max_examples=400, deadline=None)
@given(_cyclic_graphs())
# a zero pivot first, then a row swap, and det(-I) = -6
@example(DualGraph({1: 0, 2: -2, 3: -2}, [(1, 2), (2, 3), (1, 3)]))
# an all-(-2) cycle: -I is singular
@example(DualGraph({5: -2, -3: -2, 9: -2, 0: -2}, [(5, -3), (-3, 9), (9, 0), (0, 5)]))
def test_cycle_kernel_matches_the_oracles(g):
    assert not is_forest(g)
    neg = graph_neg_matrix(g)
    assert graph_d(g) == dense_det(neg)
    assert signed_determinant(g) == dense_det([[-x for x in row] for row in neg])
    definite = sylvester_negdef(neg)
    assert is_negative_definite(g) == definite
    if any(w > -2 for w in g.weights.values()):
        return
    if not definite:
        with pytest.raises(NotContractible, match="^intersection form is not"):
            compute_dnatural(g)
        return
    order = g.vertex_ids
    rhs = [-g.weight(v) - 2 for v in order]
    want = list(zip(order, dense_adjunction_solve(neg, rhs)))
    assert list(compute_dnatural(g).coefficients.items()) == want


def test_a_graph_with_cycles_is_eliminated_once(monkeypatch):
    calls = []
    kernel = graphs._bareiss

    def counted(g):
        calls.append(g)
        return kernel(g)

    monkeypatch.setattr(graphs, "_bareiss", counted)
    weights = {1: -3, 2: -2, 3: -4, 4: -2, 5: -3}
    edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 1)]
    g = DualGraph(weights, edges)
    marked = DualGraph(weights, edges, c=4)
    # the shape questions never eliminate
    assert not is_forest(g) and not is_tree(g) and not is_tree(marked)
    assert shape_report(g).components and shape_report(marked).components
    assert calls == []
    assert is_negative_definite(g)
    assert graph_d(g) == dense_det(graph_neg_matrix(g))
    alpha = compute_dnatural(g).coefficients
    assert len(calls) == 1
    # a copy with another mark reads the same pass
    copy = g.with_mark(4)
    assert is_negative_definite(copy) and graph_d(copy) == graph_d(g)
    assert compute_dnatural(copy.with_mark(None)).coefficients == alpha
    assert len(calls) == 1


# -- blow-downs --------------------------------------------------------------


def test_blow_down_middle_of_chain():
    g = chain_graph([-2, -1, -2])
    h = blow_down(g, 2)
    assert h == DualGraph({1: -1, 3: -1}, [(1, 3)])
    assert graph_d(g) == graph_d(h) == 0


def test_blow_down_chain_example():
    g = chain_graph([-4, -3, -1, -2])
    h = blow_down(g, 3)
    assert h == DualGraph({1: -4, 2: -2, 4: -1}, [(1, 2), (2, 4)])
    assert graph_d(h) == graph_d(g)


def test_blow_down_end_vertex():
    g = chain_graph([-1, -3])
    assert blow_down(g, 1) == DualGraph({2: -2}, [])


def test_blow_down_isolated_vertex():
    g = DualGraph({1: -1, 2: -7}, [])
    assert blow_down(g, 1) == DualGraph({2: -7}, [])


def test_blow_down_removes_mark():
    g = DualGraph({1: -1, 2: -2}, [(1, 2)], c=1)
    assert blow_down(g, 1).c is None
    g2 = DualGraph({1: -1, 2: -2}, [(1, 2)], c=2)
    assert blow_down(g2, 1).c == 2


def test_blow_down_errors():
    with pytest.raises(NotContractibleCurve):
        blow_down(chain_graph([-2, -2]), 1)
    star = DualGraph({0: -1, 1: -2, 2: -2, 3: -2}, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(WouldBreakChain):
        blow_down(star, 0)
    triangle = DualGraph({1: -1, 2: -2, 3: -2}, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(WouldCreateCycle):
        blow_down(triangle, 1)
    with pytest.raises(ValueError):
        blow_down(star, 99)


def test_blow_down_preserves_d_on_nonforest():
    # the cycle is preserved around the contracted vertex's ears
    g = DualGraph(
        {1: -2, 2: -2, 3: -2, 4: -1}, [(1, 2), (2, 3), (1, 3), (3, 4)]
    )
    assert graph_d(blow_down(g, 4)) == graph_d(g)


def test_blow_up_round_trips():
    g = DualGraph({1: -2, 2: -3, 3: -2}, [(1, 2), (2, 3)], c=3)
    up = blow_up_edge(g, 1, 2)
    new = max(up.vertex_ids)
    assert up.weight(1) == -3 and up.weight(2) == -4 and up.weight(new) == -1
    assert blow_down(up, new) == g
    up2 = blow_up_at(g, 2)
    assert blow_down(up2, max(up2.vertex_ids)) == g
    up3 = blow_up_free(g)
    assert blow_down(up3, max(up3.vertex_ids)) == g
    # blowing up rewrites the lattice as (old) + (-1), so d is unchanged
    assert graph_d(up) == graph_d(up2) == graph_d(up3) == graph_d(g)


@given(st.lists(st.integers(-4, -1), min_size=2, max_size=6))
def test_blow_up_edge_then_down_is_identity(ws):
    g = chain_graph(ws)
    for u, v in g.edges:
        up = blow_up_edge(g, u, v)
        assert blow_down(up, max(up.vertex_ids)) == g
        assert graph_d(up) == graph_d(g)


# -- contract_all -------------------------------------------------------------


def test_contract_all_chain_to_two_vertices():
    g = chain_graph([-2, -3, -1, -2])
    assert contract_all(g) == DualGraph({1: -2, 2: -1}, [(1, 2)])


def test_contract_all_stops_without_minus_one():
    g = chain_graph([-2, -3, -1, -3])
    assert contract_all(g) == DualGraph({1: -2, 2: -2, 4: -2}, [(1, 2), (2, 4)])


def test_contract_all_fixed_point():
    g = chain_graph([-2, -2, -5])
    assert contract_all(g) == g


def test_contract_all_two_vertex_graph_is_terminal():
    g = chain_graph([-2, -1])
    assert contract_all(g) == g
    lone = DualGraph({1: -1}, [])
    assert contract_all(lone) == lone


def test_contract_all_skips_branch_vertices():
    star = DualGraph({0: -1, 1: -2, 2: -2, 3: -2}, [(0, 1), (0, 2), (0, 3)])
    assert contract_all(star) == star


def test_contract_all_cycle_error():
    triangle = DualGraph({1: -1, 2: -2, 3: -2}, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(WouldCreateCycle):
        contract_all(triangle)


def test_contract_all_cascades():
    # contracting exposes new (-1)s: (-2,-1,-2) -> (-1,-1) -> terminal pair
    g = chain_graph([-2, -1, -2])
    assert contract_all(g) == DualGraph({1: -1, 3: -1}, [(1, 3)])
    g2 = chain_graph([-3, -1, -2, -1, -3])
    h = contract_all(g2)
    assert h == DualGraph({4: 1, 5: -3}, [(4, 5)])
    assert graph_d(h) == graph_d(g2) == -4


def test_contract_all_is_order_dependent_in_general():
    g = chain_graph([-2, -2, -1, -2])
    first = contract_all(g)
    assert first == contract_all_rescan(g, min)
    adversarial = contract_all_rescan(g, max)
    assert sorted(first.weights.values()) == [-1, 0]
    assert sorted(adversarial.weights.values()) == [-2, 0]
    assert first != adversarial
    assert graph_d(first) == graph_d(adversarial) == graph_d(g)


def test_contract_all_preserves_graph_d():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(3, 8)
        ws = [rng.choice([-3, -2, -1, -1]) for _ in range(n)]
        g = chain_graph(ws)
        assert graph_d(contract_all(g)) == graph_d(g)


def test_contract_all_fast_lane_matches_general():
    rng = random.Random(5)

    def pick_min(xs):
        return min(xs)

    for _ in range(120):
        n = rng.randint(1, 9)
        ws = [rng.choice([-3, -2, -1]) for _ in range(n)]
        g = chain_graph(ws, first_id=rng.randint(1, 4))
        assert contract_all(g) == contract_all_rescan(g, pick_min)


def test_contract_all_on_marked_graph():
    # C weighing -1 is contracted like any other vertex and loses its mark
    g = chain_graph([-2, -1, -2], c_index=1)
    assert contract_all(g).c is None


@st.composite
def _contractible_graphs(draw):
    """Small graphs with cycles, a mark and weights in {-3, -2, -1, 0}."""
    k = draw(st.integers(0, 9))
    ids = draw(st.lists(st.integers(0, 30), min_size=k, max_size=k, unique=True))
    ws = draw(st.lists(st.sampled_from((-3, -2, -1, -1, 0)), min_size=k, max_size=k))
    pairs = list(itertools.combinations(ids, 2))
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=12)
        if pairs
        else st.just([])
    )
    c = draw(st.sampled_from([None] + ids))
    return DualGraph(dict(zip(ids, ws)), edges, c)


def _contract_outcome(fn, g):
    try:
        return fn(g)
    except WouldCreateCycle as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(_contractible_graphs())
def test_contract_all_matches_the_rescan_oracle(g):
    # the heap worklist keeps the smallest-id order and names the same
    # stuck vertex when it raises
    got = _contract_outcome(contract_all, g)
    want = _contract_outcome(lambda h: contract_all_rescan(h, min), g)
    assert got == want
    if isinstance(got, DualGraph):
        assert got.c == want.c


def test_contract_all_on_a_long_run_read_from_dgn():
    spec = FamilyInstance(family=3, A=(1000,), n=2, l=10**4)
    g = parse_dgn(serialize_dgn(build_family(spec)))
    assert len(g) == 11003
    h = contract_all(g)
    assert list(h.weights.values()) == [0, -2]
    assert graph_d(h) == graph_d(g)


# -- shape reports ------------------------------------------------------------


def test_shape_report_single_vertex():
    rep = shape_report(DualGraph({1: -2}, []))
    assert rep.is_tree and rep.c_id is None and rep.c_degree is None
    assert len(rep.components) == 1
    assert rep.components[0].kind == "chain"
    assert rep.components[0].branch_count == 0


def test_shape_report_star_with_mark():
    g = DualGraph(
        {0: -2, 1: -3, 2: -2, 3: -2, 4: -1},
        [(0, 1), (0, 2), (0, 3), (3, 4)],
        c=4,
    )
    rep = shape_report(g)
    assert rep.is_tree and rep.c_id == 4 and rep.c_degree == 1
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.kind == "star"
    assert comp.branch_vertices == (0,)
    assert comp.touches_c and comp.c_contacts == (3,)


def test_shape_report_two_components():
    g = DualGraph(
        {1: -2, 2: -1, 3: -3, 9: -2}, [(1, 2), (2, 3)], c=2
    )
    rep = shape_report(g)
    assert not rep.is_tree  # disconnected once 9 floats free
    assert [c.vertices for c in rep.components] == [(1,), (3,), (9,)]
    assert [c.touches_c for c in rep.components] == [True, True, False]
    assert all(c.kind == "chain" for c in rep.components)


def test_shape_report_cycle_component():
    g = DualGraph({1: -2, 2: -2, 3: -2}, [(1, 2), (2, 3), (1, 3)])
    rep = shape_report(g)
    assert rep.components[0].kind == "general"
    assert not rep.is_tree


@st.composite
def _run_graphs(draw):
    """(weights, edges, c) of graphs made mostly of (-2)-runs: core nodes
    joined by runs (a spanning forest plus chords, self-loops included),
    pendant runs, core-free (-2)-chains and (-2)-cycles and isolated
    (-2)-vertices.  Ids are consecutive along the runs, either way, or
    scattered; the mark is absent, anywhere, or on a run vertex."""
    weights: dict[int, int] = {}
    edges: list[tuple[int, int]] = []

    def run(a, b, j):
        """a, then j new (-2)-vertices, then b; None leaves an end free."""
        prev = a
        for _ in range(j):
            v = len(weights)
            weights[v] = -2
            if prev is not None:
                edges.append((prev, v))
            prev = v
        if b is not None and prev is not None:
            edges.append((prev, b))
        return prev

    lengths = st.integers(0, 6)
    nodes = []
    for _ in range(draw(st.integers(0, 5))):
        nodes.append(len(weights))
        weights[nodes[-1]] = draw(st.sampled_from((-2, -2, -3, -1, 0, -5)))
    # a spanning forest, then chords and self-loops
    pairs = [
        (nodes[i], nodes[draw(st.integers(0, i - 1))])
        for i in range(1, len(nodes))
        if draw(st.booleans())
    ]
    if nodes:
        pairs += draw(st.lists(st.tuples(*[st.sampled_from(nodes)] * 2), max_size=3))
    direct = set()
    for a, b in pairs:
        j = draw(lengths)
        if a == b:
            j = max(j, 2)
        elif j == 0 and frozenset((a, b)) in direct:
            j = 1
        if j == 0:
            direct.add(frozenset((a, b)))
        run(a, b, j)
    for _ in range(draw(st.integers(0, 3))):
        if nodes:
            run(draw(st.sampled_from(nodes)), None, draw(st.integers(1, 5)))
    for _ in range(draw(st.integers(0, 2))):
        run(None, None, draw(st.integers(1, 5)))  # one vertex: isolated
    if draw(st.booleans()):
        first = len(weights)
        last = run(None, None, draw(st.integers(3, 6)))
        edges.append((first, last))  # a core-free (-2)-cycle
    n = len(weights)
    order = draw(st.sampled_from(("up", "down", "scattered")))
    if order == "scattered":
        spread = st.integers(-500, 500)
        ids = draw(st.lists(spread, min_size=n, max_size=n, unique=True))
    else:
        first = draw(st.integers(-20, 20))
        ids = [first + i if order == "up" else first - i for i in range(n)]
    weights = {ids[v]: w for v, w in weights.items()}
    edges = [(ids[u], ids[v]) for u, v in edges]
    mark = draw(st.sampled_from(("none", "any", "run")))
    c = None
    if mark == "any" and weights:
        c = draw(st.sampled_from(sorted(weights)))
    elif mark == "run":
        degree = dict.fromkeys(weights, 0)
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        on_runs = sorted(v for v, w in weights.items() if w == -2 and 0 < degree[v] < 3)
        if on_runs:
            c = draw(st.sampled_from(on_runs))
    return weights, edges, c


@settings(max_examples=400, deadline=None)
@given(_run_graphs())
def test_shape_report_and_canonical_form_match_the_vertex_dfs(parts):
    weights, edges, c = parts
    flat = DualGraph(weights, edges, c)
    # the same graph holding only its compact form, before anything expands
    compact = DualGraph._from_parts(dict(weights), [(u, v, ()) for u, v in edges], c)
    got = shape_report(compact)
    want = shape_report_dfs(flat)
    assert got == want
    assert shape_report(flat) == want
    if is_forest(flat):
        assert canonical_form(compact) == canonical_form_dfs(flat)
        assert canonical_form(flat) == canonical_form_dfs(flat)
    else:
        with pytest.raises(DomainError):
            canonical_form(compact)


def test_each_off_c_graph_is_cut_and_solved_once(monkeypatch):
    calls = []
    kernel = graphs._bareiss

    def counted(g):
        calls.append(g)
        return kernel(g)

    monkeypatch.setattr(graphs, "_bareiss", counted)
    # a definite cycle off C, and C of weight -1 on it
    weights = {1: -3, 2: -2, 3: -4, 4: -2, 5: -3, 6: -1}
    edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 1), (2, 6)]
    g = DualGraph(weights, edges, c=6)
    off = g.minus_c()
    assert g.minus_c() is off
    copy = g.with_mark(6)
    assert copy.minus_c() is not off and copy.minus_c() == off
    assert g.with_mark(1).minus_c() != off
    assert graph_d(off) == dense_det(graph_neg_matrix(off))
    assert len(calls) == 1
    # k_type_report solves the same off-C graph, already eliminated
    k_type_report(g)
    assert calls == [off]
    # the shape of a compact graph reads the cut compact form, unexpanded
    fam = build_family(FamilyInstance(family=3, A=(1000,), n=2, l=10**5))
    shape_report(fam)
    assert fam.minus_c()._adj is None and fam.minus_c()._weights is None


# -- isomorphism ---------------------------------------------------------------


def test_isomorphic_relabeled_star():
    g1 = DualGraph({0: -2, 1: -3, 2: -4, 3: -5}, [(0, 1), (0, 2), (0, 3)])
    g2 = DualGraph(
        {10: -5, 20: -2, 30: -4, 40: -3}, [(20, 10), (20, 30), (20, 40)]
    )
    assert isomorphic(g1, g2)


def test_isomorphism_respects_weights_and_mark():
    g1 = chain_graph([-2, -3])
    g2 = chain_graph([-3, -2], first_id=7)
    assert isomorphic(g1, g2)  # reversal is an isomorphism
    assert not isomorphic(g1, chain_graph([-2, -2]))
    assert not isomorphic(
        chain_graph([-2, -3], c_index=0), chain_graph([-2, -3], c_index=1)
    )
    assert isomorphic(
        chain_graph([-2, -3, -2], c_index=1),
        chain_graph([-2, -3, -2], c_index=1, first_id=50),
    )


def test_isomorphic_forests():
    g1 = DualGraph({1: -2, 2: -3, 5: -7}, [(1, 2)])
    g2 = DualGraph({1: -7, 4: -3, 5: -2}, [(4, 5)])
    assert isomorphic(g1, g2)
    with pytest.raises(DomainError):
        canonical_form(
            DualGraph({1: -2, 2: -2, 3: -2}, [(1, 2), (2, 3), (1, 3)])
        )


def test_two_center_paths():
    assert isomorphic(chain_graph([-2, -3, -3, -2]), chain_graph([-2, -3, -3, -2], first_id=9))
    assert not isomorphic(chain_graph([-2, -3, -3, -4]), chain_graph([-2, -3, -3, -2]))


def test_isomorphic_on_a_deep_tree():
    # the code nests to a fixed depth, so 11,000 vertices do not recurse
    g = build_family(FamilyInstance(3, A=(1000,), n=2, l=10**4))
    top = max(g.vertex_ids) + 1
    flipped = DualGraph(
        {top - v: w for v, w in g.weights.items()},
        [(top - u, top - v) for u, v in g.edges],
        top - g.c,
    )
    assert isomorphic(g, flipped)
    weights = g.weights
    assert weights[top // 2] == -2
    weights[top // 2] = -3
    assert not isomorphic(g, DualGraph(weights, g.edges, g.c))


def test_is_tree_and_forest():
    assert is_tree(chain_graph([-2]))
    assert is_forest(DualGraph({1: -2, 2: -2}, []))
    assert not is_tree(DualGraph({1: -2, 2: -2}, []))
    assert not is_forest(
        DualGraph({1: -2, 2: -2, 3: -2}, [(1, 2), (2, 3), (1, 3)])
    )


# -- the stored compact form ---------------------------------------------------


@st.composite
def _run_heavy_graphs(draw):
    """Small graphs, cycles allowed, mostly (-2)-weights and scattered ids."""
    k = draw(st.integers(0, 9))
    ids = draw(
        st.lists(st.integers(-20, 20), min_size=k, max_size=k, unique=True)
    )
    ws = draw(
        st.lists(st.sampled_from((-2, -2, -2, -1, -3)), min_size=k, max_size=k)
    )
    pairs = list(itertools.combinations(ids, 2))
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    )
    c = draw(st.sampled_from([None] + ids))
    return DualGraph(dict(zip(ids, ws)), edges, c)


@settings(max_examples=300, deadline=None)
@given(_run_heavy_graphs())
def test_compact_form_round_trips_and_deletes_like_vertex_data(h):
    core, links = h._compact()
    g = DualGraph._from_parts(core, list(links), h.c)  # compact parts only
    assert g._compact() == (core, links)
    vertex_level = DualGraph(h.weights, h.edges, h.c)  # reads adjacency
    for v in h.weights:
        assert g.neighbors(v) == vertex_level.neighbors(v)
        assert g.degree(v) == vertex_level.degree(v)
        assert all(
            g.has_edge(v, u) == vertex_level.has_edge(v, u) for u in h.weights
        )
        assert not g.has_edge(v, 99) and not g.has_edge(99, v)
    assert g._weights is None  # answered from the compact form alone
    assert len(g) == len(h)
    assert all(v in g for v in h.weights)
    assert all(g.weight(v) == w for v, w in h.weights.items())
    assert g == h and hash(g) == hash(h)
    assert g.weights == h.weights and g.edges == h.edges
    assert graph_d(g) == dense_det(graph_neg_matrix(h))
    assert is_negative_definite(g) == sylvester_negdef(graph_neg_matrix(h))
    for v in h.weights:
        cut = g.delete(v)  # cut and re-joined in compact form
        plain = DualGraph(h.weights, h.edges, h.c).delete(v)  # vertex level
        assert cut.c == plain.c
        assert cut._compact() == plain._compact()
        assert cut.weights == plain.weights and cut.edges == plain.edges

"""Graph core: matrices, determinants, definiteness, blow-downs, shapes."""

import inspect
import itertools
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualgraph import graphs
from dualgraph.canonical import KType, compute_dnatural, k_type_report
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
    is_forest,
    is_negative_definite,
    is_tree,
    isomorphic,
    shape_report,
    signed_determinant,
)
from dualgraph.families import FamilyInstance, build_family, l_bound
from dualgraph.twigs import twig_determinant

from oracles import (
    _adjacency,
    canonical_form_dfs,
    charpoly_negdef,
    blow_down_rebuild,
    blow_up_rebuild,
    contract_all_rescan,
    dense_adjunction_solve,
    dense_det,
    expand_compact,
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
    with pytest.raises(ValueError, match="^duplicate vertex id 1$"):
        DualGraph([(1, -2), (1, -3), (2, -1)], [(1, 2)])  # pairs can repeat


@pytest.mark.parametrize(
    "weights, edges, c",
    [
        ({1: -1, 2: -2}, [(1.0, 2)], 2),  # DGN would write "e 1.0 2"
        ({1: -1, 2: -2}, [(1, 2)], 2.0),
        ({True: -1, 2: -2}, [(True, 2)], None),  # "v True -1"
        ({1: -1, 2: False}, [(1, 2)], None),
        ({1: -1, 2: -2}, [(True, 2)], None),
        ({1: -1, 2: -2}, [], True),
    ],
)
def test_construction_refuses_what_dgn_cannot_write(weights, edges, c):
    with pytest.raises(ValueError):
        DualGraph(weights, edges, c)


def test_marks_and_edits_refuse_ids_that_are_not_ints():
    g = DualGraph({1: -1, 2: -2}, [(1, 2)])
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="does not exist"):
            g.with_mark(bad)
        with pytest.raises(ValueError, match="no vertex"):
            blow_up_at(g, bad)
        with pytest.raises(ValueError, match="no edge"):
            blow_up_edge(g, bad, 2)
    for bad in (3.0, False, "x"):
        with pytest.raises(ValueError, match="must be integers"):
            blow_up_free(g, new_id=bad)
    with pytest.raises(ValueError, match="already in use"):
        blow_up_free(g, new_id=1.0)


def test_equality_and_mark():
    g1 = DualGraph({1: -1, 2: -2}, [(1, 2)], c=1)
    g2 = DualGraph({2: -2, 1: -1}, [(2, 1)], c=1)
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != g1.with_mark(None)
    assert g1.minus_c() == DualGraph({2: -2}, [])
    assert g1.__eq__(3) is NotImplemented and (g1 == 3) is False
    with pytest.raises(DomainError) as exc:
        g1.with_mark(None).minus_c()
    assert str(exc.value) == "graph has no C-marked vertex"


def test_delete_drops_mark_with_vertex():
    g = DualGraph({1: -1, 2: -2}, [(1, 2)], c=1)
    assert g.delete(1).c is None
    assert g.delete(2).c == 1


# -- determinants ------------------------------------------------------------


def test_signed_determinant_examples():
    assert signed_determinant(neg_chain([2, 3])) == 5
    two_vertex = DualGraph({1: 0, 2: -2}, [(1, 2)], c=1)
    assert signed_determinant(two_vertex) == -1
    assert graph_d(two_vertex) == -1


def test_signed_determinant_past_maxsize_vertices():
    # len() cannot count this many vertices; the sign reads the compact form
    spec = FamilyInstance(
        family=5, A=(10**6,), n=10**7, b=(3,), l=sys.maxsize, m=sys.maxsize
    )
    start = time.perf_counter()
    g = build_family(spec).minus_c()
    size = len(g._compact()[0]) + sum(len(ids) for _, _, ids in g._compact()[1])
    assert size > sys.maxsize
    assert signed_determinant(g) == (-1) ** size * graph_d(g)
    assert time.perf_counter() - start < 1


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
    """Small graphs with at least one cycle: a random spanning tree on 3 to 8
    core candidates plus chords, scattered ids and weights in -5..0 (or
    -5..-2, so that the adjunction solve applies), so definite, indefinite
    and singular -I all occur, and zero pivots force row swaps.  Tree edges
    and chords may carry (-2)-runs of 0..40, and there may be a self-loop
    run, a pendant run and a second run between two joined vertices; the
    runs share a budget of 40 vertices, which keeps the dense oracles cheap."""
    n = draw(st.integers(3, 8))
    ids = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True))
    top = draw(st.sampled_from((0, -2)))
    ws = draw(st.lists(st.integers(-5, top), min_size=n, max_size=n))
    weights = dict(zip(ids, ws))
    edges = []
    budget = [40]

    def join(u, v, least=0):
        """Join u to v (None: a free end) through a run of least or more."""
        j = draw(st.integers(least, max(least, budget[0])))
        budget[0] -= j
        prev = u
        first = 41 + len(weights) - n  # fresh ids, past the core's
        for x in range(first, first + j):
            weights[x] = -2
            edges.append((prev, x))
            prev = x
        if v is not None:
            edges.append((prev, v))

    tree = [(ids[i], ids[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    keys = {frozenset(e) for e in tree}
    others = [p for p in itertools.combinations(ids, 2) if frozenset(p) not in keys]
    chords = draw(
        st.lists(st.sampled_from(others), min_size=1, max_size=4, unique=True)
    )
    for u, v in tree + chords:
        join(u, v)
    if draw(st.booleans()):
        join(draw(st.sampled_from(ids)), None, 1)  # a pendant run
    if draw(st.booleans()):
        u = draw(st.sampled_from(ids))
        join(u, u, 2)  # a self-loop run
    if draw(st.booleans()):
        join(*draw(st.sampled_from(tree + chords)), 1)  # a second route
    return DualGraph(weights, edges)


@settings(max_examples=400, deadline=None)
@given(_cyclic_graphs())
# in id order a zero pivot, then a row swap; on the core, one vertex of
# weight 0 with a self-loop run of 2, and det(-I) = 3 * (0 - 2) = -6
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


def _self_loop(a, j):
    """One (-a)-vertex 0 with a self-loop run of j (-2)-vertices 1..j."""
    return DualGraph._from_parts({0: -a}, [(0, 0, range(1, j + 1))], None)


@pytest.mark.parametrize("a", [1, 2, 3, 7])
def test_a_self_loop_run_has_det_j_plus_one_times_a_minus_two(a):
    for j in (2, 3, 40, 10**4):
        g = _self_loop(a, j)
        assert graph_d(g) == (j + 1) * (a - 2)
        assert is_negative_definite(g) == (a > 2)
        if j <= 40:
            flat = DualGraph(g.weights, g.edges)
            assert graph_d(flat) == dense_det(graph_neg_matrix(flat))
    # -a alpha_0 + 2 alpha_0 = 2 - a, and the run is constant
    if a > 2:
        alpha = compute_dnatural(_self_loop(a, 40)).coefficients
        assert list(alpha) == list(range(41)) and set(alpha.values()) == {1}


def test_a_core_free_minus_two_cycle_is_singular():
    for j in (3, 10, 10**5):
        g = DualGraph._from_parts({1: -2}, [(1, 1, range(2, j + 1))], None)
        assert g._compact()[0] == {1: -2} and not is_forest(g)
        assert graph_d(g) == 0 and signed_determinant(g) == 0
        assert not is_negative_definite(g)
        with pytest.raises(NotContractible):
            compute_dnatural(g)
    ring = DualGraph(
        dict.fromkeys(range(1, 11), -2), [(v, v % 10 + 1) for v in range(1, 11)]
    )
    assert graph_d(ring) == dense_det(graph_neg_matrix(ring)) == 0


def _line_of(func, marker):
    """The number of func's source line holding marker."""
    lines, start = inspect.getsourcelines(func)
    return start + next(i for i, line in enumerate(lines) if marker in line)


# the traced lines, resolved once when this module is imported, so that a
# source file edited while the suite runs cannot move them off the loaded code
_ROW_SWAP = _line_of(graphs._bareiss, "sign, symmetric = -sign")
_LOOP_CUT = _line_of(graphs._blow_down_compact, "b, ids = ids[-1]")
_LOOP_EAT = _line_of(graphs._contract_compact, "far, rest = rest[-1]")


def _line_hits(func, target, call):
    """Call call() and count how often func runs its line number target."""
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            hits.append(target)
        return local

    def outer(frame, event, arg):
        return local if frame.f_code is func.__code__ else None

    old = sys.gettrace()
    sys.settrace(outer)
    try:
        call()
    finally:
        sys.settrace(old)
    return len(hits)


@pytest.mark.parametrize(
    "g",
    [
        # three weight-0 core vertices in a triangle: every diagonal entry of
        # -I is 0, so no symmetric pivot exists
        DualGraph({1: 0, 2: 0, 3: 0}, [(1, 2), (2, 3), (1, 3)]),
        # (-2)-vertices of degree 4, each with a self-loop run: the runs bring
        # every core diagonal entry to (j+1)(2 - 2) = 0
        DualGraph._from_parts(
            {1: -2, 2: -2, 3: -2},
            [(1, 2, ()), (2, 3, ()), (1, 3, ()), (1, 1, range(10, 12)),
             (2, 2, range(20, 25)), (3, 3, range(30, 33))],
            None,
        ),
    ],
    ids=["zero triangle", "self-loop runs"],
)
def test_a_zero_diagonal_everywhere_takes_the_row_swap(g):
    flat = DualGraph(g.weights, g.edges)
    want = dense_det(graph_neg_matrix(flat))
    assert want != 0
    fresh = DualGraph._from_parts(*g._compact(), None)
    assert _line_hits(graphs._bareiss, _ROW_SWAP, lambda: graph_d(fresh)) == 1
    assert graph_d(fresh) == graph_d(flat) == want
    assert not is_negative_definite(fresh)


def test_a_self_loop_run_of_ten_to_the_five_is_read_in_compact_form():
    # C(-1) hangs off run vertex k of a self-loop run at a (-3)-vertex, so
    # the off-C graph is that vertex with the whole run as one self-loop
    j, k, c = 10**5, 5 * 10**4, 0
    g = DualGraph._from_parts(
        {-1: -3, k: -2, c: -1},
        [(-1, k, range(1, k)), (k, -1, range(k + 1, j + 1)), (k, c, ())],
        c,
    )
    start = time.perf_counter()
    assert graph_d(g.minus_c()) == (j + 1) * (3 - 2)
    assert is_negative_definite(g.minus_c())
    # every coefficient is 1, so C pairs to 1 against its one neighbour
    assert k_type_report(g) == (KType.NUMERICALLY_TRIVIAL, 1)
    assert time.perf_counter() - start < 1.0
    assert g.minus_c()._compact()[0] == {-1: -3}
    assert g.minus_c()._weights is None


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
    assert blow_up_free(DualGraph({}, [])).vertex_ids == (1,)
    assert blow_up_at(g, 2, new_id=-7).weight(-7) == -1
    for taken in (
        lambda: blow_up_edge(g, 1, 2, new_id=3),
        lambda: blow_up_at(g, 2, new_id=1),
        lambda: blow_up_free(g, new_id=2),
    ):
        with pytest.raises(ValueError, match="already in use"):
            taken()


@given(st.lists(st.integers(-4, -1), min_size=2, max_size=6))
def test_blow_up_edge_then_down_is_identity(ws):
    g = chain_graph(ws)
    for u, v in g.edges:
        up = blow_up_edge(g, u, v)
        assert blow_down(up, max(up.vertex_ids)) == g
        assert graph_d(up) == graph_d(g)


def test_edits_of_vertex_level_data_never_compress(monkeypatch):
    def refused(*args):
        raise AssertionError("an edit compressed a graph")

    monkeypatch.setattr(graphs, "_normalize", refused)
    g = DualGraph({1: -2, 2: -1, 3: -2, 4: -2}, [(1, 2), (2, 3), (3, 4)], c=4)
    down = blow_down(g, 2)
    assert down.weights == {1: -1, 3: -1, 4: -2} and down.edges == ((1, 3), (3, 4))
    up = blow_up_edge(down, 3, 1, new_id=2)
    assert (up.weights, up.edges, up.c) == (g.weights, g.edges, 4)
    at = blow_up_at(g, 4)
    assert at.weights == {1: -2, 2: -1, 3: -2, 4: -3, 5: -1}
    assert at.edges == g.edges + ((4, 5),)
    free = blow_up_free(g, new_id=0)
    assert free.weights == {0: -1, **g.weights} and free.edges == g.edges
    done = contract_all(g)
    assert (done.weights, done.edges, done.c) == ({3: 0, 4: -2}, ((3, 4),), 4)
    triangle = DualGraph({1: -1, 2: -2, 3: -2}, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(WouldCreateCycle, match="neighbors 2 and 3 of 1"):
        blow_down(triangle, 1)
    with pytest.raises(ValueError, match="no edge"):
        blow_up_edge(g, 1, 3)


def test_edits_of_compact_only_graphs_never_expand(monkeypatch):
    def refused(self, *part):
        raise AssertionError("an edit expanded a run")

    monkeypatch.setattr(DualGraph, "_expand", refused)
    spec = FamilyInstance(5, A=(2,), n=3, l=10**6, b=(3,), m=10**6)
    g = build_family(spec, strict=False)
    (two,) = [v for v in g.neighbors(g.c) if g.weight(v) == -2]
    down = blow_down(g, g.c)
    assert down._weights is None and down.c is None and len(down) == len(g) - 1
    assert [down.weight(v) for v in g.neighbors(g.c)] == [-(10**6) - 1, -1]
    again = blow_down(down.with_mark(two), two)
    assert again._weights is None and len(again) == len(g) - 2
    with pytest.raises(NotContractibleCurve, match="weight -2, not -1"):
        blow_down(g, two + 1)
    with pytest.raises(ValueError, match="no vertex"):
        blow_down(g, float(g.c))
    done = contract_all(g)
    assert done._weights is None and graph_d(done) == graph_d(g)
    assert contract_all(g.minus_c())._weights is None


def test_edits_follow_how_a_graph_was_made_not_its_views(monkeypatch):
    """A family graph whose views were read still holds only the compact
    form and is edited on it, as a with_mark copy of it is; a graph given
    vertex by vertex is spliced even once a query has compressed it,
    keeping its weights' order."""
    spec = FamilyInstance(3, A=(1000,), n=2, l=10**5)
    g = build_family(spec)
    assert len(g.edges) == len(g) - 1 and g._weights is None
    fresh = build_family(spec)
    want_down, want_done = blow_down(fresh, g.c), contract_all(fresh)

    def refused(self, *part):
        raise AssertionError("an edit spliced vertex-level data")

    monkeypatch.setattr(DualGraph, "_expand", refused)
    for h in (g, g.with_mark(g.c)):
        down, done = blow_down(h, h.c), contract_all(h)
        assert down._weights is None and down == want_down
        assert done._weights is None and done == want_done
    monkeypatch.undo()
    given = DualGraph({2: -2, 1: -2, 3: -1}, [(1, 2), (2, 3)], c=1)
    assert given.weight(3) == -1 and given._core is not None  # compressed by a query
    for h in (given, given.with_mark(None)):
        assert list(blow_down(h, 3).weights) == [2, 1]
        assert list(contract_all(h).weights) == [2, 1]


def test_len_and_weights_read_the_weights_a_graph_holds():
    """len() and weights of a graph given vertex-level data read that data,
    compressing nothing; weights is a new dict for either kind of graph, so
    changing it changes neither."""
    given = DualGraph({2: -2, 1: -2, 3: -1}, [(1, 2), (2, 3)], c=1)
    compact = build_family(FamilyInstance(3, A=(2,), n=2, l=4))
    assert len(given) == 3 and given._core is None
    for g in (given, compact):
        w, before = g.weights, dict(g.weights)
        w[next(iter(w))] = 7
        w[10**6] = 0
        assert g.weights == before and 10**6 not in g
    assert given._weights == {2: -2, 1: -2, 3: -1} and compact._weights is None


def test_a_blow_up_expands_its_parent_once_and_views_store_nothing(monkeypatch):
    """Each blow-up of a graph that holds only the compact form expands it
    once and makes every check on that expansion; reading the views stores
    no expansion, so the graph still holds only the compact form."""
    g = build_family(FamilyInstance(3, A=(1000,), n=2, l=40))
    u, v = g.edges[-1]
    expand, calls = DualGraph._expand, []

    def counted(self, *part):
        calls.append(self)
        return expand(self, *part)

    monkeypatch.setattr(DualGraph, "_expand", counted)
    for edit, error in (
        (lambda: blow_up_edge(g, v, u), None),
        (lambda: blow_up_at(g, u), None),
        (lambda: blow_up_free(g), None),
        (lambda: blow_up_free(g, new_id=g.c), f"vertex id {g.c} already in use"),
        (lambda: blow_up_edge(g, v, u + 1000), f"no edge ({v},{u + 1000})"),
    ):
        calls.clear()
        got = _outcome(edit)
        assert len(calls) == 1 and calls[0] is g
        assert got == (ValueError, error) if error else got._weights is not None
    for read in (lambda h: h.weights, lambda h: h.edges, lambda h: h.vertex_ids, repr):
        read(g)
    assert g._weights is None and g._edges is None


class _IdsOnly(dict):
    """A core whose ids may be read but not its weights."""

    def get(self, *args):
        raise AssertionError("a weight was read")

    __getitem__ = get


def test_edges_and_vertex_ids_of_a_compact_graph_read_no_weight():
    """edges and vertex_ids of a graph that holds only the compact form walk
    it in id order without building the weights."""
    g = build_family(FamilyInstance(3, A=(1000,), n=2, l=10**4))
    weights, edges = g._expand()
    h = DualGraph._make(_IdsOnly(g._core), g._links, None, None, g.c)
    assert h.edges == edges and type(h.edges) is tuple
    assert h.vertex_ids == tuple(sorted(weights)) == tuple(weights)
    assert g.weights == weights and h._weights is None


@pytest.mark.parametrize("family, fields", [
    (3, {}), (4, {"b": (3,)}), (5, {"b": (3,), "m": 5}),
])
def test_the_splice_and_the_compact_edits_agree_at_scale(family, fields):
    """contract_all and blow_down of a family graph given vertex by vertex
    (the splice) and of the graph itself (the compact form) write the same
    DGN."""
    for l in (0, 10, 1000, 10**4):
        g = build_family(FamilyInstance(family, A=(1000,), n=2, l=l, **fields))
        given = DualGraph(g.weights, g.edges, g.c)
        assert given._weights is not None and g._weights is None
        for edit in (contract_all, lambda h: blow_down(h, g.c)):
            assert serialize_dgn(edit(given)) == serialize_dgn(edit(g))


@st.composite
def _compact_run_graphs(draw):
    """Graphs given only as compact parts: core vertices, many of them (-1),
    on a path and a few more links, each a run of up to 9 whose ids
    interleave with the core ids, as an ascending or descending range or
    scattered; self-loop, pendant and parallel runs included."""
    k = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 99), min_size=k, max_size=k, unique=True))
    ws = draw(st.lists(st.sampled_from((-1, -1, -1, -2, -3, -4, 0)), min_size=k, max_size=k))
    core = dict(zip(ids, ws))
    ends = list(zip(ids, ids[1:]))
    for _ in range(draw(st.integers(0, 3))):
        ends.append(tuple(draw(st.sampled_from([None, *ids])) for _ in "ab"))
    taken, links, edges = set(core), [], set()
    for a, b in ends:
        a, b = (b, a) if a is None else (a, b)
        j = draw(st.integers(0, 9))
        start = draw(st.integers(0, 99))
        run = draw(st.sampled_from([
            range(start, start + j),
            range(start, start - j, -1),
            tuple(draw(st.permutations(range(start, start + 2 * j, 2)))),
        ]))
        if a is None or taken.intersection(run):
            continue
        if j < (2 if a == b else 1 if b is None or (a, b) in edges else 0):
            continue  # a loop, a repeated edge or an empty pendant run
        taken.update(run)
        edges |= {(a, b), (b, a)} if not j else set()
        links.append((a, b, run))
    c = draw(st.sampled_from([None, *sorted(taken)]))
    return DualGraph._from_parts(core, links, c)


@settings(max_examples=400, deadline=None)
@given(_compact_run_graphs())
# a run skip stops where the heap picks 30, or the tuple run passes 34 ...
@example(DualGraph({28: -1, 30: -1, 52: -2, 53: -2}, [(28, 53), (30, 52), (52, 53)]))
@example(DualGraph({23: -2, 27: -1, 34: -1, 42: -2, 43: -2},
                   [(23, 27), (23, 43), (34, 42), (42, 43)], 34))
# ... where the other neighbor 22 turns (-1), or the run ends at it ...
@example(DualGraph({22: -3, 30: -2, 38: -1, 46: -2, 47: -2},
                   [(22, 38), (30, 47), (38, 46), (46, 47)]))
@example(DualGraph({26: 0, 35: -1, 51: -2, 52: -2}, [(26, 35), (26, 52), (35, 51), (51, 52)]))
# ... and where 2 vertices are left
@example(DualGraph({17: -1, 30: -2, 49: -2}, [(17, 49), (30, 49)], 17))
def test_edits_of_compact_run_graphs_match_the_oracles(g):
    """blow_down and contract_all on the compact form, with run skips that
    stop for the heap order, the other neighbor and the far end, give the
    vertex-level oracles' graphs and errors; the results hold only the
    compact form, in canonical form."""
    g = DualGraph._make(*g._compact(), None, None, g.c)  # only the compact form
    ones = [v for v, w in g._compact()[0].items() if w == -1]
    edits = [(contract_all, lambda: contract_all_rescan(g, min))]
    edits += [
        (lambda h, v=v: blow_down(h, v), lambda v=v: blow_down_rebuild(g, v))
        for v in ones
    ]
    for edit, oracle in edits:
        assert g._weights is None
        got, want = _outcome(edit, g), _outcome(oracle)
        if not isinstance(want, DualGraph):
            assert got == want
            continue
        assert got._weights is None
        assert (list(got.weights.items()), got.edges, got.c) == (
            list(want.weights.items()), want.edges, want.c
        )
        assert DualGraph(got.weights, got.edges, got.c) == got


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_compact_edits_of_a_minus_one_vertex_alone_on_a_cycle(k):
    """A (-1) core vertex whose one link is a self-loop run of k
    (-2)-vertices: blow_down and contract_all take the self-loop branches of
    the compact edits and agree with the splice on the vertex-level twin."""
    g = DualGraph._from_parts({0: -1}, [(0, 0, range(1, k + 1))], None)
    twin = DualGraph(g.weights, g.edges)
    assert g._weights is None and twin._weights is not None
    # the branch runs once per run end next to the vertex blown down: the
    # blow-down cuts the loop as one link, the contraction meets both ends
    for edit, func, line, times in (
        (lambda h: blow_down(h, 0), graphs._blow_down_compact, _LOOP_CUT, 1),
        (contract_all, graphs._contract_compact, _LOOP_EAT, 2),
    ):
        assert _line_hits(func, line, lambda: _outcome(edit, twin)) == 0
        hits = []
        assert _line_hits(func, line, lambda: hits.append(_outcome(edit, g))) == times
        (got,), want = hits, _outcome(edit, twin)
        if not isinstance(want, DualGraph):
            assert got == want
            continue
        assert got._weights is None and want._weights is not None
        assert (got.weights, got.edges, got.c) == (want.weights, want.edges, want.c)
        assert serialize_dgn(got) == serialize_dgn(want)


def test_contract_all_at_l_bound_takes_time_independent_of_l():
    spec = FamilyInstance(3, A=(1000,), n=2, l=l_bound((1000,), 2))
    g = build_family(spec)
    assert len(g) == 2_000_001
    start = time.perf_counter()
    h = contract_all(g)
    assert time.perf_counter() - start < 0.5
    assert list(h.weights.values()) == [0, -2]


_FAMILY_FIELDS = {
    "A": st.sampled_from([(2,), (3,), (2, 2), (3, 2), (2, 4)]),
    "n": st.integers(2, 4),
    "l": st.integers(0, 60),
    "b": st.sampled_from([(3,), (4, 2), (3, 3)]),
    "m": st.integers(0, 60),
}
_FAMILY_KEYS = {1: "n", 2: "An", 3: "Anl", 4: "Anlb", 5: "Anlbm", 6: "Anb", 7: "Anbm"}


@st.composite
def _edit_inputs(draw):
    """A vertex-level graph with scattered ids and many (-1)-vertices, often
    on a triangle; or a graph that holds only the compact form: a family
    boundary, with runs of up to 60 in both id directions, or a cut of a
    vertex-level graph, whose runs may be tuples, cycles or self-loops."""
    if draw(st.booleans()):
        family = draw(st.integers(1, 7))
        fields = {key: draw(_FAMILY_FIELDS[key]) for key in _FAMILY_KEYS[family]}
        return build_family(FamilyInstance(family, **fields), strict=False)
    k = draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(-10, 12), min_size=k, max_size=k, unique=True))
    ws = draw(st.lists(st.sampled_from((-1, -1, -2, -3, 0)), min_size=k, max_size=k))
    pairs = list(itertools.combinations(ids, 2))
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=12) if pairs else st.just([])))
    if k >= 3 and draw(st.booleans()):
        edges |= {pairs[0], pairs[1], pairs[k - 1]}  # a triangle on ids[:3]
    g = DualGraph(dict(zip(ids, ws)), edges, draw(st.sampled_from([None] + ids)))
    cut = draw(st.sampled_from(["none", "minus_c", "delete"]))
    if cut == "minus_c" and g.c is not None:
        return g.minus_c()
    if cut == "delete" and ids:
        return g.delete(draw(st.sampled_from(ids)))
    return g


def _held(g):
    """Copies of the data g holds."""
    return {
        key: list(x.items()) if isinstance(x, dict) else x
        for key in ("_core", "_links", "_weights", "_edges")
        if (x := getattr(g, key)) is not None
    }


def _outcome(edit, *args):
    """The edit's graph, or the type and text of the error it raised."""
    try:
        return edit(*args)
    except (ValueError, DomainError) as exc:
        return type(exc), str(exc)


def _draw_edit(data, g):
    """One edit of g, as the library call and the oracle call."""
    ids = sorted(g.weights)
    ones = [v for v in ids if g.weight(v) == -1]
    x = data.draw(st.sampled_from(ones + ids + [max(ids, default=0) + 7]))
    # x may be in use, and 1.0 and True equal vertex 1 without being ints
    new_id = data.draw(st.sampled_from([None, None, x, -50, 1.0, True]))
    pairs = list(g.edges) + list(itertools.combinations(ids[:4], 2))
    u, v = data.draw(st.sampled_from(pairs)) if pairs else (0, 1)
    return data.draw(st.sampled_from([
        (lambda: blow_up_edge(g, v, u, new_id), lambda: blow_up_rebuild(g, (v, u), new_id)),
        (lambda: blow_up_at(g, x, new_id), lambda: blow_up_rebuild(g, (x,), new_id)),
        (lambda: blow_up_free(g, new_id), lambda: blow_up_rebuild(g, (), new_id)),
        (lambda: blow_down(g, x), lambda: blow_down_rebuild(g, x)),
        (lambda: blow_down(g, x), lambda: blow_down_rebuild(g, x)),
        (lambda: contract_all(g), lambda: contract_all_rescan(g, min)),
    ]))


@settings(max_examples=300, deadline=None)
@given(_edit_inputs(), st.data())
def test_edits_splice_like_the_rebuild_oracle(g, data):
    """Chains of edits give the oracle's graphs, weights in the same order,
    keep the edge invariant, leave the parent as it was, and refuse what the
    oracle refuses, with its error type and message; a refused edit leaves
    the chain where it was.  Reading a graph's views stores nothing, so a
    graph that holds only the compact form is still edited on it."""
    for _ in range(data.draw(st.integers(1, 10))):
        edit, oracle = _draw_edit(data, g)
        want = _outcome(oracle)
        held = _held(g)
        got = _outcome(edit)
        assert {key: _held(g)[key] for key in held} == held
        if not isinstance(want, DualGraph):
            assert got == want
            continue
        assert (list(got.weights.items()), got.edges, got.c) == (
            list(want.weights.items()), want.edges, want.c
        )
        assert type(got.edges) is tuple
        assert all(u < v for u, v in got.edges)
        assert list(got.edges) == sorted(set(got.edges))
        assert DualGraph(got.weights, got.edges, got.c) == got
        g = got


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


def test_contract_all_on_random_chains_matches_the_rescan_oracle():
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


def _relabeled(weights, edges, c, seed):
    """The graph with its ids sent to scattered fresh ones."""
    ids = sorted(weights)
    new = dict(zip(ids, random.Random(seed).sample(range(-1000, 1000), len(ids))))
    return DualGraph(
        {new[v]: w for v, w in weights.items()},
        [(new[u], new[v]) for u, v in edges],
        None if c is None else new[c],
    )


def _perturbed(weights, edges, c, edit):
    """C moved to a neighbour when move is set and C has one, else one
    weight changed by delta; pick chooses the neighbour or the vertex."""
    move, pick, delta = edit
    nbrs = sorted({u for e in edges if c in e for u in e} - {c})
    if move and c is not None and nbrs:
        return DualGraph(weights, edges, nbrs[pick % len(nbrs)])
    weights = dict(weights)
    weights[sorted(weights)[pick % len(weights)]] += delta
    return DualGraph(weights, edges, c)


@settings(max_examples=400, deadline=None)
@given(
    _run_graphs(),
    st.integers(0, 2**16),
    st.tuples(st.booleans(), st.integers(0, 99), st.sampled_from((-1, 1))),
)
# pendant runs at the root center: C moves along one of them
@example(
    ({0: -3, 1: -2, 2: -2, 3: -2, 4: -2}, [(0, 1), (1, 2), (0, 3), (3, 4)], 2),
    0,
    (True, 0, 1),
)
# C on a pendant run at a root, one of two core centers
@example(
    ({10: -4, 11: -3, 1: -2, 2: -2}, [(10, 11), (10, 1), (1, 2)], 1), 0, (True, 0, 1)
)
# two core centers with C off the middle of the run between them; the seed
# swaps the order of their ids
@example(
    ({0: -3, 5: -2, 6: -2, 7: -2, 9: -3}, [(0, 5), (5, 6), (6, 7), (7, 9)], 5),
    0,
    (True, 1, 1),
)
# C on the link between two centers with equal labels, moved one step: to
# k + 1 on a run of 5, and to the mirror position len - 1 - k on a run of 4
@example(
    ({0: -4, 1: -3, 2: -2, 3: -2, 4: -2, 5: -2, 6: -2, 7: -3, 8: -4},
     [(i, i + 1) for i in range(8)], 3),
    0,
    (True, 1, 1),
)
@example(
    ({0: -4, 1: -3, 2: -2, 3: -2, 4: -2, 5: -2, 6: -3, 7: -4},
     [(i, i + 1) for i in range(7)], 3),
    0,
    (True, 1, 1),
)
# an off-center C on a core-free chain, moved to its mirror position
@example(({0: -2, 1: -2, 2: -2, 3: -2}, [(0, 1), (1, 2), (2, 3)], 1), 0, (True, 1, 1))
# an isolated (-2)-vertex carrying C, beside a core-free chain
@example(({3: -2, 4: -2, 5: -2, 9: -2}, [(3, 4), (4, 5)], 9), 0, (True, 3, -1))
# a core vertex with a self-loop run and a chord to a second core vertex:
# each link is read once, from one end
@example(
    ({0: -3, 1: -2, 2: -2, 3: -2, 4: -3, 5: -2},
     [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)], None),
    0,
    (True, 0, 1),
)
# a core-free (-2)-cycle, whose smallest id is core, beside a core chain of
# two core vertices and one link
@example(
    ({0: -3, 1: -2, 2: -4, 10: -2, 11: -2, 12: -2, 13: -2},
     [(0, 1), (1, 2), (10, 11), (11, 12), (12, 13), (13, 10)], None),
    0,
    (True, 0, 1),
)
def test_shape_report_and_canonical_form_match_the_vertex_dfs(parts, seed, edit):
    weights, edges, c = parts
    flat = DualGraph(weights, edges, c)
    # the same graph holding only its compact form, before anything expands
    compact = DualGraph._from_parts(dict(weights), [(u, v, ()) for u, v in edges], c)
    got = shape_report(compact)
    want = shape_report_dfs(flat)
    assert got == want
    assert shape_report(flat) == want
    if not is_forest(flat):
        with pytest.raises(DomainError):
            canonical_form(compact)
        return
    assert canonical_form(compact) == canonical_form(flat)
    # the values differ from the oracle's; the relation they decide must not
    relabeled = _relabeled(weights, edges, c, seed)
    assert canonical_form_dfs(relabeled) == canonical_form_dfs(flat)
    assert isomorphic(compact, relabeled)
    if weights:
        other = _perturbed(weights, edges, c, edit)
        same = canonical_form_dfs(other) == canonical_form_dfs(flat)
        assert isomorphic(compact, other) == same
        assert isomorphic(relabeled, other) == same


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
    assert fam.minus_c()._weights is None


# -- isomorphism ---------------------------------------------------------------


def test_isomorphic_relabeled_star():
    g1 = DualGraph({0: -2, 1: -3, 2: -4, 3: -5}, [(0, 1), (0, 2), (0, 3)])
    g2 = DualGraph(
        {10: -5, 20: -2, 30: -4, 40: -3}, [(20, 10), (20, 30), (20, 40)]
    )
    assert isomorphic(g1, g2)
    # the same labels level by level, with the leaves on swapped arms
    arms = [(0, 1), (0, 2), (1, 3), (2, 4)]
    assert not isomorphic(
        DualGraph({0: -7, 1: -3, 2: -4, 3: -5, 4: -6}, arms),
        DualGraph({0: -7, 1: -3, 2: -4, 3: -6, 4: -5}, arms),
    )
    # a pendant run and a run to a core leaf, on swapped arms
    weights = {0: -7, 1: -3, 2: -4, 3: -5, 5: -2, 6: -2}
    assert not isomorphic(
        DualGraph(weights, [(0, 1), (0, 2), (1, 5), (5, 3), (2, 6)]),
        DualGraph(weights, [(0, 1), (0, 2), (2, 5), (5, 3), (1, 6)]),
    )


def test_isomorphism_respects_weights_and_mark():
    g1 = chain_graph([-2, -3])
    g2 = chain_graph([-3, -2], first_id=7)
    assert isomorphic(g1, g2)  # reversal is an isomorphism
    assert not isomorphic(g1, chain_graph([-2, -2]))
    assert not isomorphic(
        chain_graph([-2, -3], c_index=0), chain_graph([-2, -3], c_index=1)
    )
    assert not isomorphic(
        chain_graph([-3, -4], c_index=0), chain_graph([-3, -4], c_index=1)
    )
    assert not isomorphic(chain_graph([-2, -2]), chain_graph([-2, -2, -2]))
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


def test_canonical_form_codes_each_core_tree_once(monkeypatch):
    calls = []
    code = graphs._tree_code

    def counted(g, comp):
        calls.append(sorted(comp))
        return code(g, comp)

    monkeypatch.setattr(graphs, "_tree_code", counted)
    # a two-center path with equal center labels and C on the run between
    # them, a star, a lone core vertex and a core-free chain
    weights = {
        1: -4, 2: -3, 3: -2, 4: -2, 5: -3, 6: -4,
        10: -2, 11: -3, 12: -5, 13: -6, 20: -7, 30: -2, 31: -2,
    }
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (10, 11), (10, 12), (10, 13),
             (30, 31)]
    canonical_form(DualGraph(weights, edges, c=3))
    assert sorted(calls) == [[1, 2, 5, 6], [10, 11, 12, 13], [20]]


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


def test_isomorphic_on_a_long_run_reads_the_compact_form():
    g = build_family(FamilyInstance(3, A=(1000,), n=2, l=10**5))
    top = 10**6  # above every id, so v -> top - v reverses the ids
    core, links = g._compact()
    flipped = DualGraph._from_parts(
        {top - v: w for v, w in core.items()},
        [
            (
                None if a is None else top - a,
                None if b is None else top - b,
                range(top - ids.start, top - ids.stop, -ids.step),
            )
            for a, b, ids in links
        ],
        top - g.c,
    )
    longer = build_family(FamilyInstance(3, A=(1000,), n=2, l=10**5 + 1))
    assert isomorphic(g, flipped)
    assert not isomorphic(g, longer)
    for h in (g, flipped, longer):
        assert h._weights is None


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
    adjacency = _adjacency(h)  # the vertex-level reference
    for v in h.weights:
        assert g.neighbors(v) == tuple(sorted(adjacency[v]))
        assert g.degree(v) == len(adjacency[v])
        assert all(g.has_edge(v, u) == (u in adjacency[v]) for u in h.weights)
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
        plain = _filtered(h, v)
        assert cut.c == plain.c
        assert cut._compact() == plain._compact()
        assert cut.weights == plain.weights and cut.edges == plain.edges


@st.composite
def _walk_graphs(draw):
    """Compact parts with ids from -60 to 60: core vertices, then links of
    up to 12 each, as ranges running both ways or scattered tuples, with two
    core ends (a self-loop included), one (pendant) or none (a free path, or
    an isolated (-2)-vertex when it has one id); C anywhere, on runs too."""
    ids = draw(st.lists(st.integers(-60, 60), max_size=6, unique=True))
    core = {v: draw(st.sampled_from((-1, -2, -3, 0, 1))) for v in ids}
    taken, links, direct = set(core), [], set()
    for _ in range(draw(st.integers(0, 6))):
        a, b = (draw(st.sampled_from([None, *ids])) for _ in "ab")
        a, b = (b, a) if a is None else (a, b)
        j, start = draw(st.integers(0, 12)), draw(st.integers(-80, 80))
        run = draw(st.sampled_from([
            range(start, start + j),
            range(start, start - j, -1),
            tuple(draw(st.permutations(range(start, start + 3 * j, 3)))),
        ]))
        edge = frozenset((a, b))
        if taken.intersection(run) or (not j and (b is None or edge in direct)):
            continue  # a shared id, an empty run to a free end, a repeated edge
        if a is not None and a == b and j < 2:
            continue  # a loop or a repeated edge
        taken.update(run)
        if not j:
            direct.add(edge)
        links.append((a, b, run))
    c = draw(st.sampled_from([None, *sorted(taken)]))
    return DualGraph._from_parts(core, links, c)


@settings(max_examples=400, deadline=None)
@given(_walk_graphs())
@example(DualGraph({}, []))
@example(DualGraph({5: -2}, [], 5))
# a range run whose first and last ids each meet a larger core end, C inside
@example(DualGraph({3: -2, 4: -2, 5: -2, 6: -2, 8: -3, 9: -3},
                   [(3, 8), (3, 4), (4, 5), (5, 6), (6, 9)], 5))
def test_the_walk_in_id_order_writes_and_expands_like_vertex_data(g):
    """serialize_dgn of a graph that holds only the compact form gives the
    bytes of its vertex-level twin, and reads no vertex-level data; _expand
    gives the oracle's weights, in id order, and its sorted edges."""
    core, links = g._compact()
    weights, edges = expand_compact(core, links)
    twin = DualGraph(weights, edges, g.c)
    compact = DualGraph._make(core, links, None, None, g.c)
    assert serialize_dgn(compact) == serialize_dgn(twin)
    assert twin._core is None and compact._weights is None
    got_weights, got_edges = compact._expand()
    assert list(got_weights.items()) == list(weights.items())
    assert got_edges == edges and type(got_edges) is tuple


class _Unreadable:
    """Stands in for vertex-level data that a query must not read."""

    def _refuse(self, *args):
        raise AssertionError("a query read vertex-level data")

    __getitem__ = __len__ = __contains__ = __iter__ = __eq__ = _refuse
    __hash__ = __bool__ = __getattr__ = _refuse


def test_queries_read_only_the_compact_form():
    # core 1, 20 and 30; a pendant range run 2..4 and a tuple run 10, 7, 12
    weights = {1: -3, 2: -2, 3: -2, 4: -2, 10: -2, 7: -2, 12: -2, 20: -5, 30: -1}
    edges = [(1, 2), (2, 3), (3, 4), (1, 10), (10, 7), (7, 12), (12, 20), (1, 30)]
    adj = {v: sorted(u for e in edges if v in e for u in e if u != v) for v in weights}

    def unreadable(c):
        g = DualGraph(weights, edges, c)
        g._compact()
        g._weights = g._edges = _Unreadable()
        return g

    g, twin = unreadable(30), unreadable(30)
    assert {type(ids) for _, _, ids in g._compact()[1] if ids} == {range, tuple}
    assert g == twin and hash(g) == hash(twin)
    assert g != unreadable(None) and g != unreadable(1).delete(4)
    for v, w in weights.items():
        assert v in g and g.weight(v) == w
        assert g.neighbors(v) == tuple(adj[v]) and g.degree(v) == len(adj[v])
        assert all(g.has_edge(v, u) == (u in adj[v]) for u in weights)
        cut = DualGraph(
            {u: x for u, x in weights.items() if u != v},
            [e for e in edges if v not in e],
            None if v == 30 else 30,
        )
        assert g.delete(v) == cut
    compact = DualGraph._make(*g._compact(), None, None, 30)
    assert len(compact) == len(weights)  # len() of g reads its weights
    # only an int names a vertex: not a float or a bool equal to one
    for v in (99, 30.0, 2.0, 10.0, 7.5, True, 1.0):
        assert v not in g and not g.has_edge(1, v) and not g.has_edge(v, 1)
        with pytest.raises(KeyError):
            g.weight(v)
        with pytest.raises(KeyError):
            g.neighbors(v)
        with pytest.raises(ValueError, match=f"no vertex {v}"):
            g.delete(v)
        with pytest.raises(ValueError, match=f"no vertex {v}"):
            blow_down(compact, v)
        if type(v) is not int:  # refused before any vertex-level data is read
            with pytest.raises(ValueError, match=f"no vertex {v}"):
                blow_down(g, v)
    big = build_family(FamilyInstance(3, A=(1000,), n=2, l=10**8), strict=False)
    start = time.perf_counter()
    assert 5000.5 not in big
    assert time.perf_counter() - start < 1


@settings(max_examples=200, deadline=None)
@given(_run_heavy_graphs(), st.randoms(use_true_random=False))
def test_equal_graphs_given_in_any_order_hash_equal(h, rnd):
    weights, edges = list(h.weights.items()), [(v, u) for u, v in h.edges]
    rnd.shuffle(weights)
    rnd.shuffle(edges)
    shuffled = DualGraph(dict(weights), edges, h.c)
    core, links = h._compact()
    nodes = list(core.items())
    rnd.shuffle(nodes)
    flipped = [(b, a, ids[::-1]) for a, b, ids in links]
    rnd.shuffle(flipped)
    compact = DualGraph._from_parts(dict(nodes), flipped, h.c)
    assert shuffled == h == compact
    assert hash(shuffled) == hash(h) == hash(compact)


@pytest.mark.parametrize(
    "spec",
    [
        FamilyInstance(3, A=(1000,), n=2, l=l_bound((1000,), 2)),
        FamilyInstance(
            5, A=(10**6,), n=10**7, b=(3,), l=sys.maxsize, m=sys.maxsize
        ),
    ],
    ids=["family 3 at l_bound", "family 5 at maxsize"],
)
def test_hash_and_equality_never_expand_a_run(monkeypatch, spec):
    def refused(self, *part):
        raise AssertionError("a run was expanded")

    monkeypatch.setattr(DualGraph, "_expand", refused)
    g, again = build_family(spec, strict=False), build_family(spec, strict=False)
    assert g == again and hash(g) == hash(again)
    assert g.minus_c() == again.minus_c()
    assert hash(g.minus_c()) == hash(again.minus_c())
    assert g != g.with_mark(None) and g != g.minus_c()
    assert len({g, again, g.with_mark(None), g.minus_c()}) == 3


def _filtered(g, v):
    """g without v, filtered at vertex level: the reference for delete."""
    weights = {u: w for u, w in g.weights.items() if u != v}
    edges = [e for e in g.edges if v not in e]
    return DualGraph(weights, edges, None if g.c == v else g.c)


def _cut_like_vertex_data(g, v):
    """g.delete(v), cut on g's compact form; it must equal the vertex-level
    reference, run types (range or tuple) included."""
    cut = g.delete(v)
    assert cut._weights is None  # re-joined on the compact form
    want = _filtered(g, v)._compact()
    assert cut._compact() == want
    return want


def test_delete_absorbs_a_core_neighbour_left_with_degree_two():
    # the (-2) center loses its direct edge to 3 and joins the run 1 .. 2
    g = DualGraph({0: -2, 1: -3, 2: -3, 3: -4}, [(0, 1), (0, 2), (0, 3)])
    assert _cut_like_vertex_data(g, 3) == ({1: -3, 2: -3}, ((1, 2, range(0, 1)),))


def test_delete_absorbs_a_cycle_core_vertex_left_with_degree_one():
    # a core-free 4-cycle keeps 1 as core; cutting next to it leaves a path
    g = DualGraph({1: -2, 2: -2, 3: -2, 4: -2}, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert g._compact() == ({1: -2}, ((1, 1, range(2, 5)),))
    assert _cut_like_vertex_data(g, 2) == ({}, ((None, None, (1, 4, 3)),))


def test_delete_cuts_the_run_of_a_core_free_cycle():
    g = DualGraph(
        {v: -2 for v in range(1, 6)}, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    )
    assert _cut_like_vertex_data(g, 3) == ({}, ((None, None, (2, 1, 5, 4)),))


def test_delete_leaves_an_isolated_minus_two_vertex():
    g = DualGraph({1: -3, 2: -2, 3: -4}, [(1, 2), (1, 3)])
    assert _cut_like_vertex_data(g, 1) == ({3: -4, 2: -2}, ())


def test_delete_turns_a_consecutive_piece_of_a_tuple_run_into_a_range():
    g = DualGraph(
        {0: -3, 5: -2, 1: -2, 2: -2, 3: -2, 9: -3},
        [(0, 5), (5, 1), (1, 2), (2, 3), (3, 9)],
    )
    assert g._compact()[1] == ((0, 9, (5, 1, 2, 3)),)
    assert _cut_like_vertex_data(g, 5) == (
        {0: -3, 9: -3}, ((9, None, range(3, 0, -1)),)
    )


def test_delete_frees_the_self_loop_run_of_a_core_vertex():
    g = DualGraph(
        {0: -3, 1: -2, 2: -2, 3: -2, 4: -5}, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]
    )
    assert _cut_like_vertex_data(g, 0) == (
        {4: -5}, ((None, None, range(1, 4)),)
    )


@pytest.mark.parametrize(
    "s",
    [
        FamilyInstance(3, A=(2,), n=2, l=0),
        FamilyInstance(5, A=(2,), n=3, l=0, b=(3,), m=0),
    ],
    ids=["family 3, l=0", "family 5, m=0"],
)
def test_minus_c_absorbs_the_minus_two_vertex_next_to_c(s):
    # the (-2) center of (3), or w = -(m+2) of (5), loses its edge to C
    g = build_family(s)
    assert g.minus_c()._compact() == _cut_like_vertex_data(g, g.c)


_NORMALIZED_AT_MOST_ONCE = [
    FamilyInstance(1, n=2),
    FamilyInstance(1, n=4),
    FamilyInstance(2, A=(2,), n=2),
    FamilyInstance(2, A=(3, 2), n=3),
    FamilyInstance(2, A=(2, 3), n=4),
    FamilyInstance(3, A=(2,), n=2, l=0),
    FamilyInstance(3, A=(3, 2), n=2, l=7),
    FamilyInstance(4, A=(2,), n=2, l=0, b=(3,)),
    FamilyInstance(4, A=(2, 3), n=3, l=2, b=(4, 2)),
    FamilyInstance(5, A=(2,), n=3, l=0, b=(3,), m=0),
    FamilyInstance(5, A=(3,), n=2, l=3, b=(5, 2, 2), m=2),
    FamilyInstance(6, A=(2,), n=2, b=(3,)),
    FamilyInstance(6, A=(3, 2), n=3, b=(4, 3)),
    FamilyInstance(7, A=(2,), n=2, b=(3,), m=0),
    FamilyInstance(7, A=(2, 2), n=5, b=(3, 2), m=4),
]


def test_a_family_instance_is_normalized_at_most_once(monkeypatch):
    calls = []
    normalize = graphs._normalize

    def counted(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(graphs, "_normalize", counted)
    assert {s.family for s in _NORMALIZED_AT_MOST_ONCE} == set(range(1, 8))
    for s in _NORMALIZED_AT_MOST_ONCE:
        calls.clear()
        build_family(s).minus_c()  # the build and the cut together
        assert len(calls) <= 1, s

"""Adjunction coefficients and the trichotomy classification."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualgraph import canonical
from dualgraph.canonical import (
    DNatural,
    KType,
    c_pairing,
    classify_k_type,
    compute_dnatural,
    k_type_report,
)
from dualgraph.errors import (
    DomainError,
    DualGraphError,
    InternalDefect,
    NotContractible,
    NotMinimalResolutionGraph,
    OutOfScopeBoundary,
)
from dualgraph.families import FamilyInstance, build_family, trivial_threshold
from dualgraph.graphs import (
    DualGraph,
    chain_graph,
    graph_d,
    is_negative_definite,
)
from dualgraph.twigs import adjoint, twig_determinant, twig_parts

from oracles import (
    dense_adjunction_solve,
    dnatural_fraction,
    graph_neg_matrix,
    k_type_report_fraction,
    sylvester_negdef,
)


def alpha_of(g):
    return compute_dnatural(g).coefficients


def oracle_alpha(g):
    order = sorted(g.weights)
    rhs = [-g.weight(v) - 2 for v in order]
    sol = dense_adjunction_solve(graph_neg_matrix(g), rhs)
    return dict(zip(order, sol))


# -- frozen values -----------------------------------------------------------


def test_single_vertex_values():
    assert alpha_of(DualGraph({1: -2}, [])) == {1: 0}
    for n in range(2, 10):
        assert alpha_of(DualGraph({1: -n}, [])) == {1: Fraction(n - 2, n)}


def test_chain_values():
    assert alpha_of(chain_graph([-3, -2])) == {1: Fraction(2, 5), 2: Fraction(1, 5)}
    assert alpha_of(chain_graph([-2, -3])) == {1: Fraction(1, 5), 2: Fraction(2, 5)}


def test_minus_two_graphs_have_zero_coefficients():
    assert set(alpha_of(chain_graph([-2] * 5)).values()) == {0}
    d4 = DualGraph(
        {0: -2, 1: -2, 2: -2, 3: -2}, [(0, 1), (0, 2), (0, 3)]
    )
    assert set(alpha_of(d4).values()) == {0}


def test_disconnected_solve():
    g = DualGraph({1: -4, 7: -2, 8: -2}, [(7, 8)])
    assert alpha_of(g) == {1: Fraction(1, 2), 7: 0, 8: 0}


def test_empty_graph():
    assert compute_dnatural(DualGraph({}, [])).coefficients == {}


# -- preconditions ------------------------------------------------------------


def test_rejects_marked_graph():
    with pytest.raises(NotMinimalResolutionGraph):
        compute_dnatural(DualGraph({1: -2}, [], c=1))


def test_rejects_weight_above_minus_two():
    with pytest.raises(NotMinimalResolutionGraph):
        compute_dnatural(chain_graph([-2, -1]))


def test_rejects_indefinite_graph():
    affine_d4 = DualGraph(
        {0: -2, 1: -2, 2: -2, 3: -2, 4: -2},
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    )
    assert not is_negative_definite(affine_d4)
    with pytest.raises(NotContractible):
        compute_dnatural(affine_d4)


def test_rejects_indefinite_cycle():
    square = DualGraph(
        {1: -2, 2: -2, 3: -2, 4: -2}, [(1, 2), (2, 3), (3, 4), (1, 4)]
    )
    with pytest.raises(NotContractible):
        compute_dnatural(square)


# -- agreement with the dense oracle ------------------------------------------


def _random_armed_tree(rng):
    """Star of (-2)-runs capped by heavier vertices: stresses run crossing."""
    weights = {0: rng.choice([-2, -3, -4, -6])}
    edges = []
    nxt = 1
    for _ in range(rng.randint(1, 3)):
        prev = 0
        for _ in range(rng.randint(0, 6)):
            weights[nxt] = -2
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        weights[nxt] = rng.choice([-2, -3, -5])
        edges.append((prev, nxt))
        nxt += 1
    return DualGraph(weights, edges)


def test_forest_solver_matches_dense_oracle():
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        g = _random_armed_tree(rng)
        if not is_negative_definite(g):
            with pytest.raises(NotContractible):
                compute_dnatural(g)
            continue
        got = alpha_of(g)
        assert got == oracle_alpha(g)
        assert all(a >= 0 for a in got.values())
        checked += 1
    assert checked > 20


def test_cycle_solver_matches_dense_oracle():
    g = DualGraph({1: -3, 2: -3, 3: -3}, [(1, 2), (2, 3), (1, 3)])
    assert is_negative_definite(g)
    assert alpha_of(g) == oracle_alpha(g)
    # each row reads 3*alpha - alpha - alpha = 1
    assert set(alpha_of(g).values()) == {Fraction(1)}


def test_solution_satisfies_adjunction_rows():
    rng = random.Random(3)
    for _ in range(30):
        g = _random_armed_tree(rng)
        if not is_negative_definite(g):
            continue
        got = alpha_of(g)
        for v in g.vertex_ids:
            lhs = g.weight(v) * got[v] + sum(got[u] for u in g.neighbors(v))
            assert lhs == 2 + g.weight(v)


def test_uniqueness_under_relabeling():
    g = DualGraph(
        {0: -3, 1: -2, 2: -2, 3: -4, 4: -2},
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    relabel = {0: 10, 1: 4, 2: 77, 3: 2, 4: 31}
    h = DualGraph(
        {relabel[v]: g.weight(v) for v in g.vertex_ids},
        [(relabel[u], relabel[v]) for u, v in g.edges],
    )
    ga = alpha_of(g)
    ha = alpha_of(h)
    assert ha == {relabel[v]: a for v, a in ga.items()}


# -- agreement with the Fraction solve ----------------------------------------


@st.composite
def _armed_forests(draw):
    """(weights, edges) of 1-3 trees, each a center with arms of (-2)-runs
    (up to 10^4 long) capped by heavier vertices, some capped again by a
    second run; an arm capped by -2 ends in a pendant run, and an all-(-2)
    tree is a core-free chain or a definite or indefinite (-2)-star."""
    weights: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    runs = st.one_of(st.integers(0, 8), st.integers(0, 10**4))
    for _ in range(draw(st.sampled_from((1, 2, 2, 3)))):
        center = len(weights)
        weights[center] = draw(st.sampled_from((-2, -3, -4, -6)))
        for _ in range(draw(st.integers(1, 4))):
            prev = center
            for _ in range(draw(st.integers(1, 2))):
                for _ in range(draw(runs)):
                    weights[len(weights)] = -2
                    edges.append((prev, len(weights) - 1))
                    prev = len(weights) - 1
                weights[len(weights)] = draw(st.sampled_from((-2, -3, -5)))
                edges.append((prev, len(weights) - 1))
                prev = len(weights) - 1
    return weights, edges


@st.composite
def _cycle_graphs(draw):
    """(weights, edges) of a connected graph with chords, weights -5..-2, so
    definite and indefinite -I both occur."""
    n = draw(st.integers(3, 7))
    ws = draw(st.lists(st.integers(-5, -2), min_size=n, max_size=n))
    tree = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    keys = {frozenset(e) for e in tree}
    others = [p for p in itertools.combinations(range(n), 2) if frozenset(p) not in keys]
    chords = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True))
    return dict(enumerate(ws)), tree + chords


@st.composite
def _marked(draw, parts):
    """A graph from parts with ids shuffled and C of weight -1 (now and then
    -2) hooked to one or two vertices, as vertex-level data or as a compact
    form only."""
    weights, edges = draw(parts)
    ids = draw(st.permutations(range(len(weights))))
    weights = {ids[v]: w for v, w in weights.items()}
    edges = [(ids[u], ids[v]) for u, v in edges]
    c = len(weights)
    weights[c] = draw(st.sampled_from((-1, -1, -1, -2)))
    hooks = draw(st.lists(st.sampled_from(sorted(weights)[:-1]), min_size=1, max_size=2, unique=True))
    edges += [(v, c) for v in hooks]
    if draw(st.booleans()):
        return DualGraph(weights, edges, c)
    return DualGraph._from_parts(weights, [(u, v, ()) for u, v in edges], c)


@st.composite
def _families(draw):
    """Family (3)-(5) instances with runs up to 10^4, at the trivial threshold
    and past the contractibility bound too, as built (compact) or as
    vertex-level data."""
    family = draw(st.integers(3, 5))
    A = draw(st.sampled_from(((2,), (3,), (2, 2), (3, 2), (2, 3), (5,), (4, 2), (1000,))))
    n = draw(st.integers(2, 5))
    near = trivial_threshold(A, n) + draw(st.integers(-2, 1))
    spec = FamilyInstance(
        family=family,
        A=A,
        n=n,
        l=draw(st.one_of(st.just(max(near, 0)), st.integers(0, 40), st.integers(0, 10**4))),
        b=None if family == 3 else draw(st.sampled_from(((3,), (4,), (3, 2)))),
        m=draw(st.integers(0, 3)) if family == 5 else None,
    )
    g = build_family(spec, strict=False)
    if draw(st.booleans()):
        return g
    return DualGraph(g.weights, g.edges, g.c)


def _outcome(f, g):
    try:
        return f(g)
    except DualGraphError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_marked(_armed_forests()), _marked(_cycle_graphs()), _families()))
# two components, det(-I) 3 and 7, the second with a pendant run
@example(DualGraph({0: -3, 1: -3, 2: -2, 3: -2, 4: -1}, [(1, 2), (2, 3), (0, 4)], 4))
def test_integer_solve_matches_the_fraction_solve(g):
    # values and their order, the trichotomy and every error are the
    # Fraction solve's, on forests, graphs with cycles and long runs alike
    off = g.minus_c()

    def items(h):
        return list(compute_dnatural(h).coefficients.items())

    def want_items(h):
        return list(dnatural_fraction(h).items())

    assert _outcome(items, off) == _outcome(want_items, off)
    assert _outcome(items, g) == _outcome(want_items, g)
    assert _outcome(k_type_report, g) == _outcome(k_type_report_fraction, g)


# -- the alpha growth lemmas ---------------------------------------------------


def _check_alpha_lemmas(g, alpha):
    for v in g.vertex_ids:
        nbrs = g.neighbors(v)
        if len(nbrs) == 1 and alpha[v] >= 1:
            assert alpha[nbrs[0]] >= 2
        if len(nbrs) == 2:
            for d0, d2 in (nbrs, tuple(reversed(nbrs))):
                if alpha[v] > alpha[d0] > 0 and alpha[v] >= 1:
                    assert alpha[d2] > alpha[v]


def test_alpha_growth_lemmas_on_random_trees():
    rng = random.Random(17)
    for _ in range(80):
        g = _random_armed_tree(rng)
        if is_negative_definite(g):
            _check_alpha_lemmas(g, alpha_of(g))


# -- pairing and classification -------------------------------------------------


def family2_graph(twig, n):
    """Chain (-n) .. twig .. C(-1) .. adjoint arm, C marked."""
    left = [-n] + [-a for a in twig]
    right = [-a for a in adjoint(twig)]
    ws = left + [-1] + right
    return chain_graph(ws, c_index=len(left))


def test_pairing_frozen_family2_example():
    g = family2_graph((3,), 2)
    dnat = compute_dnatural(g.minus_c())
    assert c_pairing(g, dnat) == Fraction(2, 5)
    assert classify_k_type(g) is KType.ANTI_CANONICAL_AMPLE


def test_pairing_of_pure_minus_two_neighbor():
    g = chain_graph([-1, -2, -2, -2], c_index=0)
    dnat = compute_dnatural(g.minus_c())
    assert c_pairing(g, dnat) == 0
    assert classify_k_type(g) is KType.ANTI_CANONICAL_AMPLE


def test_report_reads_the_pairing_of_the_expanded_coefficients():
    # C hangs off any vertex, mid-run too, or off two (a cycle: dense route);
    # the report's pairing, read from run progressions, is the per-vertex one
    rng = random.Random(23)
    seen = set()
    for _ in range(150):
        g = _random_armed_tree(rng)
        if not is_negative_definite(g):
            continue
        weights = g.weights
        weights[99] = -1
        hooks = rng.sample(g.vertex_ids, rng.choice((1, 1, 1, 2)))
        edges = g.edges + tuple((v, 99) for v in hooks)
        reference = DualGraph(weights, edges, 99)  # neighbors from adjacency
        pairing = c_pairing(reference, compute_dnatural(reference.minus_c()))
        compact = DualGraph._from_parts(*DualGraph(weights, edges)._compact(), 99)
        for h in (DualGraph(weights, edges, 99), compact):
            try:
                ktype, got = k_type_report(h)
            except InternalDefect:
                continue  # pairing 1 with a fractional coefficient
            assert got == pairing
            seen.add(ktype)
    assert len(seen) >= 2


def test_defects_name_the_first_bad_vertex(monkeypatch):
    # a broken solve is caught from the run ends, and named as before: the
    # first vertex, in coefficient order (by id), that is negative or
    # fractional
    g, _ = star3_graph((3,), 2, 8)  # numerically trivial
    assert k_type_report(g)[0] is KType.NUMERICALLY_TRIVIAL
    solve = canonical._run_pieces
    (c_adj,) = g.neighbors(g.c)

    def bend(scale, change):
        def broken(gD):
            d, pieces = solve(gD)
            pieces = [(ids, scale * first, scale * step) for ids, first, step in pieces]
            for i, piece in enumerate(pieces):
                if len(piece[0]) > 1 and c_adj not in piece[0]:
                    pieces[i] = change(d, *piece)
                    return scale * d, pieces
            raise AssertionError("no run away from C")

        return broken

    # pieces are (ids, D * first, D * step): add 1/(2D) to the step
    half = bend(2, lambda d, ids, first, step: (ids, first, step + 1))
    monkeypatch.setattr(canonical, "_run_pieces", half)
    d, pieces = canonical._solve(g.minus_c())
    bent = next(ids for ids, _, step in pieces if step % d)
    with pytest.raises(InternalDefect, match=f"coefficient at {min(bent[1::2])} is"):
        k_type_report(g)
    down = bend(1, lambda d, ids, first, step: (ids, first, step - 100 * d))
    monkeypatch.setattr(canonical, "_run_pieces", down)
    with pytest.raises(InternalDefect, match=f"negative coefficient at {min(bent[1:])}$"):
        compute_dnatural(g.minus_c())


def test_pairing_requires_mark_and_coverage():
    g = chain_graph([-1, -3], c_index=0)
    with pytest.raises(DomainError):
        c_pairing(g.with_mark(None), DNatural({}))
    with pytest.raises(DomainError):
        c_pairing(g, DNatural({}))


def star3_graph(twig, n, run):
    """Branch vertex -2 with adjoint arm, a run of -2s ending in C, and the
    twig arm capped by -n; C marked."""
    tdet = twig_determinant(twig)
    weights = {0: -2}
    edges = []
    nxt = 1

    def add_arm(ws):
        nonlocal nxt
        prev = 0
        for w in ws:
            weights[nxt] = w
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        return prev

    add_arm([-a for a in adjoint(twig)])
    c_vertex = add_arm([-2] * run + [-1])
    add_arm([-a for a in reversed(twig)] + [-n])
    return DualGraph(weights, edges, c=c_vertex), tdet


def test_figure_shape_is_numerically_trivial():
    g, _ = star3_graph((2,), 3, 7)
    ktype, pairing = k_type_report(g)
    assert pairing == 1
    assert ktype is KType.NUMERICALLY_TRIVIAL
    alpha = compute_dnatural(g.minus_c()).coefficients
    assert all(a.denominator == 1 for a in alpha.values())


def test_star_sweep_frozen_transitions():
    for run, expected in [
        (0, KType.ANTI_CANONICAL_AMPLE),
        (6, KType.ANTI_CANONICAL_AMPLE),
        (7, KType.NUMERICALLY_TRIVIAL),
        (8, KType.CANONICAL_AMPLE),
    ]:
        g, _ = star3_graph((2,), 3, run)
        assert classify_k_type(g) is expected


def test_classify_rejects_wrong_mark():
    two = DualGraph({1: 0, 2: -2}, [(1, 2)], c=1)
    with pytest.raises(OutOfScopeBoundary):
        classify_k_type(two)
    with pytest.raises(OutOfScopeBoundary):
        classify_k_type(chain_graph([-2, -2]))


def test_cramer_closed_form_for_star_instances():
    # alpha at the vertex adjacent to C equals d'/d with
    # d = d(A)(n d(A) - d(ov A)) - (l+1), d' = (d(A)-1)(n d(A) - d(ov A)) - d(A) - 1
    def all_twigs(max_det):
        stack = [()]
        while stack:
            t = stack.pop()
            if t:
                yield t
            for a in range(2, max_det + 1):
                cand = t + (a,)
                if twig_determinant(cand) <= max_det:
                    stack.append(cand)

    for twig in all_twigs(10):
        d = twig_determinant(twig)
        dbar = twig_determinant(twig_parts(twig).overline)
        for n in range(2, 6):
            x = n * d - dbar
            bound = d * x - 2
            for run in range(0, bound + 1):
                g, _ = star3_graph(twig, n, run)
                assert graph_d(g) == -1
                det = d * x - (run + 1)
                det_prime = (d - 1) * x - d - 1
                dnat = compute_dnatural(g.minus_c())
                (c_adj,) = g.neighbors(g.c)
                assert dnat[c_adj] == Fraction(det_prime, det)
                assert c_pairing(g, dnat) == Fraction(det_prime, det)

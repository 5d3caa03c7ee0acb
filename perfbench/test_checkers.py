"""Self-tests of the benchmark's checkers: each agrees with a brute-force
computation and rejects a deliberately wrong answer.

    python3 -m pytest perfbench/test_checkers.py
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from itertools import combinations, product

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import checkers as ck  # noqa: E402
import inputs  # noqa: E402


def _neg_matrix(weights, edges):
    ids = sorted(weights)
    pos = {v: i for i, v in enumerate(ids)}
    m = [[Fraction(0)] * len(ids) for _ in ids]
    for v, w in weights.items():
        m[pos[v]][pos[v]] = Fraction(-w)
    for u, v in edges:
        m[pos[u]][pos[v]] = m[pos[v]][pos[u]] = Fraction(-1)
    return m


def _brute_negdef(weights, edges) -> bool:
    """Every principal minor of -I positive."""
    m = _neg_matrix(weights, edges)
    n = len(m)
    return all(
        ck._dense_det([[m[i][j] for j in s] for i in s]) > 0
        for k in range(1, n + 1)
        for s in combinations(range(n), k)
    )


def _chain(twig):
    weights = {i + 1: -a for i, a in enumerate(twig)}
    return weights, [(i, i + 1) for i in range(1, len(twig))]


def test_continuant_is_the_chain_determinant():
    for r in range(1, 5):
        for twig in product(range(2, 6), repeat=r):
            d = ck._dense_det(_neg_matrix(*_chain(twig)))
            assert ck.continuant(twig) == d
    assert ck.continuant(()) == 1


def test_adjoint_identities():
    for r in range(1, 4):
        for twig in product(range(2, 6), repeat=r):
            star = ck.adjoint(twig)
            assert min(star) >= 2
            assert ck.continuant(star) == ck.continuant(twig)
            assert ck.adjoint(star) == twig
            assert ck.twig_with_inductance(ck.inductance(twig)) == twig
    assert ck.adjoint((1000,)) == (2,) * 999


def test_bounds_and_threshold():
    assert ck.l_bound((1000,), 2) == 1_998_998
    assert ck.trivial_threshold((1000,), 2) == 2_999
    # the bound is where the boundary minus C stops being definite
    for a, n in [((2,), 2), ((3,), 2), ((2, 3), 3), ((5,), 2)]:
        bound = ck.l_bound(a, n)
        for family, b, m in [(3, (), 0), (4, (3,), 0), (5, (3,), 1)]:
            for l in (bound - 1, bound, bound + 1):
                if l < 0:
                    continue
                w, e, c = ck.family_graph(family, a, n, l, b, m)
                assert ck.eliminate(*ck.minus(w, e, c))[0] == (l <= bound)
                assert len(w) == ck.family_vertex_count(family, a, n, l, b, m)


def test_ktype_threshold_rejects_off_by_one():
    a, n = (3,), 2
    t = ck.trivial_threshold(a, n)
    assert [ck.expected_ktype(3, a, n, l) for l in (t - 1, t, t + 1)] == [
        "anti-ample", "trivial", "canonical-ample"]
    assert ck.expected_ktype(4, a, n, t - 1, (3,)) == "trivial"
    assert ck.expected_ktype(4, a, n, t - 1, (3, 2)) == "canonical-ample"
    assert ck.expected_ktype(5, a, n, t - 1, (3,)) == "canonical-ample"
    # a threshold one off would call a different run length trivial
    assert ck.expected_ktype(3, a, n, t + 1) != "trivial"
    assert ck.expected_ktype(3, a, n, t - 1) != "trivial"


def test_star_criterion_matches_elimination():
    rng = random.Random(7)
    seen = set()
    for i in range(200):
        g = inputs.star_graph(rng, i)
        w, e = g["weights"], g["edges"]
        if g["c"] is not None:
            w, e = ck.minus(w, e, g["c"])
        negdef, det, _ = ck.eliminate(w, e)
        assert (negdef, det) == (g["negdef"], g["det"])
        seen.add(negdef)
    assert seen == {True, False}


def test_elimination_matches_brute_force():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(3, 7)
        ring = list(range(1, n + 1))
        edges = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
        if n > 3:
            edges.append((1, 3))
        weights = {v: -rng.randint(1, 4) for v in ring}
        negdef, det, _ = ck.eliminate(weights, edges)
        assert negdef == _brute_negdef(weights, edges)
        assert det == ck._dense_det(_neg_matrix(weights, edges))
    # all -2 on a cycle with a chord is indefinite, and a flipped answer is seen
    weights = {v: -2 for v in range(1, 6)}
    edges = [(i, i % 5 + 1) for i in range(1, 6)] + [(1, 3)]
    assert ck.eliminate(weights, edges)[0] is False is _brute_negdef(weights, edges)


def test_residual_rejects_perturbed_coefficient():
    rng = random.Random(5)
    for i in range(20):
        g = inputs.cycle_graph(rng, 0, 12)
        w, e = g["weights"], g["edges"]
        if g["c"] is not None:
            w, e = ck.minus(w, e, g["c"])
        alpha = ck.adjunction(w, e)
        assert ck.residual_ok(w, e, alpha)
        v = sorted(alpha)[i % len(alpha)]
        bad = {**alpha, v: alpha[v] + Fraction(1, 7)}
        assert not ck.residual_ok(w, e, bad)


def test_shape_kinds_and_dgn():
    w, e, c = ck.family_graph(4, (3,), 2, 2, (4, 2))
    assert ck.shape_kinds(w, e, c) == ["chain", "star"]
    text = ck.to_dgn(w, e, c)
    assert text.count("\nv ") + 1 == len(w) and " C\n" in text
    w, e, c = ck.family_graph(5, (3,), 2, 2, (3,), 1)
    assert ck.shape_kinds(w, e, c) == ["chain", "star"]


def test_round_flags_wrong_answers():
    """The round's checks fail when one program answer is flipped."""
    import dualgraph
    import round as rd

    rng = random.Random(11)
    corpus_in = inputs.corpus((4, 4, (8, 12)), rng)
    r = rd.Round(dualgraph, {"corpus": corpus_in}, None)
    outs = r.corpus()
    r.check_corpus(outs)
    assert r.ok and r.failed == 0
    def perturbed(dnat):
        v = min(dnat.coefficients)
        return dualgraph.DNatural({**dnat.coefficients, v: dnat[v] + Fraction(1, 3)})

    definite = next(i for i, item in enumerate(corpus_in) if item["negdef"])
    for key, wrong in [("negdef", lambda x: not x), ("d", lambda x: x + 1),
                       ("alpha", perturbed)]:
        r = rd.Round(dualgraph, {"corpus": corpus_in}, None)
        doctored = [dict(o) for o in outs]
        doctored[definite][key] = wrong(doctored[definite][key])
        r.check_corpus(doctored)
        assert not r.ok

"""Family builders, the recognizer, and the closed-form type table."""

import hashlib
import json
import random

import pytest

from dualgraph.canonical import KType, k_type_report
from dualgraph.dgn import parse_dgn, serialize_dgn
from dualgraph.errors import InvalidFamilyParams
from dualgraph.families import (
    FamilyInstance,
    NotInList,
    build_family,
    classify_family,
    classify_family_all,
    figure1_graph,
    figure1_spec,
    l_bound,
    predicted_k_type,
    trivial_threshold,
    validate_family,
)
from dualgraph.graphs import (
    DualGraph,
    graph_d,
    is_negative_definite,
    isomorphic,
    signed_determinant,
)
from dualgraph.twigs import adjoint, twig_determinant
from dualgraph.verify import enumerate_admissible_twigs

from oracles import _adjacency
from test_verify import TINY


def spec(family, **kw):
    return FamilyInstance(family=family, **kw)


def _tiny_twigs():
    """The twigs the threshold suite sweeps at the TINY budget."""
    return [
        t
        for t in enumerate_admissible_twigs(TINY.max_len, TINY.max_det)
        if twig_determinant(t) <= TINY.max_det
    ]


class TestBuilders:
    def test_family_1_layout(self):
        g = build_family(spec(1, n=4))
        assert serialize_dgn(g) == "v 1 0 C\nv 2 -4\ne 1 2\n"
        assert graph_d(g) == -1

    def test_family_2_frozen_layout(self):
        g = build_family(spec(2, A=(3,), n=2))
        assert serialize_dgn(g) == (
            "v 1 -2\nv 2 -3\nv 3 -1 C\nv 4 -2\nv 5 -2\n"
            "e 1 2\ne 2 3\ne 3 4\ne 4 5\n"
        )

    def test_family_2_longer_twig_keeps_orientation(self):
        # chain (-n) a_1 .. a_r C a*_1 .. a*_t with a_r against C
        g = build_family(spec(2, A=(2, 3), n=2))
        order = sorted(g.vertex_ids)
        assert [g.weight(v) for v in order] == [-2, -2, -3, -1, -2, -3]
        assert g.c == 4
        assert graph_d(g) == -1

    def test_family_3_star_layout(self):
        g = build_family(spec(3, A=(2,), n=3, l=7))
        assert g.weight(1) == -2 and g.degree(1) == 3
        assert g.weight(g.c) == -1 and g.degree(g.c) == 1
        arm_weights = sorted(
            tuple(g.weight(v) for v in _arm(g, 1, nb)) for nb in g.neighbors(1)
        )
        assert arm_weights == sorted(
            [(-2,), (-2, -2, -2, -2, -2, -2, -2, -1), (-2, -3)]
        )

    def test_family_5_carries_tail_and_adjoint_stub(self):
        s = spec(5, A=(2, 2), n=2, l=1, b=(4,), m=1)
        g = build_family(s)
        w = next(
            v for v in g.vertex_ids if g.degree(v) == 3 and g.weight(v) == -3
        )
        assert g.has_edge(w, g.c)
        assert graph_d(g) == -1
        assert classify_family(g) == s

    def test_family_6_single_b_attaches_c_to_center(self):
        g = build_family(spec(6, A=(2,), n=2, b=(4,)))
        center = next(v for v in g.vertex_ids if g.degree(v) == 3)
        assert g.weight(center) == -4
        assert g.has_edge(center, g.c)

    def test_builders_are_deterministic(self):
        s = spec(7, A=(2, 3), n=2, b=(3,), m=2)
        assert build_family(s) == build_family(s)

    def test_all_families_hit_minus_one_determinant(self):
        cases = [
            spec(1, n=2),
            spec(2, A=(2, 2, 2), n=5),
            spec(3, A=(3, 2), n=2, l=0),
            spec(4, A=(2,), n=4, l=3, b=(5, 2)),
            spec(5, A=(2,), n=3, l=6, b=(3,), m=0),
            spec(6, A=(4,), n=2, b=(3, 3)),
            spec(7, A=(2, 2), n=2, b=(4, 2), m=3),
        ]
        # runs that merge across arm segments: n = 2 after A entries of 2,
        # a (-2) attach point, a (-2) w, interior (-2)s of b
        cases += [
            spec(2, A=(2,), n=2),
            spec(3, A=(2, 2), n=2, l=2),
            spec(4, A=(2,), n=2, l=0, b=(3, 2)),
            spec(5, A=(2,), n=2, l=0, b=(3,), m=0),
            spec(7, A=(2, 2), n=2, b=(3, 2, 2), m=1),
        ]
        for s in cases:
            g = build_family(s)
            assert graph_d(g) == -1, s
            assert signed_determinant(g) == (-1) ** (len(g) - 1), s
            _assert_matches_recompressed(s)

    @pytest.mark.parametrize(
        "shape",
        [
            spec(3, A=a, n=n)
            for a in _tiny_twigs()
            for n in range(2, TINY.max_n + 1)
        ]
        + [
            spec(4, A=a, n=n, b=b)
            for a in _tiny_twigs()
            for n in range(2, TINY.max_n + 1)
            for b in ((3,), (4, 2))
        ]
        + [
            spec(5, A=a, n=n, b=(3,), m=m)
            for a in _tiny_twigs()
            for n in range(2, TINY.max_n + 1)
            for m in (0, 1)
        ],
        ids=lambda s: f"f{s.family}-A{list(s.A)}-n{s.n}-b{s.b and list(s.b)}-m{s.m}",
    )
    def test_threshold_stream_matches_recompressed(self, shape):
        # every run length the threshold suite sweeps, past the bound too
        bound = l_bound(shape.A, shape.n)
        for l in range(0, bound + 3):
            _assert_matches_recompressed(
                FamilyInstance(
                    family=shape.family, A=shape.A, n=shape.n, l=l,
                    b=shape.b, m=shape.m,
                )
            )


    def test_negdef_at_the_run_bound_never_expands(self, monkeypatch):
        # l up to l_bound is valid input, and l_bound is quadratic in d(A):
        # building, deleting C and the definiteness test must read the runs
        # as ranges, never as 2 million vertices
        bound = l_bound((1000,), 2)
        assert bound == 1_998_998

        def refuse(self, *part):
            raise AssertionError("vertex-level views were expanded")

        monkeypatch.setattr(DualGraph, "_expand", refuse)
        for l, want in ((bound, True), (bound + 1, False)):
            g = build_family(spec(3, A=(1000,), n=2, l=l), strict=False)
            assert is_negative_definite(g.minus_c()) is want

    def test_type_and_family_at_the_run_bound_never_expand(self, monkeypatch):
        # k_type_report and the recognizer read runs as ranges and their
        # coefficients as progressions, at the bound and at the type split
        bound = l_bound((1000,), 2)
        t = trivial_threshold((1000,), 2)

        def refuse(self, *part):
            raise AssertionError("vertex-level views were expanded")

        monkeypatch.setattr(DualGraph, "_expand", refuse)
        extra = {3: {}, 4: {"b": (3,)}, 5: {"b": (3,), "m": 1}}
        for family, split in ((3, t), (4, t - 1), (5, t - 1)):
            for l in (bound, split):
                s = spec(family, A=(1000,), n=2, l=l, **extra[family])
                g = build_family(s)
                assert k_type_report(g)[0] is predicted_k_type(s), s
                assert classify_family(g) == s, s


def _assert_matches_recompressed(s):
    """The compact form build_family emits (and minus_c carries across) is
    the one compressing the same graph from vertex-level data gives."""
    g = build_family(s, strict=False)
    d = g.minus_c()  # cut from the compact form alone
    h = DualGraph(g.weights, g.edges, g.c)
    assert g._compact() == h._compact(), s
    assert g == h and hash(g) == hash(h), s
    assert serialize_dgn(g) == serialize_dgn(h), s
    hd = h.minus_c()
    assert d._compact() == hd._compact(), s
    assert d == hd and serialize_dgn(d) == serialize_dgn(hd), s
    assert is_negative_definite(d) == is_negative_definite(hd), s
    assert graph_d(d) == graph_d(hd) and graph_d(g) == graph_d(h), s


def _arm(g, center, first):
    adj = _adjacency(g)
    ids = [first]
    prev, cur = center, first
    while g.degree(cur) == 2:
        cur, prev = next(x for x in adj[cur] if x != prev), cur
        ids.append(cur)
    return ids


class TestValidation:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(family=0, n=2), "family must be"),
            (dict(family=8, n=2), "family must be"),
            (dict(family=1, n=1), "n >= 2"),
            (dict(family=1, n=2, l=0), "does not take"),
            (dict(family=3, A=(2,), n=2), "requires field 'l'"),
            (dict(family=2, A=(), n=2), "nonempty admissible"),
            (dict(family=2, A=(2, 1), n=2), "nonempty admissible"),
            (dict(family=4, A=(2,), n=2, l=0, b=(2, 3)), "b_1 >= 3"),
            (dict(family=4, A=(2,), n=2, l=-1, b=(3,)), "l >= 0"),
            (dict(family=5, A=(2,), n=2, l=0, b=(3,), m=-1), "m >= 0"),
            (dict(family=True, n=2), "family must be"),
            # parameters that are not ints, refused in the order n, l, m, A, b
            (dict(family=3, A=(3.0,), n=2, l=1), "field 'A' must be a list"),
            (dict(family=3, A=(3,), n=2, l=True), "field 'l' must be an integer"),
            (dict(family=3, A=(3,), n=2, l=1.5), "field 'l' must be an integer"),
            (dict(family=1, n=2.0), "field 'n' must be an integer"),
            (dict(family=4, A=(2,), n=2, l=0, b=[3.0]), "field 'b' must be a list"),
            (dict(family=5, A=(2,), n=2, l=0, b=(3,), m=False), "field 'm'"),
            (dict(family=4, A=(True,), n=2.5, l=0.0, b=(3,)), "field 'n'"),
            (dict(family=4, A=(True,), n=2, l=0.0, b=(3,)), "field 'l'"),
            (dict(family=7, A=(2,), n=2, b="3", m=1), "field 'b' must be a list"),
            (dict(family=6, A=(2,), n=2, b=()), "^b must be a nonempty admissible twig$"),
        ],
    )
    def test_rejections(self, bad, message):
        with pytest.raises(InvalidFamilyParams, match=message):
            validate_family(FamilyInstance(**bad))

    @pytest.mark.parametrize(
        "args, field",
        [
            (((3.0,), 0, 2), "'A' must be a list of integers"),
            (((3,), 0.0, 2), "'m' must be an integer"),
            (((3,), 0, True), "'n' must be an integer"),
        ],
        ids=["A-float", "m-float", "n-bool"],
    )
    def test_figure1_parameters_must_be_ints(self, args, field):
        for build in (figure1_graph, figure1_spec):
            with pytest.raises(InvalidFamilyParams, match=f"^field {field}"):
                build(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            (((), 0, 2), "A must be a nonempty admissible twig"),
            (((2, 1), 0, 2), "A must be a nonempty admissible twig"),
            (((3,), 0, 1), "n >= 2 violated"),
            (((3,), -1, 2), "m >= 0 violated"),
            # n is read first, then A, then m, as validate_family reads them
            (((1,), -1, 1), "n >= 2 violated"),
            (((3,), -1, 1), "n >= 2 violated"),
            (((1,), 1, 1), "n >= 2 violated"),
            (([2], 0, 2), "A=[2] with (m,n)=(0,2) is excluded (run would exceed the bound)"),
            # A before m
            (((1,), -1, 2), "A must be a nonempty admissible twig"),
        ],
    )
    def test_figure1_refusals(self, args, message):
        """figure1_spec refuses what figure1_graph refuses, as it says, and
        as validate_family says of the family (4) spec for m > 0."""
        a, m, n = args
        builds = [figure1_graph, figure1_spec]
        if m > 0:
            spec4 = FamilyInstance(family=4, A=tuple(a), n=n, l=0, b=(m + 2,))
            builds.append(lambda *_: validate_family(spec4))
        for build in builds:
            with pytest.raises(InvalidFamilyParams) as exc:
                build(*args)
            assert str(exc.value) == message

    def test_l_bound_is_enforced_only_when_strict(self):
        s = spec(3, A=(2,), n=2, l=5)  # bound is 4
        with pytest.raises(InvalidFamilyParams, match="l out of range"):
            build_family(s)
        g = build_family(s, strict=False)
        assert len(g) == 10

    def test_l_bound_values(self):
        assert l_bound((2,), 2) == 4
        assert l_bound((2,), 3) == 8
        assert l_bound((3, 2), 2) == 5 * (2 * 5 - 2) - 2

    def test_trivial_threshold_values(self):
        assert trivial_threshold((2,), 2) == 5
        assert trivial_threshold((2,), 3) == 7
        assert trivial_threshold((2, 2), 2) == 3 * 3 - 2


class TestJson:
    def test_round_trip_all_fields(self):
        s = spec(5, A=(2, 3), n=2, l=1, b=(4,), m=0)
        d = s.to_json_dict()
        assert d == {"family": 5, "A": [2, 3], "n": 2, "l": 1, "b": [4], "m": 0}
        assert FamilyInstance.from_json_dict(d) == s

    def test_none_fields_are_omitted(self):
        assert spec(1, n=3).to_json_dict() == {"family": 1, "n": 3}

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"family": 1, "n": 2, "q": 1}, "unexpected field"),
            ({"n": 2}, "needs a 'family'"),
            ({"family": 1, "n": True}, "must be an integer"),
            ({"family": 2, "A": [2, "x"], "n": 2}, "list of integers"),
            ([1, 2], "JSON object"),
            ({"family": 1.0, "n": 2}, "family must be"),
        ],
    )
    def test_malformed_docs(self, doc, message):
        with pytest.raises(InvalidFamilyParams, match=message):
            FamilyInstance.from_json_dict(doc)


class TestFigure1:
    def test_m0_matches_family_3_at_threshold(self):
        g = figure1_graph((2,), 0, 3)
        s = figure1_spec((2,), 0, 3)
        assert s == spec(3, A=(2,), n=3, l=7)
        assert isomorphic(g, build_family(s))

    def test_positive_m_matches_family_4(self):
        for m in (1, 2, 3):
            g = figure1_graph((2, 2), m, 2)
            s = figure1_spec((2, 2), m, 2)
            assert s.family == 4 and s.b == (m + 2,)
            assert isomorphic(g, build_family(s))

    def test_exclusion(self):
        with pytest.raises(InvalidFamilyParams, match="excluded"):
            figure1_graph((2,), 0, 2)

    def test_exclusion_boundary_neighbors_are_fine(self):
        figure1_graph((2,), 1, 2)
        figure1_graph((2,), 0, 3)
        figure1_graph((3,), 0, 2)

    def test_smallest_excluded_case_sits_exactly_on_the_bound(self):
        # for A=[2], n=2 the trivial run length equals the bound plus one,
        # while the m >= 1 variants sit exactly on it
        assert trivial_threshold((2,), 2) == l_bound((2,), 2) + 1

    def test_every_figure_instance_is_numerically_trivial(self):
        for a, m, n in [((2,), 0, 3), ((2,), 2, 2), ((3,), 0, 2), ((2, 2), 1, 2)]:
            kt, pairing = k_type_report(figure1_graph(a, m, n))
            assert kt is KType.NUMERICALLY_TRIVIAL
            assert pairing == 1


class TestPredictedType:
    def test_always_anti_families(self):
        assert predicted_k_type(spec(1, n=2)) is KType.ANTI_CANONICAL_AMPLE
        assert (
            predicted_k_type(spec(2, A=(3,), n=2)) is KType.ANTI_CANONICAL_AMPLE
        )
        assert (
            predicted_k_type(spec(6, A=(2,), n=2, b=(3,)))
            is KType.ANTI_CANONICAL_AMPLE
        )
        assert (
            predicted_k_type(spec(7, A=(2,), n=2, b=(3,), m=0))
            is KType.ANTI_CANONICAL_AMPLE
        )

    def test_family_3_splits_at_threshold(self):
        # A=[2], n=3: threshold 7, bound 8
        table = {6: KType.ANTI_CANONICAL_AMPLE, 7: KType.NUMERICALLY_TRIVIAL,
                 8: KType.CANONICAL_AMPLE}
        for l, want in table.items():
            assert predicted_k_type(spec(3, A=(2,), n=3, l=l)) is want

    def test_family_3_on_a_short_bound_never_goes_trivial(self):
        # A=[2], n=2: threshold 5 exceeds bound 4
        for l in range(0, 5):
            assert (
                predicted_k_type(spec(3, A=(2,), n=2, l=l))
                is KType.ANTI_CANONICAL_AMPLE
            )

    def test_family_4_trivial_needs_single_b(self):
        t = trivial_threshold((2,), 3)  # 7
        assert (
            predicted_k_type(spec(4, A=(2,), n=3, l=t - 1, b=(3,)))
            is KType.NUMERICALLY_TRIVIAL
        )
        assert (
            predicted_k_type(spec(4, A=(2,), n=3, l=t - 1, b=(3, 2)))
            is KType.CANONICAL_AMPLE
        )
        assert (
            predicted_k_type(spec(4, A=(2,), n=3, l=t - 2, b=(3,)))
            is KType.ANTI_CANONICAL_AMPLE
        )

    def test_family_5_never_trivial(self):
        t = trivial_threshold((2,), 3)
        assert (
            predicted_k_type(spec(5, A=(2,), n=3, l=t - 1, b=(3,), m=0))
            is KType.CANONICAL_AMPLE
        )
        assert (
            predicted_k_type(spec(5, A=(2,), n=3, l=t - 2, b=(3,), m=0))
            is KType.ANTI_CANONICAL_AMPLE
        )

    def test_frozen_canonical_example(self):
        s = spec(5, A=(2,), n=3, l=6, b=(3,), m=0)
        assert predicted_k_type(s) is KType.CANONICAL_AMPLE
        assert k_type_report(build_family(s))[0] is KType.CANONICAL_AMPLE


class TestClassifier:
    def test_round_trip_over_sampled_budget(self):
        import itertools

        twigs = [(2,), (3,), (2, 2), (2, 3), (3, 2), (4,), (2, 2, 2)]
        bees = [(3,), (4,), (3, 2), (5, 2)]
        checked = 0
        for a, n in itertools.product(twigs, (2, 3)):
            bound = l_bound(a, n)
            stream = [spec(2, A=a, n=n)]
            stream += [spec(3, A=a, n=n, l=l) for l in (0, 1, bound)]
            for b in bees:
                stream.append(spec(4, A=a, n=n, l=min(2, bound), b=b))
                stream.append(spec(5, A=a, n=n, l=min(1, bound), b=b, m=1))
                stream.append(spec(6, A=a, n=n, b=b))
                stream.append(spec(7, A=a, n=n, b=b, m=0))
            for s in stream:
                g = build_family(s)
                assert classify_family(g) == s, s
                assert graph_d(g) == -1, s
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize(
        "s",
        [
            spec(5, A=(1000,), n=2, l=100, b=(3,), m=1),
            spec(7, A=(1000,), n=2, b=(3,), m=1),
        ],
        ids=["family-5", "family-7"],
    )
    def test_ids_past_256_read_from_dgn(self, s):
        # ids parsed from text are distinct int objects, so the recognizer
        # must compare them by value
        g = build_family(s)
        (w,) = [v for v in g.neighbors(g.c) if g.degree(v) == 3]
        assert w > 256
        assert classify_family(parse_dgn(serialize_dgn(g))) == s

    def test_classification_is_structural_not_id_based(self):
        s = spec(4, A=(2, 2), n=2, l=1, b=(3,))
        g = build_family(s)
        mapping = {v: 100 - v for v in g.vertex_ids}
        relabeled = DualGraph(
            {mapping[v]: g.weight(v) for v in g.vertex_ids},
            [(mapping[u], mapping[v]) for u, v in g.edges],
            mapping[g.c],
        )
        assert classify_family(relabeled) == s

    def test_all_matches_contains_primary(self):
        s = spec(5, A=(2,), n=2, l=2, b=(3,), m=1)
        matches, reason = classify_family_all(build_family(s))
        assert s in matches and reason == ""
        assert matches == sorted(matches, key=lambda x: x.family)

    def test_too_small_chain_is_rejected_with_n_reason(self):
        g = DualGraph({1: 0, 2: -1}, [(1, 2)], c=1)
        assert classify_family(g) == NotInList("n >= 2 violated")

    def test_no_mark(self):
        g = DualGraph({1: -2, 2: -2}, [(1, 2)])
        assert classify_family(g) == NotInList("no C-marked vertex")

    def test_cycle_is_not_a_tree(self):
        g = DualGraph(
            {1: -1, 2: -2, 3: -2}, [(1, 2), (2, 3), (1, 3)], c=1
        )
        assert classify_family(g) == NotInList("not a tree")

    def test_wrong_c_weight_on_star(self):
        s = spec(3, A=(2,), n=2, l=1)
        g = build_family(s)
        ws = g.weights
        ws[g.c] = -2
        assert classify_family(DualGraph(ws, g.edges, g.c)) == NotInList(
            "C weight not -1"
        )

    def test_perturbed_adjoint_arm_is_reported(self):
        g = build_family(spec(6, A=(3,), n=2, b=(4, 2)))
        ws = g.weights
        # bend the far end of the arm hanging beyond C
        target = None
        for nb in g.neighbors(g.c):
            walked = _arm(g, g.c, nb)
            if g.degree(walked[-1]) == 1:
                target = walked[-1]
        assert target is not None
        ws[target] -= 1
        out = classify_family(DualGraph(ws, g.edges, g.c))
        assert out == NotInList("adjoint mismatch")

    # ids follow the pinned layouts: center 1, then the arms in build order
    @pytest.mark.parametrize(
        "s, edit, reason",
        [
            # (4): run 3, b = (4, 5), C 6; b_1 lifted to -1
            (spec(4, A=(2,), n=2, l=1, b=(3, 2)), {4: -1}, "b_1 >= 3 violated"),
            # (6): center carries b_1, b_2 is 4, C 5; b_2 lifted to -1
            (
                spec(6, A=(3,), n=2, b=(4, 2)),
                {4: -1},
                "b must be a nonempty admissible twig",
            ),
            # (5): run 3, b_1 4, w 5, uB* = (6,), C 7; uB* bent
            (spec(5, A=(2,), n=2, l=1, b=(3,), m=1), {6: -3}, "adjoint mismatch"),
            (
                spec(5, A=(2,), n=2, l=5, b=(3,), m=1),
                {},
                "l out of range: 0 <= l <= 4, got 5",
            ),
            # (7): w 3, uB* 4, C 5, tail 6; w asks for m = 2
            (spec(7, A=(2,), n=2, b=(3,), m=1), {3: -4}, "m tail mismatch"),
            (spec(7, A=(2,), n=2, b=(3,), m=1), {5: 0}, "C weight not -1"),
        ],
    )
    def test_each_failing_predicate_is_named(self, s, edit, reason):
        g = build_family(s, strict=False)
        ws = g.weights
        ws.update(edit)
        assert classify_family(DualGraph(ws, g.edges, g.c)) == NotInList(reason)

    def test_over_bound_run_is_out_of_range(self):
        s = spec(3, A=(2,), n=2, l=5)
        g = build_family(s, strict=False)
        out = classify_family(g)
        assert isinstance(out, NotInList)
        assert out.reason == "l out of range: 0 <= l <= 4, got 5"

    def test_four_armed_center_is_unrecognized(self):
        g = DualGraph(
            {1: -2, 2: -2, 3: -2, 4: -2, 5: -1},
            [(1, 2), (1, 3), (1, 4), (1, 5)],
            c=5,
        )
        assert classify_family(g) == NotInList("unrecognized shape")

    def test_figure1_classifies_to_its_spec(self):
        assert classify_family(figure1_graph((2,), 0, 3)) == figure1_spec(
            (2,), 0, 3
        )
        assert classify_family(figure1_graph((3,), 2, 2)) == figure1_spec(
            (3,), 2, 2
        )


class TestTypeAgreement:
    def test_predicted_matches_solver_on_spot_instances(self):
        cases = [
            spec(2, A=(2, 2), n=3),
            spec(3, A=(3,), n=2, l=2),
            spec(4, A=(2,), n=2, l=4, b=(3,)),
            spec(5, A=(2, 2), n=2, l=0, b=(4,), m=2),
            spec(6, A=(2,), n=4, b=(5,)),
            spec(7, A=(3,), n=2, b=(3, 2), m=1),
        ]
        for s in cases:
            got = k_type_report(build_family(s))[0]
            assert got is predicted_k_type(s), s


# -- pinned outputs --------------------------------------------------------------
#
# Two sha256 digests over seeded streams pin what the builders emit and what
# the recognizer reads, byte for byte, so a rewrite of either must give the
# same outputs.  Both streams come from random.Random with a fixed seed.


def random_spec(rng):
    """A family instance with small twigs; l is drawn around and past its
    bound, so over-bound instances (built with strict=False) come up too."""
    family = rng.randint(1, 7)
    n = rng.randint(2, 4)
    if family == 1:
        return spec(1, n=n)
    kw = {"A": tuple(rng.choice((2, 2, 3)) for _ in range(rng.randint(1, 2)))}
    if family in (3, 4, 5):
        bound = l_bound(kw["A"], n)
        kw["l"] = rng.choice(
            (rng.randint(0, 6), rng.randint(0, bound), bound, bound + 1,
             bound + rng.randint(2, 5))
        )
    if family >= 4:
        kw["b"] = (rng.randint(3, 5),) + tuple(
            rng.choice((2, 2, 3)) for _ in range(rng.randint(0, 2))
        )
    if family in (5, 7):
        kw["m"] = rng.randint(0, 3)
    return spec(family, n=n, **kw)


def perturbed_family_graph(rng):
    """A family instance with up to two edits: a weight bumped (half of the
    time next to C), C moved or dropped, a leaf added or removed, an edge
    added or removed; then, half of the time, its ids permuted."""
    g = build_family(random_spec(rng), strict=False)
    weights, edges, c = g.weights, set(g.edges), g.c
    for _ in range(rng.randint(0, 2)):
        ids = sorted(weights)
        v = rng.choice(ids)
        kind = rng.randrange(6)
        if kind == 0:
            near = [u for e in edges if c in e for u in e if u != c]
            if near and rng.random() < 0.5:
                v = rng.choice(sorted(near))
            weights[v] += rng.choice((-1, 1))
        elif kind == 1:
            c = rng.choice(ids + [None])
        elif kind == 2:
            leaf = ids[-1] + 1
            weights[leaf] = rng.choice((-1, -2, -3))
            edges.add((v, leaf))
        elif kind == 3 and len(ids) > 2:
            leaves = [u for u in ids if sum(u in e for e in edges) == 1]
            if leaves:
                u = rng.choice(leaves)
                del weights[u]
                edges = {e for e in edges if u not in e}
                c = None if c == u else c
        elif kind == 4:
            u = rng.choice(ids)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        elif edges:
            edges.discard(rng.choice(sorted(edges)))
    if rng.random() < 0.5:
        ids = sorted(weights)
        new = rng.sample(range(1, 3 * len(ids) + 1), len(ids))
        to = dict(zip(ids, new))
        weights = {to[v]: w for v, w in weights.items()}
        edges = {(to[u], to[v]) for u, v in edges}
        c = None if c is None else to[c]
    return DualGraph(weights, sorted(edges), c)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_built_layouts_are_pinned():
    rng = random.Random(20261019)
    specs = [random_spec(rng) for _ in range(3000)]
    assert {s.family for s in specs} == set(range(1, 8))
    assert any(s.l is not None and s.l > l_bound(s.A, s.n) for s in specs)
    got = _digest(serialize_dgn(build_family(s, strict=False)) for s in specs)
    assert got == (
        "9786517560024546e980de1253c54d5d54d056646cf9ef97c5f3f3d73e72c6cb"
    )


def test_readings_of_perturbed_instances_are_pinned():
    rng = random.Random(1019)
    lines, families, reasons = [], set(), set()
    for _ in range(3000):
        matches, reason = classify_family_all(perturbed_family_graph(rng))
        families.update(m.family for m in matches)
        reasons.add(reason.split(":")[0])
        lines.append(json.dumps([[m.to_json_dict() for m in matches], reason]))
    # the stream reaches every family and every reason the recognizer gives
    assert families == set(range(1, 8))
    assert reasons == {
        "", "no C-marked vertex", "not a tree", "C weight not -1",
        "unrecognized shape", "n >= 2 violated", "adjoint mismatch",
        "A must be a nonempty admissible twig", "l out of range",
        "b_1 >= 3 violated", "b must be a nonempty admissible twig",
        "m >= 0 violated", "m tail mismatch",
    }
    assert _digest(lines) == (
        "fd367ad3d18bf320054020eac91ffb8b1c13d73cb75dbce94693da9f26ec883e"
    )

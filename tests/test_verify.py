"""Verification suites: enumeration, small-budget runs, mutation checks."""

import json
from fractions import Fraction

import pytest

from dualgraph.canonical import KType
from dualgraph.errors import DomainError
from dualgraph.graphs import DualGraph, blow_down
from dualgraph import verify
from dualgraph.twigs import adjoint
from dualgraph.verify import (
    SUITES,
    Budget,
    enumerate_admissible_twigs,
    verify_all,
    verify_contraction_suite,
    verify_fujita_suite,
    verify_suite,
    verify_threshold_suite,
    verify_trichotomy_suite,
)

from oracles import _adjacency, fujita_suite_eager, graph_neg_matrix, pivot_negdef

SMALL = Budget(
    max_det=6, max_len=4, max_n=3, max_m=2, max_b_len=2, max_b_weight=5
)
TINY = Budget(
    max_det=4, max_len=3, max_n=2, max_m=2, max_b_len=2, max_b_weight=4
)


# -- twig enumeration ----------------------------------------------------------


def test_enumeration_smallest_boxes():
    assert list(enumerate_admissible_twigs(1, 3)) == [(2,), (3,)]
    assert list(enumerate_admissible_twigs(2, 2)) == [(2,), (2, 2)]


def test_enumeration_is_preorder_lexicographic():
    got = list(enumerate_admissible_twigs(3, 3))
    assert len(got) == 14  # 2 + 4 + 8
    assert got[:7] == [
        (2,),
        (2, 2),
        (2, 2, 2),
        (2, 2, 3),
        (2, 3),
        (2, 3, 2),
        (2, 3, 3),
    ]
    assert got[7] == (3,)
    assert len(set(got)) == len(got)


def test_enumeration_respects_caps():
    for t in enumerate_admissible_twigs(4, 5):
        assert 1 <= len(t) <= 4
        assert all(2 <= a <= 5 for a in t)


# -- small-budget runs ----------------------------------------------------------


def test_all_suites_pass_at_small_budget():
    rep = verify_all(SMALL)
    assert rep["pass"] is True
    assert set(rep["suites"]) == set(SUITES)
    assert rep["budget"] == SMALL.to_json_dict()
    for name in SUITES:
        sub = rep["suites"][name]
        assert sub["suite"] == name
        assert sub["instances"] > 0
        assert sub["checks"] >= sub["instances"]
        assert sub["failures"] == []
        assert sub["pass"] is True


def test_unknown_suite_is_rejected():
    with pytest.raises(DomainError):
        verify_suite("determinants", SMALL)


def test_reports_are_deterministic():
    first = verify_suite("fujita", TINY)
    second = verify_suite("fujita", TINY)
    assert first == second
    a = json.dumps(verify_threshold_suite(TINY), sort_keys=True)
    b = json.dumps(verify_threshold_suite(TINY), sort_keys=True)
    assert a == b


def test_threshold_suite_agrees_with_an_independent_negdef_oracle():
    # the suite hands negdef_fn vertex-level graphs expanded from the compact
    # form; an oracle that reads only the matrix must reach the same verdicts
    rep = verify_threshold_suite(
        TINY, negdef_fn=lambda g: pivot_negdef(graph_neg_matrix(g))
    )
    assert rep["instances"] == 430
    assert rep["failures"] == []
    assert rep["pass"] is True


# -- mutation checks: a corrupted ingredient must be reported --------------------


def test_fujita_suite_catches_wrong_adjoint():
    rep = verify_fujita_suite(3, 4, adjoint_fn=lambda t: adjoint(t[::-1]))
    assert rep["pass"] is False
    assert rep["failures"]
    entry = rep["failures"][0]
    assert set(entry) == {"check", "instance", "detail"}


def test_threshold_suite_catches_wrong_negdef():
    rep = verify_threshold_suite(TINY, negdef_fn=lambda g: True)
    assert rep["pass"] is False
    # the failing instances are the over-bound ones, and each is replayable
    spec = json.loads(rep["failures"][0]["instance"])
    assert spec["family"] in (3, 4, 5)
    assert "l" in spec


def test_trichotomy_suite_catches_wrong_classification():
    rep = verify_trichotomy_suite(
        TINY, report_fn=lambda g: (KType.CANONICAL_AMPLE, Fraction(2))
    )
    assert rep["pass"] is False
    assert any(f["check"] == "predicted-matches-computed" for f in rep["failures"])


def test_contraction_suite_catches_wrong_neighbor_weight():
    def bad_blow(g, v):
        nbrs = sorted(_adjacency(g)[v], key=g.weight)
        h = blow_down(g, v)
        ws = dict(h.weights)
        ws[nbrs[0]] += 2
        return DualGraph(ws, h.edges, c=h.c)

    rep = verify_contraction_suite(SMALL, blow_fn=bad_blow)
    assert rep["pass"] is False
    assert rep["failures"]


# -- failure records are built only for failing checks ------------------------


def _last_plus_one(t):
    star = adjoint(t)
    return star[:-1] + (star[-1] + 1,)


def _wrong_past_length_three(t):
    # right on every twig of the (3, 4) box, so every adjoint-determinants
    # check passes; wrong on the adjoints longer than the box
    return adjoint(t) if len(t) <= 3 else _last_plus_one(t)


@pytest.mark.parametrize(
    "adjoint_fn",
    [lambda t: adjoint(t[::-1]), _last_plus_one, _wrong_past_length_three],
    ids=["reversed", "last-plus-one", "involution-only"],
)
def test_fujita_report_matches_the_eager_oracle(adjoint_fn):
    rep = verify_fujita_suite(3, 4, adjoint_fn=adjoint_fn)
    assert rep == fujita_suite_eager(3, 4, adjoint_fn)
    assert rep["pass"] is False


def test_the_mutations_fail_both_adjoint_checks():
    def failed(adjoint_fn):
        rep = verify_fujita_suite(3, 4, adjoint_fn=adjoint_fn)
        return {f["check"] for f in rep["failures"]}

    assert "adjoint-determinants" in failed(_last_plus_one)
    assert failed(_wrong_past_length_three) == {"adjoint-involution"}
    assert verify_fujita_suite(3, 4) == fujita_suite_eager(3, 4, adjoint)


def test_passing_checks_format_no_keys(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(x):
            calls.append(x)
            return fn(x)

        return wrapper

    monkeypatch.setattr(verify, "format_twig", counted(verify.format_twig))
    monkeypatch.setattr(verify, "_spec_key", counted(verify._spec_key))
    assert verify_fujita_suite(4, 5)["pass"] is True
    for name in SUITES[1:]:
        assert verify_suite(name, TINY)["pass"] is True
    assert calls == []
    # the counters see the keys of failing checks
    rep = verify_fujita_suite(2, 3, adjoint_fn=lambda t: adjoint(t[::-1]))
    assert len(calls) == 2 * len(rep["failures"])
    calls.clear()
    rep = verify_trichotomy_suite(
        TINY, report_fn=lambda g: (KType.CANONICAL_AMPLE, Fraction(2))
    )
    assert len(calls) == len(rep["failures"]) > 0

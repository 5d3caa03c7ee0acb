from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgraph import twigs
from dualgraph.errors import DomainError, ParseError
from dualgraph.twigs import (
    adjoint,
    format_twig,
    inductance,
    is_admissible,
    parse_twig,
    twig_determinant,
    twig_from_inductance,
    twig_parts,
)
from dualgraph.verify import enumerate_admissible_twigs
from oracles import (
    adjoint_fraction,
    dense_det,
    inductance_fraction,
    tridiagonal_neg_matrix,
    twig_from_inductance_stepwise,
)

# Frozen expected values.
DETERMINANT_TABLE = [
    ((), 1),
    ((2,), 2),
    ((2, 3), 5),
    ((3, 2), 5),
    ((2, 2), 3),
    ((2, 2, 2), 4),
]

PARTS_TABLE = [
    ((2, 3, 4), ((3, 4), (2, 3), (4, 3, 2))),
    ((5,), ((), (), (5,))),
    ((), ((), (), ())),
]

INDUCTANCE_TABLE = [
    ((2,), Fraction(1, 2)),
    ((2, 2), Fraction(2, 3)),
    ((2, 3), Fraction(3, 5)),
]

ADJOINT_TABLE = [
    ((2,), (2,)),
    ((3,), (2, 2)),
    ((2, 2), (3,)),
]


def enumerate_twigs(max_len, max_weight):
    stack = [()]
    while stack:
        t = stack.pop()
        if t:
            yield t
        if len(t) < max_len:
            for a in range(max_weight, 1, -1):
                stack.append(t + (a,))


admissible_twigs = st.lists(st.integers(2, 9), min_size=1, max_size=7).map(tuple)
any_chains = st.lists(st.integers(-4, 9), min_size=0, max_size=7).map(tuple)


def test_determinant_frozen_table():
    for weights, expected in DETERMINANT_TABLE:
        assert twig_determinant(weights) == expected


@given(any_chains)
def test_determinant_matches_dense_oracle(weights):
    assert twig_determinant(weights) == dense_det(tridiagonal_neg_matrix(weights))


@given(any_chains)
def test_determinant_transposal_invariant(weights):
    assert twig_determinant(weights) == twig_determinant(weights[::-1])


def test_parts_frozen_table():
    for weights, expected in PARTS_TABLE:
        parts = twig_parts(weights)
        assert (parts.overline, parts.underline, parts.transposal) == expected


def test_inductance_frozen_table():
    for weights, expected in INDUCTANCE_TABLE:
        assert inductance(weights) == expected


def test_inductance_rejects_bad_input():
    with pytest.raises(DomainError):
        inductance(())
    with pytest.raises(DomainError):
        inductance((1, 2))


def test_from_inductance_frozen_table():
    assert twig_from_inductance(Fraction(1, 2)) == (2,)
    assert twig_from_inductance(Fraction(3, 5)) == (2, 3)
    for n in range(2, 10):
        assert twig_from_inductance(Fraction(1, n)) == (n,)


def test_from_inductance_rejects_out_of_range():
    for q in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(DomainError):
            twig_from_inductance(q)


def test_adjoint_frozen_table():
    for weights, expected in ADJOINT_TABLE:
        assert adjoint(weights) == expected


@given(admissible_twigs)
@settings(max_examples=200)
def test_fujita_identity_one(a):
    parts = twig_parts(a)
    mid = 0 if len(a) == 1 else twig_determinant(twig_parts(parts.underline).overline)
    lhs = twig_determinant(parts.overline) * twig_determinant(parts.underline)
    assert lhs - twig_determinant(a) * mid == 1


@given(admissible_twigs)
@settings(max_examples=200)
def test_fujita_identity_two(a):
    star = adjoint(a)
    assert twig_determinant(star) == twig_determinant(a)
    assert twig_determinant(twig_parts(star).overline) == twig_determinant(
        a
    ) - twig_determinant(twig_parts(a).underline)


def test_fujita_identity_two_breaks_under_mutation():
    # A deliberately wrong adjoint (last weight off by one) must violate the
    # determinant identities for at least one small twig.
    failures = 0
    for a in enumerate_twigs(3, 4):
        star = adjoint(a)
        broken = star[:-1] + (star[-1] + 1,)
        ok = twig_determinant(broken) == twig_determinant(a) and twig_determinant(
            twig_parts(broken).overline
        ) == twig_determinant(a) - twig_determinant(twig_parts(a).underline)
        failures += 0 if ok else 1
    assert failures > 0


@given(admissible_twigs)
@settings(max_examples=200)
def test_bijection_round_trip_from_twig(a):
    assert twig_from_inductance(inductance(a)) == a


@given(st.integers(2, 60), st.integers(1, 59))
@settings(max_examples=200)
def test_bijection_round_trip_from_rational(q, p):
    if p >= q or gcd(p, q) != 1:
        return
    frac = Fraction(p, q)
    assert inductance(twig_from_inductance(frac)) == frac


@given(admissible_twigs)
@settings(max_examples=200)
def test_inductance_range_and_coprimality(a):
    e = inductance(a)
    assert 0 < e < 1
    assert gcd(twig_determinant(a), twig_determinant(twig_parts(a).overline)) == 1


@given(admissible_twigs)
@settings(max_examples=200)
def test_determinant_growth(a):
    assert twig_determinant(a) >= len(a) + 1


@given(admissible_twigs)
@settings(max_examples=200)
def test_adjoint_involution(a):
    assert adjoint(adjoint(a)) == a


def test_is_admissible():
    assert is_admissible(())
    assert is_admissible((2, 5))
    assert not is_admissible((2, 1))
    assert not is_admissible((0,))


def test_parse_twig_forms():
    assert parse_twig("[2,3]") == (2, 3)
    assert parse_twig("[3*2,5]") == (2, 2, 2, 5)
    assert parse_twig("[]") == ()
    assert parse_twig(" [ 2 , 3 ] ") == (2, 3)
    assert parse_twig("[1*7]") == (7,)


def test_parse_twig_errors():
    for bad in ("2,3", "[2,,3]", "[2.5]", "[3*]", "[a]", "[", "[0]", "[-2]", "[2] x"):
        with pytest.raises(ParseError):
            parse_twig(bad)


@pytest.mark.parametrize("entry", [
    "\u0663", "2*\u0663", "\u0663*2", "\uff12", "1_0", "+2", "2*+3", "3\n", "\u00b2",
])
def test_parse_twig_entries_are_ascii_digits(entry):
    """An entry is [count*]weight, both spelled [0-9]+ in ASCII, though int()
    and a regex digit class take more."""
    with pytest.raises(ParseError) as exc:
        parse_twig(f"[2,{entry},3]")
    assert exc.value.line == 1
    assert exc.value.message == f"bad twig entry {entry.strip()!r}"


def test_parse_twig_caps_the_expanded_length():
    # the cap is checked on the counts, before any entry is built, so a
    # billion-entry twig fails at once
    for bad in ("[1000000000*2]", "[5000000*2,5000001*3]", "[10000001*2]"):
        with pytest.raises(ParseError) as exc:
            parse_twig(bad)
        assert exc.value.line == 1
        assert "more than 10000000" in str(exc.value)


def test_parse_twig_reads_back_long_printed_twigs():
    # from-e prints a twig of determinant d, so at most d - 1 entries
    t = twig_from_inductance(Fraction(1999999, 2000000))
    assert len(t) == 1999999
    assert parse_twig(format_twig(t)) == t


@given(any_chains)
def test_format_parse_round_trip(weights):
    if any(w < 1 for w in weights):
        return
    assert parse_twig(format_twig(weights)) == weights


def test_format_twig():
    assert format_twig(()) == "[]"
    assert format_twig((2, 3)) == "[2,3]"


def test_long_expansion_runs_to_the_end():
    # a twig of a million entries is valid; only the length is capped
    assert twig_from_inductance(Fraction(10**6 + 4, 10**6 + 5)) == (2,) * (
        10**6 + 4
    )


def test_adjoint_length_is_known_in_advance():
    # A* has sum(a - 2) + 1 entries, over the fujita suite's default box
    for t in enumerate_admissible_twigs(6, 6):
        assert len(adjoint(t)) == sum(a - 2 for a in t) + 1


def test_twig_outputs_are_capped_before_they_are_built():
    # one entry over the cap fails; adjoint knows its length in advance, so
    # it fails at once, and a billion entries would too
    for make in (
        lambda: adjoint((10**7 + 2,)),
        lambda: adjoint((3, 10**7 + 1, 2)),
        lambda: adjoint((10**9,)),
        lambda: twig_from_inductance(Fraction(2 * 10**7 + 1, 2 * 10**7 + 3)),
    ):
        with pytest.raises(DomainError, match="more than 10000000"):
            make()
    # the cap is on the length alone: a short twig of a huge determinant
    assert twig_from_inductance(Fraction(1, 10**30)) == (10**30,)
    assert adjoint((2,) * 10**6) == (10**6 + 1,)
    # the admissibility error still comes first
    with pytest.raises(DomainError, match="admissible"):
        adjoint((1, 10**9))



def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


# admissible twigs with runs of 2s up to 10^5 and weights up to 10^5, whose
# adjoints are runs of 2s of that length
long_twigs = st.lists(
    st.one_of(
        st.integers(1, 10**5).map(lambda k: (2,) * k),
        st.integers(3, 9).map(lambda a: (a,)),
        st.integers(3, 10**5).map(lambda a: (a,)),
    ),
    min_size=1,
    max_size=4,
).map(lambda parts: sum(parts, ()))
bad_twigs = st.lists(st.integers(-3, 9), max_size=6).filter(
    lambda t: not t or min(t) < 2
)
any_rationals = st.one_of(
    st.fractions(),
    st.integers(-3, 3),
    st.integers(2, 10**6).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))
    ),
)


@given(long_twigs)
@settings(max_examples=150, deadline=None)
def test_integer_twig_calculus_matches_the_fraction_oracle(t):
    star = adjoint(t)
    assert star == adjoint_fraction(t)
    assert adjoint(star) == t
    for q in (inductance(t), inductance(star), 1 - inductance(t[::-1])):
        assert twig_from_inductance(q) == twig_from_inductance_stepwise(q)


@given(bad_twigs)
@settings(max_examples=200)
def test_adjoint_errors_match_the_fraction_oracle(t):
    assert outcome(adjoint, t) == outcome(adjoint_fraction, t)
    assert outcome(inductance, t) == outcome(inductance_fraction, t)


@given(any_rationals)
@settings(max_examples=300)
def test_from_inductance_matches_the_stepwise_oracle(q):
    assert outcome(twig_from_inductance, q) == outcome(
        twig_from_inductance_stepwise, q
    )


def test_a_run_of_twos_over_the_cap_is_refused_before_it_is_built(monkeypatch):
    # one divmod per run: 10^9 entries or 10^7 + 1 fail at once
    for q in (Fraction(999999999, 10**9), Fraction(10**7 + 1, 10**7 + 2)):
        with pytest.raises(DomainError) as exc:
            twig_from_inductance(q)
        assert str(exc.value) == "twig would have more than 10000000 entries"
    # at the edge, on a cap of 10: a run that fills it is a twig, one more
    # entry after it (a 2 or a 3) is not
    monkeypatch.setattr(twigs, "_LENGTH_CAP", 10)
    assert twig_from_inductance(Fraction(10, 11)) == (2,) * 10
    assert twig_from_inductance(Fraction(10, 21)) == (3,) + (2,) * 9
    for q in (Fraction(11, 12), Fraction(21, 23), Fraction(11, 23)):
        with pytest.raises(DomainError, match="more than 10 entries"):
            twig_from_inductance(q)

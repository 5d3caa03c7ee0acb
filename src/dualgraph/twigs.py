"""Exact arithmetic on twigs (linear chains of rational curves).

A twig is recorded as a tuple of positive integers [a_1,...,a_r], where the
weight a means a curve of self-intersection -a.  The empty tuple is the empty
twig.  A twig is admissible when every weight is at least 2.  twig_parts,
inductance and adjoint refuse an entry whose type is not int (bool included).

The determinant d(A) is the determinant of the r x r tridiagonal matrix with
diagonal (a_1,...,a_r) and off-diagonal entries -1; d of the empty twig is 1.
The inductance e(A) = d(A-bar)/d(A), where A-bar drops the first weight, is a
bijection between admissible twigs and rationals strictly between 0 and 1,
inverted by the ceiling (Hirzebruch-Jung) continued fraction expansion.  The
adjoint A* is the admissible twig with e(A*) = 1 - e(reverse(A)).

All arithmetic is on integers: a Fraction is built only where one is read or
returned, at inductance and twig_from_inductance.  The adjoint expands
(d(A) - d(A-underline))/d(A), which is 1 - e(reverse(A)) in lowest terms by
the splice identity, without building it.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain, repeat, starmap
from typing import Iterable, NamedTuple

from .errors import DomainError, ParseError

Twig = tuple[int, ...]
_LENGTH_CAP = 10**7  # entries of a twig read or built


class TwigParts(NamedTuple):
    overline: Twig
    underline: Twig
    transposal: Twig


def _as_twig(weights: Iterable[int], op: str | None = None) -> Twig:
    """The twig as a tuple, every entry of type int (bool and float refused).
    With op, the twig must also be nonempty and admissible, as op needs."""
    t = tuple(weights)
    if not set(map(type, t)) <= {int}:
        bad = next(a for a in t if type(a) is not int)
        raise DomainError(f"twig entries must be integers, got {bad!r}")
    if op and not t:
        raise DomainError(f"{op} is undefined for the empty twig")
    if op and not is_admissible(t):
        raise DomainError(f"{op} requires an admissible twig, got {list(t)}")
    return t


def is_admissible(weights: Iterable[int]) -> bool:
    return min(weights, default=2) >= 2


def twig_determinant(weights: Iterable[int]) -> int:
    """d(A) by the linear recurrence d_k = a_k d_{k-1} - d_{k-2}, d_0 = 1.
    Its entries go unchecked: it is the fujita suite's inner loop."""
    prev, cur = 0, 1
    for a in weights:
        prev, cur = cur, a * cur - prev
    return cur


def twig_parts(weights: Iterable[int]) -> TwigParts:
    """Drop-first, drop-last and reversed copies of a twig (empty if r <= 1)."""
    t = _as_twig(weights)
    return TwigParts(overline=t[1:], underline=t[:-1], transposal=t[::-1])


def inductance(weights: Iterable[int]) -> Fraction:
    """e(A) = d(A-bar)/d(A), strictly between 0 and 1 for admissible A."""
    t = _as_twig(weights, "inductance")
    return Fraction(twig_determinant(t[1:]), twig_determinant(t))


def _expand(num: int, den: int) -> Twig:
    """The ceiling continued fraction of num/den > 1: a_1 = ceil(num/den),
    and the expansion goes on with den/(a_1 den - num) until the denominator
    is 0.

    A run of 2s is one divmod(den, k), since num - den stays k along it.
    More than 10**7 entries is a DomainError, raised before a run that would
    reach the cap with entries still to come is built.  Entries >= 3 are
    counted at the end: each at least doubles the determinant, so there are
    at most log2(num) of them.
    """
    weights: list[int] = []
    while den:
        k = num - den
        if k <= den:  # ceil(num/den) == 2
            run, rest = divmod(den, k)
            if len(weights) + run + (rest > 0) > _LENGTH_CAP:
                break
            weights += [2] * run
            num, den = rest + k, rest
        else:
            a = -(-num // den)
            weights.append(a)
            num, den = den, a * den - num
    if den or len(weights) > _LENGTH_CAP:
        raise DomainError(f"twig would have more than {_LENGTH_CAP} entries")
    return tuple(weights)


def twig_from_inductance(q: Fraction | int) -> Twig:
    """The unique admissible twig with inductance q, for q strictly in (0,1).

    Weights come from the ceiling continued fraction of 1/q: with x = d/p,
    a_1 = ceil(x) and the expansion recurses on 1/(a_1 - x) until exact.
    A twig of more than 10**7 entries is a DomainError, raised before the
    run of 2s that would pass the cap is built.
    """
    q = Fraction(q)
    if not 0 < q < 1:
        raise DomainError(f"inductance value must satisfy 0 < q < 1, got {q}")
    return _expand(q.denominator, q.numerator)


def adjoint(weights: Iterable[int]) -> Twig:
    """The adjoint twig A*, defined by e(A*) = 1 - e(reverse(A)).  It has
    sum(a - 2) + 1 entries, so the cap is checked before anything is solved."""
    t = _as_twig(weights, "adjoint")
    length = sum(t) - 2 * len(t) + 1
    if length > _LENGTH_CAP:
        raise DomainError(f"twig has {length} entries, more than {_LENGTH_CAP}")
    d = twig_determinant(t)
    return _expand(d, d - twig_determinant(t[:-1]))


# entries in ASCII digits only: \d and int() would take "٣" too
_ITEM_RE = re.compile(r"(?:([0-9]+)\*)?([0-9]+)")


def parse_twig(text: str) -> Twig:
    """Parse `[a1,a2,...]` with optional `k*a` repetition (k >= 1), `[]` for
    empty.

    More than 10**7 entries after expansion is a ParseError, raised before
    any is built.  An admissible twig of determinant d has at most d - 1
    entries, so every twig the CLI prints with d <= 10**7 + 1 parses again.
    """
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(1, f"twig must be bracketed, got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    items: list[tuple[int, int]] = []
    for item in body.split(","):
        m = _ITEM_RE.fullmatch(item.replace(" ", ""))
        if not m:
            raise ParseError(1, f"bad twig entry {item.strip()!r}")
        try:
            count = int(m.group(1)) if m.group(1) else 1
            value = int(m.group(2))
        except ValueError:  # more digits than int() converts
            limit = sys.get_int_max_str_digits()
            raise ParseError(1, f"bad twig entry: more than {limit} digits")
        if value < 1:
            raise ParseError(1, f"twig weights must be positive, got {value}")
        if count < 1:
            raise ParseError(1, f"twig repeat counts must be positive, got {count}")
        items.append((value, count))
    length = sum(count for _, count in items)
    if length > _LENGTH_CAP:
        raise ParseError(1, f"twig has {length} entries, more than {_LENGTH_CAP}")
    return tuple(chain.from_iterable(starmap(repeat, items)))


def format_twig(weights: Iterable[int]) -> str:
    return "[" + ",".join(str(w) for w in weights) + "]"

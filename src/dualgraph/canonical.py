"""Adjunction coefficients of a contractible exceptional graph, and the
trichotomy of the marked curve against them.

For a negative-definite graph whose weights are all <= -2 there is a unique
coefficient vector alpha >= 0 with sum_j alpha_j I_ij = 2 + w_i at every
vertex.  Pairing those coefficients against the neighbors of a C-marked
(-1)-vertex classifies the instance: below 1, exactly 1, or above 1.

The solve reads the graph's one cached pass from the graphs module and is
integer throughout: each coefficient is kept times D = det(-I) of the whole
graph, which makes it an integer (Cramer's rule).  Either pass, the forest
one or the sparse elimination over the core of a graph with a cycle, ends
in D * alpha at the core vertices, and one builder turns that into pieces:
each core vertex, and along each run the arithmetic progression between its
ends, kept as its first entry and step; every division on the way is exact.
k_type_report and the contraction suite read the C-pairing from the
progressions at their ends, in time independent of the run lengths;
compute_dnatural expands them, building one Fraction per vertex, by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    DomainError,
    InternalDefect,
    NotContractible,
    NotMinimalResolutionGraph,
    OutOfScopeBoundary,
)
from .graphs import DualGraph, _Piece, _elimination, _run_pieces, graph_d


@dataclass(frozen=True, eq=True)
class DNatural:
    """Exact adjunction coefficients, keyed by vertex id."""

    coefficients: dict[int, Fraction]

    def __getitem__(self, v: int) -> Fraction:
        return self.coefficients[v]


class KType(Enum):
    ANTI_CANONICAL_AMPLE = "anti-ample"
    NUMERICALLY_TRIVIAL = "trivial"
    CANONICAL_AMPLE = "canonical-ample"


def compute_dnatural(gD: DualGraph) -> DNatural:
    """Solve sum_j alpha_j I_ij = 2 + w_i exactly over the whole graph.

    gD must be unmarked with every weight <= -2 (NotMinimalResolutionGraph
    otherwise) and negative definite (NotContractible otherwise).  The
    solution is guaranteed nonnegative for such graphs; a negative entry
    would mean the solver itself is broken and raises InternalDefect.
    """
    return DNatural(_per_vertex(*_solve(gD)))


def _solve(gD: DualGraph) -> tuple[int, list[_Piece]]:
    """compute_dnatural's checks and solve: D and the pieces, with each run
    left as its arithmetic progression."""
    if gD.c is not None:
        raise NotMinimalResolutionGraph("graph carries a C mark")
    # run vertices all weigh -2, so the core weights decide
    for v, w in sorted(gD._compact()[0].items()):
        if w > -2:
            raise NotMinimalResolutionGraph(f"vertex {v} has weight {w} > -2")
    if not _elimination(gD).definite:
        raise NotContractible("intersection form is not negative definite")
    d, pieces = _run_pieces(gD)
    # a progression is smallest at one of its ends
    if any(
        first < 0 or (step < 0 and first + (len(ids) - 1) * step < 0)
        for ids, first, step in pieces
    ):
        negative = next(v for v, a in _per_vertex(d, pieces).items() if a < 0)
        raise InternalDefect(
            f"adjunction solve produced negative coefficient at {negative}"
        )
    return d, pieces


def _per_vertex(d: int, pieces: list[_Piece]) -> dict[int, Fraction]:
    """One coefficient per vertex, by id."""
    alpha: dict[int, Fraction] = {}
    for ids, first, step in pieces:
        if not step:
            alpha.update(dict.fromkeys(ids, Fraction(first, d)))
        else:
            for v in ids:
                alpha[v] = Fraction(first, d)
                first += step
    return dict(sorted(alpha.items()))


def c_pairing(g: DualGraph, dnat: DNatural) -> Fraction:
    """Sum of coefficients over the neighbors of the C-marked vertex."""
    if g.c is None:
        raise DomainError("graph has no C-marked vertex")
    total = Fraction(0)
    for v in g.neighbors(g.c):
        try:
            total += dnat.coefficients[v]
        except KeyError:
            raise DomainError(
                f"coefficient vector does not cover vertex {v}"
            ) from None
    return total


def _c_pairing(g: DualGraph) -> tuple[Fraction, int, list[_Piece]]:
    """The pairing of C against the adjunction solve of g.minus_c(), and the
    solve's D and pieces.

    Each neighbor of C is looked up in its piece, so a run is read at one
    position and never expanded.  A neighbor that no piece covers is a
    DomainError, as in c_pairing.
    """
    d, pieces = _solve(g.minus_c())
    total = 0
    for v in g.neighbors(g.c):
        for ids, first, step in pieces:
            if v in ids:
                total += first + ids.index(v) * step
                break
        else:
            raise DomainError(f"coefficient vector does not cover vertex {v}")
    return Fraction(total, d), d, pieces


def k_type_report(g: DualGraph) -> tuple[KType, Fraction]:
    """Classify the marked instance and return the pairing that decided it.

    g must carry a C mark of weight -1 (OutOfScopeBoundary otherwise); the
    rest of the graph must satisfy compute_dnatural's preconditions.  At a
    pairing of exactly 1 every coefficient of a boundary (d(g) = -1) is an
    integer: a fractional one is a defect there, and marks any other graph
    as out of scope.

    Runs are read as progressions from their ends, never vertex by vertex:
    the neighbors of C are core vertices or run vertices looked up in their
    run, and a progression is integral iff D divides its first entry and (if
    it has a second) its step.
    """
    if g.c is None:
        raise OutOfScopeBoundary("graph has no C-marked vertex")
    if g.weight(g.c) != -1:
        raise OutOfScopeBoundary(
            f"marked vertex weighs {g.weight(g.c)}, classification needs -1"
        )
    pairing, d, pieces = _c_pairing(g)
    if pairing < 1:
        return KType.ANTI_CANONICAL_AMPLE, pairing
    if pairing == 1:
        if any(
            first % d or (len(ids) > 1 and step % d) for ids, first, step in pieces
        ):
            fractional = next(
                v for v, a in _per_vertex(d, pieces).items() if a.denominator != 1
            )
            message = f"pairing is 1 but coefficient at {fractional} is not an integer"
            d_g = graph_d(g)
            if d_g != -1:
                raise OutOfScopeBoundary(f"{message}; d(g) is {d_g}, not -1")
            raise InternalDefect(message)
        return KType.NUMERICALLY_TRIVIAL, pairing
    return KType.CANONICAL_AMPLE, pairing


def classify_k_type(g: DualGraph) -> KType:
    return k_type_report(g)[0]

"""Adjunction coefficients of a contractible exceptional graph, and the
trichotomy of the marked curve against them.

For a negative-definite graph whose weights are all <= -2 there is a unique
coefficient vector alpha >= 0 with sum_j alpha_j I_ij = 2 + w_i at every
vertex.  Pairing those coefficients against the neighbors of a C-marked
(-1)-vertex classifies the instance: below 1, exactly 1, or above 1.

The solve reads the graph's one cached pass from the graphs module.  On a
forest that is the integer leaf-first pass, whose pivots are full/hole and
which crosses (-2)-runs in closed form; the coefficients along any run form
an arithmetic progression, kept as its first entry and step.  A graph with a
cycle carries the solution scaled by det(-I) from its one fraction-free
elimination, and only its division by det(-I) is left.  k_type_report and
the contraction suite read the C-pairing from the progressions at their
ends, in time independent of the run lengths; compute_dnatural expands them,
one coefficient per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import (
    DomainError,
    InternalDefect,
    NotContractible,
    NotMinimalResolutionGraph,
    OutOfScopeBoundary,
)
from .graphs import DualGraph, _elimination, _through_run, _TreePass


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


# (ids, first, step): alpha at ids[k] is first + k * step.  A solution is a
# list of such pieces, one per core vertex and one per run, in the order the
# expanded coefficients are listed; no vertex is in two pieces.
_Piece = tuple[Sequence[int], Fraction, Fraction]


def compute_dnatural(gD: DualGraph) -> DNatural:
    """Solve sum_j alpha_j I_ij = 2 + w_i exactly over the whole graph.

    gD must be unmarked with every weight <= -2 (NotMinimalResolutionGraph
    otherwise) and negative definite (NotContractible otherwise).  The
    solution is guaranteed nonnegative for such graphs; a negative entry
    would mean the solver itself is broken and raises InternalDefect.
    """
    return DNatural(_per_vertex(_solve(gD)))


def _solve(gD: DualGraph) -> list[_Piece]:
    """compute_dnatural's checks and solve, with each run left as its
    arithmetic progression."""
    if gD.c is not None:
        raise NotMinimalResolutionGraph("graph carries a C mark")
    # run vertices all weigh -2, so the core weights decide
    for v, w in sorted(gD._compact()[0].items()):
        if w > -2:
            raise NotMinimalResolutionGraph(f"vertex {v} has weight {w} > -2")
    if len(gD) == 0:
        return []
    elim = _elimination(gD)
    if not elim.definite:
        raise NotContractible("intersection form is not negative definite")
    if isinstance(elim, _TreePass):
        pieces = _solve_forest(elim)
    else:
        zero = Fraction(0)
        pieces = [
            ((v,), Fraction(x, elim.det), zero)
            for v, x in zip(gD.vertex_ids, elim.scaled)
        ]
    # a progression is smallest at one of its ends
    if any(
        first < 0 or (step < 0 and first + (len(ids) - 1) * step < 0)
        for ids, first, step in pieces
    ):
        negative = next(v for v, a in _per_vertex(pieces).items() if a < 0)
        raise InternalDefect(
            f"adjunction solve produced negative coefficient at {negative}"
        )
    return pieces


def _per_vertex(pieces: list[_Piece]) -> dict[int, Fraction]:
    """One coefficient per vertex."""
    alpha: dict[int, Fraction] = {}
    for ids, first, step in pieces:
        if not step:
            alpha.update(dict.fromkeys(ids, first))
        else:
            a = first
            for v in ids:
                alpha[v] = a
                a += step
    return alpha


def _solve_forest(tp: _TreePass) -> list[_Piece]:
    zero = Fraction(0)
    pieces: list[_Piece] = [(run, zero, zero) for run in tp.pure]
    full, hole = tp.full, tp.hole
    # leaf first: each child passes its load to its parent through the run
    # between them, divided by the pivot at the top of that run
    loads = {v: Fraction(-tp.weights[v] - 2) for v in tp.order}
    for v in reversed(tp.order):
        p, run = tp.parent[v]
        if p is not None:
            top = _through_run(full[v], hole[v], len(run))[0]
            loads[p] += loads[v] * hole[v] / top
    alpha: dict[int, Fraction] = {}
    for v in tp.order:  # parents precede children
        p, run = tp.parent[v]
        if p is None:
            alpha[v] = loads[v] * hole[v] / full[v]
        else:
            f, h = _through_run(full[v], hole[v], len(run))
            ap = alpha[p]
            # run vertices and both core endpoints sit on one arithmetic
            # progression; one solve at the run entry fixes it
            step = (loads[v] * hole[v] + ap * h) / f - ap
            if run:
                pieces.append((run, ap + step, step))
            alpha[v] = ap + (len(run) + 1) * step
        pieces.append(((v,), alpha[v], zero))
    for v in tp.order:
        for w, run in tp.links[v]:
            if w is None:
                # pendant runs interpolate from alpha[v] down to a virtual 0
                step = -alpha[v] / (len(run) + 1)
                pieces.append((run, alpha[v] + step, step))
    return pieces


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


def _c_pairing(g: DualGraph) -> tuple[Fraction, list[_Piece]]:
    """The pairing of C against the adjunction solve of g.minus_c(), and the
    solve's pieces.

    Each neighbor of C is looked up in its piece, so a run is read at one
    position and never expanded.  A neighbor that no piece covers is a
    DomainError, as in c_pairing.
    """
    pieces = _solve(g.minus_c())
    total = Fraction(0)
    for v in g.neighbors(g.c):
        for ids, first, step in pieces:
            if v in ids:
                total += first + ids.index(v) * step
                break
        else:
            raise DomainError(f"coefficient vector does not cover vertex {v}")
    return total, pieces


def k_type_report(g: DualGraph) -> tuple[KType, Fraction]:
    """Classify the marked instance and return the pairing that decided it.

    g must carry a C mark of weight -1 (OutOfScopeBoundary otherwise); the
    rest of the graph must satisfy compute_dnatural's preconditions.  At a
    pairing of exactly 1 every coefficient must be an integer; a fractional
    one is reported as a defect rather than tolerated.

    Runs are read as progressions from their ends, never vertex by vertex:
    the neighbors of C are core vertices or run vertices looked up in their
    run, and a progression is integral iff its first entry and (if it has a
    second) its step are.
    """
    if g.c is None:
        raise OutOfScopeBoundary("graph has no C-marked vertex")
    if g.weight(g.c) != -1:
        raise OutOfScopeBoundary(
            f"marked vertex weighs {g.weight(g.c)}, classification needs -1"
        )
    g._compact()  # so the cut and the neighbors below read the runs
    pairing, pieces = _c_pairing(g)
    if pairing < 1:
        return KType.ANTI_CANONICAL_AMPLE, pairing
    if pairing == 1:
        if not all(
            first.denominator == 1 and (len(ids) == 1 or step.denominator == 1)
            for ids, first, step in pieces
        ):
            fractional = next(
                v for v, a in _per_vertex(pieces).items() if a.denominator != 1
            )
            raise InternalDefect(
                "pairing is 1 but coefficient at "
                f"{fractional} is not an integer"
            )
        return KType.NUMERICALLY_TRIVIAL, pairing
    return KType.CANONICAL_AMPLE, pairing


def classify_k_type(g: DualGraph) -> KType:
    return k_type_report(g)[0]

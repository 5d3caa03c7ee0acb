"""Adjunction coefficients of a contractible exceptional graph, and the
trichotomy of the marked curve against them.

For a negative-definite graph whose weights are all <= -2 there is a unique
coefficient vector alpha >= 0 with sum_j alpha_j I_ij = 2 + w_i at every
vertex.  Pairing those coefficients against the neighbors of a C-marked
(-1)-vertex classifies the instance: below 1, exactly 1, or above 1.

The solve reads the graph's one cached pass from the graphs module and is
integer throughout: each coefficient is kept times D = det(-I), of its
component on a forest and of the whole graph otherwise, which makes it an
integer (Cramer's rule).  On a forest the pass is the integer leaf-first one,
whose pivots are full/hole and which crosses (-2)-runs in closed form; the
scaled coefficients along any run form an arithmetic progression, kept as
its first entry and step, and every division on the way is exact.  A graph
with a cycle gets the same pieces from its one sparse elimination over the
core: D * alpha at each core vertex, and a progression along each run.
k_type_report and the contraction suite read the C-pairing from the
progressions at their ends, in time independent of the run lengths;
compute_dnatural expands them, building one Fraction per vertex.
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
from .graphs import (
    DualGraph, _core_dfs, _elimination, _through_run, _TreePass, is_forest,
)


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


# (ids, first, step, D): alpha at ids[k] is (first + k * step) / D, with D > 0
# the det(-I) of a component (or of a graph with a cycle), so all are integers.
# A solution lists such pieces, one per core vertex and one per run; no vertex
# is in two pieces.  A forest's come in the order of its expanded
# coefficients, and a graph with a cycle has its coefficients listed by id.
_Piece = tuple[Sequence[int], int, int, int]


def compute_dnatural(gD: DualGraph) -> DNatural:
    """Solve sum_j alpha_j I_ij = 2 + w_i exactly over the whole graph.

    gD must be unmarked with every weight <= -2 (NotMinimalResolutionGraph
    otherwise) and negative definite (NotContractible otherwise).  The
    solution is guaranteed nonnegative for such graphs; a negative entry
    would mean the solver itself is broken and raises InternalDefect.
    """
    return DNatural(_per_vertex(_solve(gD), gD))


def _solve(gD: DualGraph) -> list[_Piece]:
    """compute_dnatural's checks and solve, with each run left as its
    arithmetic progression."""
    if gD.c is not None:
        raise NotMinimalResolutionGraph("graph carries a C mark")
    core, links = gD._compact()
    # run vertices all weigh -2, so the core weights decide
    for v, w in sorted(core.items()):
        if w > -2:
            raise NotMinimalResolutionGraph(f"vertex {v} has weight {w} > -2")
    if not core and not links:  # empty; len() could pass sys.maxsize
        return []
    elim = _elimination(gD)
    if not elim.definite:
        raise NotContractible("intersection form is not negative definite")
    if isinstance(elim, _TreePass):
        pieces = _solve_forest(gD, elim)
    else:
        pieces = elim.pieces
    # a progression is smallest at one of its ends
    if any(
        first < 0 or (step < 0 and first + (len(ids) - 1) * step < 0)
        for ids, first, step, _ in pieces
    ):
        negative = next(v for v, a in _per_vertex(pieces, gD).items() if a < 0)
        raise InternalDefect(
            f"adjunction solve produced negative coefficient at {negative}"
        )
    return pieces


def _per_vertex(pieces: list[_Piece], gD: DualGraph) -> dict[int, Fraction]:
    """One coefficient per vertex of gD: in the order of a forest's pieces,
    and by id on a graph with a cycle."""
    alpha: dict[int, Fraction] = {}
    for ids, first, step, scale in pieces:
        if not step:
            alpha.update(dict.fromkeys(ids, Fraction(first, scale)))
        else:
            for v in ids:
                alpha[v] = Fraction(first, scale)
                first += step
    return alpha if is_forest(gD) else dict(sorted(alpha.items()))


def _solve_forest(gD: DualGraph, tp: _TreePass) -> list[_Piece]:
    """The pieces of a forest's solve, from its pass tp and its core DFS."""
    dfs = _core_dfs(gD)
    order, parent = dfs.order, dfs.parent
    weights = gD._compact()[0]
    pieces: list[_Piece] = [(run, 0, 0, 1) for run in dfs.pure]
    full, hole = tp.full, tp.hole
    # leaf first: m[v] is v's load times hole[v]; a child passes its share up
    # through the run between them, divided by the pivot at the top of that
    # run, which divides hole[p] exactly: hole[p] is the product of the tops
    m = {v: (-weights[v] - 2) * hole[v] for v in order}
    for v in reversed(order):
        p, run = parent[v]
        if p is not None:
            m[p] += m[v] * (hole[p] // _through_run(full[v], hole[v], len(run))[0])
    scaled: dict[int, int] = {}  # D * alpha, D = full at the component's root
    for v in order:  # parents precede children
        p, run = parent[v]
        if p is None:
            d = full[v]
            scaled[v] = m[v]
        else:
            f, h = _through_run(full[v], hole[v], len(run))
            ap = scaled[p]
            # run vertices and both core endpoints sit on one arithmetic
            # progression; one solve at the run entry fixes it
            step = (m[v] * d + ap * h) // f - ap
            if run:
                pieces.append((run, ap + step, step, d))
            scaled[v] = ap + (len(run) + 1) * step
        pieces.append(((v,), scaled[v], 0, d))
    links = gD.core_links()
    for v in order:
        if parent[v][0] is None:
            d = full[v]
        for w, run in links[v]:
            if w is None:
                # pendant runs interpolate from scaled[v] down to a virtual 0
                step = -scaled[v] // (len(run) + 1)
                pieces.append((run, scaled[v] + step, step, d))
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
        for ids, first, step, scale in pieces:
            if v in ids:
                total += Fraction(first + ids.index(v) * step, scale)
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
    run, and a progression is integral iff D divides its first entry and (if
    it has a second) its step.
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
            not first % scale and (len(ids) == 1 or not step % scale)
            for ids, first, step, scale in pieces
        ):
            fractional = next(
                v
                for v, a in _per_vertex(pieces, g.minus_c()).items()
                if a.denominator != 1
            )
            raise InternalDefect(
                "pairing is 1 but coefficient at "
                f"{fractional} is not an integer"
            )
        return KType.NUMERICALLY_TRIVIAL, pairing
    return KType.CANONICAL_AMPLE, pairing


def classify_k_type(g: DualGraph) -> KType:
    return k_type_report(g)[0]

"""The seven boundary families: constructors, recognizer, and closed-form
classification of each instance's canonical type.

Instances are parameterized by an admissible twig A, an integer n >= 2, and,
depending on the family, a run length l >= 0, a second twig b with b_1 >= 3,
and a tail length m >= 0.  The builders emit one pinned vertex layout per
family (ids assigned in construction order, center first for star shapes);
the recognizer works structurally and accepts any relabeling.

Family layouts (arms read outward from the center / along the chain):

  (1)  C(0) -- (-n)
  (2)  (-n) -- a_1 .. a_r -- C(-1) -- A*           (a_r and the head of A*
       touch C)
  (3)  center(-2): arms A* | l x (-2), C(-1) | a_r .. a_1, (-n)
  (4)  center(-2): arms A* | l x (-2), b_1 .. b_s, C(-1), uB* | a_r .. a_1, (-n)
  (5)  center(-2): arms A* | l x (-2), b_1 .. b_s, w | a_r .. a_1, (-n)
       where w = -(m+2) also carries uB* and C(-1), and C carries m x (-2)
  (6)  center(-b_1): arms A* | b_2 .. b_s, C(-1), uB* | a_r .. a_1, (-n)
  (7)  center(-b_1): arms A* | b_2 .. b_s, w | a_r .. a_1, (-n)
       with w, C, and the m-tail as in (5)

uB* denotes adjoint(b) with its last entry removed; its head is the vertex
nearest C (families (4), (6)) or nearest w ((5), (7)).  Twig arms are written
with negated weights; A* starts at the center with its first entry.

Families (3)-(7) are one skeleton, which the builder assembles and the
recognizer reads in one pass each: a center with the arms A* and
a_r .. a_1, (-n), and a C-arm.  (3) is (4) with b empty; (6) and (7) are (4)
and (5) with b_1 moved onto the center and no run; (5) and (7) end the C-arm
in w instead of C.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .errors import InvalidFamilyParams
from .canonical import KType
from .graphs import DualGraph, is_tree, link_neighbor
from .twigs import Twig, adjoint, is_admissible, twig_determinant, twig_parts

_FIELDS = ("family", "A", "n", "l", "b", "m")
_REQUIRED = {
    1: ("n",),
    2: ("A", "n"),
    3: ("A", "n", "l"),
    4: ("A", "n", "l", "b"),
    5: ("A", "n", "l", "b", "m"),
    6: ("A", "n", "b"),
    7: ("A", "n", "b", "m"),
}


@dataclass(frozen=True)
class FamilyInstance:
    family: int
    A: Twig | None = None
    n: int | None = None
    l: int | None = None
    b: Twig | None = None
    m: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"family": self.family}
        for key in ("A", "n", "l", "b", "m"):
            val = getattr(self, key)
            if val is not None:
                out[key] = list(val) if isinstance(val, tuple) else val
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "FamilyInstance":
        if not isinstance(data, dict):
            raise InvalidFamilyParams("family spec must be a JSON object")
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise InvalidFamilyParams(
                f"unexpected field {sorted(unknown)[0]!r} in family spec"
            )
        if "family" not in data:
            raise InvalidFamilyParams("family spec needs a 'family' field")
        _check_family(data["family"])
        _check_types(data, data)
        twigs = {k: tuple(data[k]) for k in ("A", "b") if k in data}
        return FamilyInstance(**{**data, **twigs})


@dataclass(frozen=True)
class NotInList:
    """Negative classification result; reason names the failed predicate."""

    reason: str


def l_bound(A: Twig, n: int) -> int:
    """Largest l keeping the instance contractible: d(A)(n d(A)-d(ov A))-2."""
    d = twig_determinant(A)
    dbar = twig_determinant(twig_parts(A).overline)
    return d * (n * d - dbar) - 2


def trivial_threshold(A: Twig, n: int) -> int:
    """The run length at which family (3) becomes numerically trivial."""
    return (n + 1) * twig_determinant(A) - twig_determinant(
        twig_parts(A).overline
    )


def _check_family(family) -> None:
    # type(), not isinstance: True and 1.0 compare equal to 1 but are no family
    if type(family) is not int or family not in _REQUIRED:
        raise InvalidFamilyParams(f"family must be 1..7, got {family!r}")


def _check_types(fields: dict, keys) -> None:
    """Refuse the first of the fields n, l, m, A, b, in that order, that is
    in keys and is not an int (n, l, m) or a list or tuple of ints (A, b);
    type() refuses bool and float."""
    for key in ("n", "l", "m"):
        if key in keys and type(fields[key]) is not int:
            raise InvalidFamilyParams(f"field {key!r} must be an integer")
    for key in ("A", "b"):
        if key in keys and (
            type(fields[key]) not in (list, tuple)
            or not set(map(type, fields[key])) <= {int}
        ):
            raise InvalidFamilyParams(f"field {key!r} must be a list of integers")


def validate_family(spec: FamilyInstance, strict: bool = True) -> None:
    """Raise InvalidFamilyParams naming the violated constraint.

    strict=False skips only the upper bound on l, so over-bound instances can
    be built for definiteness experiments; everything else always holds.
    """
    _check_family(spec.family)
    required = _REQUIRED[spec.family]
    for key in ("A", "n", "l", "b", "m"):
        val = getattr(spec, key)
        if key in required and val is None:
            raise InvalidFamilyParams(
                f"family ({spec.family}) requires field {key!r}"
            )
        if key not in required and val is not None:
            raise InvalidFamilyParams(
                f"family ({spec.family}) does not take field {key!r}"
            )
    _check_types(vars(spec), required)
    if spec.n < 2:
        raise InvalidFamilyParams("n >= 2 violated")
    if spec.A is not None:
        if len(spec.A) == 0 or not is_admissible(spec.A):
            raise InvalidFamilyParams("A must be a nonempty admissible twig")
    if spec.b is not None:
        if len(spec.b) == 0 or not is_admissible(spec.b):
            raise InvalidFamilyParams("b must be a nonempty admissible twig")
        if spec.b[0] < 3:
            raise InvalidFamilyParams("b_1 >= 3 violated")
    # a run is a range of ids, and a range holds at most sys.maxsize
    if spec.m is not None and spec.m < 0:
        raise InvalidFamilyParams("m >= 0 violated")
    if spec.m is not None and spec.m > sys.maxsize:
        raise InvalidFamilyParams(f"m <= {sys.maxsize} violated")
    if spec.l is not None:
        if spec.l < 0:
            raise InvalidFamilyParams("l >= 0 violated")
        if spec.l > sys.maxsize:
            raise InvalidFamilyParams(f"l <= {sys.maxsize} violated")
        if strict:
            bound = l_bound(spec.A, spec.n)
            if spec.l > bound:
                raise InvalidFamilyParams(
                    f"l out of range: 0 <= l <= {bound}, got {spec.l}"
                )


class _Assembler:
    """Vertices get fresh sequential ids in construction order; (-2)-runs are
    recorded as id ranges, so the cost does not depend on their length.

    It emits the canonical compact form but for the order of its links: each
    link runs from an older vertex to a newer one or to a free end, through
    an ascending range, and every node but a (-2) of degree 1 or 2 is core
    (family (1) and (2) with n = 2, and (2) with A ending in 2).
    """

    def __init__(self):
        self.nodes: dict[int, int] = {}
        self.links: list[tuple[int, int | None, range]] = []
        self.c: int | None = None
        self._next = 1

    def vertex(self, weight: int, mark: bool = False) -> int:
        vid = self._next
        self._next += 1
        self.nodes[vid] = weight
        if mark:
            self.c = vid
        return vid

    def edge(self, u: int, v: int) -> None:
        self.links.append((u, v, range(0)))

    def arm(
        self,
        attach_to: int,
        weights: list[int],
        mark_at: int = -1,
        run: int = 0,
        tip: bool = True,
    ) -> int:
        """Chain run (-2)-vertices and then the weights off attach_to;
        mark_at indexes into weights.  Returns the last vertex that is not
        on a run.

        Unmarked (-2)-entries join the run they sit on: all of them when the
        arm ends in a tip, all but the last when more attaches there later
        (tip=False).
        """
        prev = attach_to
        start = self._next
        self._next += run
        last = len(weights) - 1
        for i, w in enumerate(weights):
            if w == -2 and i != mark_at and (tip or i < last):
                self._next += 1
                continue
            vid = self.vertex(w, mark=(i == mark_at))
            self.links.append((prev, vid, range(start, vid)))
            start = self._next
            prev = vid
        if start < self._next:
            self.links.append((prev, None, range(start, self._next)))
        return prev

    def graph(self) -> DualGraph:
        return DualGraph._from_oriented(self.nodes, self.links, self.c)


def _neg(twig: Twig) -> list[int]:
    return [-a for a in twig]


@lru_cache(maxsize=4096)
def _adjoint(twig: Twig) -> Twig:
    """adjoint, remembered: the suites build every twig's instances for many
    run lengths, and the continued fraction dominates a compact build."""
    return adjoint(twig)


def _u_bstar(b: Twig) -> Twig:
    return _adjoint(tuple(b))[:-1]


def build_family(spec: FamilyInstance, strict: bool = True) -> DualGraph:
    """The pinned graph of a family instance, C marked.

    strict as in validate_family: pass False to build over-bound l values
    (still structurally well formed, just not contractible).
    """
    validate_family(spec, strict=strict)
    A, n, l, b, m = spec.A, spec.n, spec.l, spec.b, spec.m
    asm = _Assembler()
    if spec.family == 1:
        c = asm.vertex(0, mark=True)
        asm.edge(c, asm.vertex(-n))
        return asm.graph()
    star = _neg(_adjoint(tuple(A)))
    if spec.family == 2:
        start = asm.vertex(-n)
        end_a = asm.arm(start, _neg(A), tip=False)
        c = asm.vertex(-1, mark=True)
        asm.edge(end_a, c)
        asm.arm(c, star)
        return asm.graph()
    # (3)-(5) put the run l and then b on the C-arm of a (-2) center, (3)
    # with b empty; (6) and (7) put b_1 on the center and b_2 .. b_s on the arm
    if spec.family <= 5:
        center, spine, run = asm.vertex(-2), _neg(b or ()), l
    else:
        center, spine, run = asm.vertex(-b[0]), _neg(b[1:]), 0
    ustar = _neg(_u_bstar(b)) if b else []
    asm.arm(center, star)
    if m is None:
        asm.arm(center, spine + [-1] + ustar, mark_at=len(spine), run=run)
    else:  # (5), (7): uB*, C and the m-tail hang off w = -(m+2)
        w = asm.arm(center, spine + [-(m + 2)], run=run, tip=False)
        asm.arm(w, ustar)
        asm.arm(asm.arm(w, [-1], mark_at=0, tip=False), [], run=m)
    asm.arm(center, _neg(tuple(reversed(A))) + [-n])
    return asm.graph()


def _check_figure1(A: Twig, m: int, n: int) -> None:
    """Refuse the figure-1 parameters that figure1_graph cannot build: the
    types, then n, A and m in validate_family's order, then the one excluded
    choice."""
    _check_types({"n": n, "m": m, "A": A}, ("n", "m", "A"))
    if n < 2:
        raise InvalidFamilyParams("n >= 2 violated")
    if len(A) == 0 or not is_admissible(A):
        raise InvalidFamilyParams("A must be a nonempty admissible twig")
    if m < 0:
        raise InvalidFamilyParams("m >= 0 violated")
    if tuple(A) == (2,) and m == 0 and n == 2:
        raise InvalidFamilyParams(
            "A=[2] with (m,n)=(0,2) is excluded (run would exceed the bound)"
        )


def figure1_graph(A: Twig, m: int, n: int) -> DualGraph:
    """The numerically trivial boundary shape, assembled directly.

    Center (-2); arms: adjoint(A); then (n+1)d(A)-d(ov A)-1 vertices of
    weight -2 followed by -(m+2), C(-1), and m further (-2)s; then A reversed
    capped by (-n).  A=[2] with (m,n)=(0,2) is the one excluded parameter
    choice (its run would overshoot the contractibility bound).
    """
    _check_figure1(A, m, n)
    t = trivial_threshold(A, n)
    asm = _Assembler()
    center = asm.vertex(-2)
    asm.arm(center, _neg(_adjoint(tuple(A))))
    c = asm.arm(center, [-(m + 2), -1], mark_at=1, run=t - 1, tip=False)
    asm.arm(c, [], run=m)
    asm.arm(center, _neg(tuple(reversed(A))) + [-n])
    return asm.graph()


def figure1_spec(A: Twig, m: int, n: int) -> FamilyInstance:
    """The family instance a figure1_graph classifies as; it refuses what
    figure1_graph refuses, with the same message."""
    _check_figure1(A, m, n)
    t = trivial_threshold(A, n)
    if m == 0:
        return FamilyInstance(family=3, A=tuple(A), n=n, l=t)
    return FamilyInstance(family=4, A=tuple(A), n=n, l=t - 1, b=(m + 2,))


def predicted_k_type(spec: FamilyInstance) -> KType:
    """Closed-form canonical type of a valid instance, no linear solves."""
    validate_family(spec, strict=True)
    return _predicted_k_type(spec)


def _predicted_k_type(spec: FamilyInstance) -> KType:
    """predicted_k_type of a spec that validate_family(strict=True) passed."""
    if spec.family in (1, 2, 6, 7):
        return KType.ANTI_CANONICAL_AMPLE
    t = trivial_threshold(spec.A, spec.n)
    if spec.family == 3:
        if spec.l < t:
            return KType.ANTI_CANONICAL_AMPLE
        if spec.l == t:
            return KType.NUMERICALLY_TRIVIAL
        return KType.CANONICAL_AMPLE
    if spec.family == 4:
        if spec.l < t - 1:
            return KType.ANTI_CANONICAL_AMPLE
        if spec.l == t - 1 and len(spec.b) == 1:
            return KType.NUMERICALLY_TRIVIAL
        return KType.CANONICAL_AMPLE
    # family (5): the trivial value is unreachable, the split is two-way
    if spec.l < t - 1:
        return KType.ANTI_CANONICAL_AMPLE
    return KType.CANONICAL_AMPLE


# -- recognizer ----------------------------------------------------------------


# The recognizer reads the compact form: an arm is a list of pieces (weight,
# ids), one per core vertex and one per (-2)-run, so a run of any length is
# one piece and only the short twigs it compares are expanded.  C weighs -1
# or 0 wherever an arm is walked, so it is a core vertex of its own piece.


def _walk(g: DualGraph, frm: int, far: int | None, run):
    """The arm leaving core vertex frm through its link (far, run), stopping
    before any branch vertex.

    Returns (arm, branch) where branch is the degree->=3 vertex the walk hit,
    or None if the arm ended at a leaf (the leaf is included in arm).
    """
    links = g.core_links()
    arm = []
    while True:
        if run:
            arm.append((-2, run))
        if far is None:
            return arm, None
        ends = links[far]
        if len(ends) >= 3:
            return arm, far
        arm.append((g.weight(far), (far,)))
        if len(ends) == 1:
            return arm, None
        (w1, r1), (w2, r2) = ends
        frm, (far, run) = far, ((w2, r2) if w1 == frm else (w1, r1))


def _arms(g: DualGraph, v: int):
    """The walks out of core vertex v, in the order of its neighbors."""
    ends = sorted(g.core_links()[v], key=link_neighbor)
    return [_walk(g, v, far, run) for far, run in ends]


def _size(arm) -> int:
    return sum(len(ids) for _, ids in arm)


def _twig_of(arm) -> Twig | None:
    """arm as a positive twig, or None if any weight is above -2."""
    if any(w > -2 for w, _ in arm):
        return None
    return tuple(chain.from_iterable((-w,) * len(ids) for w, ids in arm))


def _lead_run(arm):
    """The number of (-2)-entries arm starts with, and the rest of arm."""
    k = 0
    while k < len(arm) and arm[k][0] == -2:
        k += 1
    return _size(arm[:k]), arm[k:]


def _without_last(arm):
    """arm with its last vertex removed."""
    w, ids = arm[-1]
    return arm[:-1] + [(w, ids[:-1])] if len(ids) > 1 else arm[:-1]


def _match_side_arms(arms):
    """Identify (A, n) from two outward arms, one being adjoint(A).

    Each candidate reading takes one arm as a_r..a_1,(-n) and the other as
    A*.  Returns (A, n) or a failure reason.
    """
    reasons = []
    for cap_arm, star_arm in (arms, tuple(reversed(arms))):
        if _size(cap_arm) < 2:
            reasons.append("unrecognized shape")
            continue
        n = -cap_arm[-1][0]
        if n < 2:
            reasons.append("n >= 2 violated")
            continue
        a = _twig_of(_without_last(cap_arm))
        star = _twig_of(star_arm)
        if a is None or star is None:
            reasons.append("A must be a nonempty admissible twig")
            continue
        a = tuple(reversed(a))
        if adjoint(a) != star:
            reasons.append("adjoint mismatch")
            continue
        return (a, n), None
    return None, reasons[0]


def _parse_family_1(g):
    if len(g) != 2 or g.weight(g.c) != 0 or g.degree(g.c) != 1:
        return None, "unrecognized shape"
    (other,) = g.neighbors(g.c)
    n = -g.weight(other)
    if n < 2:
        return None, "n >= 2 violated"
    return FamilyInstance(family=1, n=n), None


def _parse_family_2(g):
    """Only asked of graphs without branch vertices."""
    if g.weight(g.c) != -1 or g.degree(g.c) != 2:
        return None, "unrecognized shape"
    result, reason = _match_side_arms(tuple(arm for arm, _ in _arms(g, g.c)))
    if result is None:
        return None, reason
    a, n = result
    return FamilyInstance(family=2, A=a, n=n), None


def _parse_one_branch(g, center):
    """Families (3), (4) (center weight -2) and (6) (center -b_1 <= -3).
    Only asked of trees whose one branch vertex is center."""
    if g.degree(center) != 3:
        return None, "unrecognized shape"
    arms = [arm for arm, _ in _arms(g, center)]
    c_piece = (g.weight(g.c), (g.c,))
    with_c = [i for i, arm in enumerate(arms) if c_piece in arm]
    if len(with_c) != 1:
        return None, "unrecognized shape"
    c_arm = arms.pop(with_c[0])
    pos = c_arm.index(c_piece)
    result, reason = _match_side_arms(tuple(arms))
    if result is None:
        return None, reason
    return _read_c_arm(g, *result, center, c_arm[:pos], c_arm[pos + 1 :])


def _parse_two_branch(g, branches):
    """Families (5) (center -2) and (7) (center -b_1): C hangs off w, the
    one branch vertex next to C; the other one is the center.  Only asked of
    trees with exactly these two branch vertices."""
    touching = [v for v in branches if g.has_edge(v, g.c)]
    if len(touching) != 1 or any(g.degree(v) != 3 for v in branches):
        return None, "unrecognized shape"
    (w,) = touching
    center = next(v for v in branches if v != w)
    m = -g.weight(w) - 2
    if m < 0:
        return None, "m >= 0 violated"
    # C: one side is w, the optional other side is the m-tail
    tail_sides = [
        (far, run) for far, run in g.core_links()[g.c] if run or far != w
    ]
    if len(tail_sides) > 1:
        return None, "unrecognized shape"
    if tail_sides:
        tail, branch = _walk(g, g.c, *tail_sides[0])
        if branch is not None or any(wt != -2 for wt, _ in tail):
            return None, "unrecognized shape"
        tail_len = _size(tail)
    else:
        tail_len = 0
    if tail_len != m:
        return None, "m tail mismatch"
    # w's arms besides C: the spine ends at the center, uB* at a leaf
    walks = {}
    for far, run in g.core_links()[w]:
        if run or far != g.c:
            arm, branch = _walk(g, w, far, run)
            walks[branch] = arm
    spine = walks[center][::-1]  # walked from w; flip to read center-outward
    ustar_arm = walks[None]
    # in a tree with two branch vertices, the center's third arm leads to w
    side_arms = tuple(arm for arm, branch in _arms(g, center) if branch is None)
    result, reason = _match_side_arms(side_arms)
    if result is None:
        return None, reason
    return _read_c_arm(g, *result, center, spine, ustar_arm, m)


def _read_c_arm(g, a, n, center, spine, ustar_arm, m=None):
    """Families (3)-(7) once (A, n) is read, from the C-arm: spine runs from
    the center to C or w, and ustar_arm is what hangs beyond them.  A (-2)
    center takes the lead run l and then b, which (3) leaves empty with
    nothing beyond C; any other center carries b_1.  Then uB* is matched
    against ustar_arm, and l against its bound."""
    l = b = None
    if g.weight(center) == -2:
        l, spine = _lead_run(spine)
        if spine:
            b = _twig_of(spine)
            if b is None or b[0] < 3:
                return None, "b_1 >= 3 violated"
        elif ustar_arm:
            return None, "unrecognized shape"
    else:
        b1 = -g.weight(center)
        if b1 < 3:
            return None, "b_1 >= 3 violated"
        rest = _twig_of(spine)
        if rest is None:
            return None, "b must be a nonempty admissible twig"
        b = (b1,) + rest
    if b is not None and _twig_of(ustar_arm) != _u_bstar(b):
        return None, "adjoint mismatch"
    if l is not None:
        bound = l_bound(a, n)
        if l > bound:
            return None, f"l out of range: 0 <= l <= {bound}, got {l}"
    family = 3 if b is None else (4 if l is not None else 6) + (m is not None)
    return FamilyInstance(family=family, A=a, n=n, l=l, b=b, m=m), None


def classify_family_all(g: DualGraph) -> tuple[list[FamilyInstance], str]:
    """The family reading of g as a list of at most one, plus the
    recognizer's reason when there is none.  The shape selects one parser;
    without a branch vertex, family (1) needs C to weigh 0 and (2) needs -1,
    so at most one of them reads g, and (1)'s reason counts unless it is
    "unrecognized shape"."""
    if g.c is None:
        return [], "no C-marked vertex"
    if not is_tree(g):
        return [], "not a tree"
    # run vertices have degree 1 or 2, so branch vertices are core
    branches = sorted(
        v for v, ends in g.core_links().items() if len(ends) >= 3
    )
    if not branches:
        spec, reason = _parse_family_1(g)
        if reason == "unrecognized shape":
            spec, reason = _parse_family_2(g)
    elif len(branches) > 2:
        spec, reason = None, "unrecognized shape"
    elif g.weight(g.c) != -1:
        spec, reason = None, "C weight not -1"
    elif len(branches) == 1:
        spec, reason = _parse_one_branch(g, branches[0])
    else:
        spec, reason = _parse_two_branch(g, branches)
    return ([spec], "") if spec is not None else ([], reason)


def classify_family(g: DualGraph) -> FamilyInstance | NotInList:
    """The family reading of g, or NotInList."""
    matches, reason = classify_family_all(g)
    if matches:
        return matches[0]
    return NotInList(reason)

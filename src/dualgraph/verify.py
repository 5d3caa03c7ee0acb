"""Exhaustive verification suites over enumerated family instances.

Each suite sweeps a deterministic instance stream drawn from a Budget and
returns a JSON-ready report: instance and check counts plus a list of
counterexamples (empty on a healthy build).  Reports are byte-stable across
runs: streams iterate in sorted order, nothing records times or hosts, and
all arithmetic is exact.

The heavy sweeps confine themselves to representative twig sets where a full
cross product would take minutes; every theorem branch and every threshold
neighborhood is still hit exactly, and small parameter pockets are swept in
full.  The per-suite docstrings say which trims apply.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

from .canonical import KType, _c_pairing, k_type_report
from .errors import DomainError
from .families import (
    FamilyInstance,
    build_family,
    figure1_graph,
    _predicted_k_type,
    l_bound,
    trivial_threshold,
)
from .graphs import (
    DualGraph,
    blow_down,
    contract_all,
    graph_d,
    is_negative_definite,
    isomorphic,
    shape_report,
    signed_determinant,
)
from .twigs import (
    Twig,
    adjoint,
    format_twig,
    inductance,
    twig_determinant,
    twig_from_inductance,
)


@dataclass(frozen=True)
class Budget:
    """Instance-stream caps; the defaults are the documented full budget."""

    max_det: int = 12
    max_len: int = 6
    max_n: int = 5
    max_m: int = 4
    max_b_len: int = 3
    max_b_weight: int = 6

    def to_json_dict(self) -> dict:
        return asdict(self)


def enumerate_admissible_twigs(max_len: int, max_weight: int) -> Iterator[Twig]:
    """All admissible twigs within the caps, in lexicographic order."""
    return _twigs(max_len, max_weight)


def _twigs(
    max_len: int, max_weight: int, max_det: int | None = None, prefix: Twig = ()
) -> Iterator[Twig]:
    """The admissible twigs extending prefix within the caps (and with
    determinant at most max_det), preorder lexicographic.  Appending a weight
    strictly increases the determinant, so pruning at max_det is exact."""
    if len(prefix) >= max_len:
        return
    for a in range(2, max_weight + 1):
        t = prefix + (a,)
        if max_det is None or twig_determinant(t) <= max_det:
            yield t
            yield from _twigs(max_len, max_weight, max_det, t)


def _grid(budget: Budget) -> Iterator[tuple[Twig, int]]:
    """Every (A, n) of the budget's box, A the outer loop: the admissible
    twigs A with determinant at most max_det, and 2 <= n <= max_n."""
    for a in _twigs(budget.max_len, budget.max_det, budget.max_det):
        for n in range(2, budget.max_n + 1):
            yield a, n


def _b_twigs(budget: Budget) -> list[Twig]:
    return [
        b
        for b in enumerate_admissible_twigs(
            budget.max_b_len, budget.max_b_weight
        )
        if b[0] >= 3
    ]


def _b_reps(budget: Budget, reps: tuple[Twig, ...]) -> list[Twig]:
    return [
        b
        for b in reps
        if len(b) <= budget.max_b_len
        and all(w <= budget.max_b_weight for w in b)
    ]


def _spec_key(spec: FamilyInstance) -> str:
    return json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"))


class _Run:
    """Instance and check counts plus failure records.  A record's instance
    key and detail are built only when its check fails: a passing check
    formats nothing."""

    def __init__(self, suite: str, budget_doc: dict):
        self.suite = suite
        self.budget_doc = budget_doc
        self.instances = 0
        self.checks = 0
        self.failures: list[dict] = []
        self._key: Callable[[object], str] = str
        self._subject: object = None

    def instance(self, key: Callable[[object], str], subject: object) -> None:
        """Start the next instance; key(subject) is its key in a record."""
        self.instances += 1
        self._key = key
        self._subject = subject

    def check(
        self, ok: bool, name: str, detail: str | Callable[[], str] = ""
    ) -> None:
        """Count one check of the current instance; detail, a string or a
        function that formats one, is read only if ok is false."""
        self.checks += 1
        if not ok:
            self.failures.append(
                {
                    "check": name,
                    "instance": self._key(self._subject),
                    "detail": detail if isinstance(detail, str) else detail(),
                }
            )

    def report(self) -> dict:
        return {
            "suite": self.suite,
            "budget": self.budget_doc,
            "instances": self.instances,
            "checks": self.checks,
            "failures": self.failures,
            "pass": not self.failures,
        }


# -- twig identity suite -------------------------------------------------------


def verify_fujita_suite(
    max_len: int = 6,
    max_weight: int = 6,
    adjoint_fn: Callable[[Twig], Twig] = adjoint,
) -> dict:
    """Splice identity, adjoint determinants, and both bijection round trips
    over every admissible twig in the box.  adjoint_fn is injectable so the
    suite itself can be shown to catch a wrong adjoint."""
    run = _Run(
        "fujita", {"max_len": max_len, "max_weight": max_weight}
    )
    for t in enumerate_admissible_twigs(max_len, max_weight):
        run.instance(format_twig, t)
        d = twig_determinant(t)
        d_ov = twig_determinant(t[1:])
        d_ul = twig_determinant(t[:-1])
        mid = 0 if len(t) == 1 else twig_determinant(t[1:-1])
        splice = d_ov * d_ul - d * mid
        run.check(
            splice == 1,
            "splice-identity",
            lambda: f"d_ov*d_ul - d*mid = {splice}",
        )
        star = adjoint_fn(t)
        run.check(
            twig_determinant(star) == d
            and twig_determinant(star[1:]) == d - d_ul,
            "adjoint-determinants",
            lambda: f"adjoint {format_twig(star)}",
        )
        back = adjoint_fn(star)
        run.check(
            back == t,
            "adjoint-involution",
            lambda: f"double adjoint {format_twig(back)}",
        )
        run.check(
            twig_from_inductance(inductance(t)) == t, "inductance-round-trip"
        )
    return run.report()


# -- contractibility threshold suite -------------------------------------------

_THRESHOLD_B4 = ((3,), (4, 2))
_THRESHOLD_B5 = ((3,),)


def verify_threshold_suite(
    budget: Budget = Budget(),
    negdef_fn: Callable[[DualGraph], bool] = is_negative_definite,
) -> dict:
    """Families (3), (4), (5): the boundary minus C is negative definite
    exactly when the run length stays within the closed-form bound.  The run
    length sweeps the entire range through bound+2 for every (A, n); families
    (4) and (5) use fixed small b (and m) representatives."""
    run = _Run("threshold", budget.to_json_dict())
    b4 = _b_reps(budget, _THRESHOLD_B4)
    b5 = _b_reps(budget, _THRESHOLD_B5)
    ms = sorted({0, min(1, budget.max_m)})
    for a, n in _grid(budget):
        bound = l_bound(a, n)
        shapes = [(3, None, None)] + [(4, b, None) for b in b4]
        shapes += [(5, b, m) for b in b5 for m in ms]
        for family, b, m in shapes:
            for l in range(0, bound + 3):
                spec = FamilyInstance(family=family, A=a, n=n, l=l, b=b, m=m)
                run.instance(_spec_key, spec)
                g = build_family(spec, strict=False)
                got = negdef_fn(g.minus_c())
                run.check(
                    got == (l <= bound),
                    "negdef-iff-run-bound",
                    lambda: f"bound {bound}, negdef {got}",
                )
    return run.report()


# -- trichotomy suite -----------------------------------------------------------

_TRI_B4 = ((3,), (4, 2), (3, 3))
_TRI_B5 = ((3,), (4, 2))
_FULL_POCKETS = (((2,), 2), ((3,), 2))


def _run_lengths(bound: int, thresholds: tuple[int, ...]) -> list[int]:
    vals = set(range(0, min(bound, 40) + 1))
    for t in thresholds + (bound,):
        vals.update(range(t - 2, t + 3))
    return sorted(v for v in vals if 0 <= v <= bound)


def _figure(spec: FamilyInstance) -> tuple[Twig, int, int] | None:
    """(A, m, n) of the figure graph when spec has the figure shape: family
    (3) at l = t, or (4) with b = (m + 2,) at l = t - 1; else None."""
    if spec.family == 3 and spec.l == trivial_threshold(spec.A, spec.n):
        return spec.A, 0, spec.n
    if spec.family == 4 and len(spec.b) == 1:
        if spec.l == trivial_threshold(spec.A, spec.n) - 1:
            return spec.A, spec.b[0] - 2, spec.n
    return None


def verify_trichotomy_suite(
    budget: Budget = Budget(),
    report_fn: Callable[[DualGraph], tuple[KType, object]] = k_type_report,
) -> dict:
    """The closed-form type table against the adjunction solver, for every
    instance in the stream, plus: the numerically trivial instances are
    exactly the figure shapes, carry pairing exactly 1, and are isomorphic to
    the directly assembled figure graph.

    Streams: families (2), (6) over the full grid; (7) full over b of length
    <= 2 plus the longer-b pocket at (A,n)=([2],2); (3), (4), (5) sweep run
    lengths through [0, min(bound, 40)] plus every value within 2 of the type
    thresholds and of the bound, with b and m representatives (full b grids
    at two pinned (A,n) pockets).
    """
    run = _Run("trichotomy", budget.to_json_dict())
    all_b = _b_twigs(budget)
    b4 = _b_reps(budget, _TRI_B4)
    b5 = _b_reps(budget, _TRI_B5)
    ms = sorted({m for m in (0, 1, 2, budget.max_m) if m <= budget.max_m})

    def stream() -> Iterator[FamilyInstance]:
        for a, n in _grid(budget):
            pocket = (a, n) in _FULL_POCKETS
            yield FamilyInstance(family=2, A=a, n=n)
            bound = l_bound(a, n)
            t = trivial_threshold(a, n)
            for l in _run_lengths(bound, (t, t - 1)):
                yield FamilyInstance(family=3, A=a, n=n, l=l)
                for b in (all_b if pocket else b4):
                    yield FamilyInstance(family=4, A=a, n=n, l=l, b=b)
                for b in (all_b if pocket else b5):
                    for m in ms:
                        yield FamilyInstance(family=5, A=a, n=n, l=l, b=b, m=m)
            for b in all_b:
                yield FamilyInstance(family=6, A=a, n=n, b=b)
                if len(b) <= 2 or pocket:
                    for m in ms:
                        yield FamilyInstance(family=7, A=a, n=n, b=b, m=m)

    for spec in stream():
        run.instance(_spec_key, spec)
        g = build_family(spec)  # validates spec for _predicted_k_type
        kt, pairing = report_fn(g)
        run.check(
            kt is _predicted_k_type(spec),
            "predicted-matches-computed",
            lambda: f"computed {kt.value}, pairing {pairing}",
        )
        figure = _figure(spec)
        run.check(
            (kt is KType.NUMERICALLY_TRIVIAL) == (figure is not None),
            "trivial-iff-figure-shape",
            lambda: f"computed {kt.value}",
        )
        if kt is KType.NUMERICALLY_TRIVIAL:
            run.check(pairing == 1, "trivial-pairing-one", lambda: str(pairing))
            if figure is not None:
                run.check(
                    isomorphic(g, figure1_graph(*figure)),
                    "trivial-matches-figure-graph",
                )
    return run.report()


# -- boundary axioms suite -------------------------------------------------------

_AX_B = ((3,), (4, 2), (3, 3))
# one frozen witness per shape class: spec, instance key, check name, and
# what its two off-C components are (C has degree 2)
_WITNESSES = (
    (FamilyInstance(family=2, A=(3,), n=2),
     "family=2 A=[3] n=2", "spot-chain-shape",
     lambda comps: all(c.kind == "chain" for c in comps)),
    (FamilyInstance(family=4, A=(2,), n=2, l=1, b=(3,)),
     "family=4 A=[2] n=2 l=1 b=[3]", "spot-one-branch-shape",
     lambda comps: sorted(c.kind for c in comps) == ["chain", "star"]),
    (FamilyInstance(family=5, A=(2,), n=2, l=0, b=(3,), m=1),
     "family=5 A=[2] n=2 l=0 b=[3] m=1", "spot-two-branch-shape",
     lambda comps: min(len(c.vertices) for c in comps) == 1),
)


def verify_boundary_axioms_suite(budget: Budget = Budget()) -> dict:
    """Structural laws every built instance must satisfy: determinant -1 (and
    its sign-convention mirror), tree shape, C of the right weight and degree,
    and at most two chain-or-star components once C is removed.  Includes one
    frozen spot check per shape class."""
    run = _Run("axioms", budget.to_json_dict())
    all_b = _b_twigs(budget)
    b_reps = _b_reps(budget, _AX_B)
    ms = sorted({m for m in (0, 1, budget.max_m) if m <= budget.max_m})

    def stream() -> Iterator[FamilyInstance]:
        for n in range(2, budget.max_n + 1):
            yield FamilyInstance(family=1, n=n)
        for a, n in _grid(budget):
            yield FamilyInstance(family=2, A=a, n=n)
            bound = l_bound(a, n)
            lset = sorted({0, 1, bound // 2, bound})
            for l in lset:
                yield FamilyInstance(family=3, A=a, n=n, l=l)
            for b in b_reps:
                for l in (0, bound):
                    yield FamilyInstance(family=4, A=a, n=n, l=l, b=b)
                    for m in ms:
                        yield FamilyInstance(family=5, A=a, n=n, l=l, b=b, m=m)
            for b in all_b:
                yield FamilyInstance(family=6, A=a, n=n, b=b)
                for m in ms:
                    yield FamilyInstance(family=7, A=a, n=n, b=b, m=m)

    for spec in stream():
        run.instance(_spec_key, spec)
        g = build_family(spec)
        d = graph_d(g)
        run.check(d == -1, "determinant-minus-one", lambda: str(d))
        signed = signed_determinant(g)
        run.check(
            signed == (-1) ** (len(g) - 1),
            "signed-determinant-parity",
            lambda: str(signed),
        )
        shape = shape_report(g)
        run.check(shape.is_tree, "tree")
        c_weight = g.weight(g.c)
        want_c = 0 if spec.family == 1 else -1
        run.check(c_weight == want_c, "c-weight", lambda: str(c_weight))
        run.check(shape.c_degree <= 2, "c-degree", lambda: str(shape.c_degree))
        comps = shape.components
        run.check(
            len(comps) <= 2
            and all(comp.kind in ("chain", "star") for comp in comps),
            "off-c-shape",
            lambda: ";".join(comp.kind for comp in comps),
        )

    for spec, key, name, shaped in _WITNESSES:
        sr = shape_report(build_family(spec))
        run.instance(str, key)
        run.check(
            sr.c_degree == 2 and len(sr.components) == 2 and shaped(sr.components),
            name,
        )
    return run.report()


# -- contraction / transition suite ----------------------------------------------

_CT_B = ((3,), (4, 2), (3, 3), (5,))


def _qualifies(g: DualGraph, c: int) -> bool:
    nbrs = g.neighbors(c)
    if len(nbrs) != 2:
        return False
    ws = sorted(g.weight(v) for v in nbrs)
    return ws[1] == -2 and ws[0] <= -3


def _f_move(g: DualGraph, blow_fn) -> DualGraph | None:
    """Blow down C and re-mark the old (-2)-neighbor; None if not unique."""
    c = g.c
    two = [v for v in g.neighbors(c) if g.weight(v) == -2]
    if len(two) != 1:
        return None
    return blow_fn(g, c).with_mark(two[0])


def _pairing_of(g: DualGraph):
    """C-pairing against the adjoint divisor of the off-C part, or None when
    that divisor does not exist (so a corrupted move is reported, not raised).
    """
    try:
        return _c_pairing(g)[0]
    except DomainError:
        return None


def verify_contraction_suite(
    budget: Budget = Budget(),
    blow_fn: Callable[[DualGraph, int], DualGraph] = blow_down,
) -> dict:
    """Contraction moves on instances where C sits between a (-2) and a
    weight <= -3 vertex: blowing C down (and re-marking the old (-2) vertex)
    preserves negative definiteness of the boundary-minus-C in both truth
    directions (over-bound variants supply the false side), the C-pairing
    moves across 1 only in the allowed direction, and when the first move
    reconnects the off-C boundary a second move is available and obeys the
    same laws.  Also: contract_all keeps the determinant at -1 on every
    instance.  blow_fn is injectable so a corrupted move is caught."""
    run = _Run("contraction", budget.to_json_dict())
    b_reps = _b_reps(budget, _CT_B)
    ms = sorted({m for m in (1, 2, budget.max_m) if 1 <= m <= budget.max_m})

    def stream() -> Iterator[tuple[FamilyInstance, bool]]:
        for a, n in _grid(budget):
            yield FamilyInstance(family=2, A=a, n=n), True
            bound = l_bound(a, n)
            for b in b_reps:
                for l in sorted({0, 1, bound, bound + 1, bound + 2}):
                    valid = l <= bound
                    yield FamilyInstance(family=4, A=a, n=n, l=l, b=b), valid
                    for m in ms:
                        yield FamilyInstance(family=5, A=a, n=n, l=l, b=b, m=m), valid
            for b in b_reps:
                yield FamilyInstance(family=6, A=a, n=n, b=b), True
                for m in ms:
                    yield FamilyInstance(family=7, A=a, n=n, b=b, m=m), True

    for spec, valid in stream():
        g = build_family(spec, strict=False)
        if not _qualifies(g, g.c):
            continue
        run.instance(_spec_key, spec)
        neg = is_negative_definite(g.minus_c())
        run.check(
            neg == valid,
            "valid-iff-negdef",
            lambda: f"negdef {neg}, in-bound {valid}",
        )
        g1 = _f_move(g, blow_fn)
        run.check(g1 is not None, "c-prime-unique")
        if g1 is None:
            continue
        d_contracted = graph_d(contract_all(g))
        run.check(
            d_contracted == -1,
            "contract-all-determinant",
            lambda: str(d_contracted),
        )
        # the two ends next to C: v_deep carries weight <= -3, v_two is the
        # (-2) side; the equivalences below only apply when the relevant
        # side continues past its end vertex
        v_two, v_deep = sorted(g.neighbors(g.c), key=lambda v: -g.weight(v))
        deep_alone = g.degree(v_deep) == 1
        two_alone = g.degree(v_two) == 1
        if not deep_alone and not two_alone:
            neg1 = is_negative_definite(g1.minus_c())
            run.check(
                neg1 == neg,
                "f-negdef-iff",
                lambda: f"before {neg}, after {neg1}",
            )
        g2 = None
        if two_alone and g.weight(v_deep) == -3:
            g2 = _f_move(g1, blow_fn)
            run.check(g2 is not None, "c-second-unique")
            if g2 is not None and not deep_alone:
                neg2 = is_negative_definite(g2.minus_c())
                run.check(
                    neg2 == neg,
                    "g-negdef-iff",
                    lambda: f"before {neg}, after {neg2}",
                )
        # pairing transitions need a contractible instance whose off-C part
        # has a branch vertex
        # run vertices have degree 1 or 2, so a branch vertex is core
        branching = any(len(e) >= 3 for e in g.minus_c().core_links().values())
        if not neg or not branching:
            continue
        p = _pairing_of(g)
        clause1 = (
            len(shape_report(g).components) <= 1
            or len(shape_report(g1).components) >= 2
        )
        if clause1:
            p1 = _pairing_of(g1)
            if p is None or p1 is None:
                run.check(False, "f-pairing-transition", "pairing undefined")
            else:
                if p > 1:
                    ok, law = p1 >= 1, "p>1 -> p' >= 1"
                elif p == 1:
                    ok, law = p1 <= 1, "p=1 -> p' <= 1"
                else:
                    ok, law = p1 < 1, "p<1 -> p' < 1"
                run.check(ok, "f-pairing-transition", lambda: f"{law}: {p} -> {p1}")
        else:
            p2 = _pairing_of(g2) if g2 is not None else None
            if p is None or p2 is None:
                run.check(False, "g-pairing-transition", "pairing undefined")
            else:
                if p > 1:
                    ok, law = p2 >= 1, "p>1 -> p'' >= 1"
                else:
                    ok, law = p2 < 1, "p<=1 -> p'' < 1"
                run.check(ok, "g-pairing-transition", lambda: f"{law}: {p} -> {p2}")
    return run.report()


# -- combined runner -------------------------------------------------------------

# each suite by name, in report order
_SUITES: dict[str, Callable[[Budget], dict]] = {
    "fujita": lambda budget: verify_fujita_suite(budget.max_len, budget.max_b_weight),
    "threshold": verify_threshold_suite,
    "trichotomy": verify_trichotomy_suite,
    "axioms": verify_boundary_axioms_suite,
    "contraction": verify_contraction_suite,
}
SUITES = tuple(_SUITES)


def verify_suite(name: str, budget: Budget = Budget()) -> dict:
    """Run one named suite under the budget (fujita takes its caps from
    max_len and max_b_weight)."""
    try:
        suite = _SUITES[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be hashed
        raise DomainError(f"unknown suite {name!r}") from None
    return suite(budget)


def verify_all(budget: Budget = Budget()) -> dict:
    """All five suites; passes only if each sub-report passes."""
    suites = {name: verify_suite(name, budget) for name in SUITES}
    return {
        "budget": budget.to_json_dict(),
        "suites": suites,
        "pass": all(r["pass"] for r in suites.values()),
    }

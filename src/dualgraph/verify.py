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
    l_bound,
    predicted_k_type,
    trivial_threshold,
)
from .graphs import (
    DualGraph,
    blow_down,
    contract_all,
    graph_d,
    is_negative_definite,
    is_tree,
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

    def rec(prefix: Twig) -> Iterator[Twig]:
        if len(prefix) >= max_len:
            return
        for a in range(2, max_weight + 1):
            t = prefix + (a,)
            yield t
            yield from rec(t)

    yield from rec(())


def _twigs_by_determinant(max_det: int, max_len: int) -> list[Twig]:
    """Admissible twigs with determinant and length caps, lexicographic.

    Appending a weight strictly increases the determinant, so pruning at the
    cap is exact.
    """
    out: list[Twig] = []

    def rec(prefix: Twig):
        if len(prefix) >= max_len:
            return
        for a in range(2, max_det + 1):
            t = prefix + (a,)
            if twig_determinant(t) <= max_det:
                out.append(t)
                rec(t)

    rec(())
    return out


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
    def __init__(self, suite: str, budget_doc: dict):
        self.suite = suite
        self.budget_doc = budget_doc
        self.instances = 0
        self.checks = 0
        self.failures: list[dict] = []

    def check(self, ok: bool, name: str, instance: str, detail: str = ""):
        self.checks += 1
        if not ok:
            self.failures.append(
                {"check": name, "instance": instance, "detail": detail}
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
        run.instances += 1
        key = format_twig(t)
        d = twig_determinant(t)
        d_ov = twig_determinant(t[1:])
        d_ul = twig_determinant(t[:-1])
        mid = 0 if len(t) == 1 else twig_determinant(t[1:-1])
        run.check(
            d_ov * d_ul - d * mid == 1,
            "splice-identity",
            key,
            f"d_ov*d_ul - d*mid = {d_ov * d_ul - d * mid}",
        )
        star = adjoint_fn(t)
        run.check(
            twig_determinant(star) == d
            and twig_determinant(star[1:]) == d - d_ul,
            "adjoint-determinants",
            key,
            f"adjoint {format_twig(star)}",
        )
        run.check(
            adjoint_fn(star) == t,
            "adjoint-involution",
            key,
            f"double adjoint {format_twig(adjoint_fn(star))}",
        )
        run.check(
            twig_from_inductance(inductance(t)) == t,
            "inductance-round-trip",
            key,
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
    twigs = _twigs_by_determinant(budget.max_det, budget.max_len)
    b4 = _b_reps(budget, _THRESHOLD_B4)
    b5 = _b_reps(budget, _THRESHOLD_B5)
    ms = sorted({0, min(1, budget.max_m)})
    for a in twigs:
        for n in range(2, budget.max_n + 1):
            bound = l_bound(a, n)
            shapes: list[FamilyInstance] = [FamilyInstance(family=3, A=a, n=n)]
            shapes += [FamilyInstance(family=4, A=a, n=n, b=b) for b in b4]
            shapes += [
                FamilyInstance(family=5, A=a, n=n, b=b, m=m)
                for b in b5
                for m in ms
            ]
            for shape in shapes:
                for l in range(0, bound + 3):
                    spec = FamilyInstance(
                        family=shape.family, A=a, n=n, l=l, b=shape.b,
                        m=shape.m,
                    )
                    run.instances += 1
                    g = build_family(spec, strict=False)
                    got = negdef_fn(g.minus_c())
                    want = l <= bound
                    run.check(
                        got == want,
                        "negdef-iff-run-bound",
                        _spec_key(spec),
                        f"bound {bound}, negdef {got}",
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


def _is_figure_shape(spec: FamilyInstance) -> bool:
    t = trivial_threshold(spec.A, spec.n)
    if spec.family == 3:
        return spec.l == t
    if spec.family == 4:
        return len(spec.b) == 1 and spec.l == t - 1
    return False


def _figure_params(spec: FamilyInstance) -> tuple[Twig, int, int]:
    m = 0 if spec.family == 3 else spec.b[0] - 2
    return spec.A, m, spec.n


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
    twigs = _twigs_by_determinant(budget.max_det, budget.max_len)
    all_b = _b_twigs(budget)
    b4 = _b_reps(budget, _TRI_B4)
    b5 = _b_reps(budget, _TRI_B5)
    ms = sorted({m for m in (0, 1, 2, budget.max_m) if m <= budget.max_m})

    def stream() -> Iterator[FamilyInstance]:
        for a in twigs:
            for n in range(2, budget.max_n + 1):
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
                            yield FamilyInstance(
                                family=5, A=a, n=n, l=l, b=b, m=m
                            )
                for b in all_b:
                    yield FamilyInstance(family=6, A=a, n=n, b=b)
                    if len(b) <= 2 or pocket:
                        for m in ms:
                            yield FamilyInstance(family=7, A=a, n=n, b=b, m=m)

    for spec in stream():
        run.instances += 1
        key = _spec_key(spec)
        g = build_family(spec)
        kt, pairing = report_fn(g)
        run.check(
            kt is predicted_k_type(spec),
            "predicted-matches-computed",
            key,
            f"computed {kt.value}, pairing {pairing}",
        )
        figure = _is_figure_shape(spec)
        run.check(
            (kt is KType.NUMERICALLY_TRIVIAL) == figure,
            "trivial-iff-figure-shape",
            key,
            f"computed {kt.value}",
        )
        if kt is KType.NUMERICALLY_TRIVIAL:
            run.check(pairing == 1, "trivial-pairing-one", key, str(pairing))
            if figure:
                fa, fm, fn = _figure_params(spec)
                run.check(
                    isomorphic(g, figure1_graph(fa, fm, fn)),
                    "trivial-matches-figure-graph",
                    key,
                )
    return run.report()


# -- boundary axioms suite -------------------------------------------------------

_AX_B = ((3,), (4, 2), (3, 3))


def verify_boundary_axioms_suite(budget: Budget = Budget()) -> dict:
    """Structural laws every built instance must satisfy: determinant -1 (and
    its sign-convention mirror), tree shape, C of the right weight and degree,
    and at most two chain-or-star components once C is removed.  Includes one
    frozen spot check per shape class."""
    run = _Run("axioms", budget.to_json_dict())
    twigs = _twigs_by_determinant(budget.max_det, budget.max_len)
    all_b = _b_twigs(budget)
    b_reps = _b_reps(budget, _AX_B)
    ms = sorted({m for m in (0, 1, budget.max_m) if m <= budget.max_m})

    def stream() -> Iterator[FamilyInstance]:
        for n in range(2, budget.max_n + 1):
            yield FamilyInstance(family=1, n=n)
        for a in twigs:
            for n in range(2, budget.max_n + 1):
                yield FamilyInstance(family=2, A=a, n=n)
                bound = l_bound(a, n)
                lset = sorted({0, 1, bound // 2, bound})
                for l in lset:
                    yield FamilyInstance(family=3, A=a, n=n, l=l)
                for b in b_reps:
                    for l in (0, bound):
                        yield FamilyInstance(family=4, A=a, n=n, l=l, b=b)
                        for m in ms:
                            yield FamilyInstance(
                                family=5, A=a, n=n, l=l, b=b, m=m
                            )
                for b in all_b:
                    yield FamilyInstance(family=6, A=a, n=n, b=b)
                    for m in ms:
                        yield FamilyInstance(family=7, A=a, n=n, b=b, m=m)

    for spec in stream():
        run.instances += 1
        key = _spec_key(spec)
        g = build_family(spec)
        run.check(graph_d(g) == -1, "determinant-minus-one", key, str(graph_d(g)))
        run.check(
            signed_determinant(g) == (-1) ** (len(g) - 1),
            "signed-determinant-parity",
            key,
            str(signed_determinant(g)),
        )
        run.check(is_tree(g), "tree", key)
        want_c = 0 if spec.family == 1 else -1
        run.check(g.weight(g.c) == want_c, "c-weight", key, str(g.weight(g.c)))
        run.check(g.degree(g.c) <= 2, "c-degree", key, str(g.degree(g.c)))
        sr = shape_report(g)
        run.check(
            len(sr.components) <= 2
            and all(comp.kind in ("chain", "star") for comp in sr.components),
            "off-c-shape",
            key,
            ";".join(comp.kind for comp in sr.components),
        )

    # one frozen witness per shape class
    chain = build_family(FamilyInstance(family=2, A=(3,), n=2))
    sr = shape_report(chain)
    run.instances += 1
    run.check(
        sr.c_degree == 2
        and len(sr.components) == 2
        and all(c.kind == "chain" for c in sr.components),
        "spot-chain-shape",
        "family=2 A=[3] n=2",
    )
    star = build_family(FamilyInstance(family=4, A=(2,), n=2, l=1, b=(3,)))
    sr = shape_report(star)
    run.instances += 1
    run.check(
        sr.c_degree == 2
        and len(sr.components) == 2
        and sorted(c.kind for c in sr.components) == ["chain", "star"],
        "spot-one-branch-shape",
        "family=4 A=[2] n=2 l=1 b=[3]",
    )
    double = build_family(FamilyInstance(family=5, A=(2,), n=2, l=0, b=(3,), m=1))
    sr = shape_report(double)
    run.instances += 1
    run.check(
        sr.c_degree == 2
        and len(sr.components) == 2
        and sorted(len(c.vertices) for c in sr.components)[0] == 1,
        "spot-two-branch-shape",
        "family=5 A=[2] n=2 l=0 b=[3] m=1",
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
    twigs = _twigs_by_determinant(budget.max_det, budget.max_len)
    b_reps = _b_reps(budget, _CT_B)
    ms = sorted({m for m in (1, 2, budget.max_m) if 1 <= m <= budget.max_m})

    def stream() -> Iterator[tuple[FamilyInstance, bool]]:
        for a in twigs:
            for n in range(2, budget.max_n + 1):
                yield FamilyInstance(family=2, A=a, n=n), True
                bound = l_bound(a, n)
                for b in b_reps:
                    for l in sorted({0, 1, bound, bound + 1, bound + 2}):
                        yield (
                            FamilyInstance(family=4, A=a, n=n, l=l, b=b),
                            l <= bound,
                        )
                        for m in ms:
                            yield (
                                FamilyInstance(
                                    family=5, A=a, n=n, l=l, b=b, m=m
                                ),
                                l <= bound,
                            )
                for b in b_reps:
                    yield FamilyInstance(family=6, A=a, n=n, b=b), True
                    for m in ms:
                        yield FamilyInstance(family=7, A=a, n=n, b=b, m=m), True

    for spec, valid in stream():
        g = build_family(spec, strict=False)
        if not _qualifies(g, g.c):
            continue
        run.instances += 1
        key = _spec_key(spec)
        neg = is_negative_definite(g.minus_c())
        run.check(
            neg == valid,
            "valid-iff-negdef",
            key,
            f"negdef {neg}, in-bound {valid}",
        )
        g1 = _f_move(g, blow_fn)
        run.check(g1 is not None, "c-prime-unique", key)
        if g1 is None:
            continue
        d_contracted = graph_d(contract_all(g))
        run.check(
            d_contracted == -1,
            "contract-all-determinant",
            key,
            str(d_contracted),
        )
        # the two ends next to C: v_deep carries weight <= -3, v_two is the
        # (-2) side; the equivalences below only apply when the relevant
        # side continues past its end vertex
        adj = g.adjacency
        v_two, v_deep = sorted(adj[g.c], key=lambda v: -g.weight(v))
        deep_alone = len(adj[v_deep]) == 1
        two_alone = len(adj[v_two]) == 1
        if not deep_alone and not two_alone:
            run.check(
                is_negative_definite(g1.minus_c()) == neg,
                "f-negdef-iff",
                key,
                f"before {neg}, after {is_negative_definite(g1.minus_c())}",
            )
        g2 = None
        if two_alone and g.weight(v_deep) == -3:
            g2 = _f_move(g1, blow_fn)
            run.check(g2 is not None, "c-second-unique", key)
            if g2 is not None:
                if not deep_alone:
                    run.check(
                        is_negative_definite(g2.minus_c()) == neg,
                        "g-negdef-iff",
                        key,
                        f"before {neg}, after {is_negative_definite(g2.minus_c())}",
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
                run.check(False, "f-pairing-transition", key, "pairing undefined")
            else:
                if p > 1:
                    ok, law = p1 >= 1, "p>1 -> p' >= 1"
                elif p == 1:
                    ok, law = p1 <= 1, "p=1 -> p' <= 1"
                else:
                    ok, law = p1 < 1, "p<1 -> p' < 1"
                run.check(ok, "f-pairing-transition", key, f"{law}: {p} -> {p1}")
        else:
            p2 = _pairing_of(g2) if g2 is not None else None
            if p is None or p2 is None:
                run.check(False, "g-pairing-transition", key, "pairing undefined")
            else:
                if p > 1:
                    ok, law = p2 >= 1, "p>1 -> p'' >= 1"
                else:
                    ok, law = p2 < 1, "p<=1 -> p'' < 1"
                run.check(ok, "g-pairing-transition", key, f"{law}: {p} -> {p2}")
    return run.report()


# -- combined runner -------------------------------------------------------------

SUITES = ("fujita", "threshold", "trichotomy", "axioms", "contraction")


def verify_suite(name: str, budget: Budget = Budget()) -> dict:
    """Run one named suite under the budget (fujita takes its caps from
    max_len and max_b_weight)."""
    if name == "fujita":
        return verify_fujita_suite(budget.max_len, budget.max_b_weight)
    if name == "threshold":
        return verify_threshold_suite(budget)
    if name == "trichotomy":
        return verify_trichotomy_suite(budget)
    if name == "axioms":
        return verify_boundary_axioms_suite(budget)
    if name == "contraction":
        return verify_contraction_suite(budget)
    raise DomainError(f"unknown suite {name!r}")


def verify_all(budget: Budget = Budget()) -> dict:
    """All five suites; passes only if each sub-report passes."""
    suites = {name: verify_suite(name, budget) for name in SUITES}
    return {
        "budget": budget.to_json_dict(),
        "suites": suites,
        "pass": all(r["pass"] for r in suites.values()),
    }

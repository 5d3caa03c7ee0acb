"""Answers computed apart from dualgraph, for checking its outputs.

Nothing here imports the package.  Twigs are tuples of positive integers
(weight a means self-intersection -a); graphs are a weights dict, an edge
list and an optional C vertex, all plain data.  Determinants are continuants
by 2x2 matrix products (the package uses the three-term recurrence), and
definiteness and determinants of general graphs come from sparse Gaussian
elimination in Fractions (the package uses integer passes and Bareiss).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil

# -- twigs ---------------------------------------------------------------------


def continuant(twig) -> int:
    """d(A): the top-left entry of prod [[a, -1], [1, 0]]; 1 for the empty twig."""
    p, q, r, s = 1, 0, 0, 1
    for a in twig:
        p, q, r, s = p * a + q, -p, r * a + s, -r
    return p


def inductance(twig) -> Fraction:
    """e(A) = d(A without its first entry) / d(A)."""
    return Fraction(continuant(twig[1:]), continuant(twig))


def twig_with_inductance(q: Fraction) -> tuple[int, ...]:
    """The admissible twig A with e(A) = q, 0 < q < 1: the ceiling continued
    fraction of 1/q, written with Fractions rather than integer pairs."""
    x = 1 / Fraction(q)
    out = []
    while True:
        a = ceil(x)
        out.append(a)
        if a == x:
            return tuple(out)
        x = 1 / (a - x)


@lru_cache(maxsize=None)
def adjoint(twig: tuple[int, ...]) -> tuple[int, ...]:
    """A* with e(A*) = 1 - e(reverse A)."""
    return twig_with_inductance(1 - inductance(tuple(reversed(twig))))


def l_bound(A, n: int) -> int:
    """Largest contractible run length, d(A)(n d(A) - d(overline A)) - 2."""
    d, dbar = continuant(A), continuant(A[1:])
    return d * (n * d - dbar) - 2


def trivial_threshold(A, n: int) -> int:
    """t = (n+1) d(A) - d(overline A)."""
    return (n + 1) * continuant(A) - continuant(A[1:])


def expected_ktype(family: int, A, n: int, l: int, b=None) -> str:
    """The type of a family (3)-(5) instance read off the run length."""
    t = trivial_threshold(A, n)
    if family == 3:
        edge = t
        trivial = True
    else:
        edge = t - 1
        trivial = family == 4 and len(b) == 1
    if l < edge:
        return "anti-ample"
    if l == edge and trivial:
        return "trivial"
    return "canonical-ample"


def admissible_twigs_by_det(max_det: int, max_len: int) -> list[tuple[int, ...]]:
    """Admissible twigs with d <= max_det and length <= max_len, in any order."""
    out = []
    frontier = [()]
    for _ in range(max_len):
        grown = []
        for t in frontier:
            for a in range(2, max_det + 1):
                u = t + (a,)
                if continuant(u) <= max_det:
                    grown.append(u)
        out += grown
        frontier = grown
    return out


# -- family layouts ------------------------------------------------------------


def family_graph(family: int, A, n: int, l: int, b=(), m: int = 0):
    """Vertex-level boundary of a family (3), (4) or (5) instance.

    Ids follow the documented layout in construction order: the (-2) center,
    the arm A* read outward, then the run of l (-2)-vertices and the rest of
    the middle arm, then a_r .. a_1 and (-n).  Returns (weights, edges, c).
    """
    weights: dict[int, int] = {}
    edges: list[tuple[int, int]] = []

    def add(w: int, after: int | None) -> int:
        v = len(weights) + 1
        weights[v] = w
        if after is not None:
            edges.append((after, v))
        return v

    def arm(after: int, ws) -> int:
        for w in ws:
            after = add(w, after)
        return after

    center = add(-2, None)
    arm(center, [-a for a in adjoint(A)])
    end = arm(center, [-2] * l + [-x for x in b])
    ubstar = [-x for x in adjoint(b)[:-1]] if b else []
    if family == 3:
        c = add(-1, end)
    elif family == 4:
        c = add(-1, end)
        arm(c, ubstar)
    else:
        w = add(-(m + 2), end)
        arm(w, ubstar)
        c = add(-1, w)
        arm(c, [-2] * m)
    arm(center, [-a for a in reversed(A)] + [-n])
    return weights, edges, c


def family_vertex_count(family: int, A, n: int, l: int, b=(), m: int = 0) -> int:
    """Closed form for len(family_graph(...)[0])."""
    count = 1 + len(adjoint(A)) + l + len(A) + 1 + 1
    if family >= 4:
        count += len(b) + len(adjoint(b)) - 1
    if family == 5:
        count += 1 + m
    return count


def minus(weights, edges, v):
    """The graph with vertex v removed."""
    return (
        {u: w for u, w in weights.items() if u != v},
        [e for e in edges if v not in e],
    )


def adjacency(weights, edges) -> dict[int, set[int]]:
    adj = {v: set() for v in weights}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(weights, edges) -> list[list[int]]:
    adj = adjacency(weights, edges)
    seen: set[int] = set()
    out = []
    for s in sorted(weights):
        if s in seen:
            continue
        seen.add(s)
        comp, stack = [], [s]
        while stack:
            u = stack.pop()
            comp.append(u)
            for x in adj[u]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        out.append(sorted(comp))
    return out


def shape_kinds(weights, edges, c) -> list[str]:
    """Sorted kinds (chain / star / general) of the components off C."""
    if c is not None:
        weights, edges = minus(weights, edges, c)
    adj = adjacency(weights, edges)
    kinds = []
    for comp in components(weights, edges):
        branch = sum(1 for v in comp if len(adj[v]) >= 3)
        inside = sum(len(adj[v]) for v in comp) // 2
        if inside != len(comp) - 1 or branch >= 2:
            kinds.append("general")
        else:
            kinds.append("star" if branch == 1 else "chain")
    return sorted(kinds)


def to_dgn(weights, edges, c=None, relabel=None) -> str:
    """Canonical DGN text: sorted v lines, then sorted e lines."""
    r = relabel or {}
    ids = {v: r.get(v, v) for v in weights}
    lines = [
        f"v {ids[v]} {weights[v]}" + (" C" if v == c else "")
        for v in sorted(weights, key=ids.get)
    ]
    pairs = sorted(tuple(sorted((ids[u], ids[v]))) for u, v in edges)
    lines += [f"e {u} {v}" for u, v in pairs]
    return "\n".join(lines) + ("\n" if lines else "")


# -- definiteness and determinants ---------------------------------------------


def star_criterion(b: int, arms) -> tuple[bool, int]:
    """A center of weight -b with admissible arms (read from the center).

    Negative definite iff b - sum e(A_i) > 0, and
    det(-I) = prod d(A_i) * (b - sum e(A_i)).
    """
    slack = b - sum((inductance(a) for a in arms), Fraction(0))
    det = slack
    for a in arms:
        det *= continuant(a)
    assert det.denominator == 1
    return slack > 0, int(det)


def _dense_det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    a = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def eliminate(weights, edges, rhs=None):
    """(negative definite, det(-I), x) by symmetric elimination in Fractions.

    Vertices are eliminated smallest degree first, so trees and sparse
    cycles stay sparse.  -I is positive definite iff every pivot of a
    symmetric elimination is positive, in whatever order.  A zero pivot is
    skipped; if only zero pivots remain, the rest goes to dense elimination.
    With rhs (a dict over the vertices) and a definite -I, x solves
    -I x = rhs; otherwise x is None.
    """
    diag = {v: Fraction(-w) for v, w in weights.items()}
    off: dict[int, dict[int, Fraction]] = {v: {} for v in weights}
    for u, v in edges:
        off[u][v] = off[v][u] = Fraction(-1)
    r = {v: Fraction(rhs[v]) for v in weights} if rhs is not None else None
    definite = True
    det = Fraction(1)
    steps = []  # (v, pivot, row at elimination) for back substitution
    while off:
        live = [v for v in off if diag[v] != 0]
        if not live:
            rest = sorted(off)
            rows = [
                [diag[u] if u == v else off[u].get(v, Fraction(0)) for v in rest]
                for u in rest
            ]
            return False, int(det * _dense_det(rows)), None
        v = min(live, key=lambda x: (len(off[x]), x))
        p = diag[v]
        if p <= 0:
            definite = False
        det *= p
        nbrs = list(off.pop(v).items())
        steps.append((v, p, nbrs))
        for u, _ in nbrs:
            del off[u][v]
        for i, (u, x) in enumerate(nbrs):
            diag[u] -= x * x / p
            if r is not None:
                r[u] -= x * r[v] / p
            for w, y in nbrs[i + 1:]:
                val = off[u].get(w, Fraction(0)) - x * y / p
                if val:
                    off[u][w] = off[w][u] = val
                else:
                    off[u].pop(w, None)
                    off[w].pop(u, None)
    assert det.denominator == 1
    if r is None or not definite:
        return definite, int(det), None
    x: dict[int, Fraction] = {}
    for v, p, nbrs in reversed(steps):
        x[v] = (r[v] - sum((y * x[u] for u, y in nbrs), Fraction(0))) / p
    return definite, int(det), x


def adjunction(weights, edges) -> dict[int, Fraction]:
    """alpha with sum_j alpha_j I_ij = 2 + w_i, for a definite graph."""
    _, _, alpha = eliminate(weights, edges, {v: -2 - w for v, w in weights.items()})
    return alpha


def residual_ok(weights, edges, alpha) -> bool:
    """sum_j alpha_j I_ij == 2 + w_i at every vertex i (I_ii = w_i, 1 per edge)."""
    if set(alpha) != set(weights):
        return False
    adj = adjacency(weights, edges)
    return all(
        alpha[i] * w + sum(alpha[j] for j in adj[i]) == 2 + w
        for i, w in weights.items()
    )


def ktype_of_pairing(pairing: Fraction) -> str:
    if pairing < 1:
        return "anti-ample"
    return "trivial" if pairing == 1 else "canonical-ample"

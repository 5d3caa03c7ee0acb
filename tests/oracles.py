"""Brute-force oracles, independent of the library's algorithms.

Everything here works on plain list-of-lists integer matrices so that none of
the package's elimination code is in the loop, except contract_all_rescan,
shape_report_dfs and canonical_form_dfs, which read DualGraphs.  These are
the reference implementations the fast code must agree with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def dense_det(matrix) -> int:
    """Integer determinant by cofactor-free Gaussian elimination on Fractions."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    assert det.denominator == 1
    return int(det)


def principal_minor_negdef(neg_matrix) -> bool:
    """Positive-definiteness of -I by checking every principal minor.

    neg_matrix is -I(g) as a list of integer rows.  True iff det of every
    principal submatrix (all nonempty vertex subsets) is positive.
    """
    n = len(neg_matrix)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = [[neg_matrix[i][j] for j in subset] for i in subset]
            if dense_det(sub) <= 0:
                return False
    return True


def charpoly_negdef(neg_matrix) -> bool:
    """Positive-definiteness of -I by the characteristic polynomial sign test.

    For a symmetric integer matrix M, PD holds iff every elementary symmetric
    function of the eigenvalues is positive, i.e. the coefficients of
    det(t*Id - M) = t^n - e1 t^(n-1) + e2 t^(n-2) - ... alternate strictly.
    Uses the Faddeev-LeVerrier recurrence in numpy int64; with |entries| <= 7
    and n <= 8 every intermediate is far below 2**63 (Hadamard bound).
    """
    import numpy as np

    m = np.array(neg_matrix, dtype=np.int64)
    n = m.shape[0]
    if n == 0:
        return True
    ident = np.eye(n, dtype=np.int64)
    work = np.array(m)
    coeffs = []
    for k in range(1, n + 1):
        ck = int(np.trace(work)) // k
        coeffs.append(ck)
        if k < n:
            work = m @ (work - ck * ident)
    # this recurrence yields c_k = (-1)^(k-1) * e_k(eigenvalues); PD needs
    # every elementary symmetric function positive
    return all(
        (c > 0) if k % 2 == 1 else (c < 0) for k, c in enumerate(coeffs, start=1)
    )


def dense_adjunction_solve(neg_matrix, rhs):
    """Solve M x = rhs exactly, eliminating from the LAST column backwards.

    M must be positive definite (then every Schur complement is too, so the
    diagonal pivots never vanish).  Gauss-Jordan in reverse column order: an
    independent route from the library's tree-order solves.
    Returns a list of Fractions.
    """
    n = len(neg_matrix)
    a = [[Fraction(x) for x in row] for row in neg_matrix]
    b = [Fraction(x) for x in rhs]
    for col in range(n - 1, -1, -1):
        p = a[col][col]
        assert p != 0, "singular matrix in oracle"
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / p
                for c in range(n):
                    a[r][c] -= f * a[col][c]
                b[r] -= f * b[col]
    return [b[i] / a[i][i] for i in range(n)]


def tridiagonal_neg_matrix(weights):
    """-I of a chain given positive twig weights [a1..ar]: diag a_i, off -1."""
    r = len(weights)
    m = [[0] * r for _ in range(r)]
    for i, a in enumerate(weights):
        m[i][i] = a
        if i + 1 < r:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    return m


def sylvester_negdef(neg_matrix) -> bool:
    """Positive definiteness of a symmetric matrix via leading principal
    minors, each computed independently by dense exact elimination."""
    n = len(neg_matrix)
    for k in range(1, n + 1):
        if dense_det([list(row[:k]) for row in neg_matrix[:k]]) <= 0:
            return False
    return True


def pivot_negdef(neg_matrix) -> bool:
    """Positive definiteness of a symmetric matrix via the pivots of plain
    Gaussian elimination on Fractions, in the given order and without row
    exchanges: the matrix is positive definite iff every pivot is positive.
    One elimination instead of one per leading minor, so it is much cheaper
    than sylvester_negdef on graphs of a few dozen vertices."""
    n = len(neg_matrix)
    a = [[Fraction(x) for x in row] for row in neg_matrix]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            if f:
                for c in range(k, n):
                    a[r][c] -= f * a[k][c]
    return True


def graph_neg_matrix(g):
    """-I(g) as a list of lists under the sorted vertex ordering."""
    order = sorted(g.weights)
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    rows = [[0] * n for _ in range(n)]
    for v in order:
        rows[index[v]][index[v]] = -g.weight(v)
    for u, v in g.edges:
        rows[index[u]][index[v]] = -1
        rows[index[v]][index[u]] = -1
    return rows


def contract_all_rescan(g, pick):
    """contract_all by rescanning every weight at each blow-down; pick
    chooses among the eligible ids (sorted), so contract_all_rescan(g, min)
    is the reference for the library's smallest-id-first order.  Quadratic,
    for small graphs."""
    from dualgraph.errors import WouldCreateCycle
    from dualgraph.graphs import DualGraph

    def neighbors_adjacent(adj, v):
        a, b = adj[v]
        return b in adj[a]

    weights = g.weights
    adj: dict[int, set[int]] = {v: set() for v in weights}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    c = g.c
    while len(weights) > 2:
        candidates = [
            v for v, w in sorted(weights.items()) if w == -1 and len(adj[v]) <= 2
        ]
        eligible = [
            v
            for v in candidates
            if len(adj[v]) < 2 or not neighbors_adjacent(adj, v)
        ]
        if not eligible:
            if candidates:
                raise WouldCreateCycle(
                    f"every contractible (-1)-vertex (e.g. {candidates[0]}) "
                    "has adjacent neighbors"
                )
            break
        v = pick(eligible)
        nbrs = sorted(adj[v])
        for u in nbrs:
            weights[u] += 1
            adj[u].discard(v)
        if len(nbrs) == 2:
            adj[nbrs[0]].add(nbrs[1])
            adj[nbrs[1]].add(nbrs[0])
        del weights[v]
        del adj[v]
        if c == v:
            c = None
    edges = sorted(
        (u, v) for u, nbs in adj.items() for v in nbs if u < v
    )
    return DualGraph(weights, edges, c)


def _vertex_components(adj):
    """Components of a graph given as adjacency lists, by a DFS over every
    vertex: each one sorted, in the order of their smallest ids."""
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for nb in adj[u]:
                if nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def _adjacency(g, drop=None):
    adj = {v: [] for v in g.weights if v != drop}
    for u, v in g.edges:
        if drop not in (u, v):
            adj[u].append(v)
            adj[v].append(u)
    return adj


def shape_report_dfs(g):
    """shape_report read vertex by vertex: components by a DFS over the
    expanded graph without C, degrees and edge counts from adjacency lists.
    The reference for every field of the report and for its component
    order."""
    from dualgraph.graphs import ComponentShape, ShapeReport

    adj = _adjacency(g)
    tree = len(g.edges) == len(adj) - 1 and len(_vertex_components(adj)) == 1
    c_nbrs = () if g.c is None else tuple(sorted(adj[g.c]))
    rest = _adjacency(g, g.c)
    comps = []
    for comp in _vertex_components(rest):
        cset = set(comp)
        branch = tuple(v for v in comp if len(rest[v]) >= 3)
        edges_inside = sum(len(rest[v]) for v in comp) // 2
        if edges_inside != len(comp) - 1 or len(branch) >= 2:
            kind = "general"
        elif len(branch) == 1:
            kind = "star"
        else:
            kind = "chain"
        contacts = tuple(v for v in c_nbrs if v in cset)
        comps.append(
            ComponentShape(tuple(comp), kind, branch, bool(contacts), contacts)
        )
    c_deg = None if g.c is None else len(c_nbrs)
    return ShapeReport(tree, g.c, c_deg, tuple(comps))


def canonical_form_dfs(g):
    """canonical_form with its components found by the vertex DFS; the
    encoding of each component is the library's."""
    from dualgraph.graphs import _component_centers, _rooted_code

    adj = g.adjacency
    return tuple(
        sorted(
            _rooted_code(g, _component_centers(adj, comp))
            for comp in _vertex_components(adj)
        )
    )

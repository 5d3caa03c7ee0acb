"""Brute-force oracles, independent of the library's algorithms.

Everything here works on plain list-of-lists integer matrices so that none of
the package's elimination code is in the loop, except parse_dgn_lines,
contract_all_rescan, blow_down_rebuild, blow_up_rebuild, shape_report_dfs,
canonical_form_dfs and the Fraction adjunction solve
(solve_forest_fraction and its readers), which read DualGraphs and, on a
forest, the library's integer tree pass, and fujita_suite_eager, which runs
the library's twig functions.  The Fraction twig calculus (inductance_fraction,
twig_from_inductance_stepwise, adjoint_fraction) and expand_compact, which
reads compact parts as plain tuples, are self-contained.  These are the
reference implementations the fast code must agree with.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations


def dense_det(matrix) -> int:
    """Integer determinant by cofactor-free Gaussian elimination on Fractions."""
    n = len(matrix)
    if n == 0:
        return 1
    # entries stay ints until an update makes them Fractions
    a = [list(row) for row in matrix]
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
        inv = Fraction(a[col][col])
        support = [c for c in range(col, n) if a[col][c] != 0]  # skip zeros
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / inv
                for c in support:
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
    a = [list(row) for row in neg_matrix]  # ints until an update
    b = [Fraction(x) for x in rhs]
    for col in range(n - 1, -1, -1):
        p = Fraction(a[col][col])
        assert p != 0, "singular matrix in oracle"
        support = [c for c in range(n) if a[col][c] != 0]  # skip zeros
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / p
                for c in support:
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


def expand_compact(core, links):
    """The vertex-level weights, in id order, and sorted edges of compact
    parts, by walking every link as the path a, ids..., b and sorting every
    vertex and edge: the reference for the library's walk in id order."""
    weights = dict(core)
    edges = set()
    for a, b, ids in links:
        weights.update(dict.fromkeys(ids, -2))
        path = [x for x in (a, *ids, b) if x is not None]
        edges.update((min(p), max(p)) for p in zip(path, path[1:]))
    return dict(sorted(weights.items())), tuple(sorted(edges))


def parse_dgn_lines(text: str):
    """parse_dgn by reading every line on its own and leaving compression
    to the graph's first query: the reference for the library's bulk read
    of (-2)-run blocks and its compact form built at parse time."""
    from dualgraph.dgn import _not_int
    from dualgraph.errors import ParseError
    from dualgraph.graphs import DualGraph

    weights: dict[int, int] = {}
    c: int | None = None
    edges: dict[tuple[int, int], int] = {}  # edge -> its line, in order

    def int_(token: str) -> int:
        """The integer an ASCII -?[0-9]+ spells; ValueError for any other."""
        if not re.fullmatch("-?[0-9]+", token):
            raise ValueError(token)
        return int(token)

    # a line ends at "\n" alone, less one "\r" before it; tokens part at
    # ASCII spaces and tabs alone
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = re.findall("[^ \t]+", line)
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "v":
            if len(tokens) == 3:
                marked = False
            elif len(tokens) == 4 and tokens[3] == "C":
                marked = True
            else:
                raise ParseError(line_no, "expected: v <id> <weight> [C]")
            try:
                vid = int_(tokens[1])
                weight = int_(tokens[2])
            except ValueError:
                raise _not_int(
                    line_no,
                    (("vertex id", tokens[1]), ("vertex weight", tokens[2])),
                ) from None
            if vid in weights:
                raise ParseError(line_no, f"duplicate vertex id {vid}")
            weights[vid] = weight
            if marked:
                if c is not None:
                    raise ParseError(
                        line_no, f"second C mark on vertex {vid} (already on {c})"
                    )
                c = vid
        elif kind == "e":
            if len(tokens) != 3:
                raise ParseError(line_no, "expected: e <u> <v>")
            try:
                u = int_(tokens[1])
                v = int_(tokens[2])
            except ValueError:
                raise _not_int(
                    line_no, (("edge endpoint", tok) for tok in tokens[1:])
                ) from None
            if u < v:
                key = (u, v)
            elif u > v:
                key = (v, u)
            else:
                raise ParseError(line_no, f"loop edge at vertex {u}")
            if key in edges:
                raise ParseError(line_no, f"duplicate edge ({key[0]},{key[1]})")
            edges[key] = line_no
        elif kind == "chain":
            if len(tokens) < 3:
                raise ParseError(line_no, "expected: chain <first-id> <w1> ...")
            try:
                first = int_(tokens[1])
                ws = [int_(tok) for tok in tokens[2:]]
            except ValueError:
                raise _not_int(
                    line_no,
                    [("chain first id", tokens[1])]
                    + [("chain weight", tok) for tok in tokens[2:]],
                ) from None
            for vid, w in enumerate(ws, start=first):
                if vid in weights:
                    raise ParseError(line_no, f"duplicate vertex id {vid}")
                weights[vid] = w
            for u in range(first, first + len(ws) - 1):
                if (u, u + 1) in edges:
                    raise ParseError(line_no, f"duplicate edge ({u},{u + 1})")
                edges[u, u + 1] = line_no
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")

    for (u, v), line_no in edges.items():
        if u not in weights or v not in weights:
            missing = u if u not in weights else v
            raise ParseError(line_no, f"edge references undeclared vertex {missing}")
    # every check DualGraph() makes has been made above, with line numbers
    return DualGraph._make(None, None, weights, tuple(sorted(edges)), c)


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


def blow_down_rebuild(g, v):
    """blow_down by rebuilding every weight and edge with comprehensions and
    validating the result through the public DualGraph constructor: the
    reference for the library's splice of g's checked data."""
    from dualgraph.errors import (
        NotContractibleCurve,
        WouldBreakChain,
        WouldCreateCycle,
    )
    from dualgraph.graphs import DualGraph

    if v not in g:
        raise ValueError(f"no vertex {v}")
    if g.weight(v) != -1:
        raise NotContractibleCurve(f"vertex {v} has weight {g.weight(v)}, not -1")
    edges = [e for e in g.edges if v not in e]
    nbrs = tuple(sorted(u for e in g.edges if v in e for u in e if u != v))
    if len(nbrs) > 2:
        raise WouldBreakChain(f"vertex {v} has degree {len(nbrs)} > 2")
    if len(nbrs) == 2:
        if nbrs in edges:
            raise WouldCreateCycle(
                f"neighbors {nbrs[0]} and {nbrs[1]} of {v} are already adjacent"
            )
        edges.append(nbrs)
    weights = {u: w + 1 if u in nbrs else w for u, w in g.weights.items() if u != v}
    return DualGraph(weights, edges, None if g.c == v else g.c)


def blow_up_rebuild(g, ends, new_id=None):
    """The blow-ups rebuilt and validated like blow_down_rebuild, with their
    checks: ends (u, v) is blow_up_edge's edge, (u,) blow_up_at's vertex and
    () blow_up_free's nothing.  A fresh (-1)-vertex new_id, or one past the
    largest id, is joined to ends, each of which weighs 1 less."""
    from dualgraph.graphs import DualGraph

    if len(ends) == 2:
        u, v = ends
        ends = (u, v) if u < v else (v, u)
        if ends not in g.edges:
            raise ValueError(f"no edge ({u},{v})")
    elif ends and ends[0] not in g:
        raise ValueError(f"no vertex {ends[0]}")
    w = new_id if new_id is not None else max(g.vertex_ids, default=0) + 1
    if w in g.weights:  # equal ids are in use: 1.0 and True name vertex 1
        raise ValueError(f"vertex id {w} already in use")
    weights = {x: wt - 1 if x in ends else wt for x, wt in g.weights.items()}
    weights[w] = -1
    edges = [e for e in g.edges if e != ends] + [(x, w) for x in ends]
    return DualGraph(weights, edges, g.c)


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


def _vertex_centers(adj, comp):
    """The 1 or 2 centers of the tree comp, by peeling every vertex."""
    inner = {v: len(adj[v]) for v in comp}
    current = [v for v in comp if inner[v] <= 1]
    remaining = len(comp)
    while remaining > 2:
        remaining -= len(current)
        nxt = []
        for v in current:
            for u in adj[v]:
                inner[u] -= 1
                if inner[u] == 1:
                    nxt.append(u)
        current = nxt
    return sorted(current)


def _vertex_rooted_code(g, adj, roots):
    """The tree hanging from roots (its 1 or 2 centers, both on the first
    level), encoded level by level (AHU) over every vertex, deepest first.
    A label is (weight, is C, sorted ranks of the children)."""
    weights = g.weights
    parent = dict.fromkeys(roots)
    levels = [roots]
    while True:
        nxt = []
        for u in levels[-1]:
            for nb in adj[u]:
                if nb not in parent:
                    parent[nb] = u
                    nxt.append(nb)
        if not nxt:
            break
        levels.append(nxt)
    kids = {}
    code = []
    for level in reversed(levels):
        labels = [
            (weights[v], g.c == v, tuple(sorted(kids.pop(v, ()))))
            for v in level
        ]
        ordered = sorted(labels)
        rank = {}
        for lab in ordered:
            rank.setdefault(lab, len(rank))
        for v, lab in zip(level, labels):
            kids.setdefault(parent[v], []).append(rank[lab])
        code.append(tuple(ordered))
    return tuple(code)


def canonical_form_dfs(g):
    """A canonical form of a forest read vertex by vertex: components by the
    vertex DFS, each rooted at its 1 or 2 vertex-level centers.  Its values
    differ from canonical_form's; the isomorphism relation they decide is
    the same."""
    adj = _adjacency(g)
    return tuple(
        sorted(
            _vertex_rooted_code(g, adj, _vertex_centers(adj, comp))
            for comp in _vertex_components(adj)
        )
    )


def solve_forest_fraction(g, tp):
    """The forest adjunction solve in Fractions, from the library's integer
    tree pass (its pivots full/hole) and the core DFS it ran over (order,
    parents, pure chains), with the core weights and links of g.  Pieces are
    (ids, first, step): alpha at ids[k] is first + k * step.  The reference
    for the library's forest solve, which keeps the same progressions scaled
    to integers by det(-I)."""
    from dualgraph.graphs import _core_dfs, _through_run

    dfs = _core_dfs(g)
    order, parent = dfs.order, dfs.parent
    weights = g._compact()[0]
    zero = Fraction(0)
    pieces = [(run, zero, zero) for run in dfs.pure]
    full, hole = tp.full, tp.hole
    loads = {v: Fraction(-weights[v] - 2) for v in order}
    for v in reversed(order):
        p, run = parent[v]
        if p is not None:
            top = _through_run(full[v], hole[v], len(run))[0]
            loads[p] += loads[v] * hole[v] / top
    alpha = {}
    for v in order:
        p, run = parent[v]
        if p is None:
            alpha[v] = loads[v] * hole[v] / full[v]
        else:
            f, h = _through_run(full[v], hole[v], len(run))
            ap = alpha[p]
            step = (loads[v] * hole[v] + ap * h) / f - ap
            if run:
                pieces.append((run, ap + step, step))
            alpha[v] = ap + (len(run) + 1) * step
        pieces.append(((v,), alpha[v], zero))
    links = g.core_links()
    for v in order:
        for w, run in links[v]:
            if w is None:
                step = -alpha[v] / (len(run) + 1)
                pieces.append((run, alpha[v] + step, step))
    return pieces


def _solve_fraction(gD):
    """compute_dnatural's checks, errors and pieces, solved in Fractions: a
    forest from the library's tree pass, a graph with a cycle densely."""
    from dualgraph.errors import InternalDefect, NotContractible, NotMinimalResolutionGraph
    from dualgraph.graphs import _elimination, _TreePass

    if gD.c is not None:
        raise NotMinimalResolutionGraph("graph carries a C mark")
    for v, w in sorted(gD._compact()[0].items()):
        if w > -2:
            raise NotMinimalResolutionGraph(f"vertex {v} has weight {w} > -2")
    if len(gD) == 0:
        return []
    elim = _elimination(gD)
    if not elim.definite:
        raise NotContractible("intersection form is not negative definite")
    if isinstance(elim, _TreePass):
        pieces = solve_forest_fraction(gD, elim)
    else:
        order = gD.vertex_ids
        rhs = [-gD.weight(v) - 2 for v in order]
        alpha = dense_adjunction_solve(graph_neg_matrix(gD), rhs)
        pieces = [((v,), a, Fraction(0)) for v, a in zip(order, alpha)]
    alpha = _per_vertex_fraction(pieces)
    negative = [v for v, a in alpha.items() if a < 0]
    if negative:
        raise InternalDefect(
            f"adjunction solve produced negative coefficient at {negative[0]}"
        )
    return pieces


def _per_vertex_fraction(pieces):
    alpha = {}
    for ids, first, step in pieces:
        for k, v in enumerate(ids):
            alpha[v] = first + k * step
    return dict(sorted(alpha.items()))


def dnatural_fraction(gD):
    """compute_dnatural(gD).coefficients, in the same order, with the same
    errors, from the Fraction solve."""
    return _per_vertex_fraction(_solve_fraction(gD))


def k_type_report_fraction(g):
    """k_type_report(g), with the same errors, from the Fraction solve and a
    per-vertex pairing."""
    from dualgraph.canonical import KType
    from dualgraph.errors import DomainError, InternalDefect, OutOfScopeBoundary

    if g.c is None:
        raise OutOfScopeBoundary("graph has no C-marked vertex")
    if g.weight(g.c) != -1:
        raise OutOfScopeBoundary(
            f"marked vertex weighs {g.weight(g.c)}, classification needs -1"
        )
    g._compact()
    alpha = _per_vertex_fraction(_solve_fraction(g.minus_c()))
    pairing = Fraction(0)
    for v in g.neighbors(g.c):
        if v not in alpha:
            raise DomainError(f"coefficient vector does not cover vertex {v}")
        pairing += alpha[v]
    if pairing < 1:
        return KType.ANTI_CANONICAL_AMPLE, pairing
    if pairing == 1:
        fractional = [v for v, a in alpha.items() if a.denominator != 1]
        if fractional:
            message = f"pairing is 1 but coefficient at {fractional[0]} is not an integer"
            d_g = dense_det(graph_neg_matrix(g))
            if d_g != -1:
                raise OutOfScopeBoundary(f"{message}; d(g) is {d_g}, not -1")
            raise InternalDefect(message)
        return KType.NUMERICALLY_TRIVIAL, pairing
    return KType.CANONICAL_AMPLE, pairing


def _twig_det(t) -> int:
    prev, cur = 0, 1
    for a in t:
        prev, cur = cur, a * cur - prev
    return cur


def inductance_fraction(t):
    """twigs.inductance, with the same errors, as one Fraction."""
    from dualgraph.errors import DomainError

    t = tuple(map(int, t))
    if not t:
        raise DomainError("inductance is undefined for the empty twig")
    if not all(w >= 2 for w in t):
        raise DomainError(f"inductance requires an admissible twig, got {list(t)}")
    return Fraction(_twig_det(t[1:]), _twig_det(t))


def twig_from_inductance_stepwise(q):
    """twigs.twig_from_inductance, with the same errors, one Fraction in and
    one ceiling step per entry."""
    from dualgraph.errors import DomainError

    cap = 10**7
    q = Fraction(q)
    if not 0 < q < 1:
        raise DomainError(f"inductance value must satisfy 0 < q < 1, got {q}")
    num, den = q.denominator, q.numerator
    weights = []
    for _ in range(cap):
        if not den:
            break
        a = -(-num // den)
        weights.append(a)
        num, den = den, a * den - num
    if den:
        raise DomainError(f"twig would have more than {cap} entries")
    return tuple(weights)


def adjoint_fraction(t):
    """twigs.adjoint, with the same errors in the same order, as the
    definition reads: the twig whose inductance is 1 - e(reverse A)."""
    from dualgraph.errors import DomainError

    cap = 10**7
    t = tuple(map(int, t))
    if not t:
        raise DomainError("adjoint is undefined for the empty twig")
    length = sum(t) - 2 * len(t) + 1
    if length > cap and all(w >= 2 for w in t):
        raise DomainError(f"twig has {length} entries, more than {cap}")
    return twig_from_inductance_stepwise(1 - inductance_fraction(t[::-1]))


def fujita_suite_eager(max_len, max_weight, adjoint_fn):
    """verify_fujita_suite as a loop that builds every instance key and
    detail string, failing or not: the reference for the suite's report."""
    from dualgraph.twigs import (
        format_twig,
        inductance,
        twig_determinant,
        twig_from_inductance,
    )
    from dualgraph.verify import enumerate_admissible_twigs

    instances = checks = 0
    failures = []

    def check(ok, name, key, detail=""):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append({"check": name, "instance": key, "detail": detail})

    for t in enumerate_admissible_twigs(max_len, max_weight):
        instances += 1
        key = format_twig(t)
        d = twig_determinant(t)
        d_ov = twig_determinant(t[1:])
        d_ul = twig_determinant(t[:-1])
        mid = 0 if len(t) == 1 else twig_determinant(t[1:-1])
        check(
            d_ov * d_ul - d * mid == 1,
            "splice-identity",
            key,
            f"d_ov*d_ul - d*mid = {d_ov * d_ul - d * mid}",
        )
        star = adjoint_fn(t)
        check(
            twig_determinant(star) == d
            and twig_determinant(star[1:]) == d - d_ul,
            "adjoint-determinants",
            key,
            f"adjoint {format_twig(star)}",
        )
        check(
            adjoint_fn(star) == t,
            "adjoint-involution",
            key,
            f"double adjoint {format_twig(adjoint_fn(star))}",
        )
        check(
            twig_from_inductance(inductance(t)) == t,
            "inductance-round-trip",
            key,
        )
    return {
        "suite": "fujita",
        "budget": {"max_len": max_len, "max_weight": max_weight},
        "instances": instances,
        "checks": checks,
        "failures": failures,
        "pass": not failures,
    }

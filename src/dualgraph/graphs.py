"""Weighted dual graphs: determinants, definiteness, blow-downs, shapes.

A DualGraph is a simple undirected graph whose vertices carry integer
self-intersection weights; at most one vertex carries the C mark.  The
intersection matrix I has the weights on the diagonal and 1 for each edge.
All arithmetic is exact (integers and Fractions); there is no floating point
anywhere in the package.

Boundary graphs are dominated by long chains of (-2)-curves, so a DualGraph
stores its run-compressed form.  A vertex is *core* unless it weighs -2 and
has degree 1 or 2 (a cycle made only of such vertices keeps its smallest id as
core).  Everything else lies on *links* (a, b, ids): ids are the non-core
vertices of one maximal run, ordered from the core end a to the core end b, a
range when consecutive ids step by +-1 and a tuple otherwise; None is a free
end and an empty run is a direct edge between two core vertices.  Links are
oriented and sorted canonically, so equal graphs have equal compact forms.
The family builders emit this form and delete() carries it across, in time
independent of the run lengths; the vertex-level views (weights, edges,
adjacency, DGN) are expanded from it lazily, once.  Neighbours, degrees and
edge tests are read from the compact form whenever the graph holds it, so
they expand nothing.  A graph given as vertex-level data keeps that data and
compresses on first use.

One DFS over the core, once per graph, finds the components (_core_dfs),
each as its core vertices, its runs and its count of core-to-core links; the
forest pass, shape_report and canonical_form all read it.  minus_c() cuts
the C-vertex once and keeps the cut graph, with whatever it has computed.

Every determinant, definiteness and adjunction question reads one pass per
graph, computed on first use and cached (with_mark carries it over).  On a
forest it is an integer leaf-first pass over the compact form.  For the
subtree below a core vertex v, full(v) is det(-I) of the subtree and hole(v)
the same determinant with v struck out:
full(v) = a_v * prod full(c) - sum_i hole(c_i) * prod_{j != i} full(c_j) and
hole(v) = prod full(c), the tree generalization of the chain recurrence.  A
run of j (-2)-vertices maps a child's (F, H) to ((j+1)F - jH, jF - (j-1)H),
and a pendant run contributes (j+1, j).  Leaf-first Schur elimination has the
pivots full/hole, so I is negative definite iff every full is positive; along
a run full is linear in the run index, so its two ends decide.  det(-I) is the
product of the root fulls.  A graph with a cycle gets one fraction-free
elimination of -I with the adjunction right-hand side appended (_bareiss),
of which it keeps O(n) results.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .errors import (
    DomainError,
    NotContractibleCurve,
    WouldBreakChain,
    WouldCreateCycle,
)

# (a, b, ids): a run of (-2)-vertices ids from core end a to core end b
_Link = tuple[int | None, int | None, Sequence[int]]
# (far, ids): a link seen from one core end, ids ordered away from it
_End = tuple[int | None, Sequence[int]]


class DualGraph:
    """Immutable weighted graph with an optional C-marked vertex."""

    __slots__ = (
        "_core", "_links", "_weights", "_edges", "_c", "_adj", "_inc", "_hash",
        "_pass", "_dfs", "_minus_c",
    )

    def __init__(
        self,
        weights: Mapping[int, int] | Iterable[tuple[int, int]],
        edges: Iterable[tuple[int, int]] = (),
        c: int | None = None,
    ):
        w = dict(weights)
        for v, wt in w.items():
            if not isinstance(v, int) or not isinstance(wt, int):
                raise ValueError("vertex ids and weights must be integers")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if u not in w or v not in w:
                raise ValueError(f"edge ({u},{v}) references a missing vertex")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            norm.append(key)
        if c is not None and c not in w:
            raise ValueError(f"marked vertex {c} does not exist")
        self._init(None, None, w, tuple(sorted(norm)), c)

    def _init(self, core, links, weights, edges, c) -> None:
        self._core: dict[int, int] | None = core
        self._links: tuple[_Link, ...] | None = links
        self._weights: dict[int, int] | None = weights
        self._edges: tuple[tuple[int, int], ...] | None = edges
        self._c = c
        self._adj: dict[int, list[int]] | None = None
        self._inc: dict[int, list[_End]] | None = None
        self._hash: int | None = None
        # None before the first question, False for a graph with a cycle
        # that is not eliminated yet
        self._pass: _TreePass | _DensePass | bool | None = None
        self._dfs: _CoreDFS | None = None
        self._minus_c: DualGraph | None = None

    @classmethod
    def _from_parts(cls, nodes: dict[int, int], links: list[_Link], c):
        """Compact parts whose runs need not be maximal yet; see _normalize."""
        g = cls.__new__(cls)
        g._init(*_normalize(nodes, links), None, None, c)
        return g

    def _compact(self) -> tuple[dict[int, int], tuple[_Link, ...]]:
        """Core weights and links, compressing vertex-level data once."""
        if self._core is None:
            links = [(u, v, ()) for u, v in self._edges]
            self._core, self._links = _normalize(self._weights, links)
        return self._core, self._links

    def _expand(self) -> tuple[dict[int, int], tuple[tuple[int, int], ...]]:
        """Vertex-level weights (in id order) and sorted edges, once."""
        if self._weights is None:
            weights = dict(self._core)
            pairs: list[tuple[int, int]] = []
            for a, b, ids in self._links:
                if not ids:
                    if a is not None and b is not None:
                        pairs.append((a, b) if a < b else (b, a))
                    continue
                weights.update(dict.fromkeys(ids, -2))
                for end, x in ((a, ids[0]), (b, ids[-1])):
                    if end is not None:
                        pairs.append((end, x) if end < x else (x, end))
                if type(ids) is range:
                    # consecutive ids: the pairs come out ordered already
                    up = ids if ids.step > 0 else ids[::-1]
                    pairs += zip(up, up[1:])
                else:
                    pairs += (
                        (u, v) if u < v else (v, u) for u, v in zip(ids, ids[1:])
                    )
            self._weights = dict(sorted(weights.items()))
            self._edges = tuple(sorted(pairs))
        return self._weights, self._edges

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._expand()[0]))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._expand()[1]

    @property
    def c(self) -> int | None:
        return self._c

    def weight(self, v: int) -> int:
        if self._weights is not None:
            return self._weights[v]
        w = self._core.get(v)
        if w is not None:
            return w
        if any(v in ids for _, _, ids in self._links):
            return -2
        raise KeyError(v)

    @property
    def weights(self) -> dict[int, int]:
        return dict(self._expand()[0])

    @property
    def adjacency(self) -> dict[int, list[int]]:
        if self._adj is None:
            weights, edges = self._expand()
            adj: dict[int, list[int]] = {v: [] for v in weights}
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = adj
        return self._adj

    def core_links(self) -> dict[int, list[_End]]:
        """Each core vertex's links as (far core end or None, run ids ordered
        away from it), in the order of the compact form's links.

        Built once from the compact form, in time independent of the run
        lengths; the result is shared, so callers must not change it.
        """
        if self._inc is None:
            core, links = self._compact()
            inc: dict[int, list[_End]] = {v: [] for v in core}
            for a, b, ids in links:
                if a is not None:
                    inc[a].append((b, ids))
                if b is not None:
                    inc[b].append((a, ids[::-1]))
            self._inc = inc
        return self._inc

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbours of v, read from the compact form when the graph
        holds it, so a run is never expanded."""
        if self._core is None or self._adj is not None:
            return tuple(sorted(self.adjacency[v]))
        ends = self.core_links().get(v)
        if ends is not None:
            return tuple(sorted(map(link_neighbor, ends)))
        for a, b, ids in self._links:
            if v in ids:
                k = ids.index(v)
                prev = ids[k - 1] if k else a
                nxt = ids[k + 1] if k + 1 < len(ids) else b
                return tuple(sorted(x for x in (prev, nxt) if x is not None))
        raise KeyError(v)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        try:
            return v in self.neighbors(u)
        except KeyError:
            return False

    def __len__(self) -> int:
        if self._weights is not None:
            return len(self._weights)
        return len(self._core) + sum(len(ids) for _, _, ids in self._links)

    def __contains__(self, v: int) -> bool:
        if self._weights is not None:
            return v in self._weights
        return v in self._core or any(v in ids for _, _, ids in self._links)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualGraph):
            return NotImplemented
        if self._c != other._c:
            return False
        if self._weights is not None and other._weights is not None:
            return self._weights == other._weights and self._edges == other._edges
        # compact forms are canonical, so they compare like the graphs
        return self._compact() == other._compact()

    def __hash__(self) -> int:
        if self._hash is None:
            weights, edges = self._expand()
            self._hash = hash((tuple(sorted(weights.items())), edges, self._c))
        return self._hash

    def __repr__(self) -> str:
        weights, edges = self._expand()
        mark = f", c={self._c}" if self._c is not None else ""
        return f"DualGraph({dict(sorted(weights.items()))}, {list(edges)}{mark})"

    # -- derived copies ---------------------------------------------------

    def delete(self, v: int) -> "DualGraph":
        """The graph with vertex v (and its edges) removed.

        A graph holding the compact form has it cut and re-joined around v in
        time independent of the run lengths; its vertex-level data is then
        expanded from the cut form if and when it is asked for.  A graph
        holding only vertex-level data has that filtered, in order.
        """
        if v not in self:
            raise ValueError(f"no vertex {v}")
        c = None if self._c == v else self._c
        g = DualGraph.__new__(DualGraph)
        if self._core is not None:
            core, links = _normalize(*_cut(self._core, self._links, v))
            g._init(core, links, None, None, c)
        else:
            weights = {u: wt for u, wt in self._weights.items() if u != v}
            edges = tuple((a, b) for a, b in self._edges if v not in (a, b))
            g._init(None, None, weights, edges, c)
        return g

    def minus_c(self) -> "DualGraph":
        """The graph without its C-vertex, cut on first use and kept."""
        if self._c is None:
            raise DomainError("graph has no C-marked vertex")
        if self._minus_c is None:
            self._minus_c = self.delete(self._c)
        return self._minus_c

    def with_mark(self, v: int | None) -> "DualGraph":
        if v is not None and v not in self:
            raise ValueError(f"marked vertex {v} does not exist")
        g = DualGraph.__new__(DualGraph)
        g._init(self._core, self._links, self._weights, self._edges, v)
        g._adj, g._inc, g._pass, g._dfs = self._adj, self._inc, self._pass, self._dfs
        return g


# -- the compact form ------------------------------------------------------


def _join(pieces: Sequence[Sequence[int]]) -> Sequence[int]:
    """Concatenated ids: a range when they step by +-1, else a tuple.

    Pieces are ranges (which always step by +-1 here), tuples or flat lists.
    Empty pieces are skipped; a longer piece is one span when it equals the
    range between its ends, a single comparison.
    """
    span = None  # [first, last, step]; step 0 while it holds one id
    for p in pieces:
        if not p:
            continue
        first, last, n = p[0], p[-1], len(p)
        step = 0
        if n > 1:
            step = 1 if last > first else -1
            if last - first != step * (n - 1) or (
                type(p) is not range
                and list(p) != list(range(first, last + step, step))
            ):
                return tuple(chain.from_iterable(pieces))
        if span is None:
            span = [first, last, step]
            continue
        d = first - span[1]
        if (d == 1 or d == -1) and span[2] in (0, d) and step in (0, d):
            span[1] = last
            span[2] = d
        else:
            return tuple(chain.from_iterable(pieces))
    if span is None:
        return range(0)
    first, last, step = span
    step = step or 1
    return range(first, last + step, step)


def link_neighbor(end: _End) -> int:
    """The neighbour a link of core_links() starts with."""
    far, ids = end
    return ids[0] if ids else far


def _link_key(link: _Link):
    """Links sort by their ends (free ends last), then by their runs."""
    a, b, ids = link
    return (a is None, a or 0, b is None, b or 0, len(ids), ids[0] if ids else 0)


def _normalize(
    nodes: Mapping[int, int], links: Sequence[_Link]
) -> tuple[dict[int, int], tuple[_Link, ...]]:
    """The canonical compact form of the graph given by nodes and links.

    nodes maps vertex ids to weights; each link (a, b, ids) joins nodes a and
    b (None for a free end) through the (-2)-vertices ids, ordered from a.
    Nodes of weight -2 and degree 1 or 2 are absorbed into the runs through
    them; each maximal run is walked once, so the cost is linear in the
    number of nodes and links, not in the run lengths.
    """
    inc: dict[int, list[int]] = {v: [] for v in nodes}  # node -> its links
    for i, (a, b, _) in enumerate(links):
        if a is not None:
            inc[a].append(i)
        if b is not None:
            inc[b].append(i)
    core = {v: w for v, w in nodes.items() if w != -2 or not 0 < len(inc[v]) < 3}
    if len(core) < len(nodes):
        links = _walk_runs(core, links, inc)
    # else nothing is absorbed: every link already is a maximal run
    extra = []
    out = []
    for a, b, ids in links:
        if type(ids) is not range:
            ids = _join((ids,))
        if b is None:
            if a is None:
                if len(ids) == 1:
                    extra.append((ids[0], -2))  # an isolated (-2)-vertex
                    continue
                if ids[0] > ids[-1]:
                    ids = ids[::-1]
        elif a is None or a > b or (a == b and ids[0] > ids[-1]):
            a, b, ids = b, a, ids[::-1]
        out.append((a, b, ids))
    out.sort(key=_link_key)
    core.update(extra)
    return core, tuple(out)


def _walk_runs(
    core: dict[int, int], links: Sequence[_Link], inc: dict[int, list[int]]
) -> list[_Link]:
    """The maximal runs through the non-core nodes, given each node's links.
    A core-free cycle gets its smallest id added to core."""
    used = [False] * len(links)

    def walk(v, i, flat):
        """Follow link i away from v through absorbed nodes, gathering them
        in the flat list flat; (far end, the run's ids)."""
        pieces: list[Sequence[int]] = []
        while True:
            used[i] = True
            a, b, ids = links[i]
            if a == v:
                v = b
            else:
                v = a
                ids = ids[::-1]
            if ids:
                if flat:
                    pieces.append(flat)
                    flat = []
                pieces.append(ids)
            if v is None or v in core:
                break
            flat.append(v)
            nxt = inc[v]
            if len(nxt) == 1:
                v = None
                break
            i = nxt[1] if nxt[0] == i else nxt[0]
        if flat:
            pieces.append(flat)
        return v, _join(pieces)

    out: list[_Link] = []
    for v in core:
        for i in inc[v]:
            if not used[i]:
                out.append((v, *walk(v, i, [])))
    if all(used):
        return out
    # what is left has no core: paths from a free end or an end node ...
    for i, (a, b, _) in enumerate(links):
        if not used[i] and (a is None or b is None):
            out.append((None, None, walk(None, i, [])[1]))
    for v, nxt in inc.items():
        if v not in core and len(nxt) == 1 and not used[nxt[0]]:
            out.append((None, None, walk(v, nxt[0], [v])[1]))
    # ... and cycles, which keep their smallest id as core
    for i, (a, _, _) in enumerate(links):
        if not used[i]:
            core[a] = -2  # so the walk stops where the cycle closes
            ring = [a, *walk(a, i, [])[1]]
            del core[a]
            k = ring.index(min(ring))
            ring = ring[k:] + ring[:k]
            core[ring[0]] = -2
            out.append((ring[0], ring[0], _join([ring[1:]])))
    return out


def _cut(
    core: dict[int, int], links: tuple[_Link, ...], v: int
) -> tuple[dict[int, int], list[_Link]]:
    """Compact parts of the graph minus v, before re-joining the runs."""
    if v in core:
        pieces = []
        for a, b, ids in links:
            a = None if a == v else a
            b = None if b == v else b
            if ids or (a is not None and b is not None):
                pieces.append((a, b, ids))
        return {u: w for u, w in core.items() if u != v}, pieces
    pieces = []
    for a, b, ids in links:
        if v not in ids:
            pieces.append((a, b, ids))
            continue
        k = ids.index(v)
        if k:
            pieces.append((a, None, ids[:k]))
        if k + 1 < len(ids):
            pieces.append((None, b, ids[k + 1 :]))
    return core, pieces


def chain_graph(
    signed_weights: Iterable[int], first_id: int = 1, c_index: int | None = None
) -> DualGraph:
    """A path with consecutive ids and the given signed weights.

    c_index, when given, marks the vertex at that position (0-based).
    """
    ws = list(signed_weights)
    weights = {first_id + i: w for i, w in enumerate(ws)}
    edges = [(first_id + i, first_id + i + 1) for i in range(len(ws) - 1)]
    c = None if c_index is None else first_id + c_index
    return DualGraph(weights, edges, c)


# -- intersection matrices and determinants -------------------------------


@dataclass(frozen=True)
class IntersectionMatrix:
    order: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


def intersection_matrix(g: DualGraph) -> IntersectionMatrix:
    """I(g) under the canonical sorted vertex ordering."""
    order = g.vertex_ids
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    rows = [[0] * n for _ in range(n)]
    for i, v in enumerate(order):
        rows[i][i] = g.weight(v)
    for u, v in g.edges:
        rows[index[u]][index[v]] = 1
        rows[index[v]][index[u]] = 1
    return IntersectionMatrix(order, tuple(tuple(r) for r in rows))


@dataclass(slots=True)
class _CoreDFS:
    """The one traversal of a graph's compact core.  order lists the core
    vertices, parents first, one component after another from its root;
    starts holds the position in order of each root.  parent maps a core
    vertex to (parent or None, the run from the parent down to it).  links
    counts the core-to-core links, self-loops included; pure lists the
    core-free components, which are (-2)-chains."""

    order: list[int]
    parent: dict[int, tuple[int | None, Sequence[int]]]
    starts: list[int]
    links: int
    pure: list[Sequence[int]]


def _core_dfs(g: DualGraph) -> _CoreDFS:
    """The core DFS of g, computed once per graph (with_mark carries it)."""
    if g._dfs is None:
        core, links = g._compact()
        pure = []
        core_to_core = 0
        for a, b, ids in links:
            if a is None:
                pure.append(ids)
            elif b is not None:
                core_to_core += 1
        inc = g.core_links()
        parent: dict[int, tuple[int | None, Sequence[int]]] = {}
        order: list[int] = []
        starts: list[int] = []
        for r in core:
            if r in parent:
                continue
            starts.append(len(order))
            parent[r] = (None, range(0))
            stack = [r]
            while stack:
                u = stack.pop()
                order.append(u)
                for w, ids in inc[u]:
                    if w is not None and w not in parent:
                        parent[w] = (u, ids)
                        stack.append(w)
        g._dfs = _CoreDFS(order, parent, starts, core_to_core, pure)
    return g._dfs


@dataclass
class _Component:
    """One connected component of a graph, read off its core DFS."""

    core: list[int]  # from the root, parents first; [] for a (-2)-chain
    runs: list[Sequence[int]]  # the runs of its links, each once
    links: int  # core-to-core links, self-loops included

    def vertices(self) -> list[int]:
        return sorted(chain(self.core, *self.runs))


def _core_components(g: DualGraph) -> list[_Component]:
    """The components of g: those with core in the order of their roots,
    then the core-free ones."""
    dfs = _core_dfs(g)
    bounds = zip(dfs.starts, dfs.starts[1:] + [len(dfs.order)])
    comps = [_Component(dfs.order[i:j], [], 0) for i, j in bounds]
    comp_of = {v: comp for comp in comps for v in comp.core}
    for a, b, ids in g._compact()[1]:
        if a is None:
            continue
        comp = comp_of[a]
        comp.runs.append(ids)
        if b is not None:
            comp.links += 1
    return comps + [_Component([], [ids], 0) for ids in dfs.pure]


@dataclass
class _TreePass:
    """The integer leaf-first pass over a forest's compact form.

    order, parent and pure are those of the core DFS; links maps a core
    vertex to its (other end or None, run ordered away from it), the
    parent's link included.  full and hole are the subtree determinants of
    the module docstring.
    """

    weights: dict[int, int]
    order: list[int]
    parent: dict[int, tuple[int | None, Sequence[int]]]
    links: dict[int, list[tuple[int | None, Sequence[int]]]]
    full: dict[int, int]
    hole: dict[int, int]
    pure: list[Sequence[int]]
    definite: bool  # every full is positive, inside the runs too
    det: int  # det(-I)


def _through_run(full: int, hole: int, j: int) -> tuple[int, int]:
    """(full, hole) of a subtree once a run of j (-2)-vertices is put on top;
    (1, 0) stands for the empty subtree below a pendant run."""
    return (j + 1) * full - j * hole, j * full - (j - 1) * hole


def _tree_pass(g: DualGraph) -> _TreePass | None:
    """The forest pass for g, computed once; None if g has a cycle.  Never
    eliminates."""
    if g._pass is None:
        g._pass = _run_tree_pass(g) or False
    return g._pass if type(g._pass) is _TreePass else None


def _elimination(g: DualGraph) -> _TreePass | _DensePass:
    """The one pass of g: the forest pass, else the dense elimination."""
    if _tree_pass(g) is None and g._pass is False:
        g._pass = _bareiss(g)
    return g._pass


def _run_tree_pass(g: DualGraph) -> _TreePass | None:
    dfs = _core_dfs(g)
    order, parent = dfs.order, dfs.parent
    # a forest has one core-to-core link fewer than core vertices per tree
    if dfs.links != len(order) - len(dfs.starts):
        return None
    core = g._compact()[0]
    inc = g.core_links()
    full: dict[int, int] = {}
    hole: dict[int, int] = {}
    definite = True
    det = 1
    for v in reversed(order):
        f_v, h_v = -core[v], 1
        up = parent[v][0]
        for w, ids in inc[v]:
            if w is None:
                f, h = _through_run(1, 0, len(ids))
            elif w == up:
                continue
            else:
                # full is linear along a run and full[w] > 0 is checked
                # already, so the run's far end decides the whole run
                f, h = _through_run(full[w], hole[w], len(ids))
                if f <= 0:
                    definite = False
            f_v, h_v = f_v * f - h_v * h, h_v * f
        if f_v <= 0:
            definite = False
        full[v] = f_v
        hole[v] = h_v
        if up is None:
            det *= f_v
    for ids in dfs.pure:
        det *= len(ids) + 1
    return _TreePass(core, order, parent, inc, full, hole, dfs.pure, definite, det)


@dataclass
class _DensePass:
    """What a graph with a cycle keeps of its elimination: O(n) results."""

    definite: bool  # every pivot is positive
    det: int  # det(-I)
    scaled: list[int] | None  # det(-I) * x for -I x = -w - 2, if definite


def _bareiss(g: DualGraph) -> _DensePass:
    """Fraction-free elimination of -I in the canonical vertex order, with the
    column -w - 2 appended (Bareiss 1968); rows swap only on a zero pivot.
    Without a swap the k-th pivot is the k-th leading minor, so -I is positive
    definite iff every pivot is positive (Sylvester); the last is det(-I).
    det(-I) * x is then the adjugate applied to -w - 2, which is integral, so
    the back substitution divides exactly.
    """
    m = intersection_matrix(g)
    n = len(m.order)
    a = [[-x for x in row] + [-row[i] - 2] for i, row in enumerate(m.rows)]
    sign = prev = 1
    definite = True
    for k in range(n):
        definite = definite and a[k][k] > 0
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return _DensePass(False, 0, None)
            a[k], a[swap], sign = a[swap], a[k], -sign
        top, pivot = a[k], a[k][k]
        for row in a[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [
                (x * pivot - f * y) // prev for x, y in zip(row[k + 1 :], top[k + 1 :])
            ]
        prev = pivot
    det = sign * prev
    if not definite:
        return _DensePass(False, det, None)
    scaled = [0] * n
    for i in reversed(range(n)):
        s = det * a[i][n] - sum(x * y for x, y in zip(a[i][i + 1 : n], scaled[i + 1 :]))
        scaled[i] = s // a[i][i]
    return _DensePass(True, det, scaled)


def is_forest(g: DualGraph) -> bool:
    return _tree_pass(g) is not None


def is_tree(g: DualGraph) -> bool:
    dfs = _core_dfs(g)
    return is_forest(g) and len(dfs.starts) + len(dfs.pure) == 1


def graph_d(g: DualGraph) -> int:
    """det(-I(g)); 1 for the empty graph."""
    return _elimination(g).det


def signed_determinant(g: DualGraph) -> int:
    """det(I(g)); 1 for the empty graph."""
    return graph_d(g) if len(g) % 2 == 0 else -graph_d(g)


# -- negative definiteness -------------------------------------------------


def is_negative_definite(g: DualGraph) -> bool:
    """True iff I(g) is negative definite (exact Sylvester test).

    Reads the graph's one pass: the integer pass on a forest's compact form,
    else the pivots of the dense elimination of -I under the canonical vertex
    ordering.  Positive definiteness does not depend on the elimination
    order, so the two routes decide the same predicate.
    """
    if any(w >= 0 for w in g._compact()[0].values()):
        # a nonnegative diagonal entry is a nonpositive principal minor of -I
        # (run vertices all weigh -2, so the core weights decide)
        return False
    return _elimination(g).definite


# -- blow-downs and contraction --------------------------------------------


def blow_down(g: DualGraph, v: int) -> DualGraph:
    """Contract the (-1)-vertex v, adjusting its neighbors.

    v must weigh -1 (NotContractibleCurve), have degree <= 2
    (WouldBreakChain), and its two neighbors, when present, must not already
    be adjacent (WouldCreateCycle).  Each neighbor's weight increases by 1;
    with two neighbors the traversing edge is fused.  Remaining ids are kept;
    a mark on v disappears with it.
    """
    if v not in g:
        raise ValueError(f"no vertex {v}")
    if g.weight(v) != -1:
        raise NotContractibleCurve(f"vertex {v} has weight {g.weight(v)}, not -1")
    nbrs = g.neighbors(v)
    if len(nbrs) > 2:
        raise WouldBreakChain(f"vertex {v} has degree {len(nbrs)} > 2")
    if len(nbrs) == 2 and g.has_edge(nbrs[0], nbrs[1]):
        raise WouldCreateCycle(
            f"neighbors {nbrs[0]} and {nbrs[1]} of {v} are already adjacent"
        )
    weights = {u: w + 1 if u in nbrs else w for u, w in g.weights.items() if u != v}
    edges = [(a, b) for a, b in g.edges if v not in (a, b)]
    if len(nbrs) == 2:
        edges.append(nbrs)
    return DualGraph(weights, edges, None if g.c == v else g.c)


def blow_up_edge(g: DualGraph, u: int, v: int, new_id: int | None = None) -> DualGraph:
    """Insert a fresh (-1)-vertex on the edge (u, v), decrementing u and v."""
    if not g.has_edge(u, v):
        raise ValueError(f"no edge ({u},{v})")
    w = new_id if new_id is not None else max(g.vertex_ids) + 1
    if w in g:
        raise ValueError(f"vertex id {w} already in use")
    key = (min(u, v), max(u, v))
    weights = {x: wt - 1 if x in (u, v) else wt for x, wt in g.weights.items()}
    weights[w] = -1
    edges = [e for e in g.edges if e != key] + [(u, w), (v, w)]
    return DualGraph(weights, edges, g.c)


def blow_up_at(g: DualGraph, u: int, new_id: int | None = None) -> DualGraph:
    """Attach a fresh (-1)-leaf at u, decrementing u's weight."""
    if u not in g:
        raise ValueError(f"no vertex {u}")
    w = new_id if new_id is not None else max(g.vertex_ids) + 1
    if w in g:
        raise ValueError(f"vertex id {w} already in use")
    weights = {x: wt - 1 if x == u else wt for x, wt in g.weights.items()}
    weights[w] = -1
    edges = list(g.edges) + [(u, w)]
    return DualGraph(weights, edges, g.c)


def blow_up_free(g: DualGraph, new_id: int | None = None) -> DualGraph:
    """Add an isolated (-1)-vertex (inverse of blowing down an isolated one)."""
    w = new_id if new_id is not None else (max(g.vertex_ids) + 1 if len(g) else 1)
    if w in g:
        raise ValueError(f"vertex id {w} already in use")
    weights = g.weights
    weights[w] = -1
    return DualGraph(weights, g.edges, g.c)


def contract_all(g: DualGraph) -> DualGraph:
    """Blow down (-1)-vertices repeatedly until none is eligible.

    A vertex is eligible when it weighs -1, has degree <= 2, its neighbors
    are not already adjacent, and the graph still has at least 3 vertices;
    graphs with 2 or fewer vertices are terminal as they stand.  The
    smallest-id eligible vertex is contracted first.  If some vertex weighs
    -1 with degree <= 2 but every such vertex has adjacent neighbors, the
    contraction is stuck on a cycle and WouldCreateCycle is raised.

    A min-heap holds every eligible id, besides stale ones that are checked
    when popped; a vertex found stuck between adjacent neighbors is set
    aside.  Only the neighbors of a blown-down vertex change weight, degree
    or neighbors, and an edge goes only where it met the blown-down vertex,
    so those neighbors are the only vertices that can turn eligible (or stop
    being stuck) and the only ones pushed again.  The cost is O(n log n).
    """
    weights = g.weights
    adj: dict[int, set[int]] = {v: set() for v in weights}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    c = g.c
    heap = sorted(v for v, w in weights.items() if w == -1)
    aside: set[int] = set()  # weigh -1 with degree 2, neighbors adjacent
    while len(weights) > 2:
        if not heap:
            if aside:
                raise WouldCreateCycle(
                    f"every contractible (-1)-vertex (e.g. {min(aside)}) "
                    "has adjacent neighbors"
                )
            break
        v = heappop(heap)
        if weights.get(v) != -1 or len(adj[v]) > 2:
            aside.discard(v)
            continue
        if len(adj[v]) == 2 and _neighbors_adjacent(adj, v):
            aside.add(v)
            continue
        aside.discard(v)
        nbrs = sorted(adj[v])
        for u in nbrs:
            weights[u] += 1
            adj[u].discard(v)
            heappush(heap, u)
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


def _neighbors_adjacent(adj: dict[int, set[int]], v: int) -> bool:
    a, b = adj[v]
    return b in adj[a]


# -- shape reports -----------------------------------------------------------


@dataclass(frozen=True)
class ComponentShape:
    """One connected component of the graph with the C-vertex removed."""

    vertices: tuple[int, ...]
    kind: str  # "chain" | "star" | "general"
    branch_vertices: tuple[int, ...]
    touches_c: bool
    c_contacts: tuple[int, ...]

    @property
    def branch_count(self) -> int:
        return len(self.branch_vertices)


@dataclass(frozen=True)
class ShapeReport:
    is_tree: bool
    c_id: int | None
    c_degree: int | None
    components: tuple[ComponentShape, ...]


def shape_report(g: DualGraph) -> ShapeReport:
    """Describe g minus its C-vertex: components, chain/star kinds, contacts.

    Reads the core DFS of g.minus_c().  Run vertices have degree 1 or 2, so
    branch vertices are core; only the listed vertices are expanded.
    """
    tree = is_tree(g)  # compresses g first, so the cut reads its runs
    rest = g if g.c is None else g.minus_c()
    c_nbrs = set() if g.c is None else set(g.neighbors(g.c))
    inc = rest.core_links()
    comps = []
    for comp in _core_components(rest):
        vertices = tuple(comp.vertices())
        branch = tuple(sorted(v for v in comp.core if len(inc[v]) >= 3))
        # the core-to-core links of a tree join its core vertices in a tree
        if comp.links >= max(len(comp.core), 1) or len(branch) >= 2:
            kind = "general"
        else:
            kind = "star" if branch else "chain"
        contacts = tuple(sorted(c_nbrs.intersection(vertices)))
        comps.append(ComponentShape(vertices, kind, branch, bool(contacts), contacts))
    comps.sort(key=lambda comp: comp.vertices[0])
    c_deg = None if g.c is None else len(c_nbrs)
    return ShapeReport(tree, g.c, c_deg, tuple(comps))


# -- isomorphism of weighted marked forests ----------------------------------


def _component_centers(adj: dict[int, list[int]], comp: list[int]) -> list[int]:
    """The 1 or 2 tree centers, by iterative leaf peeling."""
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


def _rooted_code(g: DualGraph, roots: list[int]) -> tuple:
    """The tree hanging from roots (its 1 or 2 centers), encoded level by
    level (AHU), deepest first.

    A level is the sorted tuple of its vertices' labels (weight, is C,
    sorted ranks of the children); a rank is the index of a label among the
    distinct labels of its level.  Two trees have equal codes iff they are
    isomorphic (centers go to centers), and the tuples nest to a fixed depth
    however deep the tree is.
    """
    adj = g.adjacency
    weights = g._expand()[0]
    parent: dict[int, int | None] = dict.fromkeys(roots)
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
    kids: dict[int | None, list[int]] = {}
    code = []
    for level in reversed(levels):
        labels = [
            (weights[v], g.c == v, tuple(sorted(kids.pop(v, ()))))
            for v in level
        ]
        ordered = sorted(labels)
        rank: dict[tuple, int] = {}
        for lab in ordered:
            rank.setdefault(lab, len(rank))
        for v, lab in zip(level, labels):
            kids.setdefault(parent[v], []).append(rank[lab])
        code.append(tuple(ordered))
    return tuple(code)


def canonical_form(g: DualGraph) -> tuple:
    """Order-independent encoding of a weighted marked forest.

    Two forests are isomorphic (respecting weights and the C mark) iff their
    canonical forms are equal.  Raises DomainError on graphs with cycles.
    """
    if not is_forest(g):
        raise DomainError("canonical form is only defined for forests")
    codes = [
        _rooted_code(g, _component_centers(g.adjacency, comp.vertices()))
        for comp in _core_components(g)
    ]
    return tuple(sorted(codes))


def isomorphic(g1: DualGraph, g2: DualGraph) -> bool:
    return canonical_form(g1) == canonical_form(g2)

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
The family builders emit this form with their links oriented, so it is only
sorted, and delete() cuts it only around the deleted vertex and puts the
pieces back by the re-join the compact edits share (_rejoin); either reruns
_normalize only when a (-2)-vertex must join a run.  Both take time
independent of the run lengths.  Every query (membership, ==, the hash, cuts,
neighbours, degrees, edge tests, the passes below) reads only the compact
form, compressing vertex-level data on first use, and expands no run; a run
vertex is found by one scan of the links (_run_of), and only an int names a
vertex.  len() and weights read the vertex-level weights where the graph holds
them, and so compress nothing.

Vertex-level weights and edges (_edges: a sorted tuple of distinct (u, v),
u < v) are held only by a graph given them: by DualGraph(), a splice below,
parse_dgn of a text with no block read in bulk, or with_mark of one of these.
parse_dgn of a text with a block (as serialize_dgn writes a run) gives only
the compact form, whose weights expand in id order, whatever the text's line
order.  A graph that holds only the compact form expands it on each read of a
view (weights, edges, vertex_ids, repr) and once per blow-up, and stores
nothing (_expand); a view builds only what it returns.  The expansion reads
one walk of the compact form in id order (_id_order), which sorts blocks (a
core vertex, a vertex of a tuple run, a range run), never the vertices of a
run; DGN output reads the same walk and expands nothing (dgn.serialize_dgn).

Which way an edit goes follows what the graph holds.  A graph that holds only
the compact form (a family build, a text parsed with a block, a cut, blow_down
or contract_all of such a graph, and their with_mark copies) is blown down and
contracted on it: blow_down cuts it around the vertex and re-joins it by
delete()'s _rejoin, and contract_all reads its neighbours off core_links() and
eats a run in closed form, so both take time independent of the run lengths
and return a graph that holds only the compact form, whose weights expand in
id order as the parent's do.  A graph given vertex-level data keeps the order
its weights were given in, which the compact form does not record, so its
edits splice that data, even once a query has compressed it, as the blow-ups
do on every graph (a blow-up's new vertex comes last in its weights).  A
splice copies the parent's checked data, deleting or insorting only the
touched entries, and never compresses; no edit validates its result again
(_make), and the parent's data, which with_mark copies share, never changes.

One DFS over the core, once per graph, finds the components (_core_dfs),
each as its core vertices, its runs and its count of core-to-core links;
is_forest compares that count with the core size, and the forest pass,
shape_report and canonical_form all read it.  canonical_form codes each
core tree by one leaf peel, labelling each core vertex as it is peeled and
each link by its run length and where C sits on it (_tree_code), so
isomorphism is decided in time independent of the run lengths.
minus_c() cuts the C-vertex once and keeps the cut graph, with whatever it
has computed.

Every determinant, definiteness and adjunction question reads one pass per
graph, computed on first use and cached (with_mark carries it over).  On a
forest it is an integer leaf-first pass over the core DFS, which keeps only
what it computes: full, hole and load per core vertex, definiteness and
det(-I).  For the subtree below a core vertex v, full(v) is det(-I) of the
subtree and hole(v) the same determinant with v struck out:
full(v) = a_v * prod full(c) - sum_i hole(c_i) * prod_{j != i} full(c_j) and
hole(v) = prod full(c), the tree generalization of the chain recurrence;
load(v) is the subtree's right-hand side -w - 2 eliminated into v, times
hole(v).  A run of j (-2)-vertices maps a child's (F, H) to
((j+1)F - jH, jF - (j-1)H), and a pendant run contributes (j+1, j) and no
load.  Leaf-first Schur elimination has the pivots full/hole, so I is
negative definite iff every full is positive; along a run full is linear in
the run index, so its two ends decide.  det(-I) is the product of the root
fulls.  A graph with a cycle gets one sparse fraction-free elimination of -I
over its compact core (_bareiss): each run in closed form, then the core
leaf first; its cost follows the core size plus fill.  Either pass gives
D * alpha at the core by back substitution, D = det(-I) of the whole graph,
and one builder (_run_pieces) reads the adjunction solve off it: a
progression along each run.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
# (ids, first, step): the adjunction coefficient at ids[k] is
# (first + k * step) / D, D = det(-I) > 0 of the whole graph, so all are
# integers; a solve is D and one piece per core vertex and per run
_Piece = tuple[Sequence[int], int, int]


class DualGraph:
    """Immutable weighted graph with an optional C-marked vertex."""

    __slots__ = (
        "_core", "_links", "_weights", "_edges", "_c", "_inc", "_pass", "_dfs",
        "_minus_c",
    )

    def __init__(
        self,
        weights: Mapping[int, int] | Iterable[tuple[int, int]],
        edges: Iterable[tuple[int, int]] = (),
        c: int | None = None,
    ):
        w: dict[int, int] = {}
        for v, wt in weights.items() if isinstance(weights, Mapping) else weights:
            if type(v) is not int or type(wt) is not int:  # bool is refused
                raise ValueError("vertex ids and weights must be integers")
            if v in w:
                raise ValueError(f"duplicate vertex id {v}")
            w[v] = wt
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u},{v}) endpoints must be integers")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if u not in w or v not in w:
                raise ValueError(f"edge ({u},{v}) references a missing vertex")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            norm.append(key)
        if c is not None and (type(c) is not int or c not in w):
            raise ValueError(f"marked vertex {c} does not exist")
        self._init(None, None, w, tuple(sorted(norm)), c)

    def _init(self, core, links, weights, edges, c) -> None:
        self._core: dict[int, int] | None = core
        self._links: tuple[_Link, ...] | None = links
        self._weights: dict[int, int] | None = weights
        self._edges: tuple[tuple[int, int], ...] | None = edges
        self._c = c
        self._inc: dict[int, list[_End]] | None = None
        self._pass: _TreePass | _CorePass | None = None
        self._dfs: _CoreDFS | None = None
        self._minus_c: DualGraph | None = None

    @classmethod
    def _make(cls, core, links, weights, edges, c) -> "DualGraph":
        """A graph from checked parts, checked no further: the canonical
        compact form, vertex-level data (edges as _edges keeps them), or
        both; None for what is not given."""
        g = cls.__new__(cls)
        g._init(core, links, weights, edges, c)
        return g

    @classmethod
    def _from_parts(cls, nodes: dict[int, int], links: list[_Link], c):
        """Compact parts whose runs need not be maximal yet; see _normalize."""
        return cls._make(*_normalize(nodes, links), None, None, c)

    @classmethod
    def _from_oriented(cls, nodes: dict[int, int], links: list[_Link], c):
        """Compact parts whose links are oriented as the canonical form has
        them: a < b or a free end b, and runs as ranges.  Unless some node
        weighs -2 with degree 1 or 2, which _normalize then absorbs into the
        runs, every node is core and every run maximal, so the links are only
        sorted."""
        ends = [end for a, b, _ in links for end in (a, b)]
        if any(w == -2 and 0 < ends.count(v) < 3 for v, w in nodes.items()):
            return cls._from_parts(nodes, links, c)
        return cls._make(nodes, tuple(sorted(links, key=_link_key)), None, None, c)

    def _compact(self) -> tuple[dict[int, int], tuple[_Link, ...]]:
        """Core weights and links, compressing vertex-level data once."""
        if self._core is None:
            links = [(u, v, ()) for u, v in self._edges]
            self._core, self._links = _normalize(self._weights, links)
        return self._core, self._links

    def _expand(self, part: str | None = None):
        """Vertex-level weights and sorted edges: those the graph was given,
        weights in the order given, else read off the compact form's walk in
        id order (_id_order), weights in id order.  On a graph that holds
        only the compact form, part "weights", "edges" or "ids" builds that
        view alone: the weights, the sorted edges or the sorted ids.  An
        expansion is made on every call and not stored, so callers must not
        change the result."""
        if self._weights is not None:
            return self._weights, self._edges
        core = self._core
        vertices, edges = _id_order(core, self._links)
        if part == "ids":
            return tuple(chain.from_iterable((v,) if ids is None else ids for v, ids in vertices))
        weights: dict[int, int] = {}
        for v, ids in vertices if part != "edges" else ():
            if ids is None:
                weights[v] = core.get(v, -2)
            else:
                weights.update(dict.fromkeys(ids, -2))
        if part == "weights":
            return weights
        pairs: list[tuple[int, int]] = []
        for u, v, ids in edges:
            if ids is None:
                pairs.append((u, v))
            else:
                pairs += zip(ids, ids[1:])
        return tuple(pairs) if part == "edges" else (weights, tuple(pairs))

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        if self._weights is not None:
            return tuple(sorted(self._weights))
        return self._expand("ids")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is not None:
            return self._edges
        return self._expand("edges")

    @property
    def c(self) -> int | None:
        return self._c

    def weight(self, v: int) -> int:
        core = self._compact()[0]
        if type(v) is int and v in core:
            return core[v]
        self._run_of(v)  # KeyError off the graph
        return -2

    @property
    def weights(self) -> dict[int, int]:
        """A new dict of the weights: a copy of those the graph holds, or
        the expansion of its compact form, which is made afresh."""
        if self._weights is not None:
            return dict(self._weights)
        return self._expand("weights")

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
        """Sorted neighbours of v, read from the compact form (compressing
        vertex-level data first), so a run is never expanded."""
        ends = self.core_links().get(v) if type(v) is int else None
        if ends is not None:
            return tuple(sorted(map(link_neighbor, ends)))
        a, b, ids = self._run_of(v)
        k = ids.index(v)
        prev = ids[k - 1] if k else a
        nxt = ids[k + 1] if k + 1 < len(ids) else b
        return tuple(sorted(x for x in (prev, nxt) if x is not None))

    def _run_of(self, v: int) -> _Link:
        """The link of the compact form whose run holds v; KeyError if none
        does.  Only an int names a vertex: range membership of anything else
        is a scan of the run."""
        if type(v) is int:
            for link in self._compact()[1]:
                if v in link[2]:
                    return link
        raise KeyError(v)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        try:
            return type(v) is int and v in self.neighbors(u)
        except KeyError:
            return False

    def __len__(self) -> int:
        return self._size()

    def _size(self) -> int:
        """The vertex count, which len() cannot return past sys.maxsize: read
        off the weights a graph holds, else off its compact form."""
        if self._weights is not None:
            return len(self._weights)
        return len(self._core) + sum(len(ids) for _, _, ids in self._links)

    def __contains__(self, v: int) -> bool:
        if type(v) is not int:
            return False
        core, links = self._compact()
        return v in core or any(v in ids for _, _, ids in links)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualGraph):
            return NotImplemented
        # compact forms are canonical, so they compare like the graphs
        return self._c == other._c and self._compact() == other._compact()

    def __hash__(self) -> int:
        """The hash of the canonical compact form, so equal graphs hash
        equal and no run is expanded."""
        core, links = self._compact()
        return hash((frozenset(core.items()), links, self._c))

    def __repr__(self) -> str:
        weights, edges = self._expand()
        mark = f", c={self._c}" if self._c is not None else ""
        return f"DualGraph({dict(sorted(weights.items()))}, {list(edges)}{mark})"

    # -- derived copies ---------------------------------------------------

    def delete(self, v: int) -> "DualGraph":
        """The graph with vertex v (and its edges) removed.

        The compact form (compressed first from vertex-level data) is cut
        only around v, in time independent of the run lengths.  The links
        that do not touch v keep their places; the pieces of those that do,
        at most deg(v) of them or two when v splits a run, are re-joined by
        the one re-join the compact edits share (_rejoin), whose _normalize
        runs only when a (-2) core end might now be absorbed: when it lost a
        direct edge to v, or ends the run that v split.  The cut holds only
        the compact form, which its views expand on each read.
        """
        c = None if self._c == v else self._c
        core, old = self._compact()
        links: list[_Link] = []  # the links away from v, still sorted
        pieces: list[_Link] = []
        ends: list[int | None] = []  # core ends that might now be absorbed
        if type(v) is int and v in core:
            core = {u: w for u, w in core.items() if u != v}
            for link in old:
                a, b, ids = link
                if a != v and b != v:
                    links.append(link)
                elif ids:
                    pieces.append((None if a == v else a, None if b == v else b, ids))
                else:
                    ends.append(b if a == v else a)
        else:
            try:
                a, b, ids = run = self._run_of(v)
            except KeyError:
                raise ValueError(f"no vertex {v}") from None
            links += old
            links.remove(run)
            k = ids.index(v)
            pieces = [p for p in ((a, None, ids[:k]), (None, b, ids[k + 1 :])) if p[2]]
            ends = [a, b]
        return _rejoin(core, links, pieces, ends, c)

    def minus_c(self) -> "DualGraph":
        """The graph without its C-vertex, cut on first use and kept."""
        if self._c is None:
            raise DomainError("graph has no C-marked vertex")
        if self._minus_c is None:
            self._minus_c = self.delete(self._c)
        return self._minus_c

    def with_mark(self, v: int | None) -> "DualGraph":
        if v is not None and (type(v) is not int or v not in self):
            raise ValueError(f"marked vertex {v} does not exist")
        g = DualGraph._make(self._core, self._links, self._weights, self._edges, v)
        g._inc, g._pass, g._dfs = self._inc, self._pass, self._dfs
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
    extra, out = _orient(links)
    out.sort(key=_link_key)
    core.update(extra)
    return core, tuple(out)


def _rejoin(core, links: list[_Link], pieces: list[_Link], ends, c) -> DualGraph:
    """The graph of a compact form cut around one vertex: core, the sorted
    links away from the cut, and the pieces of those that met it.  If a core
    vertex of ends now weighs -2, it might join a run, so _normalize makes
    the form again; else the pieces are oriented and inserted in order."""
    if any(u is not None and core[u] == -2 for u in ends):
        core, links = _normalize(core, links + pieces)
    else:
        extra, pieces = _orient(pieces)
        if extra:
            core = {**core, **extra}
        for link in pieces:
            insort(links, link, key=_link_key)
    return DualGraph._make(core, tuple(links), None, None, c)


def _orient(links: Iterable[_Link]) -> tuple[dict[int, int], list[_Link]]:
    """The links as the canonical form holds them, in the given order: a run
    between core ends from the smaller one (a self-loop from its smaller end
    id), a pendant run from its core end, a free path from its smaller end
    id, and ids as a range when they step by +-1.  A free path of one id is
    an isolated (-2)-vertex, returned apart as core."""
    extra = {}
    out = []
    for a, b, ids in links:
        if type(ids) is not range:
            ids = _join((ids,))
        if b is None:
            if a is None:
                if len(ids) == 1:
                    extra[ids[0]] = -2
                    continue
                if ids[0] > ids[-1]:
                    ids = ids[::-1]
        elif a is None or a > b or (a == b and ids[0] > ids[-1]):
            a, b, ids = b, a, ids[::-1]
        out.append((a, b, ids))
    return extra, out


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


def _id_order(
    core: Mapping[int, int], links: Iterable[_Link]
) -> tuple[list[tuple[int, range | None]], list[tuple[int, int, range | None]]]:
    """The vertices and edges of a compact form in id order, as blocks, so
    that only blocks are sorted, never the vertices of a run.

    A vertex block (v, None) is a core vertex or a vertex of a tuple run;
    (v, ids) is a range run, ids ascending from v.  An edge block (u, v,
    None) is one edge, u < v; (u, u + 1, ids) is the edges (i, i + 1) of a
    range run from its second id on, i and i + 1 in ids.  A range is an
    interval of distinct ids, so no other vertex lies inside its span, and
    every other edge has its smaller end at or below the run's first id or
    at or above its last: the blocks sort as their first entries do.
    """
    vertices: list[tuple[int, range | None]] = [(v, None) for v in core]
    edges: list[tuple[int, int, range | None]] = []
    for a, b, ids in links:
        if not ids:
            if a is not None and b is not None:
                edges.append((a, b, None) if a < b else (b, a, None))
            continue
        for end, x in ((a, ids[0]), (b, ids[-1])):
            if end is not None:
                edges.append((end, x, None) if end < x else (x, end, None))
        if type(ids) is range:
            up = ids if ids.step > 0 else ids[::-1]
            vertices.append((up[0], up))
            if len(up) > 1:
                edges.append((up[0], up[1], None))
            if len(up) > 2:
                edges.append((up[1], up[2], up[1:]))
        else:
            vertices += [(v, None) for v in ids]
            edges += [
                (u, v, None) if u < v else (v, u, None) for u, v in zip(ids, ids[1:])
            ]
    vertices.sort()
    edges.sort()
    return vertices, edges


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


# -- the core traversal and determinants -----------------------------------


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
    """The integer leaf-first pass over a forest's compact form: full, hole
    and load per core vertex, as in the module docstring.  The order,
    parents and links it ran over are the graph's own (_core_dfs,
    core_links)."""

    full: dict[int, int]
    hole: dict[int, int]
    load: dict[int, int]
    definite: bool  # every full is positive, inside the runs too
    det: int  # det(-I)

    def scaled_alpha(self, g: DualGraph) -> dict[int | None, int]:
        """det * alpha at each core vertex, parents first: the back
        substitution on the row {v: top, up: -hole(v), None: (j+1) load(v)}
        of v under a run of j, top being full(v) through it (a root: j = 0)."""
        y: dict[int | None, int] = {None: 0}
        dfs = _core_dfs(g)
        for v in dfs.order:
            up, ids = dfs.parent[v]
            j, h = len(ids), self.hole[v]
            top = _through_run(self.full[v], h, j)[0]
            y[v] = (self.det * (j + 1) * self.load[v] + h * y[up]) // top
        return y


def _through_run(full: int, hole: int, j: int) -> tuple[int, int]:
    """(full, hole) of a subtree once a run of j (-2)-vertices is put on top."""
    return (j + 1) * full - j * hole, j * full - (j - 1) * hole


def _elimination(g: DualGraph) -> _TreePass | _CorePass:
    """The one pass of g, computed once: the forest pass, else the core
    elimination."""
    if g._pass is None:
        g._pass = _tree_pass(g) if is_forest(g) else _bareiss(g)
    return g._pass


def _tree_pass(g: DualGraph) -> _TreePass:
    """The forest pass of g, which must be a forest (is_forest)."""
    dfs = _core_dfs(g)
    core = g._compact()[0]
    inc = g.core_links()
    full: dict[int, int] = {}
    hole: dict[int, int] = {}
    load: dict[int, int] = {}
    definite = True
    det = 1
    for v in reversed(dfs.order):
        f_v, h_v, m_v = -core[v], 1, -core[v] - 2
        up = dfs.parent[v][0]
        for w, ids in inc[v]:
            if w is None:
                f, h, m = len(ids) + 1, len(ids), 0
            elif w == up:
                continue
            else:
                # full is linear along a run and full[w] > 0 is checked
                # already, so the run's far end decides the whole run
                (f, h), m = _through_run(full[w], hole[w], len(ids)), load[w]
                if f <= 0:
                    definite = False
            f_v, m_v, h_v = f_v * f - h_v * h, m_v * f + m * h_v, h_v * f
        if f_v <= 0:
            definite = False
        full[v], hole[v], load[v] = f_v, h_v, m_v
        if up is None:
            det *= f_v
    for ids in dfs.pure:
        det *= len(ids) + 1
    return _TreePass(full, hole, load, definite, det)


@dataclass
class _CorePass:
    """What a graph with a cycle keeps of its sparse core elimination: the
    core vertices in the order they were eliminated and their pivot rows,
    until the first solve replaces the rows with its answer y."""

    definite: bool  # every pivot is positive
    det: int  # det(-I)
    done: list[int]
    rows: dict[int, dict[int | None, int]] | None
    y: dict[int | None, int] | None = None

    def scaled_alpha(self, g: DualGraph) -> dict[int | None, int]:
        """det * alpha at each core vertex by back substitution (no row
        swap), run once; the pivot rows go after it."""
        if self.y is None:
            y: dict[int | None, int] = {None: 0}
            for p in reversed(self.done):
                row = self.rows[p]
                s = self.det * row[None] - sum(
                    x * y[c] for c, x in row.items() if c != p
                )
                y[p] = s // row[p]
            self.y, self.rows = y, None
        return self.y


def _bareiss(g: DualGraph) -> _CorePass:
    """Sparse fraction-free elimination (Bareiss 1968) of -I over the core.

    Row v maps core vertices to the entries of D * S, and the key None to the
    right-hand side -w - 2; S is the Schur complement of the block eliminated
    so far and D its det(-I).  A link of j (-2)-vertices goes first, in
    closed form: D grows by j + 1 and only the entries of its ends change
    (j = 0 is an edge).  The core vertices follow leaf first (Rose 1972).  A
    row that no pivot touched since D was s is scaled by D / s when read,
    exactly by Sylvester's identity.  Run pivots are positive, so -I is
    positive definite iff every core pivot is.  A zero diagonal entry is put
    off; once all are zero, a row swap gives the pivot and flips the sign.
    """
    core, links = g._compact()
    rows = {v: {v: -w, None: -w - 2} for v, w in core.items()}
    stamp = dict.fromkeys(core, 1)  # the D each row was last brought to
    d = 1

    def fresh(v: int) -> dict[int | None, int]:
        if stamp[v] != d:
            rows[v] = {c: x * d // stamp[v] for c, x in rows[v].items()}
            stamp[v] = d
        return rows[v]

    for a, b, ids in links:
        j = len(ids)
        for v in {a, b} - {None}:
            rows[v] = {c: x * (j + 1) for c, x in fresh(v).items()}
            stamp[v] = d * (j + 1)
        if a is not None and a == b:
            rows[a][a] -= 2 * (j + 1) * d
        elif a is not None:
            rows[a][a] -= j * d
            if b is not None:
                rows[b][b] -= j * d
                rows[a][b] = rows[a].get(b, 0) - d
                rows[b][a] = rows[b].get(a, 0) - d
        d *= j + 1
    pending = list(_core_dfs(g).order)  # eliminated from the end
    done: list[int] = []
    sign, definite, symmetric = 1, True, True
    while pending:
        k = len(pending) - 1
        while k >= 0 and not rows[pending[k]].get(pending[k]):
            k -= 1
        definite = definite and k == len(pending) - 1
        if k < 0:
            entries = ((r, c) for r in pending for c, x in rows[r].items() if x)
            hit = next(((r, c) for r, c in entries if c is not None), None)
            if hit is None:
                return _CorePass(False, 0, done, rows)
            r, c = hit
            rows[r], rows[c], stamp[r], stamp[c] = rows[c], rows[r], stamp[c], stamp[r]
            sign, symmetric = -sign, False
            k = pending.index(c)
        p = pending.pop(k)
        top = fresh(p)
        pivot = top[p]
        definite = definite and pivot > 0
        if symmetric:  # top's keys are then the rows with an entry at p
            under = [r for r in top if r is not None and r != p]
        else:
            under = [r for r in pending if p in rows[r]]
        for r in under:
            row = fresh(r)
            f = row.pop(p)
            new = {c: x * pivot for c, x in row.items()}
            for c, t in top.items():
                if c != p:
                    new[c] = new.get(c, 0) - f * t
            rows[r] = {c: x // d for c, x in new.items()}
            stamp[r] = pivot
        d = pivot
        done.append(p)
    return _CorePass(definite, sign * d, done, rows)


def _run_pieces(g: DualGraph) -> tuple[int, list[_Piece]]:
    """D and the pieces of g's adjunction solve; g's pass must be definite.
    Along a run D * alpha is the arithmetic progression between its ends'
    (0 past a free end), so every division is exact."""
    elim = _elimination(g)
    y = elim.scaled_alpha(g)
    pieces = [((v,), y[v], 0) for v in g._compact()[0]]
    for a, b, ids in g._compact()[1]:
        if ids:
            step = (y[b] - y[a]) // (len(ids) + 1)
            pieces.append((ids, y[a] + step, step))
    return elim.det, pieces


def is_forest(g: DualGraph) -> bool:
    # a forest has one core-to-core link fewer than core vertices per tree
    dfs = _core_dfs(g)
    return dfs.links == len(dfs.order) - len(dfs.starts)


def is_tree(g: DualGraph) -> bool:
    dfs = _core_dfs(g)
    return is_forest(g) and len(dfs.starts) + len(dfs.pure) == 1


def graph_d(g: DualGraph) -> int:
    """det(-I(g)); 1 for the empty graph."""
    return _elimination(g).det


def signed_determinant(g: DualGraph) -> int:
    """det(I(g)); 1 for the empty graph."""
    return graph_d(g) if g._size() % 2 == 0 else -graph_d(g)


# -- negative definiteness -------------------------------------------------


def is_negative_definite(g: DualGraph) -> bool:
    """True iff I(g) is negative definite (exact Sylvester test).

    Reads only the graph's one pass: the forest pass, else the pivots of the
    sparse elimination of -I over the compact core, independent of the run
    lengths.  Definiteness does not depend on the elimination order, so the
    two passes decide the same, and a nonnegative weight shows as a
    nonpositive pivot.
    """
    return _elimination(g).definite


# -- blow-downs and contraction --------------------------------------------


def blow_down(g: DualGraph, v: int) -> DualGraph:
    """Contract the (-1)-vertex v, adjusting its neighbors.

    v must weigh -1 (NotContractibleCurve), have degree <= 2
    (WouldBreakChain), and its two neighbors, when present, must not already
    be adjacent (WouldCreateCycle).  Each neighbor's weight increases by 1;
    with two neighbors the traversing edge is fused.  Remaining ids are kept;
    a mark on v disappears with it.  The result is built from g's checked
    data and not validated again.  A graph that holds only the compact form
    is cut around v on it (_blow_down_compact) and re-joined as delete()
    re-joins (_rejoin), in time independent of the run lengths; one given
    vertex-level data is spliced from it (bisect on the sorted edges) in
    O(n), so its weights keep their order.
    """
    compact = g._weights is None
    if compact:
        if v not in g:
            raise ValueError(f"no vertex {v}")
        w, nbrs = g.weight(v), list(g.neighbors(v))
    else:
        weights, edges = g._expand()
        if type(v) is not int or v not in weights:
            raise ValueError(f"no vertex {v}")
        lo, hi = bisect_left(edges, (v,)), bisect_left(edges, (v + 1,))
        below = [u for u, x in edges[:lo] if x == v]
        w, nbrs = weights[v], below + [x for _, x in edges[lo:hi]]  # sorted
    if w != -1:
        raise NotContractibleCurve(f"vertex {v} has weight {w}, not -1")
    if len(nbrs) > 2:
        raise WouldBreakChain(f"vertex {v} has degree {len(nbrs)} > 2")
    if len(nbrs) == 2 and (
        nbrs[1] in g.neighbors(nbrs[0]) if compact else tuple(nbrs) in edges
    ):
        raise WouldCreateCycle(
            f"neighbors {nbrs[0]} and {nbrs[1]} of {v} are already adjacent"
        )
    c = None if g.c == v else g.c
    if compact:
        return _blow_down_compact(g, v, nbrs, c)
    new = list(edges)
    del new[lo:hi]
    for u in below:
        new.remove((u, v))
    if len(nbrs) == 2:
        insort(new, tuple(nbrs))
    weights = {**weights, **{u: weights[u] + 1 for u in nbrs}}
    del weights[v]
    return DualGraph._make(None, None, weights, tuple(new), c)


def _blow_down_compact(g: DualGraph, v: int, nbrs: list[int], c) -> DualGraph:
    """blow_down of the core (-1)-vertex v, with sorted neighbors nbrs, on
    g's compact form, cut only around v as delete() cuts it.  The links away
    from v keep their places.  Each run next to v loses v, and its end next
    to v goes from -2 to -1 and becomes core; the fused edge joins nbrs.
    delete()'s re-join (_rejoin) puts these pieces back; its _normalize runs
    only when a core neighbor now weighs -2 and might join a run."""
    core, old = g._compact()
    core = {u: w for u, w in core.items() if u != v}
    links: list[_Link] = []
    pieces: list[_Link] = [(*nbrs, ())] if len(nbrs) == 2 else []
    for link in old:
        a, b, ids = link
        if a != v and b != v:
            links.append(link)
            continue
        if a != v:
            a, b, ids = b, a, ids[::-1]
        if not ids:
            core[b] += 1
            continue
        a, ids = ids[0], ids[1:]
        if b == v:  # a self-loop: the run's other end becomes core too
            b, ids = ids[-1], ids[:-1]
            core[b] = -1
        core[a] = -1
        if ids or b is not None:
            pieces.append((a, b, ids))
    return _rejoin(core, links, pieces, nbrs, c)


def _blow_up(g: DualGraph, ends: tuple, new_id: int | None) -> DualGraph:
    """A fresh (-1)-vertex new_id, or one past the largest id, joined to
    ends, each of which weighs 1 less: ends (u, v) is an edge of g, which the
    new vertex replaces, (u,) a vertex of g and () nothing.  g is expanded
    once and every check reads that expansion; the result is spliced from it
    like blow_down's, and not validated again."""
    weights, edges = g._expand()
    if len(ends) == 2:
        u, v = ends
        ends = (u, v) if u < v else (v, u)
        if type(u) is not int or type(v) is not int or ends not in edges:
            raise ValueError(f"no edge ({u},{v})")
    elif ends and (type(ends[0]) is not int or ends[0] not in weights):
        raise ValueError(f"no vertex {ends[0]}")
    w = new_id if new_id is not None else max(weights, default=0) + 1
    if w in weights:
        raise ValueError(f"vertex id {w} already in use")
    if type(w) is not int:
        raise ValueError("vertex ids and weights must be integers")
    new = list(edges)
    if len(ends) == 2:
        new.remove(ends)
    for x in ends:
        insort(new, (x, w) if x < w else (w, x))
    weights = {**weights, **{x: weights[x] - 1 for x in ends}, w: -1}
    return DualGraph._make(None, None, weights, tuple(new), g.c)


def blow_up_edge(g: DualGraph, u: int, v: int, new_id: int | None = None) -> DualGraph:
    """Insert a fresh (-1)-vertex on the edge (u, v), decrementing u and v."""
    return _blow_up(g, (u, v), new_id)


def blow_up_at(g: DualGraph, u: int, new_id: int | None = None) -> DualGraph:
    """Attach a fresh (-1)-leaf at u, decrementing u's weight."""
    return _blow_up(g, (u,), new_id)


def blow_up_free(g: DualGraph, new_id: int | None = None) -> DualGraph:
    """Add an isolated (-1)-vertex (inverse of blowing down an isolated one)."""
    return _blow_up(g, (), new_id)


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
    being stuck) and the only ones pushed again.  On a graph given
    vertex-level data this costs O(n log n).  A graph that holds only the
    compact form is contracted on it (_contract_compact), over the adjacency
    that core_links() caches, in time independent of the run lengths.  The
    result, built from g's checked data, is not validated again.
    """
    if g._weights is None:
        return _contract_compact(g)
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
                raise _stuck(aside)
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
    edges = tuple(sorted((u, v) for u, nbs in adj.items() for v in nbs if u < v))
    return DualGraph._make(None, None, weights, edges, c)


def _stuck(aside: set[int]) -> WouldCreateCycle:
    return WouldCreateCycle(
        f"every contractible (-1)-vertex (e.g. {min(aside)}) has adjacent neighbors"
    )


def _neighbors_adjacent(adj: dict[int, set[int]], v: int) -> bool:
    a, b = adj[v]
    return b in adj[a]


def _contract_compact(g: DualGraph) -> DualGraph:
    """contract_all on g's compact form: the same heap order, the same
    vertices set aside, the same result.

    adj maps each core vertex to its neighbors, each with its link as
    core_links() has it (far core end or None, run ids away from the
    vertex).  A (-1)-vertex is core, so the heap holds only core vertices.
    Blowing one down turns the end of each run next to it into a (-1) core
    vertex; the form is made canonical again once, at the end.  When v has
    one run link and at most one other neighbor o, joined by an edge, the
    contraction often goes on down that run, o gaining 1 for each vertex:
    _eat_run eats those vertices in closed form before v is blown down.
    """
    core, links = g._compact()
    wts = dict(core)
    adj = {u: {link_neighbor(e): e for e in ends} for u, ends in g.core_links().items()}
    free = [link for link in links if link[0] is None]  # core-free: never touched
    n, c = g._size(), g.c
    heap = sorted(v for v, w in core.items() if w == -1)
    aside: set[int] = set()
    while n > 2:
        if not heap:
            if aside:
                raise _stuck(aside)
            break
        v = heappop(heap)
        nb = adj.get(v)
        if wts.get(v) != -1 or len(nb) > 2:
            aside.discard(v)
            continue
        if len(nb) == 2 and _ends_adjacent(adj, nb):
            aside.add(v)
            continue
        aside.discard(v)
        eaten = _eat_run(heap, wts, adj, v, n)
        if eaten:
            n -= len(eaten)
            if c in eaten:
                c = None
        del wts[v], adj[v]
        n -= 1
        if c == v:
            c = None
        for x, (far, ids) in nb.items():
            if not ids:  # a core neighbor: one link fewer, 1 heavier
                del adj[x][v]
                wts[x] += 1
            else:  # the run's end next to v: a (-1) core vertex
                wts[x], rest = -1, ids[1:]
                if far == v:  # a self-loop: its other end becomes core too
                    far, rest = rest[-1], rest[:-1]
                elif far is not None:
                    del adj[far][ids[-1]]
                    adj[far][rest[-1] if rest else x] = (x, rest[::-1])
                adj[x] = {}
                if rest or far is not None:
                    adj[x][rest[0] if rest else far] = (far, rest)
            heappush(heap, x)
        if len(nb) == 2:
            a, b = nb
            adj[a][b], adj[b][a] = (b, ()), (a, ())
    links = free  # and each link once
    for u, ends in adj.items():
        for far, ids in ends.values():
            if far is None or u < far or (u == far and ids[0] < ids[-1]):
                links.append((u, far, ids))
    return DualGraph._from_parts(wts, links, c)


def _eat_run(heap, wts, adj, v: int, n: int) -> Sequence[int]:
    """The vertices of v's run that contract_all blows down in turn right
    after v, eaten here in closed form; n is the vertex count.

    v must have one neighbor x on a run, and at most one other neighbor o,
    joined by an edge.  Once v is gone, the next run vertex weighs -1, its
    neighbors are o and the vertex after it, and o gains 1 with each one
    blown down.  So the i-th is popped and blown down next as long as it is
    below every other id in the heap, is not stuck (o is the run's far end
    and it is the last but one), the graph keeps 3 vertices, and o, when
    popped before it, is not eligible: o weighs -1 when i = -2 - its weight.
    It eats at most all but the run's last vertex; v's blow-down then makes
    the next one core.  Copies of v and o on top of the heap are dropped: v
    is gone and o is pushed again.
    """
    nb = adj[v]
    x = o = None
    for y, (_, ids) in nb.items():
        if not ids:
            o = y
        elif x is None:
            x = y
        else:  # two runs, or a self-loop
            return ()
    if x is None or len(nb[x][1]) < 2:
        return ()
    far, ids = nb[x]
    while heap and heap[0] in (v, o):
        heappop(heap)
    k = max(min(len(ids) - 1 - (o is not None and far == o), n - 3), 0)
    if heap:
        m = heap[0]
        if ids[0] > m:
            k = 0
        elif type(ids) is not range:  # a range spans no id of the heap
            k = next((i for i in range(k) if ids[i] > m), k)
    if o is not None:
        i = -2 - wts[o]
        if 0 <= i < k and len(adj[o]) <= 2 and o < ids[i]:
            k = i
        wts[o] += k
    if k:
        del nb[x]
        nb[ids[k]] = (far, ids[k:])
    return ids[:k]


def _ends_adjacent(adj: dict[int, dict[int, _End]], nb: dict[int, _End]) -> bool:
    """Whether the two neighbors in nb, one vertex's entry of adj, are
    adjacent: a run vertex's other neighbor is the next one along its run."""
    (x, (fx, ix)), (y, (fy, iy)) = nb.items()
    if ix:
        return (ix[1] if len(ix) > 1 else fx) == y
    if iy:
        return (iy[1] if len(iy) > 1 else fy) == x
    return y in adj[x]


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
    tree = is_tree(g)
    rest = g if g.c is None else g.minus_c()
    c_nbrs = set() if g.c is None else set(g.neighbors(g.c))
    inc = rest.core_links()
    comps = []
    for comp in _core_components(rest):
        vertices = tuple(sorted(chain(comp.core, *comp.runs)))
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


def _tree_code(g: DualGraph, comp: list[int]) -> tuple:
    """The core tree comp of a forest, encoded by one leaf peel (AHU).

    Round by round, the core vertices with at most one link to a core vertex
    not yet peeled are peeled and labelled (weight, is C, sorted entries),
    with one entry per link to a pendant run or to a vertex peeled before:
    (run length, index of C on the run counted from this end or -1, that
    vertex's rank or -1).  Ranks number the distinct labels round by round,
    each round's sorted; a label fixes its subtree and so its height, so
    equal labels share a round.  The code is (rounds, link): each round's
    sorted labels, the 1 or 2 centers' last, and for two centers the (run
    length, C index) of the link between them, read from the end with the
    smaller label, or the smaller index on a tie.  Two trees have equal
    codes iff they are isomorphic, and the tuples nest to a fixed depth
    however deep the tree is.
    """
    core = g._compact()[0]
    inc = g.core_links()
    c = None if g.c in core else g.c  # C on a run, or None
    inner = {v: sum(w is not None for w, _ in inc[v]) for v in comp}
    current = [v for v in comp if inner[v] <= 1]
    rank: dict[int | None, int] = {None: -1}  # a pendant run has no far end
    label_rank: dict[tuple, int] = {}
    rounds = []
    while current:
        labels = [
            (core[v], v == g.c, tuple(sorted(
                (len(ids), ids.index(c) if c is not None and c in ids else -1, rank[w])
                for w, ids in inc[v]
                if w in rank
            )))
            for v in current
        ]
        ordered = tuple(sorted(labels))
        for lab in ordered:
            label_rank.setdefault(lab, len(label_rank))
        for v, lab in zip(current, labels):
            rank[v] = label_rank[lab]
        rounds.append(ordered)
        peeled, current = current, []
        for v in peeled:
            for w, _ in inc[v]:
                if w not in rank:
                    inner[w] -= 1
                    if inner[w] == 1:
                        current.append(w)
    link = ()
    if len(peeled) == 2:  # the last round peeled the centers
        u, v = sorted(peeled, key=rank.__getitem__)
        ids = next(ids for w, ids in inc[u] if w == v)
        k = ids.index(c) if c is not None and c in ids else -1
        if rank[u] == rank[v] and k >= 0:
            k = min(k, len(ids) - 1 - k)
        link = (len(ids), k)
    return tuple(rounds), link


def canonical_form(g: DualGraph) -> tuple:
    """Order-independent encoding of a weighted marked forest.

    Two forests are isomorphic (respecting weights and the C mark) iff their
    canonical forms are equal.  Raises DomainError on graphs with cycles.
    Any isomorphism maps core to core, so a component with core is its core
    tree's code (_tree_code).  A core-free (-2)-chain is its length and the
    distance from C to its nearer end (-1 without C).  The cost is
    independent of the run lengths.
    """
    if not is_forest(g):
        raise DomainError("canonical form is only defined for forests")
    trees, chains = [], []
    for comp in _core_components(g):
        if comp.core:
            trees.append(_tree_code(g, comp.core))
        else:
            (ids,) = comp.runs
            k = ids.index(g.c) if g.c is not None and g.c in ids else -1
            chains.append((len(ids), min(k, len(ids) - 1 - k) if k >= 0 else -1))
    return tuple(sorted(trees)), tuple(sorted(chains))


def isomorphic(g1: DualGraph, g2: DualGraph) -> bool:
    return canonical_form(g1) == canonical_form(g2)

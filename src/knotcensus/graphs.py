"""Simple graphs and exact enumeration of cycles and disjoint cycle pairs.

Vertices are the integers 1..n.  A cycle is stored in canonical form so it
can serve as a dictionary key: the vertex tuple is rotated to start at its
smallest vertex and reflected so the second entry is the smaller of that
vertex's two cycle neighbours.  Enumeration is deterministic and sorted.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable


class SimpleGraph:
    """Undirected simple graph on vertices 1..vertex_count.

    `edges` holds each edge once as an (i, j) pair with i < j.  `tags`
    optionally attaches a role string to a vertex (used to mark the apex
    of the tripartite graph below).  Graphs compare and hash by these
    three fields.
    """

    __slots__ = ("vertex_count", "edges", "tags")

    def __init__(
        self,
        vertex_count: int,
        edges: frozenset[tuple[int, int]],
        tags: tuple[tuple[int, str], ...] = (),
    ):
        for i, j in edges:
            if not (1 <= i < j <= vertex_count):
                raise ValueError(f"bad edge ({i}, {j}) for n={vertex_count}")
        self.vertex_count = vertex_count
        self.edges = edges
        self.tags = tags

    def _key(self) -> tuple:
        return (self.vertex_count, self.edges, self.tags)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is SimpleGraph else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return (i, j) in self.edges

    def tag_of(self, v: int) -> str | None:
        for w, t in self.tags:
            if w == v:
                return t
        return None


def _edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def complete_graph(n: int) -> SimpleGraph:
    """Complete graph K_n on vertices 1..n (n >= 3)."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    edges = frozenset((i, j) for i, j in combinations(range(1, n + 1), 2))
    return SimpleGraph(n, edges)


def k331_graph() -> SimpleGraph:
    """Complete tripartite graph on parts {1,3,5}, {2,4,6} and the apex 7.

    Edges join every pair of vertices from different parts: the odd and
    even triples span a bipartite K_{3,3}, and the apex is joined to all
    six other vertices.  The apex carries the tag "apex".
    """
    odd = (1, 3, 5)
    even = (2, 4, 6)
    edges = set()
    for i in odd:
        for j in even:
            edges.add(_edge(i, j))
    for v in odd + even:
        edges.add(_edge(v, 7))
    return SimpleGraph(7, frozenset(edges), tags=((7, "apex"),))


def k331_h_subgraph(g: SimpleGraph) -> SimpleGraph:
    """Bipartite subgraph spanned by the two triples, with the apex removed.

    The apex is the unique degree-6 vertex tagged "apex"; the result keeps
    the original labels 1..6 of the remaining vertices.
    """
    apex = next((v for v, t in g.tags if t == "apex"), None)
    if apex != 7 or g.vertex_count != 7:
        raise ValueError("expected the tripartite graph with apex 7")
    edges = frozenset(e for e in g.edges if apex not in e)
    return SimpleGraph(6, edges)


class Cycle:
    """A cycle through distinct vertices, in canonical orientation.

    Cycles compare, sort and hash by their vertex tuples.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]):
        if len(vertices) < 3 or vertices[0] != min(vertices) or vertices[1] > vertices[-1]:
            raise ValueError(f"not in canonical form: {vertices}")
        self.vertices = vertices

    def __eq__(self, other):
        return self.vertices == other.vertices if type(other) is Cycle else NotImplemented

    def __lt__(self, other):
        return self.vertices < other.vertices if type(other) is Cycle else NotImplemented

    def __hash__(self):
        return hash((self.vertices,))

    def __repr__(self):
        return f"Cycle({self.vertices})"

    @staticmethod
    def canonical(seq: Iterable[int]) -> "Cycle":
        """Canonicalize a vertex sequence read around a cycle.

        Rotates the smallest vertex to the front, then picks the traversal
        direction whose second vertex is smaller.  Rotations and
        reflections of the same cycle all map to one representative.
        """
        vs = tuple(seq)
        if len(vs) < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in cycle {vs}")
        k = len(vs)
        i = vs.index(min(vs))
        fwd = tuple(vs[(i + j) % k] for j in range(k))
        bwd = tuple(vs[(i - j) % k] for j in range(k))
        return Cycle(fwd if fwd[1] < bwd[1] else bwd)

    @property
    def length(self) -> int:
        return len(self.vertices)

    def edges(self) -> tuple[tuple[int, int], ...]:
        vs = self.vertices
        return tuple(_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))

    def is_subgraph_of(self, g: SimpleGraph) -> bool:
        return all(e in g.edges for e in self.edges())


class DisjointCyclePair:
    """Two vertex-disjoint cycles, ordered by (length, vertex tuple).

    Pairs compare, sort and hash by (first, second).
    """

    __slots__ = ("first", "second")

    def __init__(self, first: Cycle, second: Cycle):
        if set(first.vertices) & set(second.vertices):
            raise ValueError("cycles share a vertex")
        if (first.length, first.vertices) > (second.length, second.vertices):
            raise ValueError("pair not in canonical order")
        self.first = first
        self.second = second

    @staticmethod
    def of(a: Cycle, b: Cycle) -> "DisjointCyclePair":
        if (a.length, a.vertices) > (b.length, b.vertices):
            a, b = b, a
        return DisjointCyclePair(a, b)

    def _key(self) -> tuple:
        return (self.first, self.second)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is DisjointCyclePair else NotImplemented

    def __lt__(self, other):
        return self._key() < other._key() if type(other) is DisjointCyclePair else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"DisjointCyclePair({self.first}, {self.second})"


def enumerate_cycles(g: SimpleGraph, k: int) -> tuple[Cycle, ...]:
    """All k-cycles of g, sorted by canonical vertex tuple.

    Each cycle starts at its smallest vertex, so it is the root followed
    by an arrangement of k-1 larger vertices, and of the arrangement and
    its reverse only the one whose first vertex is smaller is canonical.
    Roots ascend and `permutations` of the ascending larger vertices
    comes out in lexicographic order, so the cycles come out sorted.
    Edges are checked only where g is not complete.
    """
    n = g.vertex_count
    if not (3 <= k <= n):
        raise ValueError(f"cycle length {k} out of range for n={n}")
    complete = g.edge_count == n * (n - 1) // 2
    out: list[Cycle] = []
    for root in g.vertices:
        for rest in permutations(range(root + 1, n + 1), k - 1):
            if rest[0] < rest[-1]:
                path = (root, *rest)
                if complete or all(
                    g.has_edge(a, b) for a, b in zip(path, path[1:] + path[:1])
                ):
                    out.append(Cycle(path))
    return tuple(out)


def enumerate_disjoint_pairs(g: SimpleGraph, k: int, l: int) -> tuple[DisjointCyclePair, ...]:
    """All unordered pairs of vertex-disjoint cycles of lengths k and l.

    Sorted, as the nested loops over sorted cycle lists emit them.
    """
    if k > l:
        k, l = l, k
    if k + l > g.vertex_count:
        return ()
    ks = enumerate_cycles(g, k)
    ls = ks if k == l else enumerate_cycles(g, l)
    out: list[DisjointCyclePair] = []
    for i, a in enumerate(ks):
        sa = set(a.vertices)
        for b in ls[i + 1 :] if k == l else ls:
            if sa.isdisjoint(b.vertices):
                out.append(DisjointCyclePair(a, b))
    return tuple(out)

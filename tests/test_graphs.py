"""Cycle enumeration against brute force and counting formulas."""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from knotcensus.graphs import (
    Cycle,
    DisjointCyclePair,
    SimpleGraph,
    complete_graph,
    enumerate_cycles,
    enumerate_disjoint_pairs,
    k331_graph,
    k331_h_subgraph,
)


def brute_force_cycles(g: SimpleGraph, k: int) -> set[tuple[int, ...]]:
    """Every k-cycle found by trying all vertex orderings."""
    seen = set()
    for sub in combinations(g.vertices, k):
        for perm in permutations(sub[1:]):
            seq = (sub[0],) + perm
            if all(g.has_edge(seq[i], seq[(i + 1) % k]) for i in range(k)):
                seen.add(Cycle.canonical(seq).vertices)
    return seen


@given(
    verts=st.lists(st.integers(1, 30), min_size=3, max_size=8, unique=True),
    rot=st.integers(0, 7),
    flip=st.booleans(),
)
def test_canonical_form_is_rotation_and_reflection_invariant(verts, rot, flip):
    vs = tuple(verts)
    k = len(vs)
    turned = tuple(vs[(i + rot) % k] for i in range(k))
    if flip:
        turned = turned[::-1]
    assert Cycle.canonical(vs) == Cycle.canonical(turned)


def test_canonical_form_shape():
    c = Cycle.canonical((4, 2, 9, 7))
    assert c.vertices[0] == 2
    assert c.vertices[1] < c.vertices[-1]
    with pytest.raises(ValueError):
        Cycle((4, 2, 9, 7))  # not canonical
    with pytest.raises(ValueError):
        Cycle.canonical((1, 2))
    with pytest.raises(ValueError):
        Cycle.canonical((1, 2, 2))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_enumeration_matches_brute_force(n):
    g = complete_graph(n)
    for k in range(3, n + 1):
        got = {c.vertices for c in enumerate_cycles(g, k)}
        assert got == brute_force_cycles(g, k)


@pytest.mark.parametrize(
    "g",
    [complete_graph(n) for n in range(3, 8)] + [k331_graph(), k331_h_subgraph(k331_graph())],
    ids=[f"K{n}" for n in range(3, 8)] + ["K331", "H"],
)
def test_enumeration_equals_canonicalised_permutations(g):
    # Every arrangement of k vertices that closes up in g, canonicalised:
    # the same cycles, in the same order, as the enumeration.
    for k in range(3, g.vertex_count + 1):
        brute = {
            Cycle.canonical(seq)
            for seq in permutations(g.vertices, k)
            if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1]))
        }
        assert enumerate_cycles(g, k) == tuple(sorted(brute)), k


def cycle_count_complete(n: int, k: int) -> int:
    """Number of k-cycles in K_n: C(n, k) * (k-1)! / 2."""
    return comb(n, k) * factorial(k - 1) // 2


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_cycle_counts_match_formula(n):
    g = complete_graph(n)
    for k in range(3, n + 1):
        assert len(enumerate_cycles(g, k)) == cycle_count_complete(n, k)


def test_enumeration_is_sorted_and_duplicate_free():
    # Both enumerations emit in sorted order with no sort of their own.
    graphs = [complete_graph(n) for n in range(3, 10)]
    graphs += [k331_graph(), k331_h_subgraph(k331_graph())]
    for g in graphs:
        n = g.vertex_count
        for k in range(3, n + 1):
            cycles = enumerate_cycles(g, k)
            assert list(cycles) == sorted(set(cycles)), (n, k)
        for k in range(3, n // 2 + 1):
            for l in range(k, n - k + 1):
                pairs = enumerate_disjoint_pairs(g, k, l)
                assert list(pairs) == sorted(set(pairs)), (n, k, l)


@pytest.mark.parametrize(
    "n,k,l,expected",
    [
        (6, 3, 3, 10),
        (7, 3, 3, 70),
        (7, 3, 4, 105),
        (8, 3, 3, 280),
        (8, 3, 4, 840),
        (9, 3, 3, 840),
        (9, 3, 4, 3780),
        (5, 3, 3, 0),
    ],
)
def test_disjoint_pair_counts(n, k, l, expected):
    g = complete_graph(n)
    pairs = enumerate_disjoint_pairs(g, k, l)
    assert len(pairs) == expected
    for p in pairs:
        assert not set(p.first.vertices) & set(p.second.vertices)
        assert {p.first.length, p.second.length} == {k, l}


def test_disjoint_pairs_symmetric_in_lengths():
    g = complete_graph(7)
    assert enumerate_disjoint_pairs(g, 4, 3) == enumerate_disjoint_pairs(g, 3, 4)


def test_pair_normalization():
    a = Cycle.canonical((1, 2, 3))
    b = Cycle.canonical((4, 5, 6, 7))
    assert DisjointCyclePair.of(b, a) == DisjointCyclePair.of(a, b)
    with pytest.raises(ValueError):
        DisjointCyclePair.of(a, Cycle.canonical((3, 5, 6)))


def test_tripartite_graph_shape():
    g = k331_graph()
    assert g.vertex_count == 7
    assert g.edge_count == 15  # 9 bipartite + 6 apex
    assert g.tag_of(7) == "apex"
    degree = {v: sum(v in edge for edge in g.edges) for v in g.vertices}
    assert degree[7] == 6
    for v in range(1, 7):
        assert degree[v] == 4
    assert not g.has_edge(1, 3)  # same part
    assert not g.has_edge(2, 4)
    assert g.has_edge(1, 2)


def test_tripartite_cycle_counts():
    g = k331_graph()
    assert [len(enumerate_cycles(g, k)) for k in (3, 4, 5, 6, 7)] == [
        9,
        27,
        36,
        42,
        36,
    ]
    # no two vertex-disjoint triangles exist: every triangle uses the apex
    assert len(enumerate_disjoint_pairs(g, 3, 3)) == 0
    assert len(enumerate_disjoint_pairs(g, 3, 4)) == 9


def test_h_subgraph():
    g = k331_graph()
    h = k331_h_subgraph(g)
    assert h.vertex_count == 6
    assert h.edge_count == 9
    assert len(enumerate_cycles(h, 6)) == 6
    assert len(enumerate_cycles(h, 4)) == 9
    for c in enumerate_cycles(h, 6):
        assert c.is_subgraph_of(g)
    with pytest.raises(ValueError):
        k331_h_subgraph(complete_graph(7))


def test_cycle_edges_and_membership():
    c = Cycle.canonical((1, 3, 2, 4))
    assert set(c.edges()) == {(1, 3), (2, 3), (2, 4), (1, 4)}
    assert c.is_subgraph_of(complete_graph(4))
    assert not c.is_subgraph_of(k331_graph())  # (1, 3) joins same part


def test_bad_graph_rejected():
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(1, 4)}))
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        complete_graph(2)
    with pytest.raises(ValueError):
        enumerate_cycles(complete_graph(5), 6)

"""The mask-based graph helpers of ``gddkit.core`` against the plain
adjacency-list search and path walk in ``reference``.

``components_of``, ``path_order`` and ``non_cut_vertices`` read a graph as
neighbour masks and a vertex subset as one int.  They are compared on every
fixture block, on each of its one- and two-vertex deletions (connected or
not), on every connected deletion as a graph of its own, and on drawn graphs
and subsets.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from gddkit.core import components_of, non_cut_vertices, parse_blocks, path_order, vertices_of

FIXTURES = Path(__file__).parent / "fixtures"


def mask(vertices):
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def masks_of(adj):
    return [mask(nbs) for nbs in adj]


def agree(adj, keep):
    """The three helpers equal the reference on the subgraph on ``keep``."""
    nbrs = masks_of(adj)
    got = [vertices_of(c) for c in components_of(nbrs, mask(keep))]
    assert got == ref.components_of(adj, keep), keep
    assert path_order(nbrs, mask(keep)) == ref.path_order(adj, keep), keep


def test_vertices_of_lists_the_set_bits():
    for m in range(1 << 10):
        assert vertices_of(m) == [v for v in range(10) if m >> v & 1]


def test_helpers_match_reference_on_fixture_deletions():
    blocks = [g for path in sorted(FIXTURES.glob("*.gdd"))
              for g, _, _ in parse_blocks(path.read_text())]
    assert len(blocks) == 334
    subsets = connected = 0
    for g in blocks:
        adj = g.adjacency()
        n = g.rank
        assert components_of(masks_of(adj)) == [(1 << n) - 1]
        assert non_cut_vertices(masks_of(adj)) == ref.non_cut_vertices(adj)
        for v in range(n):
            rest = [u for u in range(n) if u != v]
            agree(adj, rest)
            for w in rest:
                if w > v:
                    agree(adj, [u for u in rest if u != w])
                    subsets += 1
            sub = g.delete_vertex(v)
            sub_adj = sub.adjacency()
            if len(ref.components_of(sub_adj)) == 1:
                assert non_cut_vertices(masks_of(sub_adj)) == ref.non_cut_vertices(sub_adj)
                assert sub.chain_order() == ref.chain_order(sub)
                connected += 1
        agree(adj, list(range(n)))
    assert subsets == 6064 and connected == 980


@st.composite
def graphs_and_subsets(draw):
    """A graph on up to 10 vertices, sparse or dense, and a vertex subset."""
    n = draw(st.integers(1, 10))
    density = draw(st.sampled_from([0.15, 0.3, 0.6]))
    adj = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.floats(0, 1)) < density:
                adj[u].append(v)
                adj[v].append(u)
    keep = [v for v in range(n) if draw(st.booleans())]
    return adj, keep


@settings(max_examples=400, deadline=None)
@given(graphs_and_subsets())
def test_helpers_match_reference_on_drawn_graphs(case):
    adj, keep = case
    agree(adj, keep)
    agree(adj, list(range(len(adj))))
    assert non_cut_vertices(masks_of(adj)) == ref.non_cut_vertices(adj)


@settings(max_examples=200, deadline=None)
@given(st.permutations(range(8)), st.integers(1, 8))
def test_path_order_reads_drawn_paths(perm, k):
    """A path laid along a drawn vertex order, read from its least end."""
    order = perm[:k]
    adj = [[] for _ in range(8)]
    for u, v in zip(order, order[1:]):
        adj[u].append(v)
        adj[v].append(u)
    want = order if order[0] <= order[-1] else order[::-1]
    assert path_order(masks_of(adj), mask(order)) == want
    assert ref.path_order(adj, order) == want

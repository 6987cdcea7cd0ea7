"""Transitive closure and transitive reduction.

The reduction implements **Algorithm 4 (TR)** from the paper's appendix: for
a DAG, visit vertices in reverse topological order keeping a descendant set
per vertex; a successor that is also reachable through another successor is
redundant and is dropped.  For a DAG the transitive reduction is unique
(Aho, Garey & Ullman 1972), which is what gives Algorithm 1 its minimality
guarantee.

Descendant sets are represented as Python ``int`` bitmasks: union is a single
bignum OR, so the reduction runs fast even on the 100-vertex graphs of
Table 1.
"""

from __future__ import annotations

from array import array
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import CycleError
from repro.graphs.digraph import DiGraph
from repro.graphs.traversal import topological_sort

Node = Hashable
Edge = Tuple[Node, Node]


def _closure_rows(graph: DiGraph) -> Tuple[List[Node], List[int]]:
    """Reachability rows of ``graph`` as per-node ``int`` bitmasks.

    ``rows[i]`` has bit ``j`` set whenever a directed path of length >= 1
    leads from node ``i`` to node ``j`` (insertion-order indices).  Shared
    by :func:`transitive_closure` and :class:`ClosureBitset`.
    """
    index: Dict[Node, int] = {n: i for i, n in enumerate(graph.nodes())}
    order = list(graph.nodes())
    n = len(order)
    reach: List[int] = [0] * n
    try:
        topo = topological_sort(graph)
    except CycleError:
        topo = None

    if topo is not None:
        for node in reversed(topo):
            i = index[node]
            mask = 0
            for child in graph.successors(node):
                j = index[child]
                mask |= (1 << j) | reach[j]
            reach[i] = mask
    else:
        # Cyclic case: iterate to a fixed point (bounded by n rounds).
        for node in order:
            i = index[node]
            for child in graph.successors(node):
                reach[i] |= 1 << index[child]
        changed = True
        while changed:
            changed = False
            for node in order:
                i = index[node]
                mask = reach[i]
                new = mask
                remaining = mask
                while remaining:
                    j = (remaining & -remaining).bit_length() - 1
                    remaining &= remaining - 1
                    new |= reach[j]
                if new != mask:
                    reach[i] = new
                    changed = True
    return order, reach


class ClosureBitset:
    """Transitive closure as a packed reachability bitset.

    The rows of :func:`_closure_rows` are stored contiguously in an
    ``array('Q')`` of 64-bit limbs; :attr:`view` exposes them through a
    read-only :class:`memoryview`, so per-node descendant *sets* (and the
    quadratic closure :class:`~repro.graphs.digraph.DiGraph`) never have
    to be materialized.  ``followings``/``dependency``/``minimize`` query
    reachability through :meth:`has_edge`/:meth:`iter_edges` instead of
    building a closure graph per call — the Algorithm 4 descendant-set
    representation of the kernel layer (see ``repro.core.kernels``).
    """

    __slots__ = ("nodes", "_index", "_limbs", "_words", "view")

    def __init__(self, nodes: List[Node], rows: List[int]) -> None:
        self.nodes = nodes
        self._index: Dict[Node, int] = {
            node: i for i, node in enumerate(nodes)
        }
        # One row = ``words`` little-endian 64-bit limbs.
        words = max(1, (len(nodes) + 63) // 64)
        self._words = words
        limbs = array("Q", bytes(8 * words * max(1, len(nodes))))
        for i, row in enumerate(rows):
            base = i * words
            w = 0
            while row:
                limbs[base + w] = row & 0xFFFFFFFFFFFFFFFF
                row >>= 64
                w += 1
        self._limbs = limbs
        self.view = memoryview(limbs).toreadonly()

    def row_mask(self, node: Node) -> int:
        """Reachability row of ``node`` as an ``int`` bitmask."""
        i = self._index[node]
        w = self._words
        return int.from_bytes(
            self.view[i * w : (i + 1) * w].cast("B"), "little"
        )

    def has_edge(self, source: Node, target: Node) -> bool:
        """Whether a path of length >= 1 leads from source to target."""
        i = self._index.get(source)
        j = self._index.get(target)
        if i is None or j is None:
            return False
        limb = self._limbs[i * self._words + (j >> 6)]
        return bool((limb >> (j & 63)) & 1)

    def iter_edges(self) -> Iterator[Edge]:
        """Yield the closure's edges in node-insertion order."""
        nodes = self.nodes
        for i, source in enumerate(nodes):
            mask = int.from_bytes(
                self.view[i * self._words : (i + 1) * self._words].cast(
                    "B"
                ),
                "little",
            )
            while mask:
                j = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                yield (source, nodes[j])

    def edge_set(self) -> Set[Edge]:
        """The closure's edge set."""
        return set(self.iter_edges())


def transitive_closure_bitset(graph: DiGraph) -> ClosureBitset:
    """Return the transitive closure of ``graph`` as a bitset.

    Same reachability semantics as :func:`transitive_closure` (cyclic
    graphs gain self-loops on cycle vertices) without materializing the
    quadratic closure graph.
    """
    order, reach = _closure_rows(graph)
    return ClosureBitset(order, reach)


def transitive_closure(graph: DiGraph) -> DiGraph:
    """Return the transitive closure of ``graph``.

    The closure contains the edge ``(u, v)`` whenever a directed path of
    length >= 1 from ``u`` to ``v`` exists in ``graph``.  Works for cyclic
    graphs as well (a vertex on a cycle gains a self-loop).  Callers that
    only query reachability should prefer
    :func:`transitive_closure_bitset`.
    """
    order, reach = _closure_rows(graph)
    index: Dict[Node, int] = {n: i for i, n in enumerate(order)}
    closure = DiGraph(nodes=order)
    for node in order:
        i = index[node]
        mask = reach[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            closure.add_edge(node, order[j])
    return closure


def descendant_masks(graph: DiGraph) -> Dict[Node, int]:
    """Return, for a DAG, a bitmask of each node's descendants.

    Bit positions follow the graph's node insertion order.  Raises
    :class:`CycleError` for cyclic graphs.
    """
    index: Dict[Node, int] = {n: i for i, n in enumerate(graph.nodes())}
    reach: Dict[Node, int] = {}
    for node in reversed(topological_sort(graph)):
        mask = 0
        for child in graph.successors(node):
            mask |= (1 << index[child]) | reach[child]
        reach[node] = mask
    return reach


def transitive_reduction(graph: DiGraph) -> DiGraph:
    """Return the transitive reduction of a DAG (paper's Algorithm 4).

    The reduction is the unique minimal subgraph with the same transitive
    closure.  An edge ``(u, v)`` survives iff no *other* path from ``u`` to
    ``v`` exists (Lemma 7 of the paper).

    Raises
    ------
    CycleError
        If ``graph`` has a directed cycle (the reduction of a cyclic graph
        is not unique; the paper's algorithms only ever reduce DAGs).
    """
    reduced = DiGraph(nodes=graph.nodes())
    for source, target in transitive_reduction_edges(graph):
        reduced.add_edge(source, target)
    return reduced


def transitive_reduction_edges(graph: DiGraph) -> Set[Edge]:
    """Return the edge set of the transitive reduction of a DAG.

    This is the work-horse used by Algorithm 2 step 5, which only needs to
    *mark* surviving edges rather than materialize a graph per execution.
    The computation is delegated to :func:`transitive_reduction_packed`
    over dense integer vertex ids; isolated vertices cannot affect which
    edges survive, so only the edge set is packed.
    """
    nodes = list(graph.nodes())
    index: Dict[Node, int] = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    codes = frozenset(
        index[source] * n + index[target]
        for source, target in graph.edges()
    )
    kept_codes = transitive_reduction_packed(codes, n)
    return {(nodes[code // n], nodes[code % n]) for code in kept_codes}


def transitive_reduction_packed(
    codes: Iterable[int],
    n: int,
    rank: Optional[Dict[int, int]] = None,
) -> FrozenSet[int]:
    """Transitive reduction over packed edges ``u * n + v``.

    The high-throughput miner (``repro.core.general_dag``) stores each
    trace variant's induced edge set as packed integers; reducing in that
    representation skips per-execution :class:`DiGraph` construction
    entirely.  Implementation — Algorithm 4 of the paper, vertices visited
    in reverse topological order:

    1. ``desc(v)`` starts as the union of the descendants of ``v``'s
       successors (one bignum OR per successor).
    2. A successor of ``v`` contained in that union is reachable another
       way, hence redundant.
    3. The remaining successors are added to ``desc(v)``.

    Parameters
    ----------
    codes:
        Packed edges, each at most once (iterated once).
    n:
        The packing modulus (vertex-id space size).
    rank:
        Optional precomputed topological ranks valid for a supergraph of
        ``codes`` (e.g. the full step-4 DAG when reducing its induced
        subgraphs): any edge ``(u, v)`` satisfies ``rank[u] < rank[v]``.
        When given, the per-call Kahn pass (and its cycle detection) is
        skipped — the caller vouches for acyclicity.

    Raises
    ------
    CycleError
        If the packed edges contain a directed cycle (only detected when
        ``rank`` is not supplied).
    """
    succ: Dict[int, List[int]] = {}
    if rank is not None:
        for code in codes:
            u, v = divmod(code, n)
            if u in succ:
                succ[u].append(v)
            else:
                succ[u] = [v]
        order = sorted(succ, key=rank.__getitem__, reverse=True)
        desc: Dict[int, int] = {}
        kept: Set[int] = set()
        for u in order:
            through = 0
            for v in succ[u]:
                through |= desc.get(v, 0)
            mask = through
            base = u * n
            for v in succ[u]:
                bit = 1 << v
                if not through & bit:
                    kept.add(base + v)
                mask |= bit
            desc[u] = mask
        return frozenset(kept)

    indegree: Dict[int, int] = {}
    for code in codes:
        u, v = divmod(code, n)
        succ.setdefault(u, []).append(v)
        indegree[v] = indegree.get(v, 0) + 1
        indegree.setdefault(u, 0)

    # Kahn's algorithm over the edge-bearing vertices only.
    ready = [u for u, degree in indegree.items() if degree == 0]
    topo: List[int] = []
    while ready:
        u = ready.pop()
        topo.append(u)
        for v in succ.get(u, ()):
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    if len(topo) != len(indegree):
        raise CycleError(
            "graph has a directed cycle; its transitive reduction is "
            "not unique"
        )

    desc_full: Dict[int, int] = {}
    kept_full: Set[int] = set()
    for u in reversed(topo):
        successors = succ.get(u, ())
        through = 0
        for v in successors:
            through |= desc_full[v]
        mask = through
        for v in successors:
            bit = 1 << v
            if not through & bit:
                kept_full.add(u * n + v)
            mask |= bit
        desc_full[u] = mask
    return frozenset(kept_full)


def is_transitively_reduced(graph: DiGraph) -> bool:
    """Return whether a DAG equals its own transitive reduction."""
    return graph.edge_set() == transitive_reduction_edges(graph)


def closure_equal(left: DiGraph, right: DiGraph) -> bool:
    """Return whether two graphs have identical transitive closures.

    Graphs over different node sets are never closure-equal.
    """
    if set(left.nodes()) != set(right.nodes()):
        return False
    return transitive_closure(left).edge_set() == transitive_closure(
        right
    ).edge_set()

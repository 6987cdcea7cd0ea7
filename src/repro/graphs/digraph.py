"""A small, dependency-free directed graph.

:class:`DiGraph` stores adjacency as ``dict[node, set[node]]`` in both
directions so that successor and predecessor queries are O(1) per neighbour.
Nodes may be any hashable value; the miners use activity names (strings) and
``(activity, instance)`` tuples for Algorithm 3's relabelled logs.

The structure is deliberately minimal: it supports exactly the operations the
paper's algorithms need (edge insertion/removal, neighbour iteration, induced
subgraphs, copies) plus a few conveniences for tests and rendering.  Iteration
orders are deterministic (insertion order for nodes, sorted within neighbour
renderings) so that mined graphs print reproducibly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Sequence, Set, Tuple

from repro.errors import DuplicateNodeError, NodeNotFoundError

Node = Hashable
Edge = Tuple[Node, Node]


class DiGraph:
    """A directed graph with O(1) amortised edge insertion and removal.

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes.
    edges:
        Optional iterable of ``(source, target)`` pairs.  Endpoints are
        added automatically.

    Examples
    --------
    >>> g = DiGraph(edges=[("A", "B"), ("B", "C")])
    >>> sorted(g.successors("A"))
    ['B']
    >>> g.has_edge("B", "C")
    True
    """

    __slots__ = ("_succ", "_pred")

    def __init__(
        self,
        nodes: Iterable[Node] | None = None,
        edges: Iterable[Edge] | None = None,
    ) -> None:
        # Insertion-ordered dicts double as ordered node sets.
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for source, target in edges:
                self.add_edge(source, target)

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` if not already present (idempotent)."""
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()

    def add_new_node(self, node: Node) -> None:
        """Add ``node``, raising :class:`DuplicateNodeError` if present."""
        if node in self._succ:
            raise DuplicateNodeError(node)
        self.add_node(node)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        self._require(node)
        for target in self._succ.pop(node):
            self._pred[target].discard(node)
        for source in self._pred.pop(node):
            self._succ[source].discard(node)

    def has_node(self, node: Node) -> bool:
        """Return whether ``node`` is in the graph."""
        return node in self._succ

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._succ)

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, source: Node, target: Node) -> None:
        """Add the edge ``(source, target)``, creating endpoints as needed.

        Parallel edges are collapsed (the edge set is a set); self-loops are
        permitted because intermediate graphs in Algorithm 2 may briefly
        contain them.
        """
        self.add_node(source)
        self.add_node(target)
        self._succ[source].add(target)
        self._pred[target].add(source)

    def add_edges_bulk(
        self, source: Node, targets: Iterable[Node]
    ) -> None:
        """Add edges from ``source`` to every target in one call.

        Endpoints are created as needed, like :meth:`add_edge`, but the
        per-edge membership checks are amortized: the miners' step-6
        assembly inserts thousands of edges grouped by source.
        """
        targets = list(targets)
        self.add_node(source)
        succ = self._succ
        pred = self._pred
        missing = [t for t in targets if t not in succ]
        for target in missing:
            succ[target] = set()
            pred[target] = set()
        succ[source].update(targets)
        for target in targets:
            pred[target].add(source)

    @classmethod
    def from_grouped_edges(
        cls,
        nodes: Iterable[Node],
        by_source: Iterable[Tuple[Node, Sequence[Node]]],
    ) -> "DiGraph":
        """A graph from its nodes and ``(source, targets)`` edge groups.

        Every endpoint must be among ``nodes``.  Builds exactly what
        :meth:`add_edges_bulk` per group would, minus its per-call
        endpoint checks — the mining state re-materializes an unchanged
        model this way on every read.
        """
        graph = cls(nodes=nodes)
        succ = graph._succ
        pred = graph._pred
        for source, targets in by_source:
            succ[source].update(targets)
            for target in targets:
                pred[target].add(source)
        return graph

    def remove_edge(self, source: Node, target: Node) -> None:
        """Remove the edge ``(source, target)``; missing edges are ignored.

        Removal is tolerant because the miners prune candidate edge sets in
        bulk and pruning an already-pruned edge is not an error.
        """
        if source in self._succ:
            self._succ[source].discard(target)
        if target in self._pred:
            self._pred[target].discard(source)

    def has_edge(self, source: Node, target: Node) -> bool:
        """Return whether the edge ``(source, target)`` is present."""
        return source in self._succ and target in self._succ[source]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(source, target)`` pairs."""
        for source, targets in self._succ.items():
            for target in targets:
                yield (source, target)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return sum(len(targets) for targets in self._succ.values())

    def edge_set(self) -> Set[Edge]:
        """Return all edges as a new set."""
        return set(self.edges())

    # ------------------------------------------------------------------
    # Neighbourhood queries
    # ------------------------------------------------------------------
    def successors(self, node: Node) -> Set[Node]:
        """Return the set of direct successors of ``node`` (a copy)."""
        self._require(node)
        return set(self._succ[node])

    def predecessors(self, node: Node) -> Set[Node]:
        """Return the set of direct predecessors of ``node`` (a copy)."""
        self._require(node)
        return set(self._pred[node])

    def out_degree(self, node: Node) -> int:
        """Number of outgoing edges of ``node``."""
        self._require(node)
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        """Number of incoming edges of ``node``."""
        self._require(node)
        return len(self._pred[node])

    def sources(self) -> list:
        """Nodes with no incoming edges, in insertion order."""
        return [node for node in self._succ if not self._pred[node]]

    def sinks(self) -> list:
        """Nodes with no outgoing edges, in insertion order."""
        return [node for node in self._succ if not self._succ[node]]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "DiGraph":
        """Return an independent copy of the graph."""
        clone = DiGraph()
        for node in self._succ:
            clone.add_node(node)
        for source, target in self.edges():
            clone.add_edge(source, target)
        return clone

    def reversed(self) -> "DiGraph":
        """Return a copy with every edge direction flipped."""
        clone = DiGraph(nodes=self._succ)
        for source, target in self.edges():
            clone.add_edge(target, source)
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """Return the subgraph induced by ``nodes``.

        Nodes not present in the graph are ignored, which lets callers pass
        an execution's activity set directly even when the execution mentions
        activities outside the current candidate graph.
        """
        keep = {node for node in nodes if node in self._succ}
        induced = DiGraph(nodes=keep)
        for source in keep:
            for target in self._succ[source]:
                if target in keep:
                    induced.add_edge(source, target)
        return induced

    def edge_subgraph(self, edges: Iterable[Edge]) -> "DiGraph":
        """Return a graph with the same nodes but only ``edges`` kept.

        Edges not present in this graph are ignored.
        """
        restricted = DiGraph(nodes=self._succ)
        for source, target in edges:
            if self.has_edge(source, target):
                restricted.add_edge(source, target)
        return restricted

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            set(self._succ) == set(other._succ)
            and self.edge_set() == other.edge_set()
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return (
            f"DiGraph(nodes={self.node_count}, edges={self.edge_count})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, node: Node) -> None:
        if node not in self._succ:
            raise NodeNotFoundError(node)

"""Vertex interning and packed pair codes for the fast mining core.

The pure-Python pipeline of :mod:`repro.core.general_dag` historically
manipulated tuples of activity labels — ``("A", "B")`` — in every set
operation of steps 2–6.  Hashing and comparing tuples of strings (or, for
Algorithm 3, tuples of ``(activity, occurrence)`` tuples) dominates the
constant factor of the whole miner.

This module interns every vertex label into a dense integer id *once per
mining run* and packs an ordered pair ``(u, v)`` into the single integer
``id(u) * n + id(v)`` where ``n`` is the total number of interned
vertices.  All subsequent set algebra (noise thresholding, 2-cycle
removal, SCC pruning, per-variant induced edge sets, transitive-reduction
memo keys) runs over small ints — the cheapest hashable values CPython
has — and labels are only restored when the final graph is materialized.

The id assignment is deterministic (labels sorted by ``repr``) so that
checkpoints and merged shard states sharing a table agree byte-for-byte.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

Vertex = Hashable
Pair = Tuple[Vertex, Vertex]


class InternTable:
    """A bidirectional vertex-label <-> dense-id mapping.

    The table is immutable once built: packing requires the modulus ``n``
    (the vertex count) to be fixed, otherwise previously packed codes
    would silently change meaning.

    Examples
    --------
    >>> table = InternTable(["B", "A", "C"])
    >>> table.labels
    ('A', 'B', 'C')
    >>> table.pack(("A", "C"))
    2
    >>> table.unpack(2)
    ('A', 'C')
    """

    __slots__ = ("_labels", "_index")

    def __init__(self, labels: Iterable[Vertex]) -> None:
        # Sorted by repr for run-to-run determinism over arbitrary
        # hashable labels (strings and (activity, occurrence) tuples
        # never compare against each other within one log).
        self._labels: Tuple[Vertex, ...] = tuple(
            sorted(set(labels), key=repr)
        )
        self._index: Dict[Vertex, int] = {
            label: i for i, label in enumerate(self._labels)
        }

    @property
    def labels(self) -> Tuple[Vertex, ...]:
        """All labels, in id order."""
        return self._labels

    @property
    def index(self) -> Dict[Vertex, int]:
        """The label -> id mapping (treat as read-only)."""
        return self._index

    def __len__(self) -> int:
        return len(self._labels)

    def id_of(self, label: Vertex) -> int:
        """The dense id of ``label``; raises ``KeyError`` if unknown."""
        return self._index[label]

    def label_of(self, vertex_id: int) -> Vertex:
        """The label with id ``vertex_id``."""
        return self._labels[vertex_id]

    # ------------------------------------------------------------------
    # Packed pair codes
    # ------------------------------------------------------------------
    def pack(self, pair: Pair) -> int:
        """Pack a label pair into the single int ``u_id * n + v_id``."""
        n = len(self._labels)
        return self._index[pair[0]] * n + self._index[pair[1]]

    def unpack(self, code: int) -> Pair:
        """Invert :meth:`pack`."""
        u, v = divmod(code, len(self._labels))
        return (self._labels[u], self._labels[v])

    def pack_pairs(self, pairs: Iterable[Pair]) -> FrozenSet[int]:
        """Pack a collection of label pairs into a frozenset of codes."""
        n = len(self._labels)
        index = self._index
        return frozenset(index[u] * n + index[v] for u, v in pairs)

    def unpack_pairs(self, codes: Iterable[int]) -> List[Pair]:
        """Unpack codes back into label pairs (in input order)."""
        n = len(self._labels)
        labels = self._labels
        return [
            (labels[code // n], labels[code % n]) for code in codes
        ]

    def pack_vertices(self, vertices: Iterable[Vertex]) -> FrozenSet[int]:
        """Intern a collection of vertex labels into a frozenset of ids."""
        index = self._index
        return frozenset(index[v] for v in vertices)


class PackedVariant(NamedTuple):
    """One deduplicated trace variant in packed form.

    A named tuple, so ``variant[:3]`` is the ``(vertices, pairs,
    overlaps)`` key :class:`~repro.core.state.MiningState` stores its
    variants under — the shape the step 2–6 core consumes.

    Attributes
    ----------
    vertices:
        Interned vertex ids completed by the variant.
    pairs:
        Packed ordered-pair codes (``u_id * n + v_id``).
    overlaps:
        Packed canonical overlapping-pair codes.
    multiplicity:
        How many log executions collapsed into this variant.
    """

    vertices: FrozenSet[int]
    pairs: FrozenSet[int]
    overlaps: FrozenSet[int]
    multiplicity: int


def intern_variants(
    variants: Sequence[Tuple[object, int]],
) -> Tuple[InternTable, List[PackedVariant]]:
    """Intern deduplicated prepared executions into packed variants.

    Parameters
    ----------
    variants:
        ``(prepared, multiplicity)`` tuples where ``prepared`` exposes
        ``vertices``, ``pairs`` and ``overlaps`` collections of hashable
        labels (duck-typed to avoid importing the dataclass from
        :mod:`repro.core.general_dag`).

    Returns
    -------
    (InternTable, list[PackedVariant])
        The shared table and one packed variant per input entry, in
        order.  The table covers pair and overlap endpoints as well as
        the vertex sets, mirroring the legacy pipeline in which
        ``DiGraph.add_edge`` auto-created endpoint nodes.
    """
    labels: set = set()
    for prepared, _ in variants:
        labels.update(prepared.vertices)  # type: ignore[attr-defined]
        labels.update(
            chain.from_iterable(prepared.pairs)  # type: ignore[attr-defined]
        )
        labels.update(
            chain.from_iterable(prepared.overlaps)  # type: ignore[attr-defined]
        )
    table = InternTable(labels)
    packed = [
        PackedVariant(
            vertices=table.pack_vertices(prepared.vertices),  # type: ignore[attr-defined]
            pairs=table.pack_pairs(prepared.pairs),  # type: ignore[attr-defined]
            overlaps=table.pack_pairs(prepared.overlaps),  # type: ignore[attr-defined]
            multiplicity=multiplicity,
        )
        for prepared, multiplicity in variants
    ]
    return table, packed

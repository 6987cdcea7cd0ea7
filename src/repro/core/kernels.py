"""Bit-parallel step-5 reduction for the Algorithm 2-4 hot paths.

``BENCH_mining.json`` shows ``prepare`` and ``step5_reduce`` dominating
every large mining cell, and the step-5 reduction cache collapsing to
zero hits once variant diversity rises.  This module holds the two
mechanisms that fix that, joined by :func:`reduce_masks`:

* **Slotted batch reduction** — Algorithm 4 runs over *all* trace
  variants simultaneously.  Every variant occupies one fixed-width slot
  of a single big ``int``; one bignum OR per DAG edge advances the
  descendant bitsets of every variant at once, so the per-variant cost
  of step 5 drops from "one graph walk" to "a few machine words".  The
  scalar :func:`~repro.graphs.transitive.transitive_reduction_packed`
  remains the fallback for variants the batch cannot express (interval
  overlaps, repeated activities, noise thresholds, cyclic ablations).
* **Prefix-reuse reduction cache** — for incremental calls (a warm
  :class:`KernelState`), new variants are reduced by a position-space
  walker that resumes from the longest previously-walked rank-prefix,
  so a variant extending a known one pays only for its new suffix.
  Exact hits, prefix extends and cold misses are accounted separately
  (``repro_kernel_prefix_cache_events_total``).

The correctness backbone of the batch path is a structural fact about
Algorithm 2: with noise threshold <= 1, a *total-order* variant (a
sequential trace without repeated activities — its ordered-pair set is
complete over its vertices) induces exactly ``edges & (S x S)`` on the
step-4 edge set ``edges``, where ``S`` is its vertex set.  Proof sketch:
``(u, v) in edges`` with ``u, v in S`` means ``(v, u)`` was never
observed anywhere — otherwise step 3 would have dropped both directions
(2-cycle or overlap independence) — so the total order of the variant
must list ``u`` before ``v``.  A threshold > 1 breaks the argument (the
reverse pair may have been dropped as noise), which is why the batch
path requires ``threshold <= 1`` and everything else falls back to the
scalar reducer.  The naive pipeline in :mod:`repro.core.reference` stays
the differential oracle for all of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graphs.transitive import (
    ClosureBitset,
    transitive_closure_bitset,
    transitive_reduction_packed,
)

__all__ = [
    "KernelState",
    "ReduceContext",
    "ReduceStats",
    "reduce_masks",
    "slotted_reduce_union",
    "walk_reduce",
    "ClosureBitset",
    "transitive_closure_bitset",
]

#: New-mask batches at or below this size use the prefix-reuse walker
#: (when a persistent :class:`KernelState` is available) instead of the
#: slotted batch: small deltas are where prefix resumption wins, large
#: cold batches are where the slotted bignum pass wins.
WALKER_BATCH_LIMIT = 24

#: Hard cap on stored prefix states; beyond it the trie stops growing
#: (lookups still work), bounding memory on adversarial variant streams.
PREFIX_TRIE_LIMIT = 65536


# ----------------------------------------------------------------------
# Reduction context — per (edges, rank) setup shared by a whole batch
# ----------------------------------------------------------------------
@dataclass
class ReduceContext:
    """Amortized per-run setup for batched step-5 reductions.

    Built once from the step-4 edge set; every batched or walked
    reduction of the run shares the packed successor/predecessor rows
    and the topological ranks, which is what makes the batch path
    "amortize rank/adjacency setup" across variants.
    """

    n: int
    #: Successor bitmask per vertex id (``rows[u]`` bit ``v`` = edge u->v).
    succ_rows: List[int]
    #: Predecessor bitmask per vertex id.
    pred_rows: List[int]
    #: Successor id lists (only edge-bearing sources present).
    adjacency: Dict[int, List[int]]
    #: Topological rank of every edge-bearing vertex.
    rank: Dict[int, int]
    #: ``rank_arr[u]`` = rank or -1 for unranked vertices.
    rank_arr: List[int]
    #: Edge-bearing vertices in rank-descending order.
    ranked_desc: List[int]
    #: Bytes per variant slot in the slotted representation.
    slot_bytes: int

    @classmethod
    def from_edges(
        cls, edges: Set[int], n: int, rank: Dict[int, int]
    ) -> "ReduceContext":
        succ_rows = [0] * n
        pred_rows = [0] * n
        adjacency: Dict[int, List[int]] = {}
        for code in edges:
            u, v = divmod(code, n)
            succ_rows[u] |= 1 << v
            pred_rows[v] |= 1 << u
            if u in adjacency:
                adjacency[u].append(v)
            else:
                adjacency[u] = [v]
        rank_arr = [-1] * n
        for u, r in rank.items():
            rank_arr[u] = r
        ranked_desc = sorted(rank, key=rank.__getitem__, reverse=True)
        return cls(
            n=n,
            succ_rows=succ_rows,
            pred_rows=pred_rows,
            adjacency=adjacency,
            rank=rank,
            rank_arr=rank_arr,
            ranked_desc=ranked_desc,
            slot_bytes=(n + 7) // 8,
        )

    @classmethod
    def from_rows(
        cls,
        succ_rows: List[int],
        adjacency: Dict[int, List[int]],
        n: int,
        rank: Dict[int, int],
        with_pred: bool = True,
    ) -> "ReduceContext":
        """Build a context from already-materialized row structures.

        The fused row pipeline has the successor bitmasks and the
        adjacency id lists in hand when step 5 starts, so re-deriving
        them from a packed edge-code set (as :meth:`from_edges` does)
        would decode every edge twice more.  ``with_pred=False`` skips
        the predecessor transpose — it is only consumed by the prefix
        walker, which never runs without a persistent kernel state.
        """
        pred_rows = [0] * n
        if with_pred:
            for u, targets in adjacency.items():
                bit = 1 << u
                for v in targets:
                    pred_rows[v] |= bit
        rank_arr = [-1] * n
        for u, r in rank.items():
            rank_arr[u] = r
        ranked_desc = sorted(rank, key=rank.__getitem__, reverse=True)
        return cls(
            n=n,
            succ_rows=succ_rows,
            pred_rows=pred_rows,
            adjacency=adjacency,
            rank=rank,
            rank_arr=rank_arr,
            ranked_desc=ranked_desc,
            slot_bytes=(n + 7) // 8,
        )

    def ranked_ids(self, smask: int) -> List[int]:
        """Edge-bearing vertices of a variant mask, rank-ascending."""
        rank_arr = self.rank_arr
        ids = []
        m = smask
        while m:
            bit = m & -m
            m ^= bit
            u = bit.bit_length() - 1
            if rank_arr[u] >= 0:
                ids.append(u)
        ids.sort(key=rank_arr.__getitem__)
        return ids


# ----------------------------------------------------------------------
# Persistent cross-call cache (exact + prefix reuse)
# ----------------------------------------------------------------------
@dataclass
class KernelState:
    """Cross-call reduction cache for incremental mining.

    Holds everything steps 4-5 may reuse between calls on the same
    edges (the token: step-3 rows or edge codes, which fix step 4, or
    a step-4 edge set): the cached step-4 output, the set of
    already-reduced variant vertex masks, the union of the kept edges
    of every variant reduced so far, the prefix trie of walker states,
    and :attr:`cursor` — how many of the caller's variants that union
    already covers.  A new token (or packing modulus) resets all of it
    together: a reduction is only a function of ``(edges, variant)``.

    The cursor assumes the caller's variant sequence is *append-only*
    between calls on the same state (true for :class:`~repro.core.
    state.MiningState`, whose insertion-ordered variant table only
    grows and keeps its order across repacks, and for the incremental
    miner built on it): variants ``[0, cursor)`` are then exactly the
    ones already reduced, and a call reduces only the ones after them.
    Callers without that property should pass a fresh state per call.
    """

    edges_token: Optional[Tuple[object, ...]] = None
    seen_masks: Set[int] = field(default_factory=set)
    marked_union: Set[int] = field(default_factory=set)
    #: Variants (a prefix of the caller's sequence) already reduced
    #: into :attr:`marked_union` under the current token.
    cursor: int = 0
    #: rank-prefix tuple -> (ancestor-mask tuple, kept-code tuple)
    trie: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], Tuple[int, ...]]] = (
        field(default_factory=dict)
    )
    #: Step-4 output cached for the current token, in the shape of the
    #: pipeline that keyed it: ``(erows, adjacency, rank, removed)``
    #: for the row pipeline, ``(edges, rank, removed, endpoints)`` for
    #: the packed one.
    step4_cache: Optional[Tuple[Any, ...]] = None
    #: The step-5 reduction context built from the cached step 4.
    context: Optional[ReduceContext] = None
    #: pairs frozenset -> total-order vertex mask (or None verdict);
    #: edges-independent, so it survives ``for_edges`` resets and only
    #: clears when the packing modulus changes.
    mask_cache: Dict[FrozenSet[int], Optional[int]] = field(
        default_factory=dict
    )
    mask_cache_n: Optional[int] = None
    #: The last finished result of the packed pipeline and the token it
    #: is valid for (see ``repro.core.general_dag._mine_packed``).
    result_token: Optional[Tuple[object, ...]] = None
    result: Optional[Tuple[object, ...]] = None

    def _reset(self, token: Tuple[object, ...]) -> None:
        self.edges_token = token
        self.seen_masks = set()
        self.marked_union = set()
        self.cursor = 0
        self.trie = {}
        self.step4_cache = None
        self.context = None

    def for_edges(
        self, edges: Set[int], n: int
    ) -> "KernelState":
        """Reset the state unless it matches ``(n, edges)``; return self."""
        token: Tuple[object, ...] = (n, frozenset(edges))
        if self.edges_token != token:
            self._reset(token)
        return self

    def for_step3_rows(
        self, rows: Sequence[int], n: int
    ) -> "KernelState":
        """Reset the state unless the step-3 successor rows match.

        Row-pipeline counterpart of :meth:`for_edges`: the post-step-3
        rows determine the step-4 edge set, so they are a sound (if
        stricter) cache key — and comparing ``n`` ints on a warm call
        beats decoding and freezing the edge-code set every time.
        """
        token: Tuple[object, ...] = (n, "rows", tuple(rows))
        if self.edges_token != token:
            self._reset(token)
        return self

    def for_step3_edges(
        self, edges: FrozenSet[int], n: int, skip_scc_removal: bool
    ) -> "KernelState":
        """Reset the state unless the step-3 edge codes match.

        Packed-pipeline counterpart of :meth:`for_step3_rows`: step 4
        is a function of the step-3 edges (and of whether it runs at
        all), so they key its cached output as well as every reduction
        made on it.
        """
        token: Tuple[object, ...] = (n, "edges", skip_scc_removal, edges)
        if self.edges_token != token:
            self._reset(token)
        return self

    def mask_cache_for(
        self, n: int
    ) -> Dict[FrozenSet[int], Optional[int]]:
        """Total-order verdict cache, reset when ``n`` changes.

        A variant's verdict depends on its pairs and on the packing
        modulus ``n`` only — never on the current edge set — so this
        cache deliberately outlives :meth:`for_edges` resets.
        """
        if self.mask_cache_n != n:
            self.mask_cache_n = n
            self.mask_cache = {}
        return self.mask_cache


@dataclass
class ReduceStats:
    """Accounting of one batched step-5 run, mirrored into the trace."""

    exact_hits: int = 0
    prefix_extends: int = 0
    misses: int = 0
    #: Reductions computed per implementation path.
    paths: Dict[str, int] = field(default_factory=dict)

    def bump(self, path: str, amount: int = 1) -> None:
        if amount:
            self.paths[path] = self.paths.get(path, 0) + amount


# ----------------------------------------------------------------------
# Slotted bit-parallel batch reduction (the cold bulk path)
# ----------------------------------------------------------------------
def slotted_reduce_union(
    ctx: ReduceContext, smasks: Sequence[int]
) -> Set[int]:
    """Union of kept edges over many total-order variants at once.

    Variant ``t`` occupies bit slot ``[t*W, (t+1)*W)`` of one big int
    (``W`` = ``ctx.slot_bytes * 8`` >= ``n``).  Walking vertices in
    reverse topological order, slot ``t`` of ``DESC[u]`` accumulates the
    descendant bitset of ``u`` *within variant t's induced subgraph* —
    Algorithm 4's per-node descendant set, advanced for every variant by
    the same bignum OR.  An edge is kept when some slot still reaches
    its target in no other way; the per-slot kept vectors are folded
    into plain packed codes at the end.
    """
    if not smasks:
        return set()
    slot_bytes = ctx.slot_bytes
    slot_bits = slot_bytes * 8
    count = len(smasks)
    s_vec = int.from_bytes(
        b"".join(m.to_bytes(slot_bytes, "little") for m in smasks),
        "little",
    )
    rep_one = int.from_bytes(
        (b"\x01" + b"\x00" * (slot_bytes - 1)) * count, "little"
    )
    full_slot = (1 << slot_bits) - 1
    adjacency = ctx.adjacency
    succ_rows = ctx.succ_rows
    desc: Dict[int, int] = {}
    desc_get = desc.get
    kept_vecs: Dict[int, int] = {}
    for u in ctx.ranked_desc:
        successors = adjacency.get(u)
        if successors is None:
            continue  # sink: empty descendant set, nothing kept
        pres_full = ((s_vec >> u) & rep_one) * full_slot
        row = s_vec & pres_full & (succ_rows[u] * rep_one)
        through = 0
        for w in successors:
            d = desc_get(w)
            if d is not None:
                through |= d
        if through:
            kept = row & ~through
            desc[u] = (row | through) & pres_full
        else:
            kept = row
            desc[u] = row
        if kept:
            kept_vecs[u] = kept

    # Fold each kept vector's slots together (halving passes), then
    # decode the union row into packed codes.
    n = ctx.n
    marked: Set[int] = set()
    add = marked.add
    span_slots = count
    fold_plan: List[Tuple[int, int]] = []
    while span_slots > 1:
        half_slots = (span_slots + 1) // 2
        shift = half_slots * slot_bits
        fold_plan.append((shift, (1 << shift) - 1))
        span_slots = half_slots
    for u, vec in kept_vecs.items():
        for shift, mask in fold_plan:
            vec = (vec & mask) | (vec >> shift)
        row = vec & full_slot
        base = u * n
        while row:
            bit = row & -row
            row ^= bit
            add(base + bit.bit_length() - 1)
    return marked


# ----------------------------------------------------------------------
# Position-space walker with prefix reuse (the incremental path)
# ----------------------------------------------------------------------
def walk_reduce(
    ctx: ReduceContext,
    smask: int,
    trie: Optional[
        Dict[Tuple[int, ...], Tuple[Tuple[int, ...], Tuple[int, ...]]]
    ] = None,
) -> Tuple[FrozenSet[int], int]:
    """Reduce one total-order variant; resume from a cached rank-prefix.

    Runs Algorithm 4 in *position space*: the variant's edge-bearing
    vertices, rank-ascending, get positions ``0..k-1`` and ancestor sets
    become k-bit machine words.  The ancestor state after position ``j``
    depends only on the prefix ``ids[:j]``, so a trie keyed on prefixes
    lets a variant that extends a previously-walked one resume mid-walk.

    Returns ``(kept codes, resume position)`` — a resume position > 0
    means the prefix cache saved that many positions ("prefix extend").
    """
    ids = ctx.ranked_ids(smask)
    k = len(ids)
    if k == 0:
        return frozenset(), 0
    n = ctx.n
    pred_rows = ctx.pred_rows
    key = tuple(ids)
    anc: List[int] = [0] * k
    kept: List[int] = []
    start = 0
    if trie is not None:
        probe = k
        while probe > 0:
            state = trie.get(key[:probe])
            if state is not None:
                anc_prefix, kept_prefix = state
                anc[: len(anc_prefix)] = anc_prefix
                kept.extend(kept_prefix)
                start = probe
                break
            probe -= 1

    pos_of: Dict[int, int] = {u: j for j, u in enumerate(ids)}
    for j in range(start, k):
        u = ids[j]
        pm = pred_rows[u] & smask
        through = 0
        ppos = 0
        while pm:
            bit = pm & -pm
            pm ^= bit
            i = pos_of.get(bit.bit_length() - 1)
            if i is None:
                continue  # unranked predecessor: not in the DAG
            ppos |= 1 << i
            through |= anc[i]
        kept_bits = ppos & ~through
        while kept_bits:
            bit = kept_bits & -kept_bits
            kept_bits ^= bit
            kept.append(ids[bit.bit_length() - 1] * n + u)
        anc[j] = ppos | through
    if trie is not None and len(trie) < PREFIX_TRIE_LIMIT:
        trie[key] = (tuple(anc), tuple(kept))
    return frozenset(kept), start


# ----------------------------------------------------------------------
# Batch entry point
# ----------------------------------------------------------------------
def reduce_masks(
    ctx: ReduceContext,
    smasks: Sequence[int],
    state: Optional[KernelState],
    stats: ReduceStats,
) -> Set[int]:
    """Reduce a batch of total-order variant masks to kept edges.

    Deduplicates against ``state`` (exact hits), walks small deltas
    through the prefix trie (prefix extends) and sends large cold
    batches through :func:`slotted_reduce_union` (misses), keeping the
    three kinds of cache traffic separately accounted in ``stats``.
    """
    if state is None:
        seen: Set[int] = set()
        marked_union: Set[int] = set()
        trie = None
    else:
        seen = state.seen_masks
        marked_union = state.marked_union
        trie = state.trie
    new: List[int] = []
    for smask in smasks:
        if smask in seen:
            stats.exact_hits += 1
        else:
            seen.add(smask)
            new.append(smask)
    if new:
        stats.misses += len(new)
        if state is not None and len(new) <= WALKER_BATCH_LIMIT:
            extends = 0
            for smask in new:
                kept, resumed = walk_reduce(ctx, smask, trie)
                if resumed:
                    extends += 1
                marked_union |= kept
            stats.prefix_extends = extends
            stats.misses -= extends
            stats.bump("walker", len(new))
        else:
            marked_union |= slotted_reduce_union(ctx, new)
            stats.bump("slotted", len(new))
    return set(marked_union)


def scalar_reduce_union(
    ctx: ReduceContext, smasks: Sequence[int]
) -> Set[int]:
    """Reference implementation of the batch contract, one walk per mask.

    Used by the differential tests and the batched-reduce bench cell as
    the per-variant baseline for :func:`slotted_reduce_union`.
    """
    marked: Set[int] = set()
    for smask in smasks:
        kept, _ = walk_reduce(ctx, smask, None)
        marked |= kept
    return marked


def induced_codes(
    ctx: ReduceContext, smask: int
) -> FrozenSet[int]:
    """``edges & (S x S)`` for a total-order variant mask (test helper)."""
    codes: List[int] = []
    n = ctx.n
    succ_rows = ctx.succ_rows
    m = smask
    while m:
        bit = m & -m
        m ^= bit
        u = bit.bit_length() - 1
        row = succ_rows[u] & smask
        base = u * n
        while row:
            b = row & -row
            row ^= b
            codes.append(base + b.bit_length() - 1)
    return frozenset(codes)

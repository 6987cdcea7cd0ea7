"""Directed-graph substrate used throughout the reproduction.

The paper's algorithms are pure graph algorithms; this subpackage provides
the directed-graph data structure (:class:`DiGraph`) and every graph routine
the miners need, implemented from scratch:

* traversal helpers — DFS/BFS orders, topological sort, reachability
  (:mod:`repro.graphs.traversal`);
* Tarjan's strongly-connected-components algorithm (:mod:`repro.graphs.scc`);
* transitive closure and the paper's Appendix Algorithm 4 transitive
  reduction (:mod:`repro.graphs.transitive`);
* the random-DAG generator behind the synthetic evaluation
  (:mod:`repro.graphs.random_dag`);
* edge-set comparison metrics (:mod:`repro.graphs.compare`); and
* DOT / ASCII rendering (:mod:`repro.graphs.render`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.graphs.compare import (
        VERDICT_DIVERGED,
        VERDICT_EQUIVALENT,
        VERDICT_EXACT,
        VERDICT_SUBGRAPH,
        VERDICT_SUPERGRAPH,
        EdgeComparison,
        compare_edges,
    )
    from repro.graphs.digraph import DiGraph
    from repro.graphs.random_dag import (
        END,
        START,
        RandomDagConfig,
        default_activity_names,
        paper_edge_probability,
        random_dag,
        random_process_dag,
    )
    from repro.graphs.render import edge_list_text, to_ascii, to_dot
    from repro.graphs.scc import (
        component_map,
        condensation,
        remove_intra_component_edges,
        strongly_connected_components,
    )
    from repro.graphs.transitive import (
        closure_equal,
        descendant_masks,
        is_transitively_reduced,
        transitive_closure,
        transitive_reduction,
        transitive_reduction_edges,
    )
    from repro.graphs.traversal import (
        ancestors,
        bfs_order,
        descendants,
        dfs_postorder,
        dfs_preorder,
        find_cycle,
        has_path,
        is_acyclic,
        iter_paths,
        reachable_from,
        restrict_to_reachable,
        topological_sort,
    )

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "VERDICT_DIVERGED": ".compare",
    "VERDICT_EQUIVALENT": ".compare",
    "VERDICT_EXACT": ".compare",
    "VERDICT_SUBGRAPH": ".compare",
    "VERDICT_SUPERGRAPH": ".compare",
    "EdgeComparison": ".compare",
    "compare_edges": ".compare",
    "DiGraph": ".digraph",
    "END": ".random_dag",
    "START": ".random_dag",
    "RandomDagConfig": ".random_dag",
    "default_activity_names": ".random_dag",
    "paper_edge_probability": ".random_dag",
    "random_dag": ".random_dag",
    "random_process_dag": ".random_dag",
    "edge_list_text": ".render",
    "to_ascii": ".render",
    "to_dot": ".render",
    "component_map": ".scc",
    "condensation": ".scc",
    "remove_intra_component_edges": ".scc",
    "strongly_connected_components": ".scc",
    "closure_equal": ".transitive",
    "descendant_masks": ".transitive",
    "is_transitively_reduced": ".transitive",
    "transitive_closure": ".transitive",
    "transitive_reduction": ".transitive",
    "transitive_reduction_edges": ".transitive",
    "ancestors": ".traversal",
    "bfs_order": ".traversal",
    "descendants": ".traversal",
    "dfs_postorder": ".traversal",
    "dfs_preorder": ".traversal",
    "find_cycle": ".traversal",
    "has_path": ".traversal",
    "is_acyclic": ".traversal",
    "iter_paths": ".traversal",
    "reachable_from": ".traversal",
    "restrict_to_reachable": ".traversal",
    "topological_sort": ".traversal",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""From-scratch decision-tree classifier for conditions mining.

Section 7 learns each edge's Boolean function with "a classifier [WK91] …
in particular, the use of a decision tree classifier will give a set of
simple rules".  This subpackage provides exactly that, with no external ML
dependency:

* :mod:`repro.classifier.dataset` — labelled training sets over output
  vectors;
* :mod:`repro.classifier.splits` — impurity measures and best-split search;
* :mod:`repro.classifier.tree` — the CART-style binary tree;
* :mod:`repro.classifier.rules` — extraction of the tree's positive paths
  as :class:`~repro.model.conditions.Condition` expressions, closing the
  loop back into the process model.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.classifier.dataset import Dataset, LabelledExample
    from repro.classifier.rules import rules_to_condition, tree_to_rules
    from repro.classifier.splits import best_split, entropy, gini
    from repro.classifier.stump import DecisionStump
    from repro.classifier.tree import DecisionTree, TreeConfig

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "Dataset": ".dataset",
    "LabelledExample": ".dataset",
    "rules_to_condition": ".rules",
    "tree_to_rules": ".rules",
    "best_split": ".splits",
    "entropy": ".splits",
    "gini": ".splits",
    "DecisionStump": ".stump",
    "DecisionTree": ".tree",
    "TreeConfig": ".tree",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

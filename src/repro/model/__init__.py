"""Process model substrate (Section 2, Definition 1 of the paper).

A business process is a directed activity graph together with an output
function per activity and a Boolean condition per edge:

* :mod:`repro.model.activity` — activities and their output specifications;
* :mod:`repro.model.conditions` — the Boolean condition expression AST
  (comparisons over output parameters combined with and/or/not), which is
  both evaluatable and printable;
* :mod:`repro.model.process` — :class:`ProcessModel` itself;
* :mod:`repro.model.builder` — a fluent builder for defining processes;
* :mod:`repro.model.validate` — structural validation (single source/sink,
  reachability, acyclicity where claimed).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.model.activity import Activity, OutputSpec
    from repro.model.builder import ProcessBuilder
    from repro.model.conditions import (
        Always,
        And,
        Comparison,
        Condition,
        Never,
        Not,
        Or,
        always,
        attr_ge,
        attr_gt,
        attr_le,
        attr_lt,
        never,
        parse_condition,
    )
    from repro.model.evolution import EvolutionResult, evolve_model
    from repro.model.process import ProcessModel
    from repro.model.serialize import (
        load_model,
        model_from_text,
        model_to_text,
        save_model,
    )
    from repro.model.validate import ValidationReport, validate_process

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "Activity": ".activity",
    "OutputSpec": ".activity",
    "ProcessBuilder": ".builder",
    "Always": ".conditions",
    "And": ".conditions",
    "Comparison": ".conditions",
    "Condition": ".conditions",
    "Never": ".conditions",
    "Not": ".conditions",
    "Or": ".conditions",
    "always": ".conditions",
    "attr_ge": ".conditions",
    "attr_gt": ".conditions",
    "attr_le": ".conditions",
    "attr_lt": ".conditions",
    "never": ".conditions",
    "parse_condition": ".conditions",
    "EvolutionResult": ".evolution",
    "evolve_model": ".evolution",
    "ProcessModel": ".process",
    "load_model": ".serialize",
    "model_from_text": ".serialize",
    "model_to_text": ".serialize",
    "save_model": ".serialize",
    "ValidationReport": ".validate",
    "validate_process": ".validate",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

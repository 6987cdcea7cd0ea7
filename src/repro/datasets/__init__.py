"""Dataset generators for the paper's evaluation.

* :mod:`repro.datasets.synthetic` — the Section 8.1 synthetic workload:
  random DAG + the paper's ready-list execution logger;
* :mod:`repro.datasets.examples` — every worked example of the paper
  (Figures 1–6, Graph10 of Figure 7) as ready-made graphs and logs;
* :mod:`repro.datasets.cyclic` — random-walk trace generation over cyclic
  graphs for Algorithm 3's experiments;
* :mod:`repro.datasets.flowmark` — the five simulated Flowmark processes
  of Table 3 (Upload_and_Notify, StressSleep, Pend_Block, Local_Swap,
  UWI_Pilot), built as process models with the published vertex/edge
  counts and logged through the workflow engine.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.datasets.cyclic import CyclicTraceGenerator
    from repro.datasets.examples import (
        example1_model,
        example3_log,
        example5_log,
        example6_log,
        example7_log,
        example8_log,
        graph10,
        graph10_expected_edges,
    )
    from repro.datasets.flowmark import (
        FLOWMARK_PROCESS_NAMES,
        FlowmarkDataset,
        flowmark_dataset,
        flowmark_model,
    )
    from repro.datasets.synthetic import (
        SyntheticConfig,
        SyntheticDataset,
        generate_executions,
        synthetic_dataset,
    )

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "CyclicTraceGenerator": ".cyclic",
    "example1_model": ".examples",
    "example3_log": ".examples",
    "example5_log": ".examples",
    "example6_log": ".examples",
    "example7_log": ".examples",
    "example8_log": ".examples",
    "graph10": ".examples",
    "graph10_expected_edges": ".examples",
    "FLOWMARK_PROCESS_NAMES": ".flowmark",
    "FlowmarkDataset": ".flowmark",
    "flowmark_dataset": ".flowmark",
    "flowmark_model": ".flowmark",
    "SyntheticConfig": ".synthetic",
    "SyntheticDataset": ".synthetic",
    "generate_executions": ".synthetic",
    "synthetic_dataset": ".synthetic",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

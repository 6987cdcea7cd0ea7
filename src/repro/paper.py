"""Published figures of the source paper that the CLI needs up front.

Table 3 names five processes of an IBM Flowmark installation with their
execution, vertex and edge counts.  :mod:`repro.datasets.flowmark`
simulates them; the names also are the choices of ``repro-miner
generate``, whose parser must not load the workflow engine to list them.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: The five processes of Table 3 with their published execution counts.
FLOWMARK_EXECUTIONS: Dict[str, int] = {
    "Upload_and_Notify": 134,
    "StressSleep": 160,
    "Pend_Block": 121,
    "Local_Swap": 24,
    "UWI_Pilot": 134,
}

FLOWMARK_PROCESS_NAMES = tuple(FLOWMARK_EXECUTIONS)

#: Published (vertices, edges) per process, for sanity assertions.
FLOWMARK_SHAPES: Dict[str, Tuple[int, int]] = {
    "Upload_and_Notify": (7, 7),
    "StressSleep": (14, 23),
    "Pend_Block": (6, 7),
    "Local_Swap": (12, 11),
    "UWI_Pilot": (7, 7),
}

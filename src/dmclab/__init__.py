"""dmclab: measure and model the data movement cost of memory traces.

The central quantity is the data movement distance (DMD): every memory
access is charged the square root of its LRU stack distance, and a whole
trace is charged the sum over its accesses.  The package provides

- exact measurement of that cost for a concrete trace (`dmclab.engine`),
- deterministic trace generators for the classic kernels it is usually
  asked about: matrix multiply, spatial convolution and its variants,
  and the recursive FFT (`dmclab.tracegen`),
- closed-form cost models for the same algorithms plus transformer
  attention (`dmclab.models`),
- an advisor that inverts the models to recommend algorithmic
  parameters such as batch size or attention group size
  (`dmclab.advisor`),
- a command line front end (`dmclab.cli`).
"""

from dmclab.core import (
    AnalysisConfig,
    DataObject,
    DmdReport,
    LayoutTable,
    Trace,
    build_layout,
    read_dmt,
    scale_granularity,
    write_dmt,
)
from dmclab.engine import analyze_trace, cold_cost, stack_distances_oracle

__all__ = [
    "AnalysisConfig",
    "DataObject",
    "DmdReport",
    "LayoutTable",
    "Trace",
    "analyze_trace",
    "build_layout",
    "cold_cost",
    "read_dmt",
    "scale_granularity",
    "stack_distances_oracle",
    "write_dmt",
]

__version__ = "0.1.0"

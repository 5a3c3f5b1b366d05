"""Memory-reference traces: representation, compression, synthesis.

The paper drives its simulator with Atom-generated memory-reference traces
of five applications (Section 3.2).  Those traces (and the binaries that
produced them) are not available, so this package provides:

* :mod:`repro.trace.compress` — run-length compression of reference streams
  at the finest (256-byte block) protection granularity, which is what the
  simulator consumes;
* :mod:`repro.trace.encode` — a trace file format (``.npz``-based);
* :mod:`repro.trace.synth` — the phased synthetic workload generator and
  the five calibrated application models.

A trace carries no byte addresses, so the paper's cache-simulated cost
per reference (12 ns, Section 3.2) enters as the constant
:data:`repro.units.DEFAULT_EVENT_NS`.
"""

from repro.trace.compress import RunTrace, compress_references
from repro.trace.encode import (
    load_trace,
    load_trace_text,
    save_trace,
    save_trace_text,
)
from repro.trace.synth import SyntheticTrace, app_names, build_app_trace

__all__ = [
    "RunTrace",
    "SyntheticTrace",
    "app_names",
    "build_app_trace",
    "compress_references",
    "load_trace",
    "load_trace_text",
    "save_trace",
    "save_trace_text",
]

#!/usr/bin/env python
"""Adaptive-policy equivalence smoke (CI helper).

The ``"adaptive"`` meta-scheme's regression anchor: with the static
(±1 neighbor) predictor and no scheme switching it must reproduce plain
:class:`~repro.core.schemes.SubpagePipelining` **bit for bit** — equal
:class:`~repro.sim.results.SimulationResult` dataclasses, down to every
float.  This script checks that on a small
deterministic trace across a subpage-size x memory grid and exits
non-zero on the first mismatch.

    PYTHONPATH=src python tools/policy_smoke.py [--verbose]

A mismatch means the adaptive layer is no longer transparent — its
reordering/depth logic drifted from the pipelined arithmetic — which
invalidates every conclusion the figAX experiment draws.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

sys.path.insert(0, "src")

import numpy as np

from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.simulator import simulate
from repro.trace.compress import compress_references

SUBPAGE_SIZES = (512, 1024, 2048)
MEMORY_FRACTIONS = (1.0, 0.5, 0.25)


def smoke_trace():
    """A tiny but non-trivial workload: faults, stalls, evictions."""
    rng = np.random.default_rng(1234)
    visits = rng.integers(0, 24, size=400)
    starts = rng.integers(0, 120, size=400)
    blocks = (starts[:, None] + np.arange(5)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    writes = rng.random(addrs.size) < 0.25
    return compress_references(addrs, writes, name="policy-smoke")


def diff_fields(pipelined, adaptive) -> list[str]:
    """Name the result fields that differ (for the failure report)."""
    return [
        f.name
        for f in fields(pipelined)
        if getattr(pipelined, f.name) != getattr(adaptive, f.name)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="print every compared cell")
    args = parser.parse_args(argv)

    trace = smoke_trace()
    failures = 0
    cells = 0
    for subpage in SUBPAGE_SIZES:
        for fraction in MEMORY_FRACTIONS:
            base = dict(
                memory_pages=memory_pages_for(trace, fraction),
                subpage_bytes=subpage,
            )
            pipelined = simulate(
                trace, SimulationConfig(scheme="pipelined", **base)
            )
            adaptive = simulate(
                trace,
                SimulationConfig(
                    scheme="adaptive",
                    scheme_kwargs={"predictor": "static"},
                    **base,
                ),
            )
            cells += 1
            label = f"sp{subpage}/mem{fraction:g}"
            if pipelined == adaptive:
                if args.verbose:
                    print(f"OK   {label}  "
                          f"total {pipelined.total_ms:.3f} ms")
                continue
            failures += 1
            print(
                f"FAIL {label}: adaptive(static) != pipelined; "
                f"differing fields: {diff_fields(pipelined, adaptive)}"
            )

    if failures:
        print(f"{failures}/{cells} cells diverged — the adaptive layer "
              "is no longer transparent")
        return 1
    print(f"all {cells} cells bit-identical "
          "(adaptive/static == pipelined)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

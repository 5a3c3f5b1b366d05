"""Kernel-tier name reported in benchmark environment records.

The simulator has a single scalar drive loop and no compiled kernel
tier; :func:`kernel_name` survives only because the benchmark harness
(``bench/run.py``) records it.  The benchmark's next change removes the
call, and this module with it.
"""

from __future__ import annotations

__all__ = ["kernel_name"]


def kernel_name() -> str:
    """Always ``"none"``: there is no kernel tier to select."""
    return "none"

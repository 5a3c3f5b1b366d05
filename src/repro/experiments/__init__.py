"""Experiment reproductions: one module per paper table/figure.

Every module exposes ``run()`` returning a typed result object and
``render(result)`` returning the plain-text table/series the paper
reports.  ``repro.experiments.registry`` lists them all, and
``python -m repro.experiments <id>`` (or ``--all``) regenerates each
one.
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_all

__all__ = ["EXPERIMENTS", "get_experiment", "run_all"]

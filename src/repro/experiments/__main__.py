"""Command-line experiment runner.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments fig03 fig09
    python -m repro.experiments --all
    python -m repro.experiments --workers 4 --progress fig03 fig09
    python -m repro.experiments --workers 4 --cache ~/.cache/repro fig03

Sweep-shaped experiments (Figures 3 and 9) fan their grid cells out over
``--workers`` processes (default ``$REPRO_WORKERS`` or serial) and reuse
the on-disk result cache named by ``--cache`` / ``$REPRO_CACHE_DIR``.
See ``docs/PARALLEL.md``.

``--trace-out FILE`` / ``--metrics-out FILE`` enable the observability
layer (``docs/OBSERVABILITY.md``): every simulated run records its fault
path, and the CLI writes a merged Chrome trace-event JSON (plus a
``.jsonl`` sibling) and/or a metrics JSON.  ``$REPRO_TRACE_DIR`` instead
writes per-experiment files into a directory.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.sim.parallel import (
    CellEvent,
    ExecutionOptions,
    ResultCache,
    WorkerPool,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=(
            "Reproduce tables/figures from 'Reducing Network Latency "
            "Using Subpages in a Global Memory Environment' (ASPLOS '96)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (e.g. fig03 tab02); see --list",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also export each experiment's data series as CSV into DIR",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=None,
        help=(
            "fan sweep cells out over N worker processes "
            "(default: $REPRO_WORKERS, else serial)"
        ),
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help=(
            "on-disk simulation result cache directory "
            "(default: $REPRO_CACHE_DIR; unset disables caching)"
        ),
    )
    parser.add_argument(
        "--store",
        metavar="FILE",
        default=None,
        help=(
            "sqlite result-store database serving (and durably "
            "recording) sweep cells; overrides --cache "
            "(default: $REPRO_STORE)"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-sweep-cell progress/timing lines to stderr",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help=(
            "write a merged Chrome trace-event JSON (Perfetto-viewable) "
            "of all simulated runs to FILE, plus a .jsonl sibling"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write merged observability metrics (JSON) to FILE",
    )
    return parser


def make_progress_printer(stream=None):
    """A per-cell progress callback that prints timing lines."""
    if stream is None:
        stream = sys.stderr
    count = 0

    def emit(event: CellEvent) -> None:
        nonlocal count
        count += 1
        print(
            f"  [cell {count:3d}] {event.status:8s} "
            f"{event.elapsed_s * 1e3:8.1f} ms  {event.key}",
            file=stream,
        )

    return emit


def build_options(args: argparse.Namespace) -> ExecutionOptions:
    """Execution options from CLI flags layered over the environment.

    When workers are requested, a persistent :class:`WorkerPool` is
    installed so every experiment of the invocation shares one set of
    worker processes and one trace arena; ``main`` closes
    it on the way out.
    """
    options = ExecutionOptions.from_env()
    if args.workers is not None:
        options.workers = max(1, args.workers)
    if args.cache is not None:
        options.cache = ResultCache(args.cache)
    if getattr(args, "store", None):
        from repro.store import SqliteResultStore

        options.cache = SqliteResultStore(args.store)
    if args.progress:
        options.progress = make_progress_printer()
    tokens = {part for part in options.observe.split(",") if part}
    if getattr(args, "trace_out", None):
        tokens.add("trace")
    if getattr(args, "metrics_out", None):
        tokens.add("metrics")
    options.observe = ",".join(sorted(tokens))
    if options.workers > 1:
        options.pool = WorkerPool(options.workers)
    return options


class _ObsCollector:
    """Gathers trace events and metrics across the experiments of one
    CLI invocation, and writes the requested output files."""

    def __init__(
        self, options: ExecutionOptions, args: argparse.Namespace
    ) -> None:
        from repro.obs import MetricsRegistry

        self.options = options
        self.args = args
        self._seen: set[int] = set()
        self.groups: list[tuple[str, list[dict]]] = []
        self.registry = MetricsRegistry()

    def collect(self, exp_id: str, result: object) -> None:
        """Pick up everything the just-finished experiment produced."""
        from repro.experiments.common import harvest_observed_runs
        from repro.obs import MetricsRegistry
        from repro.obs.export import experiment_observability

        groups, gauges = experiment_observability(exp_id, result)
        registry = MetricsRegistry()
        for name, value in gauges.items():
            registry.set_gauge(name, value)
        for run in harvest_observed_runs(self._seen):
            if run.trace_events:
                groups.append((
                    f"{exp_id}: {run.trace_name}/{run.scheme_label}",
                    run.trace_events,
                ))
            if run.metrics:
                registry.merge_dict(run.metrics)
        if self.options.trace_dir:
            self._write_dir(exp_id, groups, registry)
        self.groups.extend(groups)
        self.registry.merge(registry)

    def _write_dir(self, exp_id, groups, registry) -> None:
        from repro.obs import (
            combine_groups,
            write_chrome_trace,
            write_jsonl,
            write_metrics,
        )

        out = Path(self.options.trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        if groups:
            events, names = combine_groups(groups)
            trace_path = out / f"{exp_id}.trace.json"
            write_chrome_trace(trace_path, events, names)
            write_jsonl(
                out / f"{exp_id}.jsonl", events,
                header={"experiment": exp_id},
            )
            print(f"wrote {trace_path}")
        if registry.counters or registry.gauges or registry.histograms:
            metrics_path = out / f"{exp_id}.metrics.json"
            write_metrics(metrics_path, registry)
            print(f"wrote {metrics_path}")

    def finish(self) -> None:
        """Write the merged ``--trace-out`` / ``--metrics-out`` files."""
        from repro.obs import (
            combine_groups,
            write_chrome_trace,
            write_jsonl,
            write_metrics,
        )

        if self.args.trace_out:
            events, names = combine_groups(self.groups)
            write_chrome_trace(self.args.trace_out, events, names)
            jsonl_path = Path(self.args.trace_out).with_suffix(".jsonl")
            write_jsonl(jsonl_path, events)
            print(
                f"wrote {self.args.trace_out} ({len(events)} events) "
                f"and {jsonl_path}"
            )
        if self.args.metrics_out:
            write_metrics(self.args.metrics_out, self.registry)
            print(f"wrote {self.args.metrics_out}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for exp_id, experiment in EXPERIMENTS.items():
            print(f"{exp_id:7s} {experiment.title}")
        return 0
    ids = list(EXPERIMENTS) if args.all else args.experiments
    if not ids:
        build_parser().print_usage()
        print("error: name at least one experiment, or use --all/--list",
              file=sys.stderr)
        return 2
    options = build_options(args)
    collector = None
    if args.trace_out or args.metrics_out or options.trace_dir:
        collector = _ObsCollector(options, args)
    try:
        for exp_id in ids:
            experiment = get_experiment(exp_id)
            started = time.perf_counter()
            result = experiment.run_with(options)
            report = experiment.render(result)
            elapsed = time.perf_counter() - started
            if collector is not None:
                collector.collect(exp_id, result)
            print("=" * 72)
            print(f"{exp_id}: {experiment.title}  [{elapsed:.1f}s]")
            print("=" * 72)
            print(report)
            print()
            if args.csv:
                from pathlib import Path

                from repro.experiments.export import export_csv

                out_dir = Path(args.csv)
                out_dir.mkdir(parents=True, exist_ok=True)
                for name, text in export_csv(exp_id, result).items():
                    path = out_dir / name
                    path.write_text(text)
                    print(f"wrote {path}")
        if collector is not None:
            collector.finish()
    finally:
        if options.pool is not None:
            options.pool.close()
            options.pool = None
    if options.cache is not None and (options.cache.hits
                                      or options.cache.misses):
        print(
            f"result cache: {options.cache.hits} hits, "
            f"{options.cache.misses} misses ({options.cache.root})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks the public modules of ``repro``, extracting each module's summary
and the first docstring line of every public class/function.  Re-run
after API changes::

    python tools/gen_api_docs.py          # rewrite docs/API.md
    python tools/gen_api_docs.py --check  # exit 1 and print the diff
                                          # when docs/API.md is stale
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
API_MD = ROOT / "docs" / "API.md"

sys.path.insert(0, str(ROOT / "src"))

MODULES = [
    "repro",
    "repro.units",
    "repro.errors",
    "repro.core.fault",
    "repro.core.plans",
    "repro.core.schemes",
    "repro.core.sequencers",
    "repro.policy.history",
    "repro.policy.predictors",
    "repro.policy.adaptive",
    "repro.sim.config",
    "repro.sim.simulator",
    "repro.sim.results",
    "repro.sim.replacement",
    "repro.sim.tlb",
    "repro.sim.sweep",
    "repro.sim.parallel",
    "repro.sim.shm",
    "repro.envknobs",
    "repro.atomicfile",
    "repro.store.sqlite",
    "repro.service.jobs",
    "repro.service.server",
    "repro.sim.multinode",
    "repro.sim.multitenant",
    "repro.net.params",
    "repro.net.calibration",
    "repro.net.timeline",
    "repro.net.latency",
    "repro.net.congestion",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.obs.instrument",
    "repro.obs.export",
    "repro.obs.validate",
    "repro.obs.tenants",
    "repro.gms.ids",
    "repro.gms.node",
    "repro.gms.directory",
    "repro.gms.epoch",
    "repro.gms.cluster",
    "repro.disk.model",
    "repro.disk.presets",
    "repro.palcode.costs",
    "repro.palcode.emulator",
    "repro.trace.compress",
    "repro.trace.encode",
    "repro.ingest",
    "repro.ingest.readers",
    "repro.ingest.convert",
    "repro.ingest.cache",
    "repro.trace.synth.regions",
    "repro.trace.synth.patterns",
    "repro.trace.synth.phases",
    "repro.trace.synth.apps",
    "repro.trace.synth.modern",
    "repro.trace.synth.stackdist",
    "repro.analysis.waiting",
    "repro.analysis.clustering",
    "repro.analysis.distances",
    "repro.analysis.overlap",
    "repro.analysis.speedup",
    "repro.analysis.report",
    "repro.experiments.registry",
    "repro.experiments.common",
    "repro.experiments.figzoo_grid",
    "repro.experiments.scorecard",
    "repro.experiments.export",
]


def first_line(obj) -> str:
    """First sentence of the first docstring paragraph."""
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    paragraph_lines = []
    for line in doc.splitlines():
        if not line.strip():
            break
        paragraph_lines.append(line.strip())
    paragraph = " ".join(paragraph_lines)
    sentence = paragraph.split(". ")[0]
    return sentence.rstrip(".")


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in sorted(names):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        defined_in = getattr(obj, "__module__", None)
        if defined_in is not None and defined_in != module.__name__:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def render() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py`; one line per public "
        "class/function.",
        "",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        lines.append(f"## `{module_name}`")
        summary = first_line(module)
        if summary:
            lines.append(f"\n{summary}.\n")
        members = list(public_members(module))
        if members:
            for name, obj in members:
                kind = "class" if inspect.isclass(obj) else "def"
                doc = first_line(obj)
                lines.append(f"- **`{kind} {name}`** — {doc}.")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate docs/API.md from the package's docstrings."
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 and print the diff when docs/API.md "
        "differs from what would be generated",
    )
    args = parser.parse_args(argv)
    text = render()
    rel = API_MD.relative_to(ROOT)
    if args.check:
        current = API_MD.read_text() if API_MD.exists() else ""
        if current == text:
            print(f"{rel} is up to date")
            return 0
        sys.stdout.writelines(difflib.unified_diff(
            current.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=f"{rel} (committed)",
            tofile=f"{rel} (generated)",
        ))
        print(f"{rel} is stale: run python tools/gen_api_docs.py")
        return 1
    API_MD.parent.mkdir(exist_ok=True)
    API_MD.write_text(text)
    print(f"wrote {rel} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Pinned figure CSVs: the exported grids must stay byte-identical.

Runs ``python -m repro.experiments --csv DIR`` for the figures whose
grids the benchmark times (fig03, fig09, figZOO and figMT) and for the
adaptive-policy grid (figAX) into a temporary directory, hashes every
CSV it wrote, and compares the SHA-256 digests against
``tests/data/figure_csv_digests.json``.

    PYTHONPATH=src python tools/csv_digests.py --check   # the default
    PYTHONPATH=src python tools/csv_digests.py --write   # re-record

The run is serial and uncached: the ``REPRO_*`` environment knobs are
dropped, so a result cache or a worker pool cannot stand in for the
simulator.  ``--check`` exits non-zero and names every CSV that is
missing, new, or different.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "figure_csv_digests.json"
FIGURES = ("fig03", "fig09", "figZOO", "figMT", "figAX")


def export(out_dir: Path) -> None:
    """Write the figures' CSVs into ``out_dir`` through the CLI."""
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--csv", str(out_dir),
         *FIGURES],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )


def digests() -> dict[str, str]:
    """Every exported CSV's name -> SHA-256 hex digest, sorted by name."""
    with tempfile.TemporaryDirectory(prefix="csv-digests-") as tmp:
        out_dir = Path(tmp)
        export(out_dir)
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.glob("*.csv"))
        }


def check(measured: dict[str, str], pinned: dict[str, str]) -> list[str]:
    """One line per CSV that differs from its pinned digest."""
    problems = []
    for name in sorted(set(pinned) | set(measured)):
        if name not in measured:
            problems.append(f"{name}: pinned but not exported")
        elif name not in pinned:
            problems.append(f"{name}: exported but not pinned")
        elif measured[name] != pinned[name]:
            problems.append(f"{name}: digest {measured[name]} != pinned "
                            f"{pinned[name]}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare against the pinned digests (default)")
    mode.add_argument("--write", action="store_true",
                      help=f"re-record {DIGESTS.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    measured = digests()
    if args.write:
        DIGESTS.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"wrote {len(measured)} digests to {DIGESTS}")
        return 0
    problems = check(measured, json.loads(DIGESTS.read_text()))
    for line in problems:
        print(f"FAIL: {line}", file=sys.stderr)
    if problems:
        return 1
    print(f"{len(measured)} figure CSVs match their pinned digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Print the reproduction scorecard and export the reproduction's data.

The scorecard carries every paper-vs-measured claim, the Section 3.2
simulator validation among them: the prototype's software (PALcode)
protection mode must agree with the idealized TLB mode on both the
improvement and the optimal subpage size.  The script then exports
figure data series as CSV under ``out/csv``.

Run:  python examples/validate_and_export.py
"""

from pathlib import Path

from repro.experiments import get_experiment
from repro.experiments.export import export_csv


def run_scorecard_and_export() -> None:
    print("== scorecard + CSV export ==")
    experiment = get_experiment("scorecard")
    result = experiment.run()
    print(experiment.render(result))

    out_dir = Path("out/csv")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for exp_id in ("scorecard", "fig03", "fig07", "fig09"):
        exp = get_experiment(exp_id)
        for name, text in export_csv(exp_id, exp.run()).items():
            (out_dir / name).write_text(text)
            written.append(name)
    print(f"\nexported {', '.join(written)} to {out_dir}/")


if __name__ == "__main__":
    run_scorecard_and_export()

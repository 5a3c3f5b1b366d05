#!/usr/bin/env python
"""Sweep-service end-to-end smoke (CI helper).

Boots ``python -m repro.service`` as a subprocess on an ephemeral port
with a sqlite result store, then exercises the whole client path the
way an external user would:

1. submit a small Figure 3 sweep spec over HTTP;
2. stream the SSE progress events to the terminal ``done`` frame;
3. fetch the served CSV and assert it is **byte-identical** to the
   same sweep run in process (same builders, same renderer);
4. resubmit the spec and assert every cell is served from the store
   (``cached`` events only — incremental recompute's base case);
5. check the store's row count over ``GET /store``;
6. submit the default spec (the Figure 3 grid for modula3), then run
   ``python -m repro.experiments fig03 --store <db> --progress`` on the
   same store and assert it computes nothing: every progress line says
   ``cached`` and the store's row count does not change.

    PYTHONPATH=src python tools/service_smoke.py [--verbose]

Exits non-zero on the first mismatch.  A CSV difference means the
service's job builders or renderer drifted from the in-process sweep
helpers; leftover ``done`` events on resubmit mean content keys are
unstable, which breaks incremental recompute; a computed fig03 cell
means the service and the experiments key the same cell differently.
"""

from __future__ import annotations

import argparse
import http.client
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")

from repro.sim.sweep import run_subpage_sweep
from repro.trace.synth.apps import build_app_trace

#: The service's default spec: the Figure 3 grid, keyed as ``fig03``'s.
DEFAULT_SPEC = {"app": "modula3"}

#: ``--progress`` lines: ``[cell   1] cached      0.3 ms  <key>``.
PROGRESS = re.compile(r"\[cell\s+\d+\]\s+(\S+)")

SPEC = {
    "app": "modula3",
    "seed": 0,
    "scale": 0.5,
    "base": {"scheme": "eager"},
    "subpage_sizes": [4096, 1024],
    "memory_fractions": {"1/2-mem": 0.5, "1/4-mem": 0.25},
    "include_baselines": True,
}

ANNOUNCE = re.compile(r"listening on http://([\d.]+):(\d+)")


def request(port, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, data


def stream_to_done(port, job_id, verbose):
    status, data = request(port, "GET", f"/sweeps/{job_id}/events")
    assert status == 200, f"events route returned {status}"
    events = [
        json.loads(frame[len("data: "):])
        for frame in data.decode().split("\n\n")
        if frame
    ]
    if verbose:
        for event in events:
            print(f"  {event}")
    terminal = events[-1]
    assert terminal["type"] == "done", f"job ended {terminal}"
    return events


def run_job(port, spec, verbose):
    status, data = request(port, "POST", "/sweeps", payload=spec)
    assert status == 201, f"submit returned {status}: {data!r}"
    job_id = json.loads(data)["id"]
    events = stream_to_done(port, job_id, verbose)
    statuses = [e["status"] for e in events if e["type"] == "cell"]
    return job_id, statuses


def check_fig03_served(port, store, verbose):
    """Fill ``store`` through the service's default spec, then run the
    fig03 experiment on it; it must compute no cell."""
    _, statuses = run_job(port, DEFAULT_SPEC, verbose)
    print(f"default spec: {len(statuses)} cells "
          f"({statuses.count('done')} computed)")
    rows = json.loads(request(port, "GET", "/store")[1])["rows"]
    experiment = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "fig03",
         "--store", str(store), "--progress"],
        capture_output=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        text=True,
        timeout=300,
    )
    assert experiment.returncode == 0, experiment.stderr
    cells = PROGRESS.findall(experiment.stderr)
    if verbose:
        print(experiment.stderr, end="")
    assert len(cells) == len(statuses) and all(
        s == "cached" for s in cells
    ), (
        f"fig03 recomputed cells the service stored: {cells}"
    )
    after = json.loads(request(port, "GET", "/store")[1])["rows"]
    assert after == rows, f"fig03 added store rows: {rows} -> {after}"
    print(f"fig03 on the service's store: {len(cells)} cells cached, "
          f"{after} rows unchanged")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-svc-") as tmp:
        store = Path(tmp) / "results.sqlite"
        service = subprocess.Popen(
            [sys.executable, "-m", "repro.service",
             "--port", "0", "--workers", "1", "--store", str(store)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            text=True,
        )
        try:
            announce = service.stdout.readline()
            match = ANNOUNCE.search(announce)
            assert match, f"no announce line: {announce!r}"
            port = int(match.group(2))
            print(f"service up on port {port} (store {store.name})")

            job_id, statuses = run_job(port, SPEC, args.verbose)
            cells = len(statuses)
            assert cells > 0 and all(s == "done" for s in statuses), (
                f"first run expected all-computed, got {statuses}"
            )
            print(f"first run: {cells} cells computed")

            status, served = request(
                port, "GET", f"/sweeps/{job_id}/csv"
            )
            assert status == 200, f"csv route returned {status}"
            trace = build_app_trace("modula3", seed=0, scale=0.5)
            local = run_subpage_sweep(
                trace,
                SPEC["base"],
                SPEC["subpage_sizes"],
                SPEC["memory_fractions"],
                include_baselines=True,
            )
            expected = local.to_csv().encode()
            assert served == expected, (
                "served CSV differs from in-process sweep:\n"
                f"--- served ---\n{served.decode()}\n"
                f"--- in-process ---\n{expected.decode()}"
            )
            print(f"CSV byte-identical to in-process sweep "
                  f"({len(served)} bytes)")

            _, statuses = run_job(port, SPEC, args.verbose)
            assert all(s == "cached" for s in statuses), (
                f"resubmit expected all-cached, got {statuses}"
            )
            print(f"resubmit: {len(statuses)} cells served from store")

            status, data = request(port, "GET", "/store")
            stats = json.loads(data)
            assert status == 200 and stats["rows"] == cells, (
                f"store stats off: {stats}"
            )
            print(f"store holds {stats['rows']} rows: OK")

            check_fig03_served(port, store, args.verbose)
        finally:
            service.terminate()
            service.wait(timeout=30)
    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

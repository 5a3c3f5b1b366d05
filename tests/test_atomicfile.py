"""The shared persistence contract: the temp-file reap rule."""

import os
import subprocess
import time

from repro.atomicfile import STALE_TMP_AGE_S, reap_stale_tmp


def test_reap_rule_dead_pid_or_old(tmp_path):
    """Dead-PID temps go whatever their age, live-PID temps go once they
    are older than ``STALE_TMP_AGE_S``; both the plain and the suffixed
    name forms follow the rule."""
    shard = tmp_path / "ab"
    shard.mkdir()
    child = subprocess.Popen(["/bin/true"])
    child.wait()
    live = os.getpid()
    old = time.time() - STALE_TMP_AGE_S - 60
    kept, reaped = [shard / "entry.pkl"], []
    for suffix in ("", ".npz"):
        live_fresh = shard / f"fresh.tmp.{live}{suffix}"
        live_old = shard / f"old.tmp.{live}{suffix}"
        dead = shard / f"dead.tmp.{child.pid}{suffix}"
        for path in (live_fresh, live_old, dead):
            path.write_bytes(b"x")
        os.utime(live_old, (old, old))
        kept.append(live_fresh)
        reaped += [live_old, dead]
    kept[0].write_bytes(b"x")

    assert reap_stale_tmp(tmp_path) == len(reaped)
    assert all(path.exists() for path in kept)
    assert not any(path.exists() for path in reaped)

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


@pytest.fixture(autouse=True)
def default_knobs(monkeypatch):
    """Run every test under the program's defaults, as the benchmark does."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)

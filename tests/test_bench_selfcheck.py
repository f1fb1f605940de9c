"""The benchmark wraps library names from outside (`federation.mixup`,
`FeatureExtractor.backprop`, `experiment._execute_run_star`, ...); its
tiny-size self-check fails when a library change breaks one of them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selfcheck ok" in done.stdout

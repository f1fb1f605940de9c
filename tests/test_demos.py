"""Golden digests of the fast demos' output: each demo runs in a fresh
interpreter and the sha256 of its stdout must match, as `test_golden.py` pins
the metrics CSVs. Demo 05 (about 10 s) is left out.

A change that alters a demo's output on purpose has to update its digest and
say why. The digests were taken with numpy 2.4 on x86-64 (OpenBLAS), with and
without the BLAS thread variables set to 1; another BLAS or CPU may round
differently.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_network_engine.py": "d974b3cb3f5051f0e020b79ae338d37dcaa45fbc1e281abbf7baa40b45d600d6",
    "02_synthetic_domains.py": "71c1a1ba43cc39cbe6470c604ccfd268b137ea8aa61156546fa1faf1bab7ff01",
    "03_centroid_weighting.py": "836a7335cba6358e28c2117a1a86d64746935e0198599374e517eaf2e006c06c",
    "04_group_discrepancy.py": "ca1f30e0ad27df49a20e9c23304d13471c8dd2504ae0e9acdbdef783c6419a62",
    "06_experiment_runner.py": "9bb08f6b3480b573059a076d2dcb33370ccee1b74131e872869cf512fbff764f",
}


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[demo], done.stdout.decode()

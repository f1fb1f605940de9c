"""The runtime dependency is numpy alone: importing the package and every
submodule in a fresh interpreter loads nothing outside the standard library
besides numpy, and pyproject.toml declares only numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the baseline is taken in the probe itself: site hooks are loaded before it
PROBE = """
import sys
before = set(sys.modules)
import json, pkgutil
import galasim, galasim.cli
for info in pkgutil.iter_modules(galasim.__path__, "galasim."):
    __import__(info.name)
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_package_imports_only_numpy_and_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "galasim" in loaded and "numpy" in loaded
    # multiprocessing registers aliases such as __mp_main__
    outside = [name for name in loaded if not name.startswith("__")
               and name not in sys.stdlib_module_names and name not in ("numpy", "galasim")]
    assert outside == []


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["numpy>=1.24"]

"""Bit-reproducibility across the environment: the BLAS thread count and the
process budget change the code path (gemm blocking, source processes, which
clients share a lockstep stack, sweep workers), never the bytes of a run."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A narrow Gaussian suite through the three adversarial protocols with and
# without mixup, and a 768-wide glyph suite (16 x 16 x 3 rasters) whose
# sources stack in training and in the fine-tune.
NARROW = """\
[experiment]
name = narrow
target = t
num_seeds = 1

[protocol]
rounds = 2
batch_size = 16
lr0 = 0.05
tau = 3.0
hidden_dims = 16
feature_dim = 8

[sweep]
protocol = gala, full_pairwise, fact_idd
mixup_alpha = none, 0.4

[domain t]
generator = gaussian
num_classes = 3
samples_per_class = 12
input_dim = 4
seed = 100
transforms = mean_shift(magnitude=1.0, seed=7)
""" + "".join(f"""
[domain s{i}]
generator = gaussian
num_classes = 3
samples_per_class = 12
input_dim = 4
seed = {i}
""" for i in range(4))

WIDE = """\
[experiment]
name = wide
target = t
num_seeds = 1

[protocol]
rounds = 2
batch_size = 16
lr0 = 0.05
tau = 3.0
mixup_alpha = 0.2
hidden_dims = 64
feature_dim = 32
""" + "".join(f"""
[domain {name}]
generator = glyph
num_classes = 4
samples_per_class = 6
canvas = 16
channels = 3
seed = {seed}
""" for name, seed in (("t", 100), ("s0", 0), ("s1", 1), ("s2", 2)))

# Runs both suites with `--parallel` argv[2] into argv[1], and writes a
# digest of each run's final models next to its CSV. Forked sweep workers
# inherit the patched `run_protocol`.
CHILD = """\
import hashlib, sys
from pathlib import Path
from galasim import experiment

out, parallel = Path(sys.argv[1]), int(sys.argv[2])
run_protocol = experiment.run_protocol

def digesting(cfg, sources, target, round_hook=None):
    result = run_protocol(cfg, sources, target, round_hook)
    models = result.extractor.params.values.tobytes() + result.classifier.params.values.tobytes()
    name = f"{cfg.protocol}_{cfg.mixup_alpha}_{cfg.seed}_{target.feature_dim}.sha256"
    (out / "models" / name).write_text(hashlib.sha256(models).hexdigest())
    return result

experiment.run_protocol = digesting
(out / "models").mkdir(parents=True)
for suite in ("narrow", "wide"):
    spec = experiment.parse_config(out.parent / f"{suite}.ini")
    spec.output_dir = str(out / suite)
    assert experiment.run_experiment(spec, parallel=parallel) == 0
"""

SETTINGS = [(threads, parallel) for threads in ("1", "2", None) for parallel in (1, 2)]


def outputs(out: Path) -> dict[str, str]:
    """Digest of every run CSV, summary and model digest under `out`, by
    relative path; the domain cache is left out."""
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and "cache" not in path.relative_to(out).parts}


def test_runs_are_byte_identical_across_blas_threads_and_processes(tmp_path):
    (tmp_path / "narrow.ini").write_text(NARROW, encoding="utf-8")
    (tmp_path / "wide.ini").write_text(WIDE, encoding="utf-8")
    seen = {}
    for threads, parallel in SETTINGS:
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        out = tmp_path / f"threads={threads}_parallel={parallel}"
        done = subprocess.run([sys.executable, "-c", CHILD, str(out), str(parallel)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        seen[threads, parallel] = outputs(out)
    first = seen[SETTINGS[0]]
    # 6 narrow and 1 wide run, each with its CSV and its model digest, and 2 summaries
    assert len(first) == 2 * 7 + 2
    for setting, files in seen.items():
        assert files == first, f"{setting} differs from {SETTINGS[0]}"


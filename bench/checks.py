"""Output checks and digests of protocol records and metrics CSVs.

A run fails its checks when a record holds a non-finite value, its weights do
not sum to 1 (or are not positive where the protocol requires it), its byte
counts differ from ``account_communication``, or its final accuracy is below
the workload's floor in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from galasim import Classifier, FeatureExtractor, account_communication

WEIGHT_ATOL = 1e-9
# protocols whose weights must all be positive; fact_idd puts zero weight on
# the sources outside its sampled pair
POSITIVE_WEIGHTS = {"gala", "full_pairwise", "source_only"}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def model_sizes(input_dim: int, hidden_dims, feature_dim: int,
                num_classes: int) -> tuple[int, int]:
    """Parameter counts of the extractor and classifier a config builds."""
    g = FeatureExtractor.shape_spec(input_dim, tuple(hidden_dims), feature_dim)
    f = Classifier.shape_spec(feature_dim, num_classes)
    return (sum(math.prod(dims) for _, dims in g), sum(math.prod(dims) for _, dims in f))


def expected_bytes(cfg, n_sources: int, input_dim: int, num_classes: int) -> tuple[int, int]:
    g, f = model_sizes(input_dim, cfg.hidden_dims, cfg.feature_dim, num_classes)
    return account_communication(cfg.protocol, n_sources, g, f, num_classes,
                                 cfg.feature_dim, cfg.weighting)


def _weight_problems(where: str, weights: np.ndarray, protocol: str) -> list[str]:
    problems = []
    if abs(float(weights.sum()) - 1.0) > WEIGHT_ATOL:
        problems.append(f"{where}: weights sum to {float(weights.sum())!r}")
    if protocol in POSITIVE_WEIGHTS and not (weights > 0).all():
        problems.append(f"{where}: {protocol} weights must be positive")
    if (weights < 0).any():
        problems.append(f"{where}: negative weight")
    return problems


def check_records(records, cfg, expect_bytes: tuple[int, int], floor: float) -> list[str]:
    """Problems found in the RoundRecords of one protocol run."""
    if len(records) != cfg.rounds:
        return [f"{len(records)} records for {cfg.rounds} rounds"]
    problems = []
    for r in records:
        where = f"round {r.round_index}"
        scalars = (r.igd_loss, r.target_accuracy, r.wall_max_client_ms,
                   r.wall_server_ms, r.lr)
        if not (all(math.isfinite(float(v)) for v in scalars)
                and np.isfinite(r.weights).all() and np.isfinite(r.source_losses).all()):
            problems.append(f"{where}: non-finite value")
        problems += _weight_problems(where, np.asarray(r.weights, dtype=np.float64), cfg.protocol)
        if (r.bytes_up, r.bytes_down) != expect_bytes:
            problems.append(f"{where}: bytes {(r.bytes_up, r.bytes_down)} != {expect_bytes}")
    if records[-1].target_accuracy < floor:
        problems.append(f"final accuracy {records[-1].target_accuracy!r} below floor {floor}")
    return problems


def records_digest(records) -> str:
    """Digest of every field of every record, floats by their exact bits."""
    h = hashlib.sha256()
    for r in records:
        bitmask = r.partition.bitmask_g1() if r.partition is not None else 0
        h.update(repr((r.round_index, float(r.igd_loss), float(r.target_accuracy),
                       r.bytes_up, r.bytes_down, float(r.wall_max_client_ms),
                       float(r.wall_server_ms), float(r.lr), bitmask)).encode())
        h.update(np.ascontiguousarray(r.weights, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(r.source_losses, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def read_csv(path) -> list[dict[str, float]]:
    """Rows of a metrics CSV with every cell parsed as a float."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return [dict(zip(header, (float(cell) for cell in row))) for row in rows[1:]]


def check_csv_rows(rows, protocol: str, rounds: int, expect_bytes: tuple[int, int],
                   floor: float) -> list[str]:
    """Problems found in the parsed rows of one run's metrics CSV."""
    if len(rows) != rounds:
        return [f"{len(rows)} rows for {rounds} rounds"]
    problems = []
    for row in rows:
        where = f"round {int(row['round'])}"
        if not all(math.isfinite(v) for v in row.values()):
            problems.append(f"{where}: non-finite value")
        weights = np.array([v for k, v in row.items() if k.startswith("w_")])
        problems += _weight_problems(where, weights, protocol)
        if (int(row["bytes_up"]), int(row["bytes_down"])) != expect_bytes:
            problems.append(f"{where}: bytes {(row['bytes_up'], row['bytes_down'])} "
                            f"!= {expect_bytes}")
    if rows[-1]["target_acc"] < floor:
        problems.append(f"final accuracy {rows[-1]['target_acc']!r} below floor {floor}")
    return problems

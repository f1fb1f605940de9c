"""Golden digests of the metrics CSV: every protocol on a tiny frozen suite
(3 sources, 3 rounds), with and without mixup.

Speedups must leave these bytes unchanged. A change that alters the floating
point results on purpose has to update the digests and state the drift. The
digests were taken with numpy 2.4 on x86-64 (OpenBLAS); another BLAS or CPU
may round differently.
"""

import hashlib

import pytest

from galasim import (ProtocolConfig, TransformSpec, emit_metrics,
                     gen_gaussian_domain, run_protocol)

DIGESTS = {
    ("gala", None): "702a0d2b48ad099baf253c95427767ded4dbcde3e80dba45d645c8e526653ad7",
    ("gala", 0.4): "34b85d5619dfa30504c3c0aea724de0cf10bf3541bce46f89d07447c026b0b43",
    ("fact_idd", None): "d5395eb506997b5643b4ca5cf85864407de9da5cf1926b2e251a78099aa93d7d",
    ("fact_idd", 0.4): "6e2c7eea1a6cffd69fbfb8a5c9af35cf2d541fde678bd0ae14514aa460b96ac2",
    ("full_pairwise", None): "f6de909f723f3e26e19e3f98ac3f6d7c9d5c4e6789dee01e4c2ac1fd568c8c83",
    ("full_pairwise", 0.4): "98b99868e0b6a3e82a175157f2327c395176c8dcafdb4ae0df87150623d27680",
    ("source_only", None): "74828e4cc4e9646b2737476e80054fc7cd16cc357f9e7032c332b87b058d4e8e",
    ("source_only", 0.4): "12aa7aeeb1665673a38bdfb7c52c647e0540f82ff7f8355eceb9043c1b08e1d0",
    ("oracle", None): "12b3f5cc2639c1791e76d4205a5aefa0681533e9970532aa3ab96ae38a078e57",
    ("oracle", 0.4): "e840d998b5d8e132c9618d6ad1bd391c1211c754d9ab3d089d3deb43b17bb302",
}


def tiny_suite():
    sources = [gen_gaussian_domain(3, 24, 4, seed=i, name=f"s{i}",
                                   shift=TransformSpec("rotate", {"angle": 0.2 * i}))
               for i in range(3)]
    target = gen_gaussian_domain(
        3, 30, 4, seed=100, name="t0",
        shift=TransformSpec("mean_shift", {"magnitude": 1.0}, seed=7))
    return sources, target


def metrics_digest(protocol, mixup_alpha, path) -> str:
    sources, target = tiny_suite()
    cfg = ProtocolConfig(protocol=protocol, rounds=3, batch_size=16, lr0=0.05,
                         tau=2.0, hidden_dims=(16,), feature_dim=8, seed=5,
                         mixup_alpha=mixup_alpha)
    emit_metrics(run_protocol(cfg, sources, target).records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("protocol, mixup_alpha", list(DIGESTS))
def test_metrics_csv_bytes_match_golden(protocol, mixup_alpha, tmp_path):
    digest = metrics_digest(protocol, mixup_alpha, tmp_path / "metrics.csv")
    assert digest == DIGESTS[protocol, mixup_alpha]

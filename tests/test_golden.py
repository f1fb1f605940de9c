"""Golden digests of the metrics CSV: every protocol on a tiny frozen suite
(3 sources, 3 rounds), with and without mixup, plus variants of the suite
size, weighting, target stage and local epochs. A second digest per case pins
the final extractor and classifier bytes and the run's metadata, which the
CSV does not show.

Speedups must leave these bytes unchanged. A change that alters the floating
point results on purpose has to update the digests, bump
`experiment._RESULTS_VERSION` (so the runs of an old output directory run
again instead of being taken as done) and state the drift. The
digests were taken with numpy 2.4 on x86-64 (OpenBLAS); another BLAS or CPU
may round differently.
"""

import hashlib

import pytest

from galasim import (ProtocolConfig, TransformSpec, emit_metrics,
                     gen_gaussian_domain, run_protocol)
from galasim.experiment import _RESULTS_VERSION

DIGESTS = {
    ("gala", None): "22032fd684c2e73483b6ca65c4719aa517042f7eaf662c664076878586f7354f",
    ("gala", 0.4): "f5b95f0d131a79ff0380d75ba715f7d8d98face2bc4ad7693a76e1a5f9f3ef94",
    ("fact_idd", None): "01d4a1dff120b41d414dce5f59a28dff0e9f97411b1891faad7192a124984e48",
    ("fact_idd", 0.4): "66c4586c3a4d7f49860db3751501bd1592b74202c91eebe242101a86fbdb254c",
    ("full_pairwise", None): "578c207cfb656200a213ae3a771d19884f318c4a2f59e1eabf2e9d68090fad28",
    ("full_pairwise", 0.4): "ecc8046dde949014ad6db4ada270037801bcb4ffeab55dcea58af56d8bb60042",
    ("source_only", None): "d011dc096743cf88f7b0b0b61614128ba89445a8d03a3918ffb6201188eeaf1c",
    ("source_only", 0.4): "83336d27ba0aed2fbf03df24451c72a29ddfb45c9561c0cea12c4a40b60c4e32",
    ("oracle", None): "4ff8562a87bf22d7de0d843bc5f1777f7157e674b50547005606494237aa5cd9",
    ("oracle", 0.4): "b1b40feb6d80376ee5452205323bc17c81a62d49a20b46c3e91a36ee5f2951db",
}

# (protocol, mixup_alpha, config overrides), with "n_sources" naming the suite size
MORE_DIGESTS = {
    ("gala", None, (("weighting", "mdmgb"),)):
        "53ad3e6e3fcf768cf219355c00782fba5f4d89b8397c9ce3bba2688cc8929f69",
    ("gala", None, (("weighting", "uniform"),)):
        "4effc8fb02d67d9e4f5e68af65243f001dea23d78e83ff7cc8b5543716057809",
    ("full_pairwise", None, (("weighting", "mdmgb"),)):
        "69c8286eae348b9e95d97bfe497af710809144f047630f33040d94278259feae",
    ("full_pairwise", None, (("weighting", "uniform"),)):
        "c12fe7cc504c40c3b71d82b19349a3995492c3e9bf8d2260aef3fceb59ffcb17",
    ("gala", None, (("use_igd", False),)):
        "b6ddf70d9184ecd759e941fb3d144f7162569a4b99a20c106f91a07e779fb6a9",
    ("gala", None, (("local_epochs", 2),)):
        "41e2963e82a9a3f02623daead0c151b1c40f90d2d4ff5979a04537defab592cc",
    ("fact_idd", None, (("local_epochs", 2),)):
        "3ff30fc11720f29df2372f2a2ae814c8fad56060a23fed2b7c9bd76110b0f593",
    ("full_pairwise", None, (("local_epochs", 2),)):
        "4ae2ea3f6d5e597197e2994d1fa90b6ef15155b91156d9f0118d4164015d98cf",
    ("source_only", None, (("local_epochs", 2),)):
        "fa6864f5020db30ed24ce61f8f6ffc934163036ac81aec574147c6f9ec4d4a89",
    ("oracle", None, (("local_epochs", 2),)):
        "09ef4239d48e2e7ba469012d9f645c45e80baf5a22e486cdab622c675fe3a307",
    ("gala", None, (("n_sources", 2),)):
        "77bfd44a09a68882efbb50780080e386546351291df3ac1ed97df9f5c7622b9d",
    ("fact_idd", None, (("n_sources", 2),)):
        "1c9c25012d57aae78402f2a126fe270c6bf2f45045950a39badff6b4f62dfc8d",
    ("full_pairwise", None, (("n_sources", 2),)):
        "94b2c27b666f891e7a775eae17b869b5800c1566767ef37816fdecbe6a42bab1",
    ("source_only", None, (("n_sources", 2),)):
        "e090e86ec68cdc8806bac351395a9e996ec88f4c16b96573ea1ac33a42778264",
    ("oracle", None, (("n_sources", 2),)):
        "4ff8562a87bf22d7de0d843bc5f1777f7157e674b50547005606494237aa5cd9",
    ("gala", None, (("n_sources", 4),)):
        "0858488919044afd901e52d6b971de57fe683f2cd8c2b6317190a2237dd8ea99",
    ("fact_idd", None, (("n_sources", 4),)):
        "0174808ab40b570617c89991e3ac329fa71c3486cddd7f7fd19f56711db97a68",
    ("full_pairwise", None, (("n_sources", 4),)):
        "d9c478f96514f5d863a4edcc41e1a84718a4c5f6924025346dee888a084012b2",
    ("source_only", None, (("n_sources", 4),)):
        "99ae6469e4bb0f66c071da4f834043e426a6e7e90fe291e69eef93509ca77f5b",
    ("oracle", None, (("n_sources", 4),)):
        "4ff8562a87bf22d7de0d843bc5f1777f7157e674b50547005606494237aa5cd9",
}

# digest of the final extractor bytes, classifier bytes and metadata, per case
MODEL_DIGESTS = {
    ("gala", None, ()):
        "c3cec7d6e78909c7f611a303a90ecb393eafd11349040e59ff34f048e589ad93",
    ("gala", 0.4, ()):
        "9025136a4dcba37fae9397cefa11c6eea03a04fb010cd2d6a77b9226f37f411d",
    ("fact_idd", None, ()):
        "2280fe4419a048ed63fd0ed28446c82607fa3da3a8a33a293045d713a57bbbc6",
    ("fact_idd", 0.4, ()):
        "46dbb2d77b4db643baee6186f23bf5fe167050a18e5ed8b63fcb7533c5353d0b",
    ("full_pairwise", None, ()):
        "b1052aab9dae7558ce9f422e367e1a638cc410d0b117d6f6bb6239f305cf5012",
    ("full_pairwise", 0.4, ()):
        "f03b47bfa7de096e2dca18f89f218c7856b7f99cd6837703a0d45d3898de4a89",
    ("source_only", None, ()):
        "8469ebe600dd0a00c9dead16e2c677c87e9c22442cafb36ca977b4692623cfa2",
    ("source_only", 0.4, ()):
        "85d885e5ab68fd1a2153ea9f176f89b7f0434ddf0a0b94de6e8e2076a5f28985",
    ("oracle", None, ()):
        "ff00fd1b2fa6c9d95610428829e48eed8205e00689c0b33df7853bdf5d530644",
    ("oracle", 0.4, ()):
        "2b348912284e5f839a46aec572e3fa21fcd825955a9cb6d0f25ff8880b9b4e0b",
    ("gala", None, (("weighting", "mdmgb"),)):
        "a9cc77d5a16d34565d8f080bac0b571634fa09533794ee791b5b18d6503259ca",
    ("gala", None, (("weighting", "uniform"),)):
        "d25a0333172201d9d1e505a2cd9f8d801b9a45cf5b8978fcad5db14314e77e45",
    ("full_pairwise", None, (("weighting", "mdmgb"),)):
        "29756fb1580c9d53bf4d3ca61a41ca8b4ff5c385dd135db333cd83b9ea814f5a",
    ("full_pairwise", None, (("weighting", "uniform"),)):
        "946fc47c5a1bd8307fb384f3da59b14f36936f43d475e76371961344c0b83727",
    ("gala", None, (("use_igd", False),)):
        "18d30f5eaa7966a2aa35c4db8abaa2149eb1878eb3fbfb30b6307f9160c9bfc8",
    ("gala", None, (("local_epochs", 2),)):
        "a6d503cfc19fcdbcc30adfb88f48cd527c6916ae5b46e29829a4d1867ed14011",
    ("fact_idd", None, (("local_epochs", 2),)):
        "7126100f9262bda9d53763dd5975a3ea74b7c9d729685a8c4594f6f12cf9da8f",
    ("full_pairwise", None, (("local_epochs", 2),)):
        "63549848bf742987fdac020f262051030b64d3f811c876ec6d02e15218328499",
    ("source_only", None, (("local_epochs", 2),)):
        "51c50f619e59eace53fc28c82c5e34812fd8f85499e8e5b7db839e77181c15e9",
    ("oracle", None, (("local_epochs", 2),)):
        "2c3103210686a65c1b4e7405a600f1e23b02e92b9efb3d8fe7f3079b4b428adc",
    ("gala", None, (("n_sources", 2),)):
        "47df1bda140aacea494bdd0ae17b426ddca7387313b72745254c34bcad99389b",
    ("fact_idd", None, (("n_sources", 2),)):
        "ab6eeb51345af62e058365e37233262490ec80e2995360824cb4363794da4c11",
    ("full_pairwise", None, (("n_sources", 2),)):
        "90b66e0c8882d67a80f330a4819c4261d2e00abd815bd4172afd4d75b9fea51a",
    ("source_only", None, (("n_sources", 2),)):
        "6e44639523f90dfe9dab819527e31596994f35e9ae8e92576e91a635307ab0bd",
    ("oracle", None, (("n_sources", 2),)):
        "ff00fd1b2fa6c9d95610428829e48eed8205e00689c0b33df7853bdf5d530644",
    ("gala", None, (("n_sources", 4),)):
        "36538809b1e3a66d2f8b37b86fedc1b23ef370d045b0c284d75c26bf856a3308",
    ("fact_idd", None, (("n_sources", 4),)):
        "d86bcecf93e64bf2c97d7290a87a8f4771be6b96b4c50f6eb8da198897537f66",
    ("full_pairwise", None, (("n_sources", 4),)):
        "5710019d9ae0e1a9254db37affb99f9471a751bf6b7a459f3303c29325cfa1c0",
    ("source_only", None, (("n_sources", 4),)):
        "23b6a86639722db3dc3fde0e855b973b1cafcb356ef32e85509ca7111ad618c4",
    ("oracle", None, (("n_sources", 4),)):
        "ff00fd1b2fa6c9d95610428829e48eed8205e00689c0b33df7853bdf5d530644",
}

CASES = [(p, m, ()) for p, m in DIGESTS] + list(MORE_DIGESTS)


def tiny_suite(n_sources=3):
    sources = [gen_gaussian_domain(3, 24, 4, seed=i, name=f"s{i}",
                                   shift=TransformSpec("rotate", {"angle": 0.2 * i}))
               for i in range(n_sources)]
    target = gen_gaussian_domain(
        3, 30, 4, seed=100, name="t0",
        shift=TransformSpec("mean_shift", {"magnitude": 1.0}, seed=7))
    return sources, target


def run_case(protocol, mixup_alpha, overrides):
    overrides = dict(overrides)
    sources, target = tiny_suite(overrides.pop("n_sources", 3))
    cfg = ProtocolConfig(protocol=protocol, rounds=3, batch_size=16, lr0=0.05,
                         tau=2.0, hidden_dims=(16,), feature_dim=8, seed=5,
                         mixup_alpha=mixup_alpha, **overrides)
    return run_protocol(cfg, sources, target)


def metrics_digest(result, path) -> str:
    emit_metrics(result.records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def model_digest(result) -> str:
    h = hashlib.sha256(result.extractor.params.values.tobytes())
    h.update(result.classifier.params.values.tobytes())
    h.update(repr(sorted(result.metadata.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("protocol, mixup_alpha, overrides", CASES)
def test_metrics_csv_bytes_match_golden(protocol, mixup_alpha, overrides, tmp_path):
    result = run_case(protocol, mixup_alpha, overrides)
    digest = metrics_digest(result, tmp_path / "metrics.csv")
    expected = MORE_DIGESTS[protocol, mixup_alpha, overrides] if overrides \
        else DIGESTS[protocol, mixup_alpha]
    assert digest == expected
    assert model_digest(result) == MODEL_DIGESTS[protocol, mixup_alpha, overrides]


# (_RESULTS_VERSION, sha256 of the digest tables) when they were taken
DIGESTS_PIN = (2, "f27c4966bc0fd6cf66e80e18fcc757d1700e830b703c0a2c4b00a8e97e0a4c45")


def test_retaken_digests_come_with_a_results_version_bump():
    """Re-taking a digest changes the tables' hash: pin the new hash together
    with a bumped results version, or old run CSVs pass for finished runs."""
    tables = repr([list(t.items()) for t in (DIGESTS, MORE_DIGESTS, MODEL_DIGESTS)])
    assert (_RESULTS_VERSION, hashlib.sha256(tables.encode()).hexdigest()) == DIGESTS_PIN

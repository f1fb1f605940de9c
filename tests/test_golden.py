"""Golden digests of the metrics CSV: every protocol on a tiny frozen suite
(3 sources, 3 rounds), with and without mixup, plus variants of the suite
size, weighting, target stage and local epochs. A second digest per case pins
the final extractor and classifier bytes and the run's metadata, which the
CSV does not show.

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

# (protocol, mixup_alpha, config overrides), with "n_sources" naming the suite size
MORE_DIGESTS = {
    ("gala", None, (("weighting", "mdmgb"),)):
        "c0fe71b0feac088f478a2dc80a44b65ce2d722ffbd94e2e09928975612ffdb2b",
    ("gala", None, (("weighting", "uniform"),)):
        "d4bafb984564cb9fc6f7e09db2a56dba14f791f59210088e50baa8b6495aee19",
    ("full_pairwise", None, (("weighting", "mdmgb"),)):
        "61d129c72cd6ee778d49c02e1de5154a742bd62907b6a2978ffe531d504020a7",
    ("full_pairwise", None, (("weighting", "uniform"),)):
        "2b9c4681430243e19a6cf8c98d4296aff0f50f26deb0ef4b4f6abe3e5730c9f9",
    ("gala", None, (("use_igd", False),)):
        "de3a04d2c3aa86a77dea33d0a22a57cf0059821b6a93d203954a114c968d08dd",
    ("gala", None, (("local_epochs", 2),)):
        "53d677733a435bb610500fa82081d2423055fa4127a176fa45d84bb03bf8c436",
    ("fact_idd", None, (("local_epochs", 2),)):
        "e51cec2549159280354e9a0becf208ea91a330a7ed93c8a33182f399edea27fc",
    ("full_pairwise", None, (("local_epochs", 2),)):
        "fd209a19fab6720a6c5ca05b6562f39eccb5593028d82750ee5a9105946c2918",
    ("source_only", None, (("local_epochs", 2),)):
        "47e35e3e2b500be6501d98c54a5ff06c0afb00eab457842324c1b39d24347568",
    ("oracle", None, (("local_epochs", 2),)):
        "bb42dc9f631fe7c1c071e6aed2555b8ba2b672696426853e445135d6b24027e9",
    ("gala", None, (("n_sources", 2),)):
        "cbfad547beb094ffcfa3a12149d8bfaca0b0b8298f010d0759409a04bab9ab57",
    ("fact_idd", None, (("n_sources", 2),)):
        "3184b744ca27bd92d3bd1368aafb90a389ccef966152f88eba6ca41af6bfee64",
    ("full_pairwise", None, (("n_sources", 2),)):
        "2ed2b47860694718a17a6ea7af5267e28cef53d2d45654b6855dfaecf99f7bd3",
    ("source_only", None, (("n_sources", 2),)):
        "37c19bf301c3799d184d6a59974f3908d9459608cd65cd0aa3b55ef9e5fa6d37",
    ("oracle", None, (("n_sources", 2),)):
        "12b3f5cc2639c1791e76d4205a5aefa0681533e9970532aa3ab96ae38a078e57",
    ("gala", None, (("n_sources", 4),)):
        "d39589e6762ccea8000ed10a994725f0ee439db1b162d4de76ee2bcb9bd18361",
    ("fact_idd", None, (("n_sources", 4),)):
        "c28c8f6541518f7c8a732d6872af03c08465c87eaeda2f81a9b1a8a0b2377cd3",
    ("full_pairwise", None, (("n_sources", 4),)):
        "52cf652ba315dfb52fe372ee0edad436b98057f450cba9b436bb8fddbfb6875f",
    ("source_only", None, (("n_sources", 4),)):
        "47f0571f09194a3ae0e9d063ad81b2b5732a29c7ccc6e2328db1eb62ab763f0e",
    ("oracle", None, (("n_sources", 4),)):
        "12b3f5cc2639c1791e76d4205a5aefa0681533e9970532aa3ab96ae38a078e57",
}

# digest of the final extractor bytes, classifier bytes and metadata, per case
MODEL_DIGESTS = {
    ("gala", None, ()):
        "ae2367cd2d863f84e1a87cc2f60fef3bf014034bf96a2081fa6dd13f06607ad8",
    ("gala", 0.4, ()):
        "67bee81199342646607b23704cf9bad0fd6e12339196cf4be5cd0b7c518e71e2",
    ("fact_idd", None, ()):
        "d163ed5a9f4f5646a74ed09544b28288a3989b98e481aaf96cf0333ae38ea037",
    ("fact_idd", 0.4, ()):
        "a6f46592530a9690c563251dd11bfb755a5b7012ec06fcc321292676acd44c13",
    ("full_pairwise", None, ()):
        "1e1ace104651627fba19f638ebff5d2edfde2e5c2f136c5e89f895fc6693a13a",
    ("full_pairwise", 0.4, ()):
        "aa67855d2b5a2df09b834baf11f8e399de24f72c0eff6e16992d89f2195c21a8",
    ("source_only", None, ()):
        "d2bf37d14ec2fde60c10e8fee7e119e9346d8f94db2dbb5efa4833a16ff5150d",
    ("source_only", 0.4, ()):
        "c8668943ba1959dfe211fc26035f6c97ca00f69d5026e07cd12bb3df143af04d",
    ("oracle", None, ()):
        "6978cde502c626a7b869ff410a5ea5625e29408de6af0c839a3d4b50d6a16614",
    ("oracle", 0.4, ()):
        "2a002ca9b56be2e604d0928f5dafda2338836835a592fd7700b852aea1204b50",
    ("gala", None, (("weighting", "mdmgb"),)):
        "c2fecf697779145f7e990a4b3d0ff179a315945ebf20bf9c55df525d046c4e31",
    ("gala", None, (("weighting", "uniform"),)):
        "7ba2796adf967a7032a9c4e8cff620def95821d3eee66f511a33a219c4f9584c",
    ("full_pairwise", None, (("weighting", "mdmgb"),)):
        "244e9745ea84edef1431ee4e7fd3f0bca642e4ea9ddc76f250b9df32cadde1ed",
    ("full_pairwise", None, (("weighting", "uniform"),)):
        "ee24ab2d21d483cfa25c54d22b717d8ccea0adf5f6c54bd006e0726f6152d8cf",
    ("gala", None, (("use_igd", False),)):
        "21e416652e08690cedd25ba2c077f611e9be98a33632d9231eae09ba407c7eaa",
    ("gala", None, (("local_epochs", 2),)):
        "21ca9b7faf43b7e8c9871dbf49ab8e98930978dcc2b062c7ac23637fa516d0fc",
    ("fact_idd", None, (("local_epochs", 2),)):
        "acbbd341ba7ca68aa51f9473f41719c5a31f23dc816d83d1aa2ff64acb69f96c",
    ("full_pairwise", None, (("local_epochs", 2),)):
        "38b86c6bec102e4952824bd7102dde390c51059089015c0eef7cad49cdc33dca",
    ("source_only", None, (("local_epochs", 2),)):
        "5349374d11835a9a6658929529f168b22d76584fd4db79e14c366d3ab7812da8",
    ("oracle", None, (("local_epochs", 2),)):
        "1e9a63228c708e565b7d74a7ff59c9ab48fd0790c917bbb994b8d6cd7dd48cac",
    ("gala", None, (("n_sources", 2),)):
        "f9db4119434b7caf5a5d923a8d357ff9308fdac1778a4b4702c8cd41b6537fcd",
    ("fact_idd", None, (("n_sources", 2),)):
        "9c3f47256faa17f6a309f83d7f957d79a90737908cd310be7922f955cad9f98f",
    ("full_pairwise", None, (("n_sources", 2),)):
        "b101cd359a0401781dd71f1fb2a7d661912fbc0fb5ef9fa4059eece724014120",
    ("source_only", None, (("n_sources", 2),)):
        "e00d8e5fee24d9ed3f9f4c9c34aeec5d07263b4472f5606f188f867e13b9e617",
    ("oracle", None, (("n_sources", 2),)):
        "6978cde502c626a7b869ff410a5ea5625e29408de6af0c839a3d4b50d6a16614",
    ("gala", None, (("n_sources", 4),)):
        "ff4510d4694af8d0e696fd6f8d1dd0dc96d77c9e3b12714d6685d57c91f43f55",
    ("fact_idd", None, (("n_sources", 4),)):
        "451b48b17344338358439ee7547df103a1ad2023cefc280ca7937e53dbc6e11b",
    ("full_pairwise", None, (("n_sources", 4),)):
        "d4c0ede78488814e5257e37b9f330058495caad21403a3d4044aaf403abfff05",
    ("source_only", None, (("n_sources", 4),)):
        "29425dd52adacf27b3a09bd429de1f36b28d781b7c03102aa6697b63d2502f1e",
    ("oracle", None, (("n_sources", 4),)):
        "6978cde502c626a7b869ff410a5ea5625e29408de6af0c839a3d4b50d6a16614",
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

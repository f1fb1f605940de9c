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
    ("full_pairwise", None): "07da43f8dc9d16b429033c4232707f0139bfd16537cfde0f4d18a7106e1ccfbd",
    ("full_pairwise", 0.4): "f4ae88c6b3d365fc50d53bf17a2a0900a183ce4013d4104afaba64d31839ffc0",
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
        "27be033b715ef51a0f5c7c3bd1f39cccdc8110d931ec57f39a400bb73f38db4d",
    ("full_pairwise", None, (("weighting", "uniform"),)):
        "fedd2ce41653ee3f27f921899e002801ab885ca0db464029451d7eaffeb4ad52",
    ("gala", None, (("use_igd", False),)):
        "de3a04d2c3aa86a77dea33d0a22a57cf0059821b6a93d203954a114c968d08dd",
    ("gala", None, (("local_epochs", 2),)):
        "53d677733a435bb610500fa82081d2423055fa4127a176fa45d84bb03bf8c436",
    ("fact_idd", None, (("local_epochs", 2),)):
        "e51cec2549159280354e9a0becf208ea91a330a7ed93c8a33182f399edea27fc",
    ("full_pairwise", None, (("local_epochs", 2),)):
        "ac3d3bfd2fd46fbc08f9d9d83829878546f4a57ba7cb55f396986f855066e7d9",
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
        "14e636d50f8b44232d0e64c0f321e35e20a88115b4177c495e84b4c8b8b93d76",
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
        "1110d29d06176b3e9a0f4d2b516cf8294a299a8e6bb12be0ca14087207211b8c",
    ("full_pairwise", 0.4, ()):
        "97f0140a5899a053ab0d01134073320e8959ab093322ec5c57870169e56b6cdd",
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
        "1d5c83e2ce8862c5f3ee0ca8ebc48abe19f53e26dab90b495682d66f84238b85",
    ("full_pairwise", None, (("weighting", "uniform"),)):
        "2ce5a33cf4e5e67fd855dd1f93b1137b602574fec4ae454690b6292a6ab11c59",
    ("gala", None, (("use_igd", False),)):
        "21e416652e08690cedd25ba2c077f611e9be98a33632d9231eae09ba407c7eaa",
    ("gala", None, (("local_epochs", 2),)):
        "21ca9b7faf43b7e8c9871dbf49ab8e98930978dcc2b062c7ac23637fa516d0fc",
    ("fact_idd", None, (("local_epochs", 2),)):
        "acbbd341ba7ca68aa51f9473f41719c5a31f23dc816d83d1aa2ff64acb69f96c",
    ("full_pairwise", None, (("local_epochs", 2),)):
        "15a8889e0ce20d452bf5358e6d5602ebb7a4e72b51de271caa3739af3687e85d",
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
        "fc1559f8f6ec1481601279fddc722482ff801d23430086ba1cc652d71d5b128c",
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

"""Config parsing, metrics CSV schema, and experiment runner tests."""

import contextlib
import csv
import dataclasses
import io
import itertools
import logging
import multiprocessing
import os
import shutil
import string
import subprocess
import sys
import tempfile
import time
import warnings
from multiprocessing.connection import wait
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galasim import (
    ConfigError,
    DataError,
    DomainDataset,
    ParseError,
    ProtocolConfig,
    RoundRecord,
    WorkerError,
    emit_metrics,
    gen_gaussian_domain,
    parse_config,
    run_experiment,
    run_gala,
)
from galasim import cli, experiment, federation
from galasim.experiment import DomainEntry, build_domains, _sweep_grid

CONFIG = """
[experiment]
name = demo
target = t0
output_dir = {out}
num_seeds = 2

[protocol]
protocol = gala
rounds = 2
batch_size = 32
lr0 = 0.05
hidden_dims = 16
feature_dim = 8
seed = 3

[sweep]
tau = 0.5, 2.0

[domain t0]
generator = gaussian
num_classes = 3
samples_per_class = 30
input_dim = 4
seed = 100
transforms = mean_shift(magnitude=1.0, seed=7)

[domain s0]
generator = gaussian
num_classes = 3
samples_per_class = 24
input_dim = 4
seed = 0

[domain s1]
generator = gaussian
num_classes = 3
samples_per_class = 24
input_dim = 4
seed = 1
transforms = rotate(angle=0.3); label_noise(fraction=0.1, seed=5)
"""


DISTRACTOR = """
[domain s2]
generator = gaussian
num_classes = 3
samples_per_class = 24
input_dim = 4
seed = 2
transforms = rotate(angle=1.9); mean_shift(magnitude=2.5, seed=9); label_noise(fraction=0.5, seed=6)
"""


def write_config(tmp_path, text=None):
    path = tmp_path / "exp.ini"
    path.write_text((text or CONFIG).format(out=tmp_path / "out"))
    return path


GAUSSIAN_SRC = ("generator = gaussian\nnum_classes = 3\nsamples_per_class = 24\n"
                "input_dim = 4\n")
GLYPH_SRC = "generator = glyph\nnum_classes = 3\nsamples_per_class = 10\ncanvas = 16\n"

# source sections that the generator or a transform rejects
BAD_SECTIONS = {
    "missing_key": GAUSSIAN_SRC.replace("num_classes = 3\n", ""),
    "too_few_samples": GAUSSIAN_SRC.replace("samples_per_class = 24", "samples_per_class = 4"),
    "missing_transform_argument": GAUSSIAN_SRC + "transforms = rotate(seed=1)\n",
    "raster_transform_on_vectors": GAUSSIAN_SRC + "transforms = scale_recenter(inner=4)\n",
    "amplitude_out_of_range": GLYPH_SRC + "transforms = background_overlay(noise_amplitude=2)\n",
    "unknown_transform_argument": GAUSSIAN_SRC + "transforms = rotate(angle=0.1, magnitude=2)\n",
}


# (config section named in the error, line of CONFIG, its bad replacement)
BAD_VALUES = {
    "float_for_int": ("[protocol]", "rounds = 2", "rounds = 2.5"),
    "integral_float_for_int": ("[protocol]", "rounds = 2", "rounds = 2.0"),
    "bool_for_int": ("[protocol]", "rounds = 2", "rounds = true"),
    "text_for_int": ("[protocol]", "rounds = 2", "rounds = abc"),
    "float_width": ("[protocol]", "hidden_dims = 16", "hidden_dims = 8.5"),
    "zero_width": ("[protocol]", "hidden_dims = 16", "hidden_dims = 8,0"),
    "negative_width": ("[protocol]", "hidden_dims = 16", "hidden_dims = -3"),
    "zero_feature_dim": ("[protocol]", "feature_dim = 8", "feature_dim = 0"),
    "text_for_float": ("[protocol]", "lr0 = 0.05", "lr0 = fast"),
    "text_for_mixup_alpha": ("[protocol]", "lr0 = 0.05", "lr0 = 0.05\nmixup_alpha = abc"),
    "text_num_seeds": ("[experiment]", "num_seeds = 2", "num_seeds = two"),
    "seed_swept": ("[sweep]", "tau = 0.5, 2.0", "seed = 1, 2"),
    "repeated_sweep_value": ("[sweep]", "tau = 0.5, 2.0", "tau = 3, 3"),
    "repeated_after_typing": ("[sweep]", "tau = 0.5, 2.0", "tau = 3, 3.0"),
    "invalid_sweep_configuration": ("[sweep]", "tau = 0.5, 2.0", "tau = 3, -1"),
    "negative_seed": ("[protocol]", "seed = 3", "seed = -1"),
    "most_negative_seed": ("[protocol]", "seed = 3", "seed = -9223372036854775808"),
    "name_with_a_separator": ("[experiment]", "name = demo", "name = sub/demo"),
    "eval_fraction_below_rounding": ("[protocol]", "lr0 = 0.05",
                                     "lr0 = 0.05\neval_fraction = 1e-300"),
}

# protocol values outside their ranges, each in [protocol] and as a [sweep]
# value; CONFIG sets lr0 in [protocol] and sweeps tau, so those lines change
for _field, _value in [("lr0", "-0.05"), ("lr0", "0"), ("lr0", "nan"), ("momentum", "5"),
                       ("momentum", "-0.1"), ("gamma", "0"), ("gamma", "2"),
                       ("weight_decay", "-1"), ("tau", "nan"), ("tau", "inf"),
                       ("mixup_alpha", "nan"), ("mixup_alpha", "inf")]:
    BAD_VALUES[f"{_field}={_value}"] = (
        "[protocol]", "lr0 = 0.05",
        f"lr0 = {_value}" if _field == "lr0" else f"lr0 = 0.05\n{_field} = {_value}")
    BAD_VALUES[f"swept_{_field}={_value}"] = (
        "[sweep]", "tau = 0.5, 2.0",
        f"tau = 0.5, {_value}" if _field == "tau" else f"tau = 0.5, 2.0\n{_field} = 0.5, {_value}")


# the CONFIG suite without its second source
ONE_SOURCE = CONFIG[:CONFIG.index("[domain s1]")]


def with_section(tmp_path, section):
    """The CONFIG suite plus one source section named broken_src."""
    return write_config(tmp_path, CONFIG + "\n[domain broken_src]\n" + section)


class TestParseConfig:
    def test_full_parse(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        assert spec.name == "demo"
        assert spec.target_name == "t0"
        assert spec.num_seeds == 2
        assert spec.protocol.rounds == 2
        assert spec.protocol.hidden_dims == (16,)
        assert [d.name for d in spec.domains] == ["t0", "s0", "s1"]
        assert spec.domains[2].transforms[0].kind == "rotate"
        assert spec.domains[2].transforms[1].params == {"fraction": 0.1}
        assert spec.sweep == [("tau", [0.5, 2.0])]

    def test_defaults_applied_when_protocol_empty(self, tmp_path):
        text = CONFIG.replace("[protocol]", "[protocol]\n# emptied below")
        lines = [l for l in text.splitlines()
                 if not any(l.startswith(k) for k in
                            ("protocol =", "rounds", "batch_size", "lr0",
                             "hidden_dims", "feature_dim", "seed = 3"))]
        spec = parse_config(write_config(tmp_path, "\n".join(lines)))
        assert spec.protocol.batch_size == 128
        assert spec.protocol.momentum == 0.9
        assert spec.protocol.weight_decay == 5e-4
        assert spec.protocol.rounds == 500
        assert spec.protocol.tau == 1.0

    def test_unknown_key_is_hard_error(self, tmp_path):
        text = CONFIG.replace("tau = 0.5, 2.0", "taus = 0.5, 2.0")
        with pytest.raises(ConfigError, match="taus"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_protocol_key(self, tmp_path):
        text = CONFIG.replace("lr0 = 0.05", "lr_zero = 0.05")
        with pytest.raises(ConfigError, match="lr_zero"):
            parse_config(write_config(tmp_path, text))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nname demo\n")
        with pytest.raises(ParseError, match="line"):
            parse_config(path)

    @pytest.mark.parametrize("command", ["run", "simmatrix"])
    def test_a_config_that_is_not_utf8_exits_2_naming_the_line(self, tmp_path, capfd, command):
        path = write_config(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"name = demo", b"name = dem\xff"))
        assert cli.main([command, str(path)]) == 2
        err = capfd.readouterr().err
        assert err == (f"configuration error: {path}: parse error at line 3: not UTF-8 "
                       f"(invalid start byte)\n")

    def test_a_byte_order_mark_is_dropped_and_a_missing_header_names_its_line(self, tmp_path):
        plain = write_config(tmp_path)
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config(path) == parse_config(plain)
        path.write_text("name = demo\n[experiment]\n")
        with pytest.raises(ParseError, match=" at line 1: "):
            parse_config(path)

    def test_target_must_be_in_suite(self, tmp_path):
        text = CONFIG.replace("target = t0", "target = nope")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, text))

    def test_sweep_grid_size(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        grid = _sweep_grid(spec)
        assert len(grid) == 2
        assert len(grid) * spec.num_seeds == 4

    @pytest.mark.parametrize("section, message", [
        (BAD_SECTIONS["missing_key"], "missing key(s) ['num_classes']"),
        (GAUSSIAN_SRC + "canvas = 16\n", "unknown key(s) ['canvas']"),
        (GAUSSIAN_SRC + "name = other\n", "unknown key(s) ['name']"),
        (GAUSSIAN_SRC + "shift = 1\n", "unknown key(s) ['shift']"),
        (BAD_SECTIONS["missing_transform_argument"], "rotate: missing key(s) ['angle']"),
        (BAD_SECTIONS["unknown_transform_argument"], "rotate: unknown key(s) ['magnitude']"),
        (GAUSSIAN_SRC + "transforms = rotate(angle=0.1, d=2)\n", "rotate: unknown key(s) ['d']"),
        (GAUSSIAN_SRC + "transforms = rotate(angle=0.1, angle=0.2)\n", "each key once"),
        (GAUSSIAN_SRC + "center_scale = far\n", "center_scale must be of type float"),
        (GAUSSIAN_SRC + "transforms = rotate(angle=true)\n", "angle must be of type float"),
        ("generator = spiral\n", "generator must be one of ['gaussian', 'glyph'], got 'spiral'"),
        (GAUSSIAN_SRC.replace("generator = gaussian\n", ""), "got None"),
    ], ids=["missing_key", "unknown_key", "name_key", "shift_key", "missing_argument",
            "unknown_argument", "dataset_argument", "repeated_argument", "text_for_float",
            "bool_for_float", "unknown_generator", "no_generator"])
    def test_domain_keys_and_transform_arguments_follow_the_signatures(
            self, tmp_path, section, message):
        path = with_section(tmp_path, section)
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value).startswith(f"{path}: [domain broken_src]: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("section", [
        GLYPH_SRC.replace("canvas = 16", "canvas = 16.0"),
        GLYPH_SRC + "transforms = scale_recenter(inner=12.0)\n",
    ], ids=["generator", "transform"])
    def test_integer_parameter_given_as_float_is_a_config_error(self, tmp_path, section):
        with pytest.raises(ConfigError, match="must be of type int, got 1[26].0"):
            parse_config(with_section(tmp_path, section))

    def test_five_by_five_sweep_schedules_25_runs(self, tmp_path):
        text = CONFIG.replace("tau = 0.5, 2.0",
                              "tau = 0.2, 0.4, 0.8, 1.0, 3.0")
        text = text.replace("num_seeds = 2", "num_seeds = 5")
        spec = parse_config(write_config(tmp_path, text))
        assert len(_sweep_grid(spec)) * spec.num_seeds == 25

    def test_readme_config_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n")[1].split("```")[0]
        path = tmp_path / "readme.ini"
        path.write_text(example)
        spec = parse_config(path)
        assert spec.sweep == [("tau", [0.2, 0.4, 0.8, 1.0, 3.0])]
        assert spec.domains[0].transforms[1].seed == 50

    def test_values_keep_their_parsed_types(self, tmp_path):
        text = (CONFIG.replace("lr0 = 0.05", "lr0 = 1\nmixup_alpha = 2")
                .replace("tau = 0.5, 2.0", "tau = 1, 2.5\nuse_igd = true, false")
                .replace("input_dim = 4\nseed = 0", "input_dim = 4\nseed = 0\ncenter_scale = 3"))
        spec = parse_config(write_config(tmp_path, text))
        assert (spec.protocol.lr0, spec.protocol.mixup_alpha) == (1.0, 2.0)
        assert type(spec.protocol.lr0) is float and type(spec.protocol.mixup_alpha) is float
        assert spec.sweep == [("tau", [1.0, 2.5]), ("use_igd", [True, False])]
        assert type(spec.sweep[0][1][0]) is float
        # a domain's float written as an int stays one, as its content key spells it
        assert type(spec.domains[1].params["center_scale"]) is int
        assert "center_scale=3," in spec.domains[1].content_key()


def protocol_text(cfg: ProtocolConfig) -> str:
    """`cfg` written as [protocol] lines."""
    def text(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, tuple):
            return ",".join(map(str, value))
        return "none" if value is None else str(value)
    return "".join(f"{f.name} = {text(getattr(cfg, f.name))}\n"
                   for f in dataclasses.fields(cfg))


def protocol_suite(directory: Path, text: str) -> Path:
    """Write a three-domain suite, enough sources for every protocol, whose
    [protocol] section is `text`."""
    gaussian = "generator = gaussian\nnum_classes = 3\nsamples_per_class = 8\ninput_dim = 2\n"
    path = directory / "exp.ini"
    path.write_text(f"[experiment]\nname = typed\ntarget = t0\n\n[protocol]\n{text}\n"
                    f"[domain t0]\n{gaussian}\n[domain s0]\n{gaussian}\n[domain s1]\n{gaussian}")
    return path


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
valid_protocols = st.builds(
    ProtocolConfig, protocol=st.sampled_from(federation.PROTOCOLS),
    weighting=st.sampled_from(federation.WEIGHTINGS), use_igd=st.booleans(), tau=_positive,
    rounds=st.integers(1, 10**9), local_epochs=st.integers(1, 10**9),
    batch_size=st.integers(1, 10**9), lr0=_positive,
    gamma=st.floats(0.0, 1.0, exclude_min=True), momentum=st.floats(0.0, 1.0, exclude_max=True),
    weight_decay=st.floats(min_value=0.0, allow_infinity=False), seed=st.integers(0, 2**63),
    mixup_alpha=st.none() | _positive,
    hidden_dims=st.lists(st.integers(1, 4096), max_size=3).map(tuple),
    feature_dim=st.integers(1, 4096),
    eval_fraction=st.floats(2**-53, 1.0, exclude_max=True))  # 1 - eval_fraction < 1
INT_FIELDS = [f.name for f in dataclasses.fields(ProtocolConfig) if f.type == "int"]
FLOAT_FIELDS = [f.name for f in dataclasses.fields(ProtocolConfig)
                if f.type in ("float", "Optional[float]")]


class TestProtocolSection:
    @settings(max_examples=60, deadline=None)
    @given(cfg=valid_protocols)
    def test_valid_protocol_reads_back_equal(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            spec = parse_config(protocol_suite(Path(tmp), protocol_text(cfg)))
        assert spec.protocol == cfg
        for f in dataclasses.fields(cfg):
            assert type(getattr(spec.protocol, f.name)) is type(getattr(cfg, f.name)), f.name

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(INT_FIELDS), value=st.one_of(
        st.floats().map(repr), st.sampled_from(["2.0", "1e3", "true", "False"]),
        st.text(string.ascii_letters, min_size=1)))
    def test_int_field_rejects_float_bool_and_text(self, field, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = protocol_suite(Path(tmp), f"{field} = {value}\n")
            with pytest.raises(ConfigError) as info:
                parse_config(path)
        message = str(info.value)
        assert message.startswith(f"{path}: [protocol]: ")
        assert message.endswith(f"{field} must be of type int, got {value}")

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from(FLOAT_FIELDS),
           value=st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "-infinity"]))
    def test_float_field_rejects_nan_and_infinity(self, field, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = protocol_suite(Path(tmp), f"{field} = {value}\n")
            with pytest.raises(ConfigError) as info:
                parse_config(path)
        assert str(info.value).startswith(f"{path}: [protocol]: {field} must be ")


# A tiny Gaussian suite as {section: {key: value}}: 1 round, 1 seed, 8-wide nets.
TINY_SUITE = {
    "experiment": {"name": "tiny", "target": "t0", "num_seeds": "1"},
    "protocol": {"rounds": "1", "batch_size": "16", "lr0": "0.05", "hidden_dims": "8",
                 "feature_dim": "4", "seed": "3"},
    "domain t0": {"generator": "gaussian", "num_classes": "3", "samples_per_class": "8",
                  "input_dim": "2", "seed": "100"},
    "domain s0": {"generator": "gaussian", "num_classes": "3", "samples_per_class": "8",
                  "input_dim": "2", "seed": "0"},
    "domain s1": {"generator": "gaussian", "num_classes": "3", "samples_per_class": "8",
                  "input_dim": "2", "seed": "1"},
}

# values to draw by annotation: valid ones, range edges, negatives, zero, nan,
# inf, huge values and text. Counts draw no huge value: a huge count is valid
# and would only make the run slow.
_FLOAT_VALUES = ["0.5", "1", "0", "-1", "1e-300", "1e300", "1e308", "nan", "inf", "-inf",
                 "abc"]
_VALUES = {
    "int": ["1", "2", "8", "0", "-1", "2.5", "nan", "abc", ""],
    "float": _FLOAT_VALUES,
    "Optional[float]": ["none", *_FLOAT_VALUES],
    "bool": ["true", "false", "yes"],
    "tuple[int, ...]": ["8", "", "4,4", "0", "-1", "4.5"],
}
_NAMED_VALUES = {
    "seed": ["0", "3", "-1", str(2**64), "1.5", "abc"],
    "rounds": ["1", "2", "0", "-1", "1.5", "abc"],
    "protocol": [*federation.PROTOCOLS, "bogus"],
    "weighting": [*federation.WEIGHTINGS, "bogus"],
    "target": ["t0", "s1", "missing"],
    "name": ["tiny", "", "a b", "..", "a/b", "/"],
    "batch_size": ["1", "16", str(2**62), "0", "-1", "2.5", "abc"],
}


def _field_values(fn, skip=()):
    """{key: values} for each parameter of fn a config section may set."""
    return {k: _NAMED_VALUES.get(k) or _VALUES[p.annotation]
            for k, p in experiment._parameters(fn).items()
            if p.annotation in experiment._READERS and k not in skip}


CONFIG_FIELDS = {
    **{("experiment", k): v
       for k, v in _field_values(experiment._experiment, skip=("output_dir",)).items()},
    **{("protocol", k): v for k, v in _field_values(ProtocolConfig).items()},
    **{("domain s0", k): v for k, v in _field_values(gen_gaussian_domain).items()},
}


@st.composite
def transform_lines(draw):
    """One transform of a vector domain, its arguments drawn like fields."""
    kind = draw(st.sampled_from(["rotate", "mean_shift", "label_noise"]))
    args = {k: draw(st.sampled_from(v))
            for k, v in _field_values(experiment.TRANSFORMS[kind]).items()}
    return f"{kind}({', '.join(f'{k}={v}' for k, v in args.items())})"


class TestGeneratedConfigs:
    @settings(max_examples=200, deadline=None)
    @given(changes=st.lists(st.sampled_from(sorted(CONFIG_FIELDS)), min_size=1, max_size=2,
                            unique=True)
           .flatmap(lambda keys: st.fixed_dictionaries(
               {key: st.sampled_from(CONFIG_FIELDS[key]) for key in keys})),
           transform=st.none() | transform_lines(), parallel=st.integers(1, 3),
           seed=st.sampled_from([None, "0", "-1", "7"]))
    def test_cli_run_ends_in_a_documented_exit_code(self, changes, transform, parallel, seed):
        """One or two fields of the tiny suite changed, run through `cli.main` in
        this process; `--parallel` gets the host's process budget."""
        sections = {name: dict(keys) for name, keys in TINY_SUITE.items()}
        for (section, key), value in changes.items():
            sections[section][key] = value
        if transform is not None:
            sections["domain s1"]["transforms"] = transform
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            sections["experiment"]["output_dir"] = str(out)
            config = Path(tmp) / "exp.ini"
            config.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                                             for k, v in keys.items())
                                      for name, keys in sections.items()))
            argv = ["run", str(config), "--parallel", str(parallel)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv + (["--seed", seed] if seed else []))
            runs = list(out.glob("runs/*.csv"))
        assert code in (0, 2, 3), (code, stdout.getvalue(), stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        numpy_warnings = [str(w.message) for w in caught
                          if issubclass(w.category, RuntimeWarning)]
        assert not numpy_warnings, numpy_warnings
        assert code != 2 or not runs
        # such an abort is a value `validate` could have rejected before any run
        aborted = [line for line in stdout.getvalue().splitlines()
                   if ": aborted: ValueError" in line or ": aborted: DataError" in line]
        assert not aborted, aborted


class TestGradcheckCli:
    def test_a_passing_check_exits_0(self, capsys):
        assert cli.main(["gradcheck", "--trials", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    @pytest.mark.parametrize("args, message", [
        (["--trials", "0"], "--trials must be >= 1, got 0"),
        (["--trials", "-1"], "--trials must be >= 1, got -1"),
        (["--epsilon", "0.1"], "--epsilon must lie in (1e-7, 1e-3), got 0.1"),
        (["--epsilon", "1e-3"], "--epsilon must lie in (1e-7, 1e-3), got 0.001"),
        (["--epsilon", "1e-7"], "--epsilon must lie in (1e-7, 1e-3), got 1e-07"),
        (["--epsilon", "nan"], "--epsilon must lie in (1e-7, 1e-3), got nan"),
        (["--epsilon=-1e-5"], "--epsilon must lie in (1e-7, 1e-3), got -1e-05"),
        (["--seed", "-1"], "--seed must be >= 0, got -1")])
    def test_bad_argument_exits_2_before_the_first_trial(self, capfd, args, message):
        assert cli.main(["gradcheck", *args]) == 2
        out, err = capfd.readouterr()
        assert out == "" and err == f"configuration error: {message}\n"


class TestEmitMetrics:
    def run_records(self):
        sources = [gen_gaussian_domain(3, 24, 4, seed=i) for i in range(4)]
        target = gen_gaussian_domain(3, 30, 4, seed=50)
        cfg = ProtocolConfig(protocol="gala", rounds=2, batch_size=32,
                             lr0=0.05, hidden_dims=(16,), feature_dim=8, seed=1)
        return run_gala(cfg, sources, target).records

    def test_schema(self, tmp_path):
        records = self.run_records()
        path = tmp_path / "m.csv"
        emit_metrics(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        n = records[0].weights.size
        assert len(rows[0]) == 9 + n + 1
        assert rows[0][0] == "round"
        assert rows[0][1] == "target_acc"
        assert rows[0][-1] == "g1_bitmask"
        assert len(rows) == 1 + len(records)

    def test_weight_columns_sum_to_one(self, tmp_path):
        records = self.run_records()
        path = tmp_path / "m.csv"
        emit_metrics(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        w_cols = [i for i, h in enumerate(rows[0]) if h.startswith("w_")]
        for row in rows[1:]:
            total = sum(float(row[i]) for i in w_cols)
            assert abs(total - 1.0) <= 1e-6

    def test_accuracy_delta_series_reconstructible(self, tmp_path):
        records = self.run_records()
        path = tmp_path / "m.csv"
        emit_metrics(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        accs = [float(r[1]) for r in rows[1:]]
        deltas = np.diff(accs)
        expect = np.diff([r.target_accuracy for r in records])
        np.testing.assert_allclose(deltas, expect, atol=0)

    def test_bitmask_matches_partition(self, tmp_path):
        records = self.run_records()
        path = tmp_path / "m.csv"
        emit_metrics(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for rec, row in zip(records, rows[1:]):
            assert int(row[-1]) == sum(1 << i for i in rec.partition.g1)

    def test_write_failing_midway_leaves_no_file(self, tmp_path):
        records = self.run_records()
        # the last row cannot be formatted, after earlier rows were written
        bad = dataclasses.replace(records[-1], weights=np.array(["nan?"] * 4))
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError):
            emit_metrics([*records[:-1], bad], path)
        assert list(tmp_path.iterdir()) == []

    def test_lf_line_endings(self, tmp_path):
        records = self.run_records()
        path = tmp_path / "m.csv"
        emit_metrics(records, path)
        blob = path.read_bytes()
        assert b"\r" not in blob


_any_float = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0]))


@st.composite
def csv_records(draw):
    """Records whose float fields cover signed zeros, infinities, subnormals
    and a mean_source_loss that is NaN when every source loss is."""
    n = draw(st.integers(1, 4))
    records = []
    for t in range(draw(st.integers(1, 3))):
        losses = draw(st.lists(st.one_of(_any_float, st.just(float("nan"))),
                               min_size=n, max_size=n))
        records.append(RoundRecord(
            t, np.array(draw(st.lists(_any_float, min_size=n, max_size=n))), None,
            np.array(losses), draw(_any_float), draw(_any_float), 8, 8,
            draw(_any_float), draw(_any_float), draw(_any_float)))
    return records


def same_float(got: float, want: float) -> bool:
    """Bit-exact equality, with every NaN equal to every NaN."""
    if np.isnan(want):
        return bool(np.isnan(got))
    return np.float64(got).tobytes() == np.float64(want).tobytes()


class TestCsvFloats:
    # an all-NaN mean, and sums of extreme floats overflowing, warn by design
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(records=csv_records())
    def test_every_float_reads_back_bit_exact(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            emit_metrics(records, path)
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = list(csv.reader(fh))
            final = experiment._final_accuracy_from_csv(path)
        col = {name: k for k, name in enumerate(header)}
        for rec, row in zip(records, rows, strict=True):
            want = {"target_acc": rec.target_accuracy, "igd_loss": rec.igd_loss,
                    "mean_source_loss": float(np.nanmean(rec.source_losses)),
                    "wall_max_client_ms": rec.wall_max_client_ms,
                    "wall_server_ms": rec.wall_server_ms, "lr": rec.lr}
            want.update({f"w_{i}": float(w) for i, w in enumerate(rec.weights)})
            for name, value in want.items():
                assert same_float(float(row[col[name]]), value), (name, row[col[name]])
        assert same_float(final, records[-1].target_accuracy)

    def test_all_nan_source_losses_write_nan(self, tmp_path):
        rec = RoundRecord(0, np.array([1.0]), None, np.array([np.nan]), -0.0, 0.5,
                          0, 0, 0.0, 0.0, 0.01)
        with pytest.warns(RuntimeWarning):
            emit_metrics([rec], tmp_path / "m.csv")
        with open(tmp_path / "m.csv", newline="") as fh:
            header, row = list(csv.reader(fh))
        assert row[header.index("mean_source_loss")] == "nan"
        assert row[header.index("igd_loss")] == "-0.0"


def _dying_star(job):
    """Stands in for experiment._execute_run_star: the sweep worker running
    the tau=2.0, seed 3 job exits without a word."""
    cfg = job[0]
    if cfg.tau == 2.0 and cfg.seed == 3 and multiprocessing.parent_process():
        os._exit(1)
    return experiment._execute_run(*job)


def _marking_star(job):
    """Stands in for experiment._execute_run_star: leaves one marker file per
    job it runs."""
    path = Path(job[3])
    markers = path.parent.parent / "markers"
    markers.mkdir(exist_ok=True)
    (markers / path.name).touch()
    return experiment._execute_run(*job)


def _failing_out_of_order_star(job):
    """Stands in for experiment._execute_run_star: the seed-3 runs fail, the
    tau=0.5 one (job 0) only once the tau=2.0 one (job 2) has failed, so at
    parallel=2 they finish out of job order."""
    cfg, path = job[0], Path(job[3])
    marker = path.parent.parent / "tau2_failed"
    if cfg.seed != 3:
        return experiment._execute_run(*job)
    if cfg.tau == 2.0:
        marker.touch()
    else:
        deadline = time.monotonic() + 60
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    return str(path), "ValueError: planted"


def budget(monkeypatch, count):
    """Set the process budget run_experiment forks sweep workers by, whatever
    the host's CPUs and BLAS thread variables (source processes keep theirs)."""
    monkeypatch.setattr(experiment, "_processes", lambda: count)


_CSV_WRITER = csv.writer


class FailingAfterHeader:
    """Stands in for csv.writer: writes the header row, then raises OSError."""

    def __init__(self, fh, **kwargs):
        self.inner, self.rows = _CSV_WRITER(fh, **kwargs), 0

    def writerow(self, row):
        if self.rows == 1:
            raise OSError("disk full")
        self.rows += 1
        self.inner.writerow(row)


def run_csvs(out):
    return {p.name: p.read_bytes() for p in (Path(out) / "runs").glob("*.csv")}


class TestRunExperiment:
    @pytest.mark.parametrize("section", BAD_SECTIONS.values(), ids=list(BAD_SECTIONS))
    def test_bad_domain_section_exits_2_naming_the_domain(self, tmp_path, capfd, section):
        assert cli.main(["run", str(with_section(tmp_path, section))]) == 2
        err = capfd.readouterr().err
        assert "configuration error" in err and "broken_src" in err
        assert "Traceback" not in err

    def test_simmatrix_of_a_bad_domain_section_exits_2(self, tmp_path, capfd):
        path = with_section(tmp_path, BAD_SECTIONS["amplitude_out_of_range"])
        assert cli.main(["simmatrix", str(path)]) == 2
        err = capfd.readouterr().err
        assert "configuration error" in err and "broken_src" in err
        assert "Traceback" not in err

    def test_simmatrix_of_domains_of_mixed_class_counts_exits_2(self, tmp_path, capfd):
        path = write_config(tmp_path, CONFIG.replace(
            "[domain s0]\ngenerator = gaussian\nnum_classes = 3",
            "[domain s0]\ngenerator = gaussian\nnum_classes = 4"))
        assert cli.main(["simmatrix", str(path)]) == 2
        err = capfd.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert "disagree on class count" in err and "'s0' 4" in err
        assert not (tmp_path / "out" / "simmatrix.csv").exists()

    def test_domains_of_mixed_feature_dims_exit_2_before_any_run(self, tmp_path, capfd):
        glyph_sources = "".join(f"\n[domain g{k}]\n{GLYPH_SRC}seed = {k}\n" for k in range(2))
        path = write_config(tmp_path, CONFIG[:CONFIG.index("[domain s0]")] + glyph_sources)
        assert cli.main(["run", str(path)]) == 2
        err = capfd.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert "disagree on feature dim" in err and all(f"'{d}' " in err for d in ("t0", "g0", "g1"))
        assert not run_csvs(tmp_path / "out")

    @pytest.mark.parametrize("section, old, new", BAD_VALUES.values(), ids=list(BAD_VALUES))
    def test_bad_value_exits_2_before_any_run(self, tmp_path, capfd, section, old, new):
        path = write_config(tmp_path, CONFIG.replace(old, new))
        assert cli.main(["run", str(path)]) == 2
        err = capfd.readouterr().err
        assert f"configuration error: {path}: {section}" in err and "Traceback" not in err
        assert new.splitlines()[-1].partition("=")[0].strip() in err  # the key at fault
        assert not run_csvs(tmp_path / "out")

    def test_negative_seed_on_the_command_line_exits_2_before_any_run(self, tmp_path, capfd):
        assert cli.main(["run", str(write_config(tmp_path)), "--seed", "-2"]) == 2
        err = capfd.readouterr().err
        assert "configuration error: [protocol]: seed must be >= 0, got -2" in err
        assert "Traceback" not in err and not run_csvs(tmp_path / "out")

    @pytest.mark.parametrize("old, new, where", [
        ("protocol = gala", "protocol = gala", "[protocol]"),
        ("tau = 0.5, 2.0", "protocol = source_only, gala", "[sweep] protocol=gala"),
    ], ids=["protocol", "sweep"])
    def test_too_few_sources_exit_2_before_any_run(self, tmp_path, capfd, old, new, where):
        path = write_config(tmp_path, ONE_SOURCE.replace(old, new))
        assert cli.main(["run", str(path)]) == 2
        err = capfd.readouterr().err
        assert err == (f"configuration error: {path}: {where}: "
                       f"protocol 'gala' needs at least 2 sources, got 1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, runs", [
        ("protocol = gala", "protocol = source_only", 4),
        ("tau = 0.5, 2.0", "protocol = source_only", 2),  # gala in [protocol] never runs
    ], ids=["protocol", "sweep"])
    def test_one_source_suite_runs_source_only(self, tmp_path, old, new, runs):
        assert cli.main(["run", str(write_config(tmp_path, ONE_SOURCE.replace(old, new)))]) == 0
        assert len(run_csvs(tmp_path / "out")) == runs

    @pytest.mark.parametrize("protocol", federation.PROTOCOLS)
    def test_every_protocol_needs_its_minimum_of_sources(self, tmp_path, protocol):
        need = federation.MIN_SOURCES[protocol]
        target_only = CONFIG[:CONFIG.index("[domain s0]")].replace("protocol = gala",
                                                                  f"protocol = {protocol}")
        for count in range(max(need - 1, 0), need + 1):
            sources = "".join(f"\n[domain s{k}]\n{GAUSSIAN_SRC}seed = {k}\n" for k in range(count))
            path = write_config(tmp_path, target_only + sources)
            if count == need:
                parse_config(path)
            else:
                with pytest.raises(ConfigError, match=f"needs at least {need} sources"):
                    parse_config(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's cos and sin must not warn
    @pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
    def test_non_finite_rotate_angle_exits_2_naming_the_angle(self, tmp_path, capfd, angle):
        path = write_config(tmp_path, CONFIG.replace("rotate(angle=0.3)", f"rotate(angle={angle})"))
        assert cli.main(["run", str(path)]) == 2
        err = capfd.readouterr().err
        assert err == (f"configuration error: domain 's1': angle must be finite, "
                       f"got {float(angle)}\n")
        assert not run_csvs(tmp_path / "out")

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the float32 cast must not warn
    @pytest.mark.parametrize("domain, old, new", [
        ("s0", "seed = 0\n", "seed = 0\ncenter_scale = 1e300\n"),
        ("s1", "rotate(angle=0.3)", "mean_shift(magnitude=1e300, seed=9)"),
    ], ids=["center_scale", "mean_shift"])
    def test_float32_overflow_exits_2_naming_the_domain(self, tmp_path, capfd, domain, old,
                                                        new):
        assert CONFIG.count(old) == 1
        assert cli.main(["run", str(write_config(tmp_path, CONFIG.replace(old, new)))]) == 2
        err = capfd.readouterr().err
        assert err == (f"configuration error: domain {domain!r}: dataset {domain!r} "
                       f"contains non-finite features\n")
        assert not run_csvs(tmp_path / "out")

    @pytest.mark.parametrize("command", ["run", "simmatrix"])
    def test_a_class_count_the_dataset_file_cannot_hold_exits_2_naming_the_domain(
            self, tmp_path, capfd, command):
        section = "generator = gaussian\nnum_classes = 65536\nsamples_per_class = 8\n" \
                  "input_dim = 2\n"
        assert cli.main([command, str(with_section(tmp_path, section))]) == 2
        err = capfd.readouterr().err
        assert err == ("configuration error: domain 'broken_src': num_classes or a raster dim "
                       "exceeds the u16 format field\n")
        assert not run_csvs(tmp_path / "out")
        assert not (tmp_path / "out" / "simmatrix.csv").exists()

    @pytest.mark.parametrize("command", ["run", "simmatrix"])
    def test_a_target_class_of_one_sample_exits_2_naming_the_class(self, tmp_path, capfd,
                                                                   command):
        glyphs = "".join(f"\n[domain {name}]\n{GLYPH_SRC}seed = {k}\n"
                         for k, name in enumerate(["t0", "s0", "s1"]))
        path = write_config(tmp_path, CONFIG[:CONFIG.index("[domain t0]")] + glyphs.replace(
            "samples_per_class = 10", "samples_per_class = 1", 1))
        assert cli.main([command, str(path)]) == 2
        err = capfd.readouterr().err
        assert "dataset 't0': class 0 has 1 sample, and a split needs 2\n" in err
        assert "Traceback" not in err
        if command == "run":
            assert err.startswith("configuration error: [domain t0]: ")
        assert not run_csvs(tmp_path / "out")
        assert not (tmp_path / "out" / "simmatrix.csv").exists()

    @pytest.mark.parametrize("change", [dict(hidden_dims=(8, 0)), dict(hidden_dims=(-3,)),
                                        dict(feature_dim=0)], ids=["zero", "negative", "feature"])
    def test_width_below_1_is_a_config_error(self, change):
        cfg = ProtocolConfig(rounds=1, batch_size=32, **change)
        sources = [gen_gaussian_domain(3, 24, 4, seed=i) for i in range(2)]
        with pytest.raises(ConfigError, match="hidden_dims and feature_dim must be >= 1"):
            run_gala(cfg, sources, gen_gaussian_domain(3, 30, 4, seed=50))

    @pytest.mark.parametrize("sweep, message", [
        ([("seed", [1, 2])], "[sweep]: 'seed' is not a protocol field to sweep"),
        ([("tau", [3.0, 3])], "[sweep]: tau repeats a value"),
        ([("tau", [3.0]), ("rounds", [1, 0])], "[sweep] rounds=0_tau=3.0: rounds must be >= 1"),
    ], ids=["seed", "repeated", "invalid_configuration"])
    def test_library_sweep_is_checked_before_any_run(self, tmp_path, sweep, message):
        spec = parse_config(write_config(tmp_path))
        spec.sweep = sweep
        with pytest.raises(ConfigError) as info:
            run_experiment(spec)
        assert str(info.value).startswith(message)
        assert not (tmp_path / "out").exists()

    def test_temp_files_of_dead_writers_are_removed_and_live_ones_kept(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait(timeout=60)
        out = tmp_path / "out"
        (out / "runs").mkdir(parents=True)
        (out / "cache").mkdir()
        dead = [out / "runs" / f"demo__x.csv.{child.pid}.tmp",
                out / "cache" / f"0123.gdsd.{child.pid}.tmp",
                out / f"summary.csv.{child.pid}.tmp"]
        live = out / "runs" / f"demo__y.csv.{os.getpid()}.tmp"
        for path in dead + [live]:
            path.write_text("partial")
        assert run_experiment(parse_config(write_config(tmp_path))) == 0
        assert not any(path.exists() for path in dead)
        assert live.read_text() == "partial"

    def test_simmatrix_removes_temp_files_of_dead_writers_and_keeps_live_ones(
            self, tmp_path, capsys):
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait(timeout=60)
        out = tmp_path / "out"
        (out / "cache").mkdir(parents=True)
        dead = [out / f"simmatrix.csv.{child.pid}.tmp", out / "cache" / f"0123.gdsd.{child.pid}.tmp"]
        live = out / f"simmatrix.csv.{os.getppid()}.tmp"  # a running process that is not this one
        for path in dead + [live]:
            path.write_text("partial")
        assert cli.main(["simmatrix", str(write_config(tmp_path))]) == 0
        assert not any(path.exists() for path in dead)
        assert live.read_text() == "partial"
        assert (out / "simmatrix.csv").exists()

    def test_runs_and_summary(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        assert run_experiment(spec) == 0
        runs = sorted((tmp_path / "out" / "runs").glob("*.csv"))
        assert len(runs) == 4  # 2 sweep values x 2 seeds
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert summary.count("\n") == 3  # header + 2 configs

    def test_rerun_bit_identical(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        run_experiment(spec)
        before = {p.name: p.read_bytes()
                  for p in (tmp_path / "out" / "runs").glob("*.csv")}
        spec2 = parse_config(write_config(tmp_path))
        spec2.output_dir = str(tmp_path / "out2")
        run_experiment(spec2)
        after = {p.name: p.read_bytes()
                 for p in (tmp_path / "out2" / "runs").glob("*.csv")}
        assert before == after

    def test_resume_skips_completed(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        run_experiment(spec)
        runs_dir = tmp_path / "out" / "runs"
        mtimes = {p.name: p.stat().st_mtime_ns for p in runs_dir.glob("*.csv")}
        assert run_experiment(parse_config(write_config(tmp_path))) == 0
        after = {p.name: p.stat().st_mtime_ns for p in runs_dir.glob("*.csv")}
        assert mtimes == after  # untouched files: completed runs were skipped

    def test_results_version_bump_reruns_an_old_output_directory(self, tmp_path, monkeypatch):
        run_experiment(parse_config(write_config(tmp_path)))
        old = run_csvs(tmp_path / "out")
        monkeypatch.setattr(experiment, "_RESULTS_VERSION", experiment._RESULTS_VERSION + 1)
        assert run_experiment(parse_config(write_config(tmp_path))) == 0
        new = run_csvs(tmp_path / "out").keys() - old.keys()
        assert len(new) == len(old) == 4  # every run has a new name and ran again

    def test_summary_std_matches_recomputation(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        run_experiment(spec)
        finals = {}
        for path in (tmp_path / "out" / "runs").glob("*.csv"):
            label = path.name.split("__")[1]
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            finals.setdefault(label, []).append(float(rows[-1][1]))
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            summary = {r[0]: (float(r[2]), float(r[3]))
                       for r in list(csv.reader(fh))[1:]}
        for label, values in finals.items():
            mean, std = summary[label]
            assert abs(mean - np.mean(values)) <= 1e-9
            assert abs(std - np.std(values)) <= 1e-9

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        budget(monkeypatch, 4)
        spec = parse_config(write_config(tmp_path))
        run_experiment(spec, parallel=1)
        serial = {p.name: p.read_bytes()
                  for p in (tmp_path / "out" / "runs").glob("*.csv")}
        spec2 = parse_config(write_config(tmp_path))
        spec2.output_dir = str(tmp_path / "par")
        run_experiment(spec2, parallel=4)
        par = {p.name: p.read_bytes()
               for p in (tmp_path / "par" / "runs").glob("*.csv")}
        assert serial == par

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_gives_exit_3_and_keeps_partials(self, tmp_path):
        # a divergent lr blows the parameters up; the run aborts numerically
        text = CONFIG.replace("lr0 = 0.05", "lr0 = 1e12").replace(
            "tau = 0.5, 2.0", "tau = 1.0")
        spec = parse_config(write_config(tmp_path, text))
        assert run_experiment(spec) == 3
        # domain cache and directory structure survive for a resume
        assert (tmp_path / "out" / "cache").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_abort_on_the_command_line_shows_no_numpy_warning(self, tmp_path, capfd):
        text = CONFIG.replace("lr0 = 0.05", "lr0 = 1e12").replace(
            "tau = 0.5, 2.0", "tau = 1.0")
        assert cli.main(["run", str(write_config(tmp_path, text))]) == 3
        out, err = capfd.readouterr()
        aborted = [line for line in out.splitlines()
                   if ": aborted: NumericError: non-finite" in line]
        assert len(aborted) == 2, out
        assert "Warning" not in out + err and "Traceback" not in err

    def test_weight_underflow_fails_one_run_and_sweep_continues(self, tmp_path):
        # at tau=3000 the distractor's weight underflows to 0 in round 0
        text = CONFIG.replace("tau = 0.5, 2.0", "tau = 3, 3000").replace(
            "num_seeds = 2", "num_seeds = 1") + DISTRACTOR
        spec = parse_config(write_config(tmp_path, text))
        assert run_experiment(spec) == 3
        runs = [p.name for p in (tmp_path / "out" / "runs").iterdir()]
        assert len(runs) == 1 and "__tau=3.0__" in runs[0]
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "num_failed"
        assert [(r[0], r[1], r[-1]) for r in rows[1:]] == [("tau=3.0", "1", "0"),
                                                          ("tau=3000.0", "0", "1")]
        assert rows[2][2:4] == ["", ""]  # no mean or std without a finished run

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize("error", [DataError("bad domain"), ConfigError("bad config"),
                                       ValueError("bad value")])
    def test_failing_run_is_recorded_and_the_sweep_finishes(self, tmp_path, monkeypatch,
                                                           capsys, error, parallel):
        budget(monkeypatch, 2)
        real = experiment.run_protocol

        def run_protocol(cfg, sources, target):
            if cfg.tau == 2.0 and cfg.seed == 3:
                raise error
            return real(cfg, sources, target)

        monkeypatch.setattr(experiment, "run_protocol", run_protocol)
        spec = parse_config(write_config(tmp_path))
        assert run_experiment(spec, parallel=parallel) == 3
        runs = sorted(p.name for p in (tmp_path / "out" / "runs").iterdir())
        assert len(runs) == 3
        assert not any("__tau=2.0__s0__" in name for name in runs)
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = {r[0]: (int(r[1]), int(r[4])) for r in list(csv.reader(fh))[1:]}
        assert rows == {"tau=0.5": (2, 0), "tau=2.0": (1, 1)}
        assert f"{type(error).__name__}: {error}" in capsys.readouterr().out

    def test_dead_worker_fails_its_run_and_the_cli_exits_3(self, tmp_path, monkeypatch,
                                                             capsys):
        # two source processes forced; the worker dies in round 0 of one run
        parent = os.getpid()
        real = federation._train_lockstep

        def dying(cfg, *args, **kwargs):
            if os.getpid() != parent and cfg.tau == 2.0 and cfg.seed == 3:
                os._exit(9)
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(federation, "_processes", lambda: 2)
        monkeypatch.setattr(federation, "_train_lockstep", dying)
        assert cli.main(["run", str(write_config(tmp_path))]) == 3
        out = capsys.readouterr().out
        assert "WorkerError: worker for sources 1-1 exited with code 9 in round 0" in out
        runs = sorted(p.name for p in (tmp_path / "out" / "runs").iterdir())
        assert len(runs) == 3 and not any("__tau=2.0__s0__" in name for name in runs)

    def test_cli_maps_a_lost_worker_to_exit_3(self, tmp_path, monkeypatch, capsys):
        def lost(spec, parallel=1):
            raise WorkerError("worker for sources 2-3 exited with code -9 in round 4")

        monkeypatch.setattr(cli, "run_experiment", lost)
        assert cli.main(["run", str(write_config(tmp_path))]) == 3
        assert "worker lost" in capsys.readouterr().err

    def test_dead_pool_worker_fails_its_runs_and_the_summary_is_written(
            self, tmp_path, monkeypatch, capsys):
        budget(monkeypatch, 2)
        monkeypatch.setattr(experiment, "_execute_run_star", _dying_star)
        spec = parse_config(write_config(tmp_path))
        assert run_experiment(spec, parallel=2) == 3
        out = capsys.readouterr().out
        runs = tmp_path / "out" / "runs"
        done = sorted(p.name for p in runs.glob("*.csv"))
        # the healthy runs finish, the next on a fresh fork; only the dying one is lost
        assert len(done) == 3 and not any("__tau=2.0__s0__" in name for name in done)
        lost = [line for line in out.splitlines() if "aborted: WorkerError: " in line]
        assert len(lost) == 1 and "__tau=2.0__s0__" in lost[0]
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = {r[0]: (int(r[1]), int(r[4])) for r in list(csv.reader(fh))[1:]}
        assert rows == {"tau=0.5": (2, 0), "tau=2.0": (1, 1)}

    def test_cli_exits_3_without_a_traceback_when_a_pool_worker_dies(
            self, tmp_path, monkeypatch, capfd):
        budget(monkeypatch, 2)
        monkeypatch.setattr(experiment, "_execute_run_star", _dying_star)
        assert cli.main(["run", str(write_config(tmp_path)), "--parallel", "2"]) == 3
        out, err = capfd.readouterr()
        assert "aborted: WorkerError: " in out
        assert "Traceback" not in err

    def test_failed_fork_runs_the_job_in_this_process(self, tmp_path, monkeypatch):
        budget(monkeypatch, 2)
        spec = parse_config(write_config(tmp_path))
        spec.output_dir = str(tmp_path / "serial")
        assert run_experiment(spec, parallel=1) == 0
        real_start = multiprocessing.process.BaseProcess.start
        started = []

        def start(process):
            if started:  # the second worker cannot be forked, nor any later one
                raise OSError(11, "Resource temporarily unavailable")
            started.append(process)
            real_start(process)

        spec.output_dir = str(tmp_path / "out")
        with mock.patch.object(multiprocessing.process.BaseProcess, "start", start):
            assert run_experiment(spec, parallel=2) == 0
        assert len(started) == 1 and started[0].exitcode is not None
        assert len(run_csvs(tmp_path / "out")) == 4
        assert run_csvs(tmp_path / "out") == run_csvs(tmp_path / "serial")
        assert (tmp_path / "out" / "summary.csv").read_bytes() == \
            (tmp_path / "serial" / "summary.csv").read_bytes()

    @pytest.mark.parametrize("parallel", [0, -1])
    def test_parallel_below_1_is_a_config_error(self, tmp_path, capsys, parallel):
        spec = parse_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="parallel must be >= 1"):
            run_experiment(spec, parallel=parallel)
        assert not (tmp_path / "out").exists()
        config = str(write_config(tmp_path))
        assert cli.main(["run", config, "--parallel", str(parallel)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_pool_has_no_more_workers_than_pending_runs(self, tmp_path, monkeypatch):
        spec = parse_config(write_config(tmp_path))
        assert run_experiment(spec) == 0
        before = run_csvs(tmp_path / "out")
        for name in sorted(before)[:2]:
            (tmp_path / "out" / "runs" / name).unlink()
        forked = []
        real = experiment._Worker

        def forking(*args, **kwargs):
            forked.append(real(*args, **kwargs))
            return forked[-1]

        monkeypatch.setattr(experiment, "_Worker", forking)
        budget(monkeypatch, 8)
        assert run_experiment(spec, parallel=8) == 0
        assert len(forked) == 2
        assert run_csvs(tmp_path / "out") == before

    def test_unpinned_blas_runs_a_parallel_sweep_serially_with_one_warning(
            self, tmp_path, monkeypatch, caplog):
        for var in federation._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        spec = parse_config(write_config(tmp_path))
        spec.output_dir = str(tmp_path / "serial")
        assert run_experiment(spec, parallel=1) == 0
        forked = []
        real = experiment._Worker

        def forking(*args, **kwargs):
            forked.append(real(*args, **kwargs))
            return forked[-1]

        monkeypatch.setattr(experiment, "_Worker", forking)
        spec.output_dir = str(tmp_path / "out")
        with caplog.at_level(logging.WARNING, logger="galasim.experiment"):
            assert run_experiment(spec, parallel=2) == 0
        assert forked == []
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1 and "OPENBLAS_NUM_THREADS=1" in warnings[0]
        for name in ("serial", "out"):
            assert (tmp_path / name / "summary.csv").exists()
        assert run_csvs(tmp_path / "out") == run_csvs(tmp_path / "serial")
        assert (tmp_path / "out" / "summary.csv").read_bytes() == \
            (tmp_path / "serial" / "summary.csv").read_bytes()

        budget(monkeypatch, 2)
        spec.output_dir = str(tmp_path / "pinned")
        caplog.clear()
        assert run_experiment(spec, parallel=2) == 0
        assert len(forked) == 2 and caplog.records == []
        assert run_csvs(tmp_path / "pinned") == run_csvs(tmp_path / "serial")

    def test_pool_pickles_the_suite_at_most_once_per_worker(self, tmp_path, monkeypatch):
        pickled = []

        def reduce_ex(self, protocol):
            pickled.append(self.name)
            return object.__reduce_ex__(self, protocol)

        monkeypatch.setattr(DomainDataset, "__reduce_ex__", reduce_ex)
        budget(monkeypatch, 2)
        spec = parse_config(write_config(tmp_path))
        assert run_experiment(spec, parallel=2) == 0  # 4 jobs on 2 workers
        assert len(run_csvs(tmp_path / "out")) == 4
        assert pickled == []  # the workers inherit the domains

    def test_runner_patched_before_the_call_runs_every_pool_job(self, tmp_path,
                                                                 monkeypatch):
        # the benchmark swaps in its own runner this way (bench/NOTES.md, Couplings);
        # it must run whether the budget allows the workers or not
        monkeypatch.setattr(experiment, "_execute_run_star", _marking_star)
        spec = parse_config(write_config(tmp_path))
        for count in (1, 2):
            budget(monkeypatch, count)
            spec.output_dir = str(tmp_path / f"budget{count}")
            assert run_experiment(spec, parallel=2) == 0
            markers = sorted(p.name for p in (tmp_path / f"budget{count}" / "markers").iterdir())
            assert len(markers) == 4
            assert markers == sorted(run_csvs(tmp_path / f"budget{count}"))

    def test_failures_are_printed_in_job_order(self, tmp_path, monkeypatch, capsys, caplog):
        budget(monkeypatch, 2)
        monkeypatch.setattr(experiment, "_execute_run_star", _failing_out_of_order_star)
        spec = parse_config(write_config(tmp_path))
        with caplog.at_level(logging.INFO, logger="galasim.experiment"):
            assert run_experiment(spec, parallel=2) == 3
        finished = [r.getMessage() for r in caplog.records if " aborted: " in r.getMessage()]
        assert [line.split("__")[1] for line in finished] == ["tau=2.0", "tau=0.5"]
        printed = [line for line in capsys.readouterr().out.splitlines() if "aborted" in line]
        assert [line.split("__")[1] for line in printed] == ["tau=0.5", "tau=2.0"]
        assert all(line.endswith("aborted: ValueError: planted") for line in printed)
        assert len(run_csvs(tmp_path / "out")) == 2

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_run_csv_write_failing_gives_exit_4_and_no_outputs(self, tmp_path, monkeypatch,
                                                              capsys, parallel):
        budget(monkeypatch, 2)
        monkeypatch.setattr(csv, "writer", FailingAfterHeader)
        config = str(write_config(tmp_path))
        assert cli.main(["run", config, "--parallel", str(parallel)]) == 4
        assert "I/O error: cannot write metrics to " in capsys.readouterr().err
        assert not run_csvs(tmp_path / "out")
        assert not (tmp_path / "out" / "summary.csv").exists()

    @settings(max_examples=6, deadline=None)
    @given(k=st.integers(0, 3))
    def test_a_dead_worker_fails_only_its_run_and_a_rerun_completes(self, k):
        # the worker running job k dies; each of the 4 jobs has its own CSV name
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            config = str(write_config(tmp))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["run", config, "--out", str(tmp / "serial")]) == 0
            want = run_csvs(tmp / "serial")
            doomed = sorted(want)[k]  # job order is grid order, and so name order

            def dying(job):
                if Path(job[3]).name == doomed and multiprocessing.parent_process():
                    os._exit(1)
                return experiment._execute_run(*job)

            out = io.StringIO()
            with mock.patch.object(experiment, "_execute_run_star", dying), \
                    mock.patch.object(experiment, "_processes", lambda: 2), \
                    contextlib.redirect_stdout(out):
                assert cli.main(["run", config, "--parallel", "2"]) == 3
            lost = [line for line in out.getvalue().splitlines() if "aborted" in line]
            assert len(lost) == 1 and doomed in lost[0] and "aborted: WorkerError: " in lost[0]
            assert run_csvs(tmp / "out") == {n: b for n, b in want.items() if n != doomed}
            assert not list((tmp / "out").rglob("*.tmp"))

            with contextlib.redirect_stdout(io.StringIO()), \
                    mock.patch.object(experiment, "_processes", lambda: 2):
                assert cli.main(["run", config, "--parallel", "2"]) == 0
            assert run_csvs(tmp / "out") == want
            assert (tmp / "out" / "summary.csv").read_bytes() == \
                (tmp / "serial" / "summary.csv").read_bytes()

    @pytest.mark.parametrize("where", ["waiting", "logging progress"])
    def test_interrupt_mid_sweep_reaps_the_workers(self, tmp_path, monkeypatch, where):
        budget(monkeypatch, 2)
        spec = parse_config(write_config(tmp_path))
        spec.output_dir = str(tmp_path / "serial")
        assert run_experiment(spec) == 0
        spec.output_dir = str(tmp_path / "out")
        waits = []

        def interrupted_wait(conns):
            waits.append(conns)
            if len(waits) == 2:
                raise KeyboardInterrupt
            return wait(conns)

        class InterruptingLog:
            def info(self, message, *args):
                if message.startswith("run "):
                    raise KeyboardInterrupt

        if where == "waiting":
            monkeypatch.setattr(experiment, "wait", interrupted_wait)
        else:
            monkeypatch.setattr(experiment, "log", InterruptingLog())
        with pytest.raises(KeyboardInterrupt) as info:
            run_experiment(spec, parallel=2)
        # reaped on the way out, not when the traceback held in `info` is freed
        assert info.traceback and multiprocessing.active_children() == []
        monkeypatch.undo()
        budget(monkeypatch, 2)
        assert run_experiment(spec, parallel=2) == 0
        assert run_csvs(tmp_path / "out") == run_csvs(tmp_path / "serial")

    def test_progress_is_logged_at_info_and_leaves_outputs_unchanged(self, tmp_path,
                                                                      caplog, capsys,
                                                                      monkeypatch):
        budget(monkeypatch, 2)
        quiet = parse_config(write_config(tmp_path))
        quiet.output_dir = str(tmp_path / "quiet")
        assert run_experiment(quiet, parallel=2) == 0
        assert capsys.readouterr() == ("", "")  # no handler, no print

        spec = parse_config(write_config(tmp_path))
        with caplog.at_level(logging.INFO, logger="galasim.experiment"):
            assert run_experiment(spec, parallel=2) == 0
        lines = [r.getMessage() for r in caplog.records]
        names = sorted(run_csvs(tmp_path / "out"))
        assert lines[:3] == [f"domain {n!r}: built" for n in ("t0", "s0", "s1")]
        assert lines[3] == "demo: 4 runs, 0 already done"
        assert [line.split(": ")[0] for line in lines[4:]] == \
            [f"run {k}/4 done" for k in range(1, 5)]
        assert sorted(line.split(": ")[1] for line in lines[4:]) == names
        assert run_csvs(tmp_path / "out") == run_csvs(tmp_path / "quiet")
        assert (tmp_path / "out" / "summary.csv").read_bytes() == \
            (tmp_path / "quiet" / "summary.csv").read_bytes()

        caplog.clear()
        with caplog.at_level(logging.INFO, logger="galasim.experiment"):
            assert run_experiment(spec, parallel=2) == 0
        assert [r.getMessage() for r in caplog.records] == \
            [f"domain {n!r}: cache hit" for n in ("t0", "s0", "s1")] + \
            ["demo: 4 runs, 4 already done"]

    def test_summary_write_failing_midway_keeps_previous_summary(self, tmp_path,
                                                                  monkeypatch, capsys):
        spec = parse_config(write_config(tmp_path))
        assert run_experiment(spec) == 0
        summary = tmp_path / "out" / "summary.csv"
        before = summary.read_bytes()
        monkeypatch.setattr(csv, "writer", FailingAfterHeader)
        assert cli.main(["run", str(write_config(tmp_path))]) == 4
        assert "I/O error: " in capsys.readouterr().err
        assert summary.read_bytes() == before
        assert sorted(p.name for p in summary.parent.iterdir()) == \
            ["cache", "runs", "summary.csv"]

    def test_simmatrix_write_failing_midway_keeps_previous_matrix(self, tmp_path,
                                                                   monkeypatch, capsys):
        config = str(write_config(tmp_path))
        assert cli.main(["simmatrix", config]) == 0
        matrix = tmp_path / "out" / "simmatrix.csv"
        before = matrix.read_bytes()
        monkeypatch.setattr(csv, "writer", FailingAfterHeader)
        assert cli.main(["simmatrix", config]) == 4
        assert "disk full" in capsys.readouterr().err
        assert matrix.read_bytes() == before
        assert sorted(p.name for p in matrix.parent.iterdir()) == ["cache", "simmatrix.csv"]

    def test_oracle_metrics_have_no_weight_columns(self, tmp_path):
        from galasim import run_protocol

        target = gen_gaussian_domain(3, 30, 4, seed=50)
        cfg = ProtocolConfig(protocol="oracle", rounds=2, batch_size=32,
                             lr0=0.05, hidden_dims=(16,), feature_dim=8, seed=1)
        records = run_protocol(cfg, [], target).records
        path = tmp_path / "oracle.csv"
        emit_metrics(records, path)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert len(header) == 10  # 9 fixed + 0 weights + bitmask
        assert not any(h.startswith("w_") for h in header)

    def test_domain_cache_round_trip(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        cache = tmp_path / "out" / "cache"
        first = build_domains(spec, cache_dir=cache)
        assert len(list(cache.glob("*.gdsd"))) == 3
        second = build_domains(spec, cache_dir=cache)
        for name in first:
            assert first[name] == second[name]

    def test_corrupt_cached_domain_is_rebuilt(self, tmp_path, caplog):
        spec = parse_config(write_config(tmp_path))
        fresh = build_domains(spec, cache_dir=tmp_path / "clean")
        clean = {p.name: p.read_bytes() for p in (tmp_path / "clean").glob("*.gdsd")}
        cache = tmp_path / "cache"

        @settings(max_examples=100, deadline=None)
        @given(victim=st.sampled_from(sorted(clean)), truncate=st.booleans(), data=st.data())
        def rebuilt_after(victim, truncate, data):
            # cut the file at byte k, or flip bits of byte k, with k anywhere in it
            blob = bytearray(clean[victim])
            k = data.draw(st.integers(0, len(blob) - 1), label="k")
            if truncate:
                del blob[k:]
            else:
                blob[k] ^= data.draw(st.integers(1, 255), label="mask")
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir()
            for name, body in clean.items():
                (cache / name).write_bytes(bytes(blob) if name == victim else body)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="galasim.experiment"):
                assert build_domains(spec, cache_dir=cache) == fresh
            assert {p.name: p.read_bytes() for p in cache.iterdir()} == clean
            assert any("corrupt cache file" in r.getMessage() for r in caplog.records)

        rebuilt_after()

    def test_run_with_a_truncated_cache_file_matches_a_clean_run(self, tmp_path, capfd):
        clean, broken = tmp_path / "clean", tmp_path / "broken"
        clean.mkdir()
        broken.mkdir()
        assert cli.main(["run", str(write_config(clean))]) == 0
        config = write_config(broken)
        build_domains(parse_config(config), cache_dir=broken / "out" / "cache")
        victim = sorted((broken / "out" / "cache").glob("*.gdsd"))[0]
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        assert cli.main(["run", str(config)]) == 0
        assert "Traceback" not in capfd.readouterr().err
        assert run_csvs(broken / "out") == run_csvs(clean / "out")

    def test_domain_cache_is_keyed_by_version(self, tmp_path, monkeypatch):
        spec = parse_config(write_config(tmp_path))
        cache = tmp_path / "out" / "cache"
        built = []
        real = DomainEntry.build

        def build(entry):
            built.append(entry.name)
            return real(entry)

        monkeypatch.setattr(DomainEntry, "build", build)
        first = build_domains(spec, cache_dir=cache)
        assert len(built) == 3
        assert build_domains(spec, cache_dir=cache) == first
        assert len(built) == 3  # same version: every domain comes from the cache
        monkeypatch.setattr(experiment, "_DOMAIN_CACHE_VERSION",
                            experiment._DOMAIN_CACHE_VERSION + 1)
        assert build_domains(spec, cache_dir=cache) == first
        assert len(built) == 6  # bumped version: every domain is rebuilt
        assert len(list(cache.glob("*.gdsd"))) == 6


CRASH = 17  # the exit code of a sweep killed at a durable write


def _sweep_killed_at_write(config: str, out: str, k: int) -> None:
    """Forked child: run the sweep and die by `os._exit`, skipping every
    cleanup, right after the k-th `_atomic_write` has written its temp file
    and before it moves the file into place."""
    calls = itertools.count()
    atomic_write = experiment._atomic_write

    def write_then_die(path, write):
        def write_tmp(tmp):
            write(tmp)
            if next(calls) == k:
                os._exit(CRASH)
        atomic_write(path, write_tmp)

    experiment._atomic_write = write_then_die
    with contextlib.redirect_stdout(io.StringIO()):
        os._exit(cli.main(["run", config, "--out", out]))


def output_bytes(out: Path) -> dict:
    """Every file of a sweep's output directory, by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestCrashConsistency:
    # the CONFIG sweep writes 3 cached domains, then 4 run CSVs, then summary.csv
    WRITES = 8

    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(0, WRITES - 1))
    def test_a_sweep_killed_at_any_durable_write_reruns_to_the_same_bytes(self, k):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            config = str(write_config(tmp))
            with mock.patch.object(experiment, "_atomic_write",
                                   wraps=experiment._atomic_write) as writes, \
                    contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["run", config, "--out", str(tmp / "clean")]) == 0
            assert writes.call_count == self.WRITES
            want = output_bytes(tmp / "clean")

            child = multiprocessing.get_context("fork").Process(
                target=_sweep_killed_at_write, args=(config, str(tmp / "out"), k))
            child.start()
            child.join(timeout=60)
            assert child.exitcode == CRASH  # None if it still runs
            assert len(list((tmp / "out").rglob("*.tmp"))) == 1  # the write it died in

            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["run", config, "--out", str(tmp / "out")]) == 0
            assert output_bytes(tmp / "out") == want  # and so no *.tmp is left

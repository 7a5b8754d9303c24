"""The config schema: the flags it builds, the bounds it checks and the refusals
that name their key."""

import contextlib
import glob
import hashlib
import io
import json
import math
import os
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from spherewave import cli
from spherewave.cli import build_parser, main
from spherewave.harness import ExperimentConfig

# SHA-256 of the --help screens (no command, then each command) at COLUMNS 80
# and 132, recorded before the flags were built from the config schema.
HELP_GOLDEN = {
    ("80", ""): "0f01c33d7eeea4e38ac8b894be580ac967fe2920fb1d595dc4d7dc3165637dd2",
    ("80", "simulate"): "f3d27d4f8ca3369c439e6aacd74d912c4f1eee97e65ad3c853e8f640b3bd935f",
    ("80", "convergence"): "3a933c0af2822d68fb0105284266cd255f2058af8173d3e49eccbaa04579751d",
    ("80", "weak"): "d47b119b2e3cbba5de3015f2df3ba9c0704f114da8cb8e0c4470864180bb8074",
    ("80", "path-error"): "ac0fa61545fa21cb05cd6cf410a6bbd347d295173dc399289e08b2584a272404",
    ("80", "sample-field"): "18d7c86f971d9143fff76b43470c260468c4e0e3917cec189fae5b93c6966410",
    ("132", ""): "680197ebe738d8a0cf8c342bcfcb4dfe315478810fa22fc671a6c0755501ad3f",
    ("132", "simulate"): "654842d52ce76c82d03303ac10ff4b48c4ee61a00a6f8d02f4afd3035cabee49",
    ("132", "convergence"): "582a2718ba79b45c06c867a810935a2dea83ac3ed19b54c439c764d3e7bb48b1",
    ("132", "weak"): "9ee01ed38ff8586671401ad7464982b16c37e4306b7a45f2f71ab0912beae189",
    ("132", "path-error"): "2f143868020ebae7e09a0a33ab14eabbaff78f9abd698dd1c8b8b6bde60d897f",
    ("132", "sample-field"): "c13f0068c22290349c32be3aa26ce6c3bcab172904369cdddf38f90ed681f79b",
}


@pytest.mark.parametrize("columns", ["80", "132"])
def test_help_screens_match_their_recorded_digests(monkeypatch, capsys, columns):
    monkeypatch.setenv("COLUMNS", columns)
    for command in ("", *cli._COMMANDS):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"] if command else ["--help"])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == HELP_GOLDEN[columns, command], command


# every bounded key with a value one step outside its bound
OUTSIDE = {"dim": "2", "alpha": "0", "scale": "-5e-324", "ell0": "0", "head_value": "-5e-324",
           "T": "0", "steps": "0", "kappas": "-1", "kappa_ref": "-1", "samples": "0",
           "seed": "-1", "n_theta": "0", "n_phi": "0", "store_every": "0", "threads": "0"}


def _flag(key):
    return "--" + key.replace("_", "-")


def test_every_bounded_key_of_the_schema_is_tested():
    bounded = {f.name for f in fields(ExperimentConfig)
               if f.metadata["low"] is not None or f.metadata["above"] is not None}
    assert bounded == set(OUTSIDE)


@pytest.mark.parametrize("command", ["simulate", "convergence"])
@pytest.mark.parametrize("key,value", [*OUTSIDE.items(), ("T", "1e300")])
def test_a_value_outside_its_bound_fails_naming_the_flag_before_any_work(
        tmp_path, capsys, command, key, value):
    out = tmp_path / "out"
    assert main([command, f"{_flag(key)}={value}", "--output", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key} ({_flag(key)}) "), lines
    assert not out.exists()


NUMERIC_KEYS = [f.name for f in fields(ExperimentConfig) if f.metadata["kind"] is not str]
BASES = [
    {"initial_data": "random-sobolev", "beta": 1.5, "gamma": 1.0},
    {},
    {"error_kind": "max-grid"},
    {"equation": "schrodinger"},
    {"equation": "wave-dsphere", "dim": 4, "weak_method": "analytic"},
]
# nan, infinities, a bool, a string, a non-integral float, huge and tiny magnitudes
ODD_VALUES = [math.nan, math.inf, -math.inf, True, False, "3", 2.5, 1e300, -1e300, 1e-300,
              5e-324, -5e-324, 2**64, -2**64, 0, -1]


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(key=st.sampled_from(NUMERIC_KEYS), base=st.sampled_from(BASES),
       command=st.sampled_from(["convergence", "weak", "path-error"]),
       value=st.sampled_from(ODD_VALUES) | st.floats() | st.integers(-3, 12))
def test_every_numeric_key_fails_naming_it_or_writes_finite_tables(tmp_path_factory, key,
                                                                     base, command, value):
    root = tmp_path_factory.mktemp("run")
    config = {"kappa_ref": 8, "kappas": [1, 2, 4], "samples": 3, **base,
              key: [1, 2, value] if key == "kappas" else value}
    with open(root / "run.json", "w") as fh:
        json.dump(config, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(root / "run.json"), "--output", str(root / "out")])
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and re.search(rf"^error: .*\b{key}\b", lines[0]), lines
        return
    assert code == 0
    tables = glob.glob(os.path.join(root, "out", "*.json"))
    assert len(tables) == 2
    for path in tables:
        with open(path) as fh:
            table = json.load(fh)
        assert all(math.isfinite(v) for v in table["errors"] + table["stderrs"]), path

"""Per-sample generators derived a chunk at a time, against numpy's SeedSequence."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from spherewave import harness
from spherewave.cli import main
from spherewave.harness import ExperimentConfig, _sample_rngs

# 1, 1, 2, 4, 5 and 3 uint32 words
SEEDS = [0, 2**32 - 1, 2**32, 2**96 + 1, 2**128 + 5, 2**64 + 3]
# the edges of a 31-sample chunk, and indices of one and two words
INDICES = [0, 1, 30, 31, 32, 62, 2**31, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_states_equal_seed_sequence_generators(seed):
    for index, rng in zip(INDICES, _sample_rngs(seed, INDICES)):
        ref = oracles.sample_rng(seed, index)
        assert rng.bit_generator.state == ref.bit_generator.state, index
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))


def test_indices_across_the_two_word_boundary():
    low, high = _sample_rngs(5, [2**32 - 1, 2**32])
    assert low.bit_generator.state == oracles.sample_rng(5, 2**32 - 1).bit_generator.state
    assert high.bit_generator.state == oracles.sample_rng(5, 2**32).bit_generator.state


@pytest.mark.parametrize("indices", [[-1], [3, 2**64]])
def test_out_of_range_indices_are_refused(indices):
    with pytest.raises(ValueError, match="sample indices"):
        _sample_rngs(0, indices)


def test_a_chunk_equals_its_samples_one_at_a_time():
    one = [rng.bit_generator.state for i in range(70) for rng in _sample_rngs(8, [i])]
    assert [rng.bit_generator.state for rng in _sample_rngs(8, range(70))] == one
    assert _sample_rngs(8, []) == []


# a numpy integer is refused too: the metadata JSON could not hold it
@pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(3)])
def test_bad_seeds_are_refused_naming_the_flag(seed):
    with pytest.raises(ValueError, match="--seed"):
        ExperimentConfig(seed=seed).validate()


def test_seed_beyond_64_bits_is_accepted_with_the_seed_sequence_stream():
    ExperimentConfig(seed=2**64 + 3).validate()
    rng, = _sample_rngs(2**64 + 3, [7])
    assert rng.bit_generator.state == oracles.sample_rng(2**64 + 3, 7).bit_generator.state


def test_cli_refuses_bad_seeds_before_any_work(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("sampled with a bad seed")
    monkeypatch.setattr(harness, "_sample_rngs", unreachable)
    assert main(["convergence", "--seed", "-1", "--output", str(tmp_path)]) == 1
    assert "--seed" in capsys.readouterr().err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 1.5}))
    assert main(["convergence", "--config", str(config), "--output", str(tmp_path)]) == 1
    assert "got 1.5" in capsys.readouterr().err


def test_importing_the_cli_leaves_numpy_random_unloaded():
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, spherewave.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"

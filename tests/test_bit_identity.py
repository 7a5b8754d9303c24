"""Samplers and tables built from per-mode arrays expanded once, against the
per-step references of oracles that gather every entry on the spot: equal bit
for bit, signed zeros included."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from spherewave import harness
from spherewave.harmonics import normalized_legendre_table
from spherewave.harness import ExperimentConfig, _TailErrors, _TerminalSampler
from spherewave.io import write_coefficient_csv
from spherewave.modes import CoefficientField, mode_count
from spherewave.noise import ConvFactorTable
from spherewave.schrodinger import run_path_schrodinger, schrodinger_step
from spherewave.spectrum import PowerSpectrum
from spherewave.wave import State, run_path, step
from test_cli import _write_data_files

DATA = ["zero", "file-v1", "file-v2", "file-both", "random-beta", "random-gamma",
        "random-both"]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _config(directory, equation, dim, kappa_ref, data, seed, alpha=2.5, scale=1.0,
            T=1.0, file_kappa=None, **extra):
    """Grid-error config for one kind of initial data; file data is written first."""
    cfg = dict(equation=equation, dim=dim if equation == "wave-dsphere" else 3,
               alpha=alpha, scale=scale, T=T, kappas=[0], kappa_ref=kappa_ref, seed=seed)
    if data.startswith("file"):
        rng = np.random.default_rng(seed)
        k = kappa_ref if file_kappa is None else file_kappa
        for name in ("v1", "v2"):
            if data in (f"file-{name}", "file-both"):
                path = str(directory / f"{name}-{seed}-{k}-{cfg['dim']}.csv")
                values = rng.standard_normal(mode_count(k, cfg["dim"]))
                write_coefficient_csv(path, CoefficientField(values, k, cfg["dim"]))
                cfg[f"{name}_file"] = path
        cfg["initial_data"] = "file"
    elif data.startswith("random"):
        cfg["initial_data"] = "random-sobolev"
        cfg["beta"] = 1.5 if data in ("random-beta", "random-both") else None
        cfg["gamma"] = 0.5 if data in ("random-gamma", "random-both") else None
    return ExperimentConfig(**{**cfg, **extra})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["wave", "wave-dsphere", "schrodinger"]), st.integers(3, 5),
       st.integers(1, 40), st.sampled_from(DATA), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1.0, 3.0]), st.floats(0.05, 4.0), st.integers(0, 45),
       st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True))
def test_terminal_states_equal_the_per_step_reference(
        tmp_path_factory, equation, dim, kappa_ref, data, seed, scale, T, file_kappa,
        indices):
    cfg = _config(tmp_path_factory.getbasetemp(), equation, dim, kappa_ref, data, seed,
                  scale=scale, T=T, file_kappa=file_kappa)
    drawn = _TerminalSampler(cfg).draw(indices)
    for k, i in enumerate(indices):
        first, second = oracles.terminal_state_by_steps(cfg, i)
        assert _same_bits(drawn[2 * k], first) and _same_bits(drawn[2 * k + 1], second)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(["wave", "wave-dsphere", "schrodinger"]), st.integers(3, 5),
       st.sampled_from(["zero", "file-v1", "file-v2", "file-both"]), st.integers(0, 2**32 - 1),
       st.floats(0.05, 4.0), st.integers(0, 45),
       st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
def test_band_kappa_states_are_prefixes_of_the_reference(
        tmp_path_factory, data, equation, dim, initial, seed, T, file_kappa, indices):
    """The coupling of the error experiments: with the same seed, the terminal
    state at band kappa is, bit for bit, the first mode_count(kappa) columns of
    the band-kappa_ref state.  Random-sobolev data draws all of its normals
    before the increments, so the prefix property does not hold for it; there
    the coupling holds through the tails of one reference draw, which is what
    the experiments measure."""
    kappa_ref = data.draw(st.integers(2, 40))
    kappa = data.draw(st.integers(1, kappa_ref - 1))
    directory = tmp_path_factory.getbasetemp()
    ref, small = (_config(directory, equation, dim, k, initial, seed, T=T, file_kappa=file_kappa)
                  for k in (kappa_ref, kappa))
    prefix = mode_count(kappa, small.dim)
    assert _same_bits(_TerminalSampler(small).draw(indices),
                      _TerminalSampler(ref).draw(indices)[:, :prefix])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["wave", "wave-dsphere", "schrodinger"]), st.integers(3, 5),
       st.integers(0, 40), st.booleans(), st.integers(1, 9), st.integers(2, 4),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0]))
def test_paths_equal_the_step_loop(equation, dim, kappa, fixed, steps, store_every, seed,
                                   scale):
    dim = dim if equation == "wave-dsphere" else 3
    ps = PowerSpectrum(alpha=3.0, scale=scale)
    rng = np.random.default_rng(seed)
    n = mode_count(kappa, dim)
    u1, u2 = (rng.standard_normal(n), rng.standard_normal(n)) if fixed else (
        np.zeros(n), np.zeros(n))
    v1, v2 = CoefficientField(u1, kappa, dim), CoefficientField(u2, kappa, dim)
    if equation == "schrodinger":
        states = [(s.t, s.u1.data, s.u2.data) for s in
                  run_path_schrodinger(ps, v1, v2, kappa, 1.3, steps, seed, store_every)]
    else:
        states = [(s.t, s.u1.data, s.u2.data) for s in
                  run_path(ps, v1, v2, kappa, dim, 1.3, steps, seed, store_every)]
    expected = oracles.path_by_steps(equation, ps, u1, u2, kappa, dim, 1.3, steps, seed,
                                     store_every)
    assert len(states) == len(expected)
    for (t, a1, a2), (t_ref, b1, b2) in zip(states, expected):
        assert t == t_ref and _same_bits(a1, b1) and _same_bits(a2, b2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["wave", "wave-dsphere", "schrodinger"]), st.integers(3, 5),
       st.integers(0, 40), st.booleans(), st.floats(0.05, 4.0), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1.0]))
def test_one_step_equals_the_per_step_reference(equation, dim, kappa, fixed, h, seed, scale):
    dim = dim if equation == "wave-dsphere" else 3
    ps = PowerSpectrum(alpha=3.0, scale=scale)
    rng = np.random.default_rng(seed)
    n = mode_count(kappa, dim)
    u1, u2 = (rng.standard_normal(n), rng.standard_normal(n)) if fixed else (
        np.zeros(n), np.zeros(n))
    v1, v2 = CoefficientField(u1, kappa, dim), CoefficientField(u2, kappa, dim)
    if equation == "schrodinger":
        factors = ConvFactorTable.for_schrodinger(kappa, h)
        out = schrodinger_step(State(v1, v2, t=0.5), h, ps,
                               np.random.default_rng(seed), factors)
        t, a1, a2 = out.t, out.u1.data, out.u2.data
    else:
        factors = ConvFactorTable.for_wave(kappa, dim, h)
        out = step(State(v1, v2, t=0.5), h, ps, np.random.default_rng(seed), factors)
        t, a1, a2 = out.t, out.u1.data, out.u2.data
    b1, b2 = oracles.step_by_gathers(equation, u1, u2, h, ps, factors,
                                     np.random.default_rng(seed))
    assert t == 0.5 + h and _same_bits(a1, b1) and _same_bits(a2, b2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data(), st.integers(0, 60),
       st.lists(st.floats(0.0, np.pi), min_size=1, max_size=5))
def test_legendre_table_equals_the_degree_by_degree_recurrence(data, kappa, theta):
    m0 = data.draw(st.integers(0, kappa))
    m1 = data.draw(st.integers(m0 + 1, kappa + 1))
    assert _same_bits(normalized_legendre_table(kappa, theta, m0, m1),
                      oracles.degree_recurrence_legendre_table(kappa, theta, m0, m1))


@pytest.mark.parametrize("equation,data,kind", [
    ("wave", "zero", "max-grid"), ("wave", "file-both", "max-grid"),
    ("wave", "random-both", "max-grid"), ("schrodinger", "zero", "max-grid"),
    ("schrodinger", "file-v2", "max-grid"), ("schrodinger", "random-beta", "max-grid")])
def test_grid_errors_are_bit_identical_across_chunks(monkeypatch, tmp_path, equation, data,
                                                     kind):
    cfg = _config(tmp_path, equation, 3, 20, data, seed=8, alpha=2.0, kappas=[1, 4, 9],
                  samples=7, error_kind=kind)
    field_bytes = _TailErrors(cfg).field_bytes
    for chunk in (1, 3, cfg.samples):
        monkeypatch.setattr(harness, "SAMPLE_CHUNK_BYTES", 2 * chunk * field_bytes)
        tails = _TailErrors(cfg)
        assert tails.chunk == chunk
        # a batch's synthesis rounds alike only for the same batch
        reference = np.concatenate([oracles.grid_tail_errors(np.array(
            [c for i in range(j, min(j + chunk, cfg.samples))
             for c in oracles.terminal_state_by_steps(cfg, i)]), cfg, tails.grid)
            for j in range(0, cfg.samples, chunk)])
        run = harness._sample_tail_errors(cfg, cfg.samples)[0]
        assert _same_bits(np.array(run).reshape(reference.shape), reference)


# SHA-256 of _TerminalSampler(cfg).draw(range(5)), recorded before the wave and
# Schrodinger paths were merged into one per-degree law.  The oracles above take
# their per-degree tables from the package; these digests pin the law itself.
# Every value is elementwise numpy (no BLAS), so the bytes do not depend on the
# linear-algebra library.
TERMINAL_GOLDEN = {
    ("wave", "zero"): "32c6a64f5203e8e09d90eba322dc68ef17a341df0a2388e6402f6f6000103aa0",
    ("wave", "file"): "2cb741e306837bb54d9ebb1524719359906e1977d395798a858b2fca6899bce5",
    ("wave", "random-sobolev"):
        "4e615aadd55db1746ce7bd48c6a6b6abd3d44ef6132fbbb7c6c090137f1fa27b",
    ("wave-dsphere", "zero"): "cac12e67a4708989173074e95d79dc34366d10d15fa00ba0b9210270e7f54ddc",
    ("wave-dsphere", "file"): "d0be839aab2e69270edaa984d07d7616f32061f06db366d57a105ba311624931",
    ("wave-dsphere", "random-sobolev"):
        "c0fe1c1dac73033ff6f43096ce06c7bd1ea3905c5073b14dbf2eaf309e56075e",
    ("schrodinger", "zero"): "05a81592986e5282f4fadb2aaba04e256a10cf1d148cb474e31ca7f498fbedf8",
    ("schrodinger", "file"): "164c730fd8175e44148303e456901db63157f298b4d5b82d27bdbdd2c952d6e6",
    ("schrodinger", "random-sobolev"):
        "4b4bf804ddddab28a03a2daf3c93a9afd9ea1947715f049a5d54183cd8aea55b",
}


@pytest.mark.parametrize("equation,data", TERMINAL_GOLDEN)
def test_terminal_states_match_golden_hashes(tmp_path, equation, data):
    _write_data_files(tmp_path)
    dim = 4 if equation == "wave-dsphere" else 3
    extra = {}
    if data == "file":
        extra = dict(v1_file=str(tmp_path / f"v1_d{dim}.csv"),
                     v2_file=str(tmp_path / f"v2_d{dim}.csv"))
    elif data == "random-sobolev":
        extra = dict(beta=2.0, gamma=1.5)
    cfg = ExperimentConfig(equation=equation, dim=dim, alpha=3.0, kappas=[2, 4],
                           kappa_ref=12, seed=31, initial_data=data, **extra)
    drawn = _TerminalSampler(cfg).draw(range(5))
    assert hashlib.sha256(drawn.tobytes()).hexdigest() == TERMINAL_GOLDEN[equation, data]

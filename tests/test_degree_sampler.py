"""The per-degree (Wishart) sampler against exact moments.

Every expected value here comes from closed forms or from the exact
second-moment formula `oracles.analytic_second_moment`, never from sampling or
from the sampler's own Sigma, so the
Monte Carlo estimates are checked against zero-variance references.  Means
must lie within Z_LIMIT standard errors of the sample; degrees whose
reference variance is exactly zero must match exactly.
"""

import dataclasses
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from spherewave import harness
from spherewave.harness import (ExperimentConfig, _DegreeSampler, pathwise_error_experiment,
                                strong_error_experiment, weak_error_experiment)
from spherewave.io import write_coefficient_csv
from spherewave.modes import CoefficientField, degree_sizes, mode_count
from oracles import (analytic_second_moment, laplacian_eigenvalue, schrodinger_conv_covariance,
                     wave_conv_covariance)
from spherewave.noise import sample_degree_wishart
from spherewave.spectrum import sobolev_scale
from spherewave.wave import Propagator, State, propagate

Z_LIMIT = 4.0


def _draws(cfg, n):
    """Per-sample (S11, S12, S22) per degree, shape (n, 3, kappa_ref + 1)."""
    return np.stack(_DegreeSampler(cfg).draw(range(n)), axis=1)


def _one(sampler, i):
    """(S11, S12, S22) per degree of sample i, drawn as a chunk of its own."""
    return tuple(s[0] for s in sampler.draw([i]))


def _assert_means(samples, expected, label):
    """Column means of `samples` (n, k) within Z_LIMIT standard errors of `expected`."""
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
    for j, (m, e, s) in enumerate(zip(mean, expected, se)):
        if s == 0.0:
            assert m == pytest.approx(e, rel=1e-12, abs=0.0), f"{label}[{j}]"
        else:
            assert abs(m - e) <= Z_LIMIT * s, f"{label}[{j}]: {m} vs {e}, {abs(m - e) / s:.1f} SE"


def _per_degree_moments(cfg, v1=None, v2=None):
    """Exact E S11, E S22 per degree, as differences of analytic_second_moment."""
    ps = cfg.power_spectrum()
    totals = np.array([analytic_second_moment(ps, k, cfg.T, cfg.dim, v1, v2)
                       for k in range(cfg.kappa_ref + 1)])
    return np.diff(totals, axis=0, prepend=0.0).T


def _check_against_analytic(cfg, n, v1=None, v2=None):
    draws = _draws(cfg, n)
    e11, e22 = _per_degree_moments(cfg, v1, v2)
    _assert_means(draws[:, 0], e11, "S11")
    _assert_means(draws[:, 2], e22, "S22")
    # the whole norm, as the experiments use it
    _assert_means(draws[:, 0].sum(axis=1, keepdims=True), [e11.sum()], "sum S11")
    _assert_means(draws[:, 2].sum(axis=1, keepdims=True), [e22.sum()], "sum S22")
    return draws


def test_wave_s2_mean_power_matches_analytic_second_moment():
    cfg = ExperimentConfig(alpha=3.0, kappas=[2], kappa_ref=12, T=1.3, seed=101)
    _check_against_analytic(cfg, 4000)


@pytest.mark.parametrize("dim", [4, 5])
def test_wave_dsphere_mean_power_matches_analytic_second_moment(dim):
    cfg = ExperimentConfig(equation="wave-dsphere", dim=dim, alpha=4.0, kappas=[2],
                           kappa_ref=10, seed=102 + dim)
    _check_against_analytic(cfg, 4000)


def test_wave_s2_second_moments_are_wishart():
    # E S = h Sigma; E S11^2 = h^2 s11^2 + 2 h s11^2; E S11 S22 = h^2 s11 s22 + 2 h s12^2
    cfg = ExperimentConfig(alpha=2.0, kappas=[2], kappa_ref=8, T=0.7, seed=111)
    draws = _draws(cfg, 6000)
    h = degree_sizes(cfg.kappa_ref).astype(float)
    a = cfg.power_spectrum().values(cfg.kappa_ref)
    cov = np.array([a[ell] * wave_conv_covariance(ell, 3, cfg.T).matrix()
                    for ell in range(cfg.kappa_ref + 1)])
    s11, s12, s22 = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    _assert_means(draws[:, 1], h * s12, "S12")
    _assert_means(draws[:, 0] ** 2, h * h * s11**2 + 2 * h * s11**2, "S11^2")
    _assert_means(draws[:, 2] ** 2, h * h * s22**2 + 2 * h * s22**2, "S22^2")
    _assert_means(draws[:, 0] * draws[:, 2], h * h * s11 * s22 + 2 * h * s12**2, "S11 S22")


def _write_field(path, kappa, dim, seed, scale):
    rng = np.random.default_rng(seed)
    field = CoefficientField(scale * rng.standard_normal(mode_count(kappa, dim)), kappa, dim)
    write_coefficient_csv(str(path), field)
    return field


@pytest.mark.parametrize("dim", [3, 4])
def test_file_data_noncentral_mean_power_matches_analytic(tmp_path, dim):
    kref = 9
    v1 = _write_field(tmp_path / "v1.csv", kref, dim, 5, 0.3)
    v2 = _write_field(tmp_path / "v2.csv", kref, dim, 6, 0.2)
    cfg = ExperimentConfig(equation="wave" if dim == 3 else "wave-dsphere", dim=dim,
                           alpha=3.0, kappas=[2], kappa_ref=kref, seed=120 + dim,
                           initial_data="file", v1_file=str(tmp_path / "v1.csv"),
                           v2_file=str(tmp_path / "v2.csv"))
    draws = _check_against_analytic(cfg, 4000, v1, v2)
    # the mean cross term is h Sigma12 + G12, with G from the exactly propagated data
    moved = propagate(State(v1, v2), Propagator.build(kref, dim, cfg.T))
    offsets = np.concatenate(([0], np.cumsum(degree_sizes(kref, dim))[:-1]))
    g12 = np.add.reduceat(moved.u1.data * moved.u2.data, offsets)
    h = degree_sizes(kref, dim).astype(float)
    a = cfg.power_spectrum().values(kref)
    c12 = np.array([wave_conv_covariance(ell, dim, cfg.T).c12 for ell in range(kref + 1)])
    _assert_means(draws[:, 1], h * a * c12 + g12, "S12")


def test_file_data_without_noise_is_the_propagated_gram(tmp_path):
    # zero spectrum: every draw equals the deterministic per-degree power exactly
    kref = 6
    v1 = _write_field(tmp_path / "v1.csv", kref, 3, 7, 1.0)
    cfg = ExperimentConfig(alpha=3.0, scale=0.0, head_value=0.0, kappas=[2], kappa_ref=kref,
                           seed=130, initial_data="file", v1_file=str(tmp_path / "v1.csv"))
    moved = propagate(State(v1, CoefficientField.zeros(kref)),
                      Propagator.build(kref, 3, cfg.T))
    sampler = _DegreeSampler(cfg)
    for i in range(3):
        s11, _, s22 = _one(sampler, i)
        np.testing.assert_allclose(s11, oracles.degree_power(moved.u1), rtol=1e-12)
        np.testing.assert_allclose(s22, oracles.degree_power(moved.u2), rtol=1e-12)


def test_schrodinger_imaginary_file_data_without_noise(tmp_path):
    # only v2: at ell = 0 the real part stays exactly zero and the phase is trivial
    kref = 5
    v2 = _write_field(tmp_path / "v2.csv", kref, 3, 8, 1.0)
    cfg = ExperimentConfig(equation="schrodinger", alpha=4.0, scale=0.0, head_value=0.0,
                           kappas=[2], kappa_ref=kref, T=0.8, seed=131,
                           initial_data="file", v2_file=str(tmp_path / "v2.csv"))
    ells = np.repeat(np.arange(kref + 1), 2 * np.arange(kref + 1) + 1)
    x = np.sqrt(ells * (ells + 1.0)) * cfg.T
    offsets = np.concatenate(([0], np.cumsum(degree_sizes(kref))[:-1]))
    expected_re = np.add.reduceat((np.sin(x) * v2.data) ** 2, offsets)
    expected_im = np.add.reduceat((np.cos(x) * v2.data) ** 2, offsets)
    s11, _, s22 = _one(_DegreeSampler(cfg), 0)
    assert s11[0] == 0.0 and s22[0] == pytest.approx(v2.data[0] ** 2, rel=1e-14)
    np.testing.assert_allclose(s11, expected_re, rtol=1e-12)
    np.testing.assert_allclose(s22, expected_im, rtol=1e-12)


def test_schrodinger_mean_power_matches_closed_form():
    cfg = ExperimentConfig(equation="schrodinger", alpha=4.0, kappas=[2], kappa_ref=12,
                           T=0.9, seed=140)
    draws = _draws(cfg, 4000)
    ells = np.arange(cfg.kappa_ref + 1, dtype=float)
    sq = np.sqrt(ells * (ells + 1.0))
    x = sq * cfg.T
    safe = np.where(sq > 0, sq, 1.0)
    c11 = np.where(sq > 0, (2 * x - np.sin(2 * x)) / (4 * safe), 0.0)
    c22 = np.where(sq > 0, (2 * x + np.sin(2 * x)) / (4 * safe), cfg.T)
    h = 2 * ells + 1
    a = cfg.power_spectrum().values(cfg.kappa_ref)
    _assert_means(draws[:, 0], h * a * c11, "S11")   # exact zero at ell = 0
    _assert_means(draws[:, 2], h * a * c22, "S22")
    assert np.all(draws[:, 0, 0] == 0.0)


@pytest.mark.parametrize("equation", ["wave", "schrodinger"])
def test_random_sobolev_mean_power_matches_propagated_variance(equation):
    cfg = ExperimentConfig(equation=equation, alpha=5.0, beta=1.5, gamma=0.5,
                           initial_data="random-sobolev", kappas=[2], kappa_ref=10,
                           T=1.1, seed=150)
    draws = _draws(cfg, 4000)
    kref = cfg.kappa_ref
    h = degree_sizes(kref).astype(float)
    a = cfg.power_spectrum().values(kref)
    var1 = sobolev_scale(cfg.beta, kref) ** 2
    var2 = sobolev_scale(cfg.gamma, kref) ** 2
    e11, e22 = np.empty(kref + 1), np.empty(kref + 1)
    prop = Propagator.build(kref, 3, cfg.T)
    for ell in range(kref + 1):
        if equation == "schrodinger":
            x = math.sqrt(-laplacian_eigenvalue(ell)) * cfg.T
            m = np.array([[math.cos(x), math.sin(x)], [-math.sin(x), math.cos(x)]])
            c = schrodinger_conv_covariance(ell, cfg.T)
        else:
            m = oracles.propagator_matrix(prop, ell)
            c = wave_conv_covariance(ell, 3, cfg.T)
        e11[ell] = h[ell] * (a[ell] * c.c11 + m[0, 0] ** 2 * var1[ell] + m[0, 1] ** 2 * var2[ell])
        e22[ell] = h[ell] * (a[ell] * c.c22 + m[1, 0] ** 2 * var1[ell] + m[1, 1] ** 2 * var2[ell])
    _assert_means(draws[:, 0], e11, "S11")
    _assert_means(draws[:, 2], e22, "S22")


def test_bartlett_degenerate_degrees_of_freedom():
    rng = np.random.default_rng(0)
    one = np.ones(4)
    s11, s12, s22 = (s[0] for s in sample_degree_wishart(one, 0.5 * one, one,
                                                         np.array([0, 1, 2, 7]), [rng]))
    assert (s11[0], s12[0], s22[0]) == (0.0, 0.0, 0.0)       # no modes, no power
    assert s11[1] * s22[1] - s12[1] ** 2 == pytest.approx(0.0, abs=1e-12)  # rank one


def test_sampler_draws_are_reproducible_per_index():
    cfg = ExperimentConfig(alpha=3.0, kappas=[2], kappa_ref=16, seed=9)
    a, b = _DegreeSampler(cfg), _DegreeSampler(cfg)
    for i in (0, 5, 3):
        for x, y in zip(_one(a, i), _one(b, i)):
            assert np.array_equal(x, y)
    assert not np.array_equal(_one(a, 0)[0], _one(a, 1)[0])


# ---------------------------------------------------------------------------
# properties over random configurations
# ---------------------------------------------------------------------------

def _reference_sigma(cfg):
    """Sigma_ell from the scalar covariance helpers, the propagator and the data scale."""
    kref, dim = cfg.kappa_ref, cfg.dim
    a = cfg.power_spectrum().values(kref)
    prop = Propagator.build(kref, dim, cfg.T)
    var = np.zeros((kref + 1, 2))
    if cfg.initial_data == "random-sobolev":
        for j, exponent in enumerate((cfg.beta, cfg.gamma)):
            if exponent is not None:
                var[:, j] = sobolev_scale(exponent, kref, dim) ** 2
    out = np.empty((kref + 1, 2, 2))
    for ell in range(kref + 1):
        if cfg.equation == "schrodinger":
            flip = np.diag([1.0, -1.0])
            cov = flip @ schrodinger_conv_covariance(ell, cfg.T).matrix() @ flip
            x = math.sqrt(-laplacian_eigenvalue(ell)) * cfg.T
            m = np.array([[math.cos(x), math.sin(x)], [-math.sin(x), math.cos(x)]])
        else:
            cov = wave_conv_covariance(ell, dim, cfg.T).matrix()
            m = oracles.propagator_matrix(prop, ell)
        out[ell] = a[ell] * cov + m @ np.diag(var[ell]) @ m.T
    return out


configs = st.fixed_dictionaries({
    "equation": st.sampled_from(["wave", "wave-dsphere", "schrodinger"]),
    "dim": st.integers(3, 7),
    "alpha": st.floats(0.5, 8.0),
    "T": st.floats(1e-3, 10.0),
    "kappa_ref": st.integers(1, 40),
    "initial_data": st.sampled_from(["zero", "random-sobolev", "file"]),
    "beta": st.none() | st.floats(0.0, 4.0),
    "gamma": st.none() | st.floats(0.0, 4.0),
    "seed": st.integers(0, 2**32 - 1),
})


def _config(params, tmp, **extra):
    """ExperimentConfig from drawn parameters; file data is written under tmp."""
    if params["equation"] != "wave-dsphere":
        params["dim"] = 3
    if params["initial_data"] == "file":
        # the file holds every mode, so keep the mode count small
        params["dim"] = min(params["dim"], 4)
        params["kappa_ref"] = min(params["kappa_ref"], 12)
        params["v1_file"] = str(Path(tmp) / "v1.csv")
        _write_field(params["v1_file"], params["kappa_ref"], params["dim"],
                     params["seed"] % 1000, 0.5)
    return ExperimentConfig(kappas=[0], **params, **extra)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs)
def test_factor_reproduces_sigma_and_draws_are_psd(params):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _config(params, tmp)
        sampler = _DegreeSampler(cfg)
        draws = [_one(sampler, i) for i in range(3)]

    ref = _reference_sigma(cfg)
    lower = np.zeros_like(ref)
    lower[:, 0, 0], lower[:, 1, 0], lower[:, 1, 1] = sampler.l11, sampler.l21, sampler.l22
    rebuilt = lower @ lower.transpose(0, 2, 1)
    defect = np.linalg.norm(rebuilt - ref, axis=(1, 2))
    assert np.all(defect <= 1e-12 * np.linalg.norm(ref, axis=(1, 2)))

    for s11, s12, s22 in draws:
        eig = np.linalg.eigvalsh(np.stack([np.stack([s11, s12], -1),
                                           np.stack([s12, s22], -1)], -2))
        assert np.all(eig[:, 0] >= -1e-12 * np.maximum(eig[:, 1], 0.0))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(0, 600) | st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=40),
       st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_chunked_wishart_matches_one_generator_gamma_reference(dof, seed, rows):
    dof = np.array(dof, dtype=float)
    l11, l21, l22 = np.random.default_rng(seed).uniform(-2.0, 2.0, (3, dof.size))
    chunk = [np.random.default_rng([seed, r]) for r in range(rows)]
    got = sample_degree_wishart(l11, l21, l22, dof, chunk)
    for r, rng in enumerate(chunk):
        ref = np.random.default_rng([seed, r])
        expected = oracles.bartlett_wishart(l11, l21, l22, dof, ref)
        for g, e in zip(got, expected):
            assert g.shape == (rows, dof.size)
            assert np.array_equal(g[r], e)
        # the generator is left where the gamma(k/2, 2) draws leave it
        assert rng.bit_generator.state == ref.bit_generator.state


def _experiment_arrays(cfg):
    """Every per-degree table's errors and stderrs, for bit-for-bit comparison."""
    tables = [strong_error_experiment(cfg), pathwise_error_experiment(cfg),
              *(weak_error_experiment(dataclasses.replace(cfg, weak_functional=name))
                for name in ("squared-norm", "exp-neg-squared-norm"))]
    return [a for t in tables for table in t.values() for a in (table.errors, table.stderrs)]


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs, st.integers(1, 7))
def test_per_degree_results_do_not_depend_on_the_chunk_size(params, samples):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _config(params, tmp, samples=samples)
        rows = [_one(_DegreeSampler(cfg), i) for i in range(samples)]
        runs = []
        for chunk in (1, 3, samples):
            budget = chunk * 8 * (cfg.kappa_ref + 1)
            with mock.patch.object(harness, "DEGREE_CHUNK_BYTES", budget):
                sampler = _DegreeSampler(cfg)
                assert sampler.chunk == chunk
                for drawn, one in zip(sampler.draw(range(samples)), zip(*rows)):
                    assert np.array_equal(drawn, np.stack(one))
                runs.append(_experiment_arrays(cfg))
    for run in runs[1:]:
        for a, b in zip(runs[0], run):
            assert np.array_equal(a, b)

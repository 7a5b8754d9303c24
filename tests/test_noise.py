import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherewave.modes import CoefficientField, mode_count, mode_degrees
from spherewave.noise import (SMALL_X, ConvFactorTable, sample_isotropic_grf,
                              sample_schrodinger_conv_increments,
                              sample_wave_conv_increments, _two_x_minus_sin_2x, _sin_squared)
from spherewave.spectrum import PowerSpectrum

import oracles
from oracles import (conv_covariance_quadrature, schrodinger_conv_covariance,
                     schrodinger_kernels, wave_conv_cholesky, wave_conv_covariance,
                     wave_kernels, wiener_increment)

mp.mp.dps = 40


def test_wave_covariance_degree_zero_matches_brownian_moments():
    c = wave_conv_covariance(0, 3, 1.0)
    assert c.c11 == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert c.c12 == pytest.approx(0.5, rel=1e-15)
    assert c.c22 == pytest.approx(1.0, rel=1e-15)
    c2 = wave_conv_covariance(0, 3, 2.0)
    assert c2.c11 == pytest.approx(8.0 / 3.0, rel=1e-15)


def test_wave_covariance_degree_one_frozen_values():
    # independent quadrature oracle values, also quoted to 5 digits in the design
    c = wave_conv_covariance(1, 3, 1.0)
    assert c.c12 == pytest.approx(math.sin(math.sqrt(2.0)) ** 2 / 4.0, rel=1e-14)
    assert c.c12 == pytest.approx(0.24392, abs=5e-6)
    assert c.c11 == pytest.approx(0.22277, abs=5e-6)


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("ell", [0, 1, 2, 5, 16, 64])
@pytest.mark.parametrize("t", [1e-4, 0.1, 1.0, 10.0])
def test_wave_covariance_matches_quadrature(ell, dim, t):
    lam = float(ell * (ell + dim - 2))
    ref = conv_covariance_quadrature(wave_kernels, lam, t)
    c = wave_conv_covariance(ell, dim, t)
    assert c.c11 == pytest.approx(ref[0, 0], abs=1e-8, rel=1e-9)
    assert c.c12 == pytest.approx(ref[0, 1], abs=1e-8, rel=1e-9)
    assert c.c22 == pytest.approx(ref[1, 1], abs=1e-8, rel=1e-9)


@pytest.mark.parametrize("ell", [0, 1, 3, 12, 50])
@pytest.mark.parametrize("t", [1e-3, 0.5, 2.0])
def test_schrodinger_covariance_matches_quadrature(ell, t):
    lam = float(ell * (ell + 1))
    ref = conv_covariance_quadrature(schrodinger_kernels, lam, t)
    c = schrodinger_conv_covariance(ell, t)
    assert c.c11 == pytest.approx(ref[0, 0], abs=1e-8, rel=1e-9)
    assert c.c12 == pytest.approx(ref[0, 1], abs=1e-8, rel=1e-9)
    assert c.c22 == pytest.approx(ref[1, 1], abs=1e-8, rel=1e-9)


def test_schrodinger_degree_zero_has_zero_sine_kernel():
    c = schrodinger_conv_covariance(0, 2.0)
    assert (c.c11, c.c12, c.c22) == (0.0, 0.0, 2.0)


def test_schrodinger_trace_identity():
    # sin^2 + cos^2 integrates to t
    for ell in (1, 2, 7, 40, 333):
        for t in (1e-4, 0.3, 4.0):
            c = schrodinger_conv_covariance(ell, t)
            assert c.c11 + c.c22 == pytest.approx(t, rel=1e-13)


def test_domain_errors_on_nonpositive_time():
    with pytest.raises(ValueError):
        wave_conv_covariance(1, 3, 0.0)
    with pytest.raises(ValueError):
        wave_conv_cholesky(1, 3, -1.0)
    with pytest.raises(ValueError):
        schrodinger_conv_covariance(2, 0.0)
    with pytest.raises(ValueError):
        ConvFactorTable.for_wave(4, 3, 0.0)


def test_cholesky_degree_zero_matches_explicit_factor():
    # D0(t) = sqrt(t) [[t/sqrt(3), sqrt(3)/2], [0, 1/2]]
    d11, d12, d22 = wave_conv_cholesky(0, 3, 1.0)
    assert d11 == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
    assert d12 == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
    assert d22 == pytest.approx(0.5, rel=1e-14)
    t = 2.7
    d11, d12, d22 = wave_conv_cholesky(0, 3, t)
    assert d11 == pytest.approx(math.sqrt(t) * t / math.sqrt(3.0), rel=1e-14)
    assert d12 == pytest.approx(math.sqrt(t) * math.sqrt(3.0) / 2.0, rel=1e-14)
    assert d22 == pytest.approx(math.sqrt(t) / 2.0, rel=1e-14)


def test_cholesky_matches_published_explicit_entries():
    # the explicit closed-form factor entries for ell != 0
    ell, t = 1, 1.0
    lam = float(ell * (ell + 1))
    sq = math.sqrt(lam)
    ref_d11 = math.sqrt(2 * sq * t - math.sin(2 * sq * t)) / (2 * lam**0.75)
    ref_d12 = math.sin(sq * t) ** 2 / (lam**0.25 * math.sqrt(2 * sq * t - math.sin(2 * sq * t)))
    ref_d22 = math.sqrt((4 * lam * t**2 - math.sin(2 * sq * t) ** 2 - 4 * math.sin(sq * t) ** 4)
                        / (4 * sq * (2 * sq * t - math.sin(2 * sq * t))))
    d11, d12, d22 = wave_conv_cholesky(ell, 3, t)
    assert d11 == pytest.approx(ref_d11, rel=1e-12)
    assert d12 == pytest.approx(ref_d12, rel=1e-12)
    assert d22 == pytest.approx(ref_d22, rel=1e-12)


@pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-3, 1e-2, 1.0, 10.0])
def test_factor_reconstruction_up_to_degree_512(t):
    kappa = 512
    for table, entries in [
        (ConvFactorTable.for_wave(kappa, 3, t), "wave"),
        (ConvFactorTable.for_schrodinger(kappa, t), "schrodinger"),
    ]:
        from spherewave.noise import _conv_entries
        lams = np.arange(kappa + 1) * (np.arange(kappa + 1) + 1.0)
        c11, c12, c22 = _conv_entries(lams, t, entries)
        cov = np.stack([np.stack([c11, c12], -1), np.stack([c12, c22], -1)], -2)
        rec = table.covariance_matrices()
        rec[:, [0, 1], [1, 0]] *= table.sign  # D^T D, without the sign of W2
        num = np.linalg.norm(rec - cov, axis=(1, 2))
        den = np.linalg.norm(cov, axis=(1, 2))
        assert np.max(num / den) <= 1e-12


def test_covariances_positive_semidefinite_across_degrees_and_times():
    for t in np.geomspace(1e-6, 10.0, 12):
        for ell in (0, 1, 2, 3, 7, 33, 128, 512):
            c = wave_conv_covariance(ell, 3, float(t))
            assert c.c11 >= 0.0 and c.c22 >= 0.0
            assert c.psd_defect() >= -1e-14
            cs = schrodinger_conv_covariance(ell, float(t))
            assert cs.psd_defect() >= -1e-14


def test_small_x_branches_agree_at_switchover():
    # both branches carry full precision at the switch point
    x = np.array([SMALL_X])
    series_f = x**3 * (4.0 / 3.0 + x**2 * (-4.0 / 15.0 + x**2 * (8.0 / 315.0 - x**2 * 4.0 / 2835.0)))
    direct_f = 2.0 * x - np.sin(2.0 * x)
    assert abs(series_f[0] - direct_f[0]) / direct_f[0] < 1e-10
    series_s = x**2 * (1.0 + x**2 * (-1.0 / 3.0 + x**2 * (2.0 / 45.0 - x**2 / 315.0)))
    direct_s = np.sin(x) ** 2
    assert abs(series_s[0] - direct_s[0]) / direct_s[0] < 1e-10


@pytest.mark.parametrize("x", [1e-6, 1e-4, 1e-3, 1e-2, 0.04, 0.06, 0.5, 3.0])
def test_small_x_helpers_match_high_precision(x):
    f = float(_two_x_minus_sin_2x(np.array([x]))[0])
    s = float(_sin_squared(np.array([x]))[0])
    f_ref = float(2 * mp.mpf(x) - mp.sin(2 * mp.mpf(x)))
    s_ref = float(mp.sin(mp.mpf(x)) ** 2)
    assert f == pytest.approx(f_ref, rel=1e-12)
    assert s == pytest.approx(s_ref, rel=1e-12)


def test_sample_isotropic_grf_zero_spectrum_and_single_mode():
    rng = np.random.default_rng(0)
    z = sample_isotropic_grf(oracles.ZERO_SPECTRUM, 8, 3, rng)
    assert np.all(z.data == 0.0)

    draws = np.array([sample_isotropic_grf(PowerSpectrum(alpha=2.0, head_value=0.7), 0, 3,
                                           np.random.default_rng(i)).data[0]
                      for i in range(20000)])
    var = draws.var(ddof=1)
    assert abs(var - 0.7) < 3.0 * 0.7 * math.sqrt(2.0 / 20000)


def test_sample_isotropic_grf_per_degree_variance():
    ps = PowerSpectrum(alpha=3.0)
    kappa, n = 16, 100000
    rng = np.random.default_rng(2024)
    sigma = np.sqrt(ps.values(kappa))[mode_degrees(kappa, 3)]
    total = np.zeros(mode_count(kappa, 3))
    for _ in range(n):
        total += sample_isotropic_grf(ps, kappa, 3, rng).data ** 2
    est = total / n
    # pool within each degree, then compare with 3 sigma of the pooled estimate
    offsets = np.concatenate(([0], np.cumsum(2 * np.arange(kappa + 1) + 1)[:-1]))
    for ell in range(kappa + 1):
        block = slice(offsets[ell], offsets[ell] + 2 * ell + 1)
        pooled = est[block].mean()
        target = oracles.spectrum_eval(ps, ell)
        stderr = target * math.sqrt(2.0 / (n * (2 * ell + 1)))
        assert abs(pooled - target) < 3.0 * stderr


def test_wiener_increment_variance_scales_linearly_in_h():
    ps = PowerSpectrum(alpha=3.0)
    n = 100000
    rng = np.random.default_rng(5)
    v1 = np.array([wiener_increment(ps, 0, 3, 0.2, rng).data[0] for _ in range(n)])
    v2 = np.array([wiener_increment(ps, 0, 3, 0.4, rng).data[0] for _ in range(n)])
    ratio = v2.var(ddof=1) / v1.var(ddof=1)
    assert abs(ratio - 2.0) < 3.0 * 2.0 * math.sqrt(4.0 / n)
    with pytest.raises(ValueError):
        wiener_increment(ps, 2, 3, 0.0, rng)
    assert np.all(wiener_increment(oracles.ZERO_SPECTRUM, 4, 3, 0.5, rng).data == 0.0)


def _empirical_increment_cov(kind, ps, kappa, dim, h, index, n, seed):
    if kind == "wave":
        factors = ConvFactorTable.for_wave(kappa, dim, h)
        sample = sample_wave_conv_increments
    else:
        factors = ConvFactorTable.for_schrodinger(kappa, h)
        sample = sample_schrodinger_conv_increments
    rng = np.random.default_rng(seed)
    draws = np.empty((n, 2))
    for i in range(n):
        w1, w2 = sample(ps, factors, rng)
        draws[i, 0] = w1.data[index]
        draws[i, 1] = w2.data[index]
    return draws


def _assert_cov_close(draws, target):
    n = draws.shape[0]
    prods = np.stack([draws[:, 0] ** 2, draws[:, 0] * draws[:, 1], draws[:, 1] ** 2], axis=1)
    est = prods.mean(axis=0)
    stderr = prods.std(axis=0, ddof=1) / math.sqrt(n)
    ref = np.array([target[0, 0], target[0, 1], target[1, 1]])
    assert np.all(np.abs(est - ref) <= 3.0 * stderr)


def test_wave_increment_covariance_degree_zero():
    ps = PowerSpectrum(alpha=3.0, head_value=0.8)
    draws = _empirical_increment_cov("wave", ps, 2, 3, 1.0, 0, 100000, 99)
    target = 0.8 * np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    _assert_cov_close(draws, target)


def test_wave_increment_covariance_degree_four():
    ps = PowerSpectrum(alpha=3.0)
    kappa, h = 4, 0.1
    field = CoefficientField.zeros(kappa)
    index = oracles.index_of(4, 2, 1)
    draws = _empirical_increment_cov("wave", ps, kappa, 3, h, index, 100000, 100)
    target = oracles.spectrum_eval(ps, 4) * wave_conv_covariance(4, 3, h).matrix()
    _assert_cov_close(draws, target)


def test_schrodinger_increment_covariance():
    ps = PowerSpectrum(alpha=4.0)
    kappa, h = 3, 0.5
    field = CoefficientField.zeros(kappa)
    index = oracles.index_of(3, 1, 2)
    draws = _empirical_increment_cov("schrodinger", ps, kappa, 3, h, index, 100000, 101)
    target = oracles.spectrum_eval(ps, 3) * schrodinger_conv_covariance(3, h).matrix()
    _assert_cov_close(draws, target)


def test_zero_spectrum_increments_are_zero():
    factors = ConvFactorTable.for_wave(4, 3, 0.3)
    w1, w2 = sample_wave_conv_increments(oracles.ZERO_SPECTRUM, factors, np.random.default_rng(1))
    assert np.all(w1.data == 0.0) and np.all(w2.data == 0.0)


def test_factor_table_kind_mismatch_is_rejected():
    wave_factors = ConvFactorTable.for_wave(4, 3, 0.3)
    sch_factors = ConvFactorTable.for_schrodinger(4, 0.3)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_wave_conv_increments(PowerSpectrum(alpha=3.0), sch_factors, rng)
    with pytest.raises(ValueError):
        sample_schrodinger_conv_increments(PowerSpectrum(alpha=3.0), wave_factors, rng)
    with pytest.raises(ValueError):
        wave_factors.require(4, 3, 0.4)
    with pytest.raises(ValueError):
        wave_factors.require(4, 3, 0.3, "schrodinger")
    wave_factors.require(4, 3, 0.3)
    wave_factors.require(4, 3, 0.3, "wave")


@pytest.mark.parametrize("equation,dim", [("wave", 3), ("wave-dsphere", 4),
                                           ("schrodinger", 3)])
def test_one_law_per_equation(equation, dim):
    kappa, h = 30, 0.7
    law = ConvFactorTable.for_equation(equation, kappa, dim, h)
    built = (ConvFactorTable.for_schrodinger(kappa, h) if equation == "schrodinger"
             else ConvFactorTable.for_wave(kappa, dim, h))
    for a, b in zip((law.d11, law.d12, law.d22, *law.rotation),
                    (built.d11, built.d12, built.d22, *built.rotation)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert (law.kind, law.dim, law.sign) == (built.kind, dim,
                                             -1.0 if equation == "schrodinger" else 1.0)
    # the covariance of (W1, sign W2): the Schrodinger cross term is negative
    cross = law.covariance_matrices()[1:, 0, 1]
    assert np.all(law.sign * cross > 0.0)
    assert np.array_equal(law.rotation_matrices()[:, 0, 1], law.rotation[1])


def test_draw_order_is_two_normals_per_mode_in_storage_order():
    # the sampler must consume exactly rng.standard_normal((n_modes, 2))
    ps = PowerSpectrum(alpha=2.0)
    kappa = 3
    factors = ConvFactorTable.for_wave(kappa, 3, 0.7)
    w1, w2 = sample_wave_conv_increments(ps, factors, np.random.default_rng(1234))
    x = np.random.default_rng(1234).standard_normal((mode_count(kappa, 3), 2))
    deg = mode_degrees(kappa, 3)
    sa = np.sqrt(ps.values(kappa))[deg]
    assert np.allclose(w1.data, sa * factors.d11[deg] * x[:, 0], atol=0, rtol=0)
    assert np.allclose(w2.data, sa * (factors.d12[deg] * x[:, 0] + factors.d22[deg] * x[:, 1]),
                       atol=0, rtol=0)


def _mp_covariance(kind, lam, t):
    """2x2 covariance from the direct formulas in 40-digit arithmetic (no series)."""
    t = mp.mpf(t)
    if lam == 0:
        if kind == "wave":
            return mp.matrix([[t**3 / 3, t**2 / 2], [t**2 / 2, t]])
        return mp.matrix([[0, 0], [0, t]])
    sq = mp.sqrt(lam)
    x = sq * t
    r = 1 / sq if kind == "wave" else 1  # amplitude of the sine kernel
    c11 = r**2 * (2 * x - mp.sin(2 * x)) / (4 * sq)
    c12 = r * mp.sin(x) ** 2 / (2 * sq)
    c22 = (2 * x + mp.sin(2 * x)) / (4 * sq)
    return mp.matrix([[c11, c12], [c12, c22]])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([("wave", 3), ("wave", 4), ("wave", 5), ("wave", 6),
                        ("schrodinger", 3)]),
       st.integers(0, 800), st.floats(-6.0, 1.0), st.lists(st.floats(0.0, 1.0), max_size=3))
def test_factor_table_reproduces_the_covariance(kind_dim, kappa, log_h, picks):
    kind, dim = kind_dim
    h = 10.0 ** log_h
    if kind == "wave":
        table = ConvFactorTable.for_wave(kappa, dim, h)
        scalar = [wave_conv_covariance(ell, dim, h) for ell in range(kappa + 1)]
    else:
        table = ConvFactorTable.for_schrodinger(kappa, h)
        scalar = [schrodinger_conv_covariance(ell, h) for ell in range(kappa + 1)]
    rebuilt = table.covariance_matrices()
    rebuilt[:, [0, 1], [1, 0]] *= table.sign  # D^T D per degree, without the sign of W2
    cov = np.array([c.matrix() for c in scalar])
    defect = np.linalg.norm(rebuilt - cov, axis=(1, 2))
    assert np.all(defect <= 1e-12 * np.linalg.norm(cov, axis=(1, 2)))
    # against the covariance in high precision at a few degrees, both ends included
    for ell in {0, kappa, *(round(p * kappa) for p in picks)}:
        exact = _mp_covariance(kind, ell * (ell + dim - 2), h)
        ref = np.array(exact.tolist(), dtype=float)
        assert np.linalg.norm(rebuilt[ell] - ref) <= 1e-12 * np.linalg.norm(ref)

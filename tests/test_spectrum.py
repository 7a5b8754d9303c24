import math

import numpy as np
import pytest

import oracles
from oracles import grid_l2_norm, sobolev_norm, spectrum_eval
from spherewave.harmonics import SphereGrid, synthesize
from spherewave.harness import ExperimentConfig, initial_data
from spherewave.modes import CoefficientField, mode_count
from spherewave.spectrum import PowerSpectrum, sobolev_scale


def test_spectrum_values_power_law():
    ps = PowerSpectrum(alpha=3.0)
    assert ps.values(2)[2] == pytest.approx(0.125, abs=0)
    assert ps.values(0)[0] == 1.0
    assert PowerSpectrum(alpha=5.0).values(4)[4] == pytest.approx(1.0 / 1024.0, abs=0)
    for ps in (PowerSpectrum(alpha=3.0), PowerSpectrum(alpha=1.3, scale=2.0, ell0=3,
                                                       head_value=0.2)):
        expected = [spectrum_eval(ps, ell) for ell in range(21)]
        np.testing.assert_allclose(ps.values(20), expected, rtol=1e-15, atol=0)


def test_spectrum_flat_head_and_custom_values():
    ps = PowerSpectrum(alpha=2.0, scale=3.0, ell0=4, head_value=0.5)
    vals = ps.values(8)
    assert vals[0] == 0.5
    for ell in (1, 2, 3):
        assert vals[ell] == pytest.approx(3.0 / 16.0)
    assert vals[4] == pytest.approx(3.0 / 16.0)
    assert vals[8] == pytest.approx(3.0 / 64.0)


def test_spectrum_non_increasing_past_ell0():
    ps = PowerSpectrum(alpha=1.3, scale=2.0, ell0=3)
    vals = ps.values(64)
    assert np.all(np.diff(vals[3:]) <= 0)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        PowerSpectrum(alpha=-1.0)
    with pytest.raises(ValueError):
        PowerSpectrum(alpha=2.0, scale=-0.5)
    with pytest.raises(ValueError):
        PowerSpectrum(alpha=2.0, ell0=0)
    assert oracles.ZERO_SPECTRUM.values(5).sum() == 0.0


def test_sobolev_norm_single_modes():
    f = CoefficientField.zeros(4)
    f.data[oracles.index_of(1, 0)] = 1.0
    assert sobolev_norm(f, 2.0) == pytest.approx(3.0, rel=1e-14)  # (1 + 2)^(2/2)
    assert sobolev_norm(f, 0.0) == pytest.approx(1.0, rel=1e-15)

    g = CoefficientField.zeros(4)
    g.data[oracles.index_of(0, 0)] = -2.0
    for s in (-1.0, 0.0, 3.5):
        assert sobolev_norm(g, s) == pytest.approx(2.0, rel=1e-15)


def test_sobolev_norm_is_euclidean_at_s0():
    rng = np.random.default_rng(3)
    f = CoefficientField(rng.standard_normal(mode_count(6, 3)), 6)
    assert sobolev_norm(f, 0.0) == pytest.approx(float(np.linalg.norm(f.data)), rel=1e-14)


def test_sobolev_norm_monotone_in_s_for_nonzero_degrees():
    rng = np.random.default_rng(4)
    f = CoefficientField(rng.standard_normal(mode_count(5, 3)), 5)
    f.data[0] = 0.0  # drop the ell = 0 mode, whose weight is constant in s
    norms = [sobolev_norm(f, s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))


def test_cross_module_parseval():
    rng = np.random.default_rng(11)
    f = CoefficientField(rng.standard_normal(mode_count(12, 3)), 12)
    grid = SphereGrid(16, 32)
    assert sobolev_norm(f, 0.0) == pytest.approx(grid_l2_norm(synthesize(f, grid)), rel=1e-8)


def _sobolev_data(beta, kappa, gamma=None, dim=3):
    """harness.initial_data's draw of random-sobolev data at band kappa."""
    return initial_data(ExperimentConfig(initial_data="random-sobolev", beta=beta, gamma=gamma,
                                         kappa_ref=kappa, dim=dim))


def test_random_sobolev_data_kappa_zero():
    draw = _sobolev_data(2.0, 0)
    v1, v2 = draw(np.random.default_rng(0))
    assert v1.shape == (1,) and v2 == 0.0  # no gamma: the second component is zero
    draw = _sobolev_data(0.0, 0)
    draws = np.array([draw(np.random.default_rng(i))[0][0] for i in range(4000)])
    # at kappa = 0 the single coefficient is a standard normal
    assert abs(draws.var(ddof=1) - 1.0) < 3.0 * math.sqrt(2.0 / 4000)


def test_random_sobolev_data_matches_analytic_l2_mean():
    # E ||v||^2 = sum_ell (2 ell + 1) sigma_ell^2 with the published scaling
    beta, kappa, n = 0.0, 16, 3000
    sizes = 2 * np.arange(kappa + 1) + 1
    expected = float(np.dot(sizes, sobolev_scale(beta, kappa) ** 2))
    rng = np.random.default_rng(123)
    draw = _sobolev_data(beta, kappa)
    draws = np.array([np.sum(draw(rng)[0] ** 2) for i in range(n)])
    stderr = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - expected) < 3.0 * stderr


def test_random_sobolev_data_h_beta_norm_stable_in_kappa():
    # the mean H^beta norm moves by < 10% when the band limit doubles
    beta, n = 2.0, 1000
    means = []
    for kappa in (64, 128):
        rng = np.random.default_rng(77)
        draw = _sobolev_data(beta, kappa)
        vals = [sobolev_norm(CoefficientField(draw(rng)[0], kappa), beta) for _ in range(n)]
        means.append(np.mean(vals))
    ratio = means[1] / means[0]
    assert 0.9 <= ratio <= 1.1


@pytest.mark.parametrize("dim", [3, 5])
def test_random_sobolev_data_draws_the_first_component_then_the_second(dim):
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    v1, v2 = _sobolev_data(1.5, 10, gamma=0.5, dim=dim)(rng)
    for v, exponent in ((v1, 1.5), (v2, 0.5)):
        expected = oracles.random_sobolev_data(exponent, 10, ref, dim).data
        assert np.array_equal(v.view(np.uint64), expected.view(np.uint64))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_random_sobolev_truncation_tail_saturates_rate():
    # expected squared tail above kappa decays like kappa^(-2 beta)
    beta, kappa_ref = 1.5, 4096
    sigma2 = sobolev_scale(beta, kappa_ref) ** 2
    sizes = 2 * np.arange(kappa_ref + 1) + 1
    per_degree = sizes * sigma2
    ks = np.array([64, 128, 256, 512])
    tails = np.array([per_degree[k + 1:].sum() for k in ks])
    slope = np.polyfit(np.log(ks), np.log(tails), 1)[0]
    assert slope == pytest.approx(-2.0 * beta, abs=0.05)

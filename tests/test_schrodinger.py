import math

import numpy as np
import pytest

import oracles
from oracles import mode_modulus, schrodinger_conv_covariance
from spherewave.modes import CoefficientField, mode_count
from spherewave.noise import ConvFactorTable
from spherewave.schrodinger import run_path_schrodinger, schrodinger_step
from spherewave.spectrum import PowerSpectrum
from spherewave.wave import State

ZERO = oracles.ZERO_SPECTRUM


def test_zero_noise_rotation_preserves_mode_modulus():
    kappa = 4
    vr = CoefficientField.zeros(kappa)
    vi = CoefficientField.zeros(kappa)
    vr.data[oracles.index_of(1, 0)] = 1.0
    state = State(vr, vi)
    t = 0.9
    factors = ConvFactorTable.for_schrodinger(kappa, t)
    out = schrodinger_step(state, t, ZERO, np.random.default_rng(0), factors)
    idx = oracles.index_of(1, 0)
    assert out.u1.data[idx] ** 2 + out.u2.data[idx] ** 2 == pytest.approx(1.0, rel=1e-14)
    assert out.u1.data[idx] == pytest.approx(math.cos(math.sqrt(2.0) * t), rel=1e-13)


def test_zero_noise_degree_zero_is_constant():
    kappa = 3
    vr = CoefficientField.zeros(kappa)
    vi = CoefficientField.zeros(kappa)
    vr.data[0] = 0.4
    vi.data[0] = -0.2
    traj = run_path_schrodinger(ZERO, vr, vi, kappa, 2.0, 10, seed=0)
    for state in traj:
        assert state.u1.data[0] == pytest.approx(0.4, rel=1e-15)
        assert state.u2.data[0] == pytest.approx(-0.2, rel=1e-15)


def test_mass_and_per_mode_modulus_conservation():
    kappa = 8
    rng = np.random.default_rng(4)
    vr = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    vi = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    traj = list(run_path_schrodinger(ZERO, vr, vi, kappa, 4.0, 100, seed=0))
    m0 = mode_modulus(traj[0])
    mass0 = m0.sum()
    for state in traj[1:]:
        m = mode_modulus(state)
        assert np.allclose(m, m0, rtol=1e-12, atol=1e-15)
        assert m.sum() == pytest.approx(mass0, rel=1e-10)


def test_one_step_equals_many_steps_without_noise():
    kappa = 6
    rng = np.random.default_rng(10)
    vr = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    vi = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    one = list(run_path_schrodinger(ZERO, vr, vi, kappa, 1.0, 1, seed=0))[-1]
    many = list(run_path_schrodinger(ZERO, vr, vi, kappa, 1.0, 100, seed=0))[-1]
    assert np.allclose(one.u1.data, many.u1.data, rtol=0, atol=1e-12)
    assert np.allclose(one.u2.data, many.u2.data, rtol=0, atol=1e-12)


def test_fixed_seed_reproducibility():
    kappa = 8
    ps = PowerSpectrum(alpha=4.0)
    z = CoefficientField.zeros(kappa)
    a = run_path_schrodinger(ps, z, z, kappa, 1.0, 4, seed=7)
    b = run_path_schrodinger(ps, z, z, kappa, 1.0, 4, seed=7)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.u1.data, sb.u1.data)
        assert np.array_equal(sa.u2.data, sb.u2.data)


def test_degree_zero_noise_enters_imaginary_part_only():
    # sine kernel vanishes at ell = 0, so uR stays 0 and Var(uI) = A0 t
    kappa, t, n = 0, 0.7, 100000
    ps = PowerSpectrum(alpha=2.0, head_value=0.9)
    factors = ConvFactorTable.for_schrodinger(kappa, t)
    zero = CoefficientField.zeros(kappa)
    rng = np.random.default_rng(55)
    vals = np.empty(n)
    for i in range(n):
        out = schrodinger_step(State(zero, zero), t, ps, rng, factors)
        assert out.u1.data[0] == 0.0
        vals[i] = out.u2.data[0]
    target = 0.9 * t
    sq = vals**2
    stderr = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - target) <= 3.0 * stderr


def test_state_covariance_matches_kernel_law():
    kappa, t, n = 1, 0.8, 30000
    ps = PowerSpectrum(alpha=4.0)
    factors = ConvFactorTable.for_schrodinger(kappa, t)
    zero = CoefficientField.zeros(kappa)
    rng = np.random.default_rng(66)
    idx = oracles.index_of(1, 1, 1)
    draws = np.empty((n, 2))
    for i in range(n):
        out = schrodinger_step(State(zero, zero), t, ps, rng, factors)
        draws[i] = out.u1.data[idx], out.u2.data[idx]
    target = oracles.spectrum_eval(ps, 1) * schrodinger_conv_covariance(1, t).matrix()
    prods = np.stack([draws[:, 0] ** 2, draws[:, 1] ** 2], axis=1)
    est = prods.mean(axis=0)
    stderr = prods.std(axis=0, ddof=1) / math.sqrt(n)
    ref = np.array([target[0, 0], target[1, 1]])
    assert np.all(np.abs(est - ref) <= 3.0 * stderr)
    # the noise carries a minus sign into the imaginary part: cross-covariance
    # of (uR, uI) is -A_ell c12
    cross = (draws[:, 0] * draws[:, 1])
    cross_err = cross.std(ddof=1) / math.sqrt(n)
    assert abs(cross.mean() - (-target[0, 1])) <= 3.0 * cross_err


def test_truncation_and_dimension_guards():
    vr = CoefficientField.zeros(8)
    assert next(run_path_schrodinger(ZERO, vr, vr, 4, 1.0, 1, seed=0)).kappa == 4
    # the Schrodinger law is defined on S^2 only
    v4 = CoefficientField.zeros(2, dim=4)
    with pytest.raises(ValueError, match=r"dim == 3"):
        ConvFactorTable.for_equation("schrodinger", 2, 4, 0.5)
    with pytest.raises(ValueError, match="dimension does not match"):
        run_path_schrodinger(ZERO, v4, v4, 2, 1.0, 1, seed=0)
    with pytest.raises(ValueError, match="does not match"):
        schrodinger_step(State(v4, v4), 0.5, ZERO, np.random.default_rng(0),
                         ConvFactorTable.for_schrodinger(2, 0.5))
    with pytest.raises(ValueError, match="share band limit"):
        State(CoefficientField.zeros(2), CoefficientField.zeros(3))
    # a table for another step size, or a wave table
    state = State(CoefficientField.zeros(4), CoefficientField.zeros(4))
    with pytest.raises(ValueError, match="does not match"):
        schrodinger_step(state, 0.25, ZERO, np.random.default_rng(0),
                         ConvFactorTable.for_schrodinger(4, 0.5))
    with pytest.raises(ValueError, match="does not match"):
        schrodinger_step(state, 0.5, ZERO, np.random.default_rng(0),
                         ConvFactorTable.for_wave(4, 3, 0.5))


@pytest.mark.parametrize("T,steps,store_every", [(1.0, 0, 1), (0.0, 4, 1), (-1.0, 4, 1),
                                                 (1.0, 4, 0)])
def test_run_path_checks_its_arguments_when_called(T, steps, store_every):
    v = CoefficientField.zeros(3)
    with pytest.raises(ValueError):
        run_path_schrodinger(ZERO, v, v, 3, T, steps, seed=0, store_every=store_every)

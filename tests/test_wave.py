import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import add_increments, mode_energy, sobolev_norm, wave_conv_covariance
from spherewave.modes import CoefficientField, mode_count
from spherewave.noise import ConvFactorTable
from spherewave.spectrum import PowerSpectrum, random_sobolev_data
from spherewave.wave import Propagator, State, init_state, propagate, run_path, step

ZERO = oracles.ZERO_SPECTRUM


def _single_mode_state(kappa, ell, u1=1.0, u2=0.0, dim=3):
    v1 = CoefficientField.zeros(kappa, dim)
    v2 = CoefficientField.zeros(kappa, dim)
    if dim == 3:
        idx = oracles.index_of(ell, 0)
    else:
        from spherewave.modes import degree_offsets
        idx = degree_offsets(kappa, dim)[ell]
    v1.data[idx] = u1
    v2.data[idx] = u2
    return State(v1, v2), idx


def test_zero_noise_harmonic_oscillator_closed_form():
    kappa = 4
    state, idx = _single_mode_state(kappa, 1)
    t = 0.77
    factors = ConvFactorTable.for_wave(kappa, 3, t)
    rng = np.random.default_rng(0)
    out = step(state, t, ZERO, rng, factors)
    assert out.u1.data[idx] == pytest.approx(math.cos(math.sqrt(2.0) * t), rel=1e-14)
    assert out.u2.data[idx] == pytest.approx(-math.sqrt(2.0) * math.sin(math.sqrt(2.0) * t),
                                                   rel=1e-14)


def test_zero_noise_degree_zero_drifts_linearly():
    kappa = 2
    state, idx = _single_mode_state(kappa, 0, u1=1.5, u2=-0.25)
    t = 2.0
    factors = ConvFactorTable.for_wave(kappa, 3, t)
    out = step(state, t, ZERO, np.random.default_rng(0), factors)
    assert out.u1.data[idx] == pytest.approx(1.5 + t * (-0.25), rel=1e-15)
    assert out.u2.data[idx] == pytest.approx(-0.25, rel=1e-15)


def test_two_half_steps_equal_one_step_without_noise():
    kappa = 8
    rng_data = np.random.default_rng(42)
    v1 = CoefficientField(rng_data.standard_normal(mode_count(kappa, 3)), kappa)
    v2 = CoefficientField(rng_data.standard_normal(mode_count(kappa, 3)), kappa)
    state = State(v1, v2)
    h = 0.3
    f_h = ConvFactorTable.for_wave(kappa, 3, h)
    f_2h = ConvFactorTable.for_wave(kappa, 3, 2 * h)
    one = step(step(state, h, ZERO, np.random.default_rng(0), f_h),
               h, ZERO, np.random.default_rng(0), f_h)
    two = step(state, 2 * h, ZERO, np.random.default_rng(0), f_2h)
    assert np.allclose(one.u1.data, two.u1.data, rtol=0, atol=1e-12)
    assert np.allclose(one.u2.data, two.u2.data, rtol=0, atol=1e-12)


def test_run_path_single_vs_many_steps_without_noise():
    kappa = 6
    rng_data = np.random.default_rng(9)
    v1 = CoefficientField(rng_data.standard_normal(mode_count(kappa, 3)), kappa)
    v2 = CoefficientField(rng_data.standard_normal(mode_count(kappa, 3)), kappa)
    one = list(run_path(ZERO, v1, v2, kappa, 3, 1.0, 1, seed=0))[-1]
    many = list(run_path(ZERO, v1, v2, kappa, 3, 1.0, 10, seed=0))[-1]
    assert np.allclose(one.u1.data, many.u1.data, rtol=0, atol=1e-12)
    assert np.allclose(one.u2.data, many.u2.data, rtol=0, atol=1e-12)


def test_zero_everything_stays_zero():
    kappa = 5
    traj = run_path(ZERO, CoefficientField.zeros(kappa), CoefficientField.zeros(kappa),
                    kappa, 3, 1.0, 8, seed=3)
    for state in traj:
        assert np.all(state.u1.data == 0.0)
        assert np.all(state.u2.data == 0.0)


def test_energy_conservation_over_many_steps():
    kappa = 8
    rng_data = np.random.default_rng(5)
    v1 = CoefficientField(rng_data.standard_normal(mode_count(kappa, 3)), kappa)
    v2 = CoefficientField(rng_data.standard_normal(mode_count(kappa, 3)), kappa)
    traj = list(run_path(ZERO, v1, v2, kappa, 3, 5.0, 120, seed=0))
    e0 = mode_energy(traj[0])
    for state in traj[1:]:
        assert np.allclose(mode_energy(state), e0, rtol=1e-10, atol=1e-14)


def test_mode_energy_examples():
    kappa = 3
    zero = State(CoefficientField.zeros(kappa), CoefficientField.zeros(kappa))
    assert np.all(mode_energy(zero) == 0.0)

    state, _ = _single_mode_state(kappa, 1)
    t = 1.3
    factors = ConvFactorTable.for_wave(kappa, 3, t)
    out = step(state, t, ZERO, np.random.default_rng(0), factors)
    assert mode_energy(out)[1] == pytest.approx(2.0, rel=1e-12)  # lam = 2 at ell = 1

    s0, idx = _single_mode_state(kappa, 0, u1=0.0, u2=0.7)
    out = step(s0, t, ZERO, np.random.default_rng(0), factors)
    assert mode_energy(out)[0] == pytest.approx(0.49, rel=1e-12)


def test_propagator_determinant_is_one():
    for dim in (3, 4, 6):
        prop = Propagator.build(64, dim, 0.37)
        assert np.max(np.abs(oracles.determinants(prop) - 1.0)) < 1e-12
        m = oracles.propagator_matrix(prop, 5)
        assert m[0, 0] == m[1, 1]


def test_run_path_bit_reproducible():
    kappa = 16
    ps = PowerSpectrum(alpha=3.0)
    v = CoefficientField.zeros(kappa)
    a = list(run_path(ps, v, v, kappa, 3, 1.0, 5, seed=123))
    b = run_path(ps, v, v, kappa, 3, 1.0, 5, seed=123)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.u1.data, sb.u1.data)
        assert np.array_equal(sa.u2.data, sb.u2.data)
    c = list(run_path(ps, v, v, kappa, 3, 1.0, 5, seed=124))
    assert not np.array_equal(a[-1].u1.data, c[-1].u1.data)


def test_init_state_truncates_and_preserves_norms():
    rng = np.random.default_rng(8)
    v1 = CoefficientField(rng.standard_normal(mode_count(12, 3)), 12)
    v2 = CoefficientField.zeros(12)
    state = init_state(v1, v2, 8)
    assert state.kappa == 8
    assert sobolev_norm(state.u1, 0.0) <= sobolev_norm(v1, 0.0)
    assert np.array_equal(state.u1.data, v1.data[:mode_count(8, 3)])

    smooth = random_sobolev_data(2.0, 6, np.random.default_rng(1))
    lifted = init_state(smooth, CoefficientField.zeros(6), 10)
    assert sobolev_norm(lifted.u1, 2.0) == pytest.approx(sobolev_norm(smooth, 2.0),
                                                               rel=1e-15)


def test_single_step_state_covariance_matches_exact_law():
    # from rest, the state after one step of size t has per-mode covariance A_ell C_ell(t)
    kappa, t, n = 2, 0.6, 100000
    ps = PowerSpectrum(alpha=3.0)
    factors = ConvFactorTable.for_wave(kappa, 3, t)
    zero = CoefficientField.zeros(kappa)
    rng = np.random.default_rng(77)
    idx = oracles.index_of(2, 1, 2)
    draws = np.empty((n, 2))
    for i in range(n):
        out = step(State(zero, zero), t, ps, rng, factors)
        draws[i] = out.u1.data[idx], out.u2.data[idx]
    target = oracles.spectrum_eval(ps, 2) * wave_conv_covariance(2, 3, t).matrix()
    prods = np.stack([draws[:, 0] ** 2, draws[:, 0] * draws[:, 1], draws[:, 1] ** 2], axis=1)
    est = prods.mean(axis=0)
    stderr = prods.std(axis=0, ddof=1) / math.sqrt(n)
    ref = np.array([target[0, 0], target[0, 1], target[1, 1]])
    assert np.all(np.abs(est - ref) <= 3.0 * stderr)


def test_two_step_second_moments_match_one_step_law():
    # deterministic form of the semigroup property: C(2h) = P(h) C(h) P(h)^T + C(h)
    h = 0.25
    for ell in (0, 1, 5, 40):
        prop = Propagator.build(max(ell, 1), 3, h)
        p = oracles.propagator_matrix(prop, ell)
        c_h = wave_conv_covariance(ell, 3, h).matrix()
        c_2h = wave_conv_covariance(ell, 3, 2 * h).matrix()
        assert np.allclose(p @ c_h @ p.T + c_h, c_2h, rtol=1e-12, atol=1e-15)

    # and the statistical form, with Monte Carlo error bars
    kappa, n = 1, 30000
    ps = PowerSpectrum(alpha=3.0)
    factors = ConvFactorTable.for_wave(kappa, 3, h)
    zero = CoefficientField.zeros(kappa)
    rng = np.random.default_rng(11)
    idx = oracles.index_of(1, 0)
    sq = np.empty((n, 2))
    for i in range(n):
        s = step(State(zero, zero), h, ps, rng, factors)
        s = step(s, h, ps, rng, factors)
        sq[i] = s.u1.data[idx] ** 2, s.u2.data[idx] ** 2
    target = oracles.spectrum_eval(ps, 1) * np.diag(wave_conv_covariance(1, 3, 2 * h).matrix())
    stderr = sq.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(sq.mean(axis=0) - target) <= 3.0 * stderr)


def test_higher_dimension_contracts():
    kappa, dim = 6, 4
    rng_data = np.random.default_rng(21)
    v1 = CoefficientField(rng_data.standard_normal(mode_count(kappa, dim)), kappa, dim)
    v2 = CoefficientField(rng_data.standard_normal(mode_count(kappa, dim)), kappa, dim)
    traj = list(run_path(ZERO, v1, v2, kappa, dim, 2.0, 50, seed=0))
    e0 = mode_energy(traj[0])
    assert np.allclose(mode_energy(traj[-1]), e0, rtol=1e-10, atol=1e-14)

    state, idx = _single_mode_state(kappa, 2, dim=dim)
    t = 0.5
    lam = 2.0 * (2 + dim - 2)  # 8 at dim = 4
    factors = ConvFactorTable.for_wave(kappa, dim, t)
    out = step(state, t, ZERO, np.random.default_rng(0), factors)
    assert out.u1.data[idx] == pytest.approx(math.cos(math.sqrt(lam) * t), rel=1e-14)


def test_step_rejects_mismatched_factor_table():
    kappa = 4
    state = State(CoefficientField.zeros(kappa), CoefficientField.zeros(kappa))
    factors = ConvFactorTable.for_wave(kappa, 3, 0.5)
    with pytest.raises(ValueError):
        step(state, 0.25, ZERO, np.random.default_rng(0), factors)
    wrong_band = ConvFactorTable.for_wave(kappa + 1, 3, 0.5)
    with pytest.raises(ValueError):
        step(state, 0.5, ZERO, np.random.default_rng(0), wrong_band)


def test_state_component_consistency_checked():
    with pytest.raises(ValueError):
        State(CoefficientField.zeros(3), CoefficientField.zeros(4))


def test_projection_commutes_with_stepping():
    # modes evolve independently: truncating before or after a step is identical
    kappa_ref, kappa = 12, 5
    rng = np.random.default_rng(33)
    v1 = CoefficientField(rng.standard_normal(mode_count(kappa_ref, 3)), kappa_ref)
    v2 = CoefficientField(rng.standard_normal(mode_count(kappa_ref, 3)), kappa_ref)
    w1 = CoefficientField(rng.standard_normal(mode_count(kappa_ref, 3)), kappa_ref)
    w2 = CoefficientField(rng.standard_normal(mode_count(kappa_ref, 3)), kappa_ref)
    h = 0.8
    prop_ref = Propagator.build(kappa_ref, 3, h)
    prop = Propagator.build(kappa, 3, h)

    full = add_increments(propagate(State(v1, v2), prop_ref), w1, w2)
    projected_after = (full.u1.truncated(kappa), full.u2.truncated(kappa))
    small = add_increments(
        propagate(State(v1.truncated(kappa), v2.truncated(kappa)), prop),
        w1.truncated(kappa), w2.truncated(kappa))
    assert np.allclose(projected_after[0].data, small.u1.data, rtol=0, atol=1e-14)
    assert np.allclose(projected_after[1].data, small.u2.data, rtol=0, atol=1e-14)


@pytest.mark.parametrize("T,steps,store_every", [(1.0, 0, 1), (0.0, 4, 1), (-1.0, 4, 1),
                                                 (1.0, 4, 0)])
def test_run_path_checks_its_arguments_when_called(T, steps, store_every):
    v = CoefficientField.zeros(3)
    with pytest.raises(ValueError):
        run_path(ZERO, v, v, 3, 3, T, steps, seed=0, store_every=store_every)


def test_run_path_yields_the_stored_states_lazily():
    kappa = 4
    v = CoefficientField.zeros(kappa)
    states = run_path(PowerSpectrum(alpha=3.0), v, v, kappa, 3, 1.0, 7, seed=2, store_every=3)
    assert next(states).t == 0.0
    assert [s.t for s in states] == pytest.approx([3 / 7, 6 / 7, 1.0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["wave", "wave-dsphere", "schrodinger"]), st.integers(3, 6),
       st.integers(0, 2000), st.floats(-6.0, 1.5))
def test_per_degree_maps_have_determinant_one(equation, dim, kappa, log_h):
    # the noise-free step over h is a symplectic map of each degree's 2-vector
    dim = dim if equation == "wave-dsphere" else 3
    h = 10.0 ** log_h
    rot = ConvFactorTable.for_equation(equation, kappa, dim, h).rotation_matrices()
    det = rot[:, 0, 0] * rot[:, 1, 1] - rot[:, 0, 1] * rot[:, 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-12
    if equation != "schrodinger":
        prop = Propagator.build(kappa, dim, h)
        assert np.max(np.abs(oracles.determinants(prop) - 1.0)) < 1e-12

"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line per checked quantity (run pytest with -s
to see them); the asserts enforce the same tolerances.
"""

import math
import time

import numpy as np
import pytest

import spherewave.cli as cli
from spherewave.harmonics import SphereGrid, synthesize
from spherewave.harness import (ExperimentConfig, analytic_weak_error_experiment,
                                pathwise_error_experiment, strong_error_experiment,
                                weak_error_experiment)
from spherewave.modes import CoefficientField, mode_count
from spherewave.noise import ConvFactorTable, sample_wave_conv_increments
from spherewave.schrodinger import run_path_schrodinger
from spherewave.spectrum import PowerSpectrum
from spherewave.wave import run_path

import oracles
from oracles import (conv_covariance_quadrature, grid_l2_norm, mode_energy, mode_modulus,
                     schrodinger_conv_covariance, schrodinger_kernels, sobolev_norm,
                     wave_conv_covariance, wave_kernels)


def _cfg(preset: str, **overrides) -> ExperimentConfig:
    merged = dict(cli.PRESETS[preset])
    merged.update(overrides)
    return ExperimentConfig(**merged)


def _check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    return ok


def _slope_in(label, slope, target, tol) -> bool:
    return _check(label, abs(slope - target) <= tol,
                  f"slope {slope:+.3f}, target {target:+.2f} +- {tol}")


def test_criterion_1_strong_rates_noise_dominated():
    ok = True
    for preset, targets in (("fig1", (-1.5, -0.5)), ("fig2", (-2.5, -1.5))):
        t0 = time.time()
        tables = strong_error_experiment(_cfg(preset))
        elapsed = time.time() - t0
        alpha = cli.PRESETS[preset]["alpha"]
        ok &= _slope_in(f"criterion 1 alpha={alpha} position", tables["position"].slope,
                        targets[0], 0.2)
        ok &= _slope_in(f"criterion 1 alpha={alpha} velocity", tables["velocity"].slope,
                        targets[1], 0.2)
        ok &= _check(f"criterion 1 alpha={alpha} runtime under 2 minutes", elapsed < 120.0,
                     f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_rough_noise_regime():
    tables = strong_error_experiment(_cfg("fig3"))
    ok = _slope_in("criterion 2 alpha=1 position", tables["position"].slope, -0.5, 0.2)
    vel = tables["velocity"].slope
    ok &= _check("criterion 2 alpha=1 velocity non-convergent", vel > -0.1,
                 f"slope {vel:+.3f} > -0.1")
    assert ok


def test_criterion_3_initial_data_dominated_rates():
    tables = strong_error_experiment(_cfg("fig4"))
    ok = _slope_in("criterion 3 beta=2 position", tables["position"].slope, -2.0, 0.25)
    ok &= _slope_in("criterion 3 beta=2 velocity", tables["velocity"].slope, -1.0, 0.25)
    assert ok


def test_criterion_4_almost_sure_rates():
    ok = True
    for preset, target in (("fig5-alpha3", -1.5), ("fig5-alpha5", -2.5)):
        tables = pathwise_error_experiment(_cfg(preset))
        alpha = cli.PRESETS[preset]["alpha"]
        ok &= _slope_in(f"criterion 4 single path alpha={alpha} position",
                        tables["position"].slope, target, 0.35)
    assert ok


def test_criterion_5_weak_rates():
    ok = True
    oracle = analytic_weak_error_experiment(_cfg("weak-oracle"))
    ok &= _slope_in("criterion 5 analytic oracle position", oracle["position"].slope, -3.0, 0.1)
    ok &= _slope_in("criterion 5 analytic oracle velocity", oracle["velocity"].slope, -1.0, 0.1)
    for preset in ("weak-norm2", "weak-expnorm2"):
        cfg = _cfg(preset)
        tables = weak_error_experiment(cfg)
        phi = cfg.weak_functional
        ok &= _slope_in(f"criterion 5 MC {phi} position", tables["position"].slope, -3.0, 0.4)
        ok &= _slope_in(f"criterion 5 MC {phi} velocity", tables["velocity"].slope, -1.0, 0.4)
    assert ok


def test_criterion_6_schrodinger_rates():
    tables = strong_error_experiment(_cfg("sch-fig7"))
    ok = _slope_in("criterion 6 Schrodinger real part", tables["real"].slope, -1.0, 0.2)
    ok &= _slope_in("criterion 6 Schrodinger imaginary part", tables["imag"].slope, -1.0, 0.2)
    assert ok


def test_criterion_7_dsphere_rates():
    tables = strong_error_experiment(_cfg("dsphere-d4"))
    ok = _slope_in("criterion 7 d=4 position", tables["position"].slope, -1.5, 0.2)
    ok &= _slope_in("criterion 7 d=4 velocity", tables["velocity"].slope, -0.5, 0.2)
    assert ok


def test_criterion_8a_factor_reconstruction():
    from spherewave.noise import _conv_entries
    worst = 0.0
    kappa = 512
    lams = np.arange(kappa + 1) * (np.arange(kappa + 1) + 1.0)
    for t in (1e-6, 1e-3, 1.0, 10.0):
        for kind, table in (("wave", ConvFactorTable.for_wave(kappa, 3, t)),
                            ("schrodinger", ConvFactorTable.for_schrodinger(kappa, t))):
            c11, c12, c22 = _conv_entries(lams, t, kind)
            cov = np.stack([np.stack([c11, c12], -1), np.stack([c12, c22], -1)], -2)
            rec = table.covariance_matrices()
            rec[:, [0, 1], [1, 0]] *= table.sign  # D^T D, without the sign of W2
            num = np.linalg.norm(rec - cov, axis=(1, 2))
            den = np.linalg.norm(cov, axis=(1, 2))
            worst = max(worst, float(np.max(num / den)))
    assert _check("criterion 8a Cholesky reconstruction, ell <= 512", worst <= 1e-12,
                  f"worst relative defect {worst:.2e}")


def test_criterion_8b_covariances_match_quadrature():
    worst = 0.0
    for ell in (0, 1, 2, 5, 16, 64, 181, 512):
        lam = float(ell * (ell + 1))
        for t in (1e-4, 0.1, 1.0, 10.0):
            ref = conv_covariance_quadrature(wave_kernels, lam, t)
            c = wave_conv_covariance(ell, 3, t)
            worst = max(worst, abs(c.c11 - ref[0, 0]), abs(c.c12 - ref[0, 1]),
                        abs(c.c22 - ref[1, 1]))
            if ell <= 64:
                ref_s = conv_covariance_quadrature(schrodinger_kernels, lam, t)
                cs = schrodinger_conv_covariance(ell, t)
                worst = max(worst, abs(cs.c11 - ref_s[0, 0]), abs(cs.c12 - ref_s[0, 1]),
                            abs(cs.c22 - ref_s[1, 1]))
    assert _check("criterion 8b covariance vs adaptive quadrature", worst <= 1e-8,
                  f"worst absolute deviation {worst:.2e}")


def test_criterion_8c_conservation_laws():
    zero = oracles.ZERO_SPECTRUM
    rng = np.random.default_rng(12)
    kappa = 8
    v1 = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    v2 = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    traj = list(run_path(zero, v1, v2, kappa, 3, 5.0, 100, seed=0))
    e0 = mode_energy(traj[0])
    defect = max(float(np.max(np.abs(mode_energy(s) - e0) / np.maximum(e0, 1e-300)))
                 for s in traj[1:])
    ok = _check("criterion 8c wave energy conservation over 100 steps", defect <= 1e-10,
                f"worst relative drift {defect:.2e}")

    straj = list(run_path_schrodinger(zero, v1, v2, kappa, 5.0, 100, seed=0))
    m0 = mode_modulus(straj[0]).sum()
    mdefect = max(abs(mode_modulus(s).sum() - m0) / m0 for s in straj[1:])
    ok &= _check("criterion 8c Schrodinger mass conservation over 100 steps",
                 mdefect <= 1e-10, f"worst relative drift {mdefect:.2e}")
    assert ok


def test_criterion_8d_single_step_equals_many_steps():
    zero = oracles.ZERO_SPECTRUM
    rng = np.random.default_rng(23)
    kappa = 8
    v1 = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    v2 = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    one = list(run_path(zero, v1, v2, kappa, 3, 1.0, 1, seed=0))[-1]
    many = list(run_path(zero, v1, v2, kappa, 3, 1.0, 64, seed=0))[-1]
    dev = max(float(np.max(np.abs(one.u1.data - many.u1.data))),
              float(np.max(np.abs(one.u2.data - many.u2.data))))
    ok = _check("criterion 8d wave one step vs 64 steps", dev <= 1e-12, f"max dev {dev:.2e}")

    s_one = list(run_path_schrodinger(zero, v1, v2, kappa, 1.0, 1, seed=0))[-1]
    s_many = list(run_path_schrodinger(zero, v1, v2, kappa, 1.0, 64, seed=0))[-1]
    sdev = max(float(np.max(np.abs(s_one.u1.data - s_many.u1.data))),
               float(np.max(np.abs(s_one.u2.data - s_many.u2.data))))
    ok &= _check("criterion 8d Schrodinger one step vs 64 steps", sdev <= 1e-12,
                 f"max dev {sdev:.2e}")
    assert ok


def test_criterion_8e_parseval_cross_check():
    rng = np.random.default_rng(31)
    kappa = 48
    f = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    grid = SphereGrid(kappa + 1, 2 * kappa + 2)
    coeff_norm = sobolev_norm(f, 0.0)
    grid_norm = grid_l2_norm(synthesize(f, grid))
    rel = abs(coeff_norm - grid_norm) / coeff_norm
    assert _check("criterion 8e Parseval grid vs coefficients", rel <= 1e-8,
                  f"relative gap {rel:.2e}")


def test_criterion_8f_orthonormality():
    from test_harmonics import _basis_values
    grid = SphereGrid(17, 36)
    basis = _basis_values(grid, 16)
    gram = (basis * oracles.grid_weights(grid).ravel()) @ basis.T
    dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    assert _check("criterion 8f real-basis orthonormality, ell <= 16", dev <= 1e-10,
                  f"max Gram deviation {dev:.2e}")


def test_criterion_8g_increment_covariance():
    ps = PowerSpectrum(alpha=3.0)
    kappa, h, n = 4, 0.5, 100000
    factors = ConvFactorTable.for_wave(kappa, 3, h)
    rng = np.random.default_rng(2718)
    probe = CoefficientField.zeros(kappa)
    indices = {0: 0, 4: oracles.index_of(4, 3, 2)}
    draws = {ell: np.empty((n, 2)) for ell in indices}
    for i in range(n):
        w1, w2 = sample_wave_conv_increments(ps, factors, rng)
        for ell, idx in indices.items():
            draws[ell][i] = w1.data[idx], w2.data[idx]
    ok = True
    for ell, idx in indices.items():
        target = oracles.spectrum_eval(ps, ell) * wave_conv_covariance(ell, 3, h).matrix()
        d = draws[ell]
        prods = np.stack([d[:, 0] ** 2, d[:, 0] * d[:, 1], d[:, 1] ** 2], axis=1)
        est = prods.mean(axis=0)
        stderr = prods.std(axis=0, ddof=1) / math.sqrt(n)
        ref = np.array([target[0, 0], target[0, 1], target[1, 1]])
        dev = np.max(np.abs(est - ref) / stderr)
        ok &= _check(f"criterion 8g increment covariance ell={ell} at 1e5 draws",
                     bool(np.all(np.abs(est - ref) <= 3.0 * stderr)),
                     f"worst deviation {dev:.2f} sigma")
    assert ok


def test_criterion_9_reproducibility(tmp_path):
    runs = [
        ("convergence", "fig1", ["convergence_position.csv", "convergence_position.json",
                                 "convergence_velocity.csv", "convergence_velocity.json"]),
        ("convergence", "sch-fig7", ["convergence_real.csv", "convergence_imag.csv"]),
        ("path-error", "fig5-alpha3", ["path_error_position.csv", "path_error_velocity.csv"]),
        ("weak", "weak-oracle", ["weak_position.csv", "weak_velocity.json"]),
        ("simulate", "fig1", ["trajectory.csv", "final_field.csv"]),
        ("sample-field", "fig1", ["sample_coefficients.csv", "sample_field.csv"]),
    ]
    ok = True
    for command, preset, files in runs:
        dirs = [tmp_path / f"{command}-{preset}-{i}" for i in (0, 1)]
        for d in dirs:
            code = cli.main([command, "--preset", preset, "--output", str(d)])
            assert code == 0
        identical = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
                        for f in files)
        ok &= _check(f"criterion 9 byte-identical re-run: {command} --preset {preset}",
                     identical)
    assert ok

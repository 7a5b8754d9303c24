import math
import tracemalloc

import numpy as np
import pytest

import oracles
from spherewave import harmonics, harness
from spherewave.harmonics import synthesize_tails
from spherewave.cli import PRESETS
from spherewave.harness import (ErrorTable, ExperimentConfig, _TailErrors,
                                _TerminalSampler, _degree_tails,
                                analytic_weak_error_experiment, default_fit_range,
                                fit_rate, pathwise_error_experiment,
                                strong_error_experiment, theoretical_rates,
                                weak_error_experiment)
from spherewave.io import write_coefficient_csv
from spherewave.modes import CoefficientField, degree_offsets, mode_count
from spherewave.spectrum import PowerSpectrum
from oracles import analytic_second_moment
from test_degree_sampler import _write_field


def test_fit_rate_recovers_exact_power_laws():
    ks = [2, 4, 8, 16, 32]
    fit = fit_rate(ks, [k**-2.5 for k in ks])
    assert fit.slope == pytest.approx(-2.5, abs=1e-12)
    assert np.max(np.abs(fit.residuals)) < 1e-12

    flat = fit_rate(ks, [0.7] * len(ks))
    assert flat.slope == pytest.approx(0.0, abs=1e-13)

    biased = fit_rate([2, 4, 8, 16], [k**-2 + 1e-9 for k in [2, 4, 8, 16]])
    assert -2.0 < biased.slope < -1.9


def test_fit_rate_input_validation():
    with pytest.raises(ValueError):
        fit_rate([2, 4], [0.1, 0.2])
    with pytest.raises(ValueError):
        fit_rate([2, 4, 8], [0.1, 0.0, 0.2])


def test_default_fit_range_drops_reference_and_smallest():
    assert default_fit_range([2, 4, 8, 16, 32], 64) == [4, 8, 16, 32]
    assert default_fit_range([2, 4, 8, 64], 64) == [4, 8]


def test_error_table_invariants():
    with pytest.raises(ValueError):
        ErrorTable([4, 2], np.array([0.1, 0.2]), np.zeros(2), -1.0, [4], {})
    with pytest.raises(ValueError):
        ErrorTable([2, 4], np.array([0.1, -0.2]), np.zeros(2), -1.0, [4], {})


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(equation="heat").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kappas=[4, 4, 8]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kappas=[2, 4], kappa_ref=4).validate_experiment()
    with pytest.raises(ValueError):
        ExperimentConfig(samples=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(T=0.0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(dim=4).validate()  # needs wave-dsphere
    with pytest.raises(ValueError):
        ExperimentConfig(equation="wave-dsphere", dim=4, error_kind="max-grid").validate()
    ExperimentConfig(equation="wave-dsphere", dim=4).validate_experiment()


def test_strong_experiment_is_deterministic_and_thread_invariant():
    cfg = ExperimentConfig(alpha=3.0, kappas=[2, 4, 8, 16], kappa_ref=32, samples=10, seed=5)
    a = strong_error_experiment(cfg)
    b = strong_error_experiment(cfg)
    cfg_threads = ExperimentConfig(alpha=3.0, kappas=[2, 4, 8, 16], kappa_ref=32,
                                   samples=10, seed=5, threads=3)
    c = strong_error_experiment(cfg_threads)
    for name in ("position", "velocity"):
        assert np.array_equal(a[name].errors, b[name].errors)
        assert np.array_equal(a[name].errors, c[name].errors)


def test_reference_band_gives_zero_error_by_coupling():
    # the kappa = kappa_ref tail is empty; checked through the internal tail helper
    cfg = ExperimentConfig(alpha=3.0, kappas=[2, 4, 8], kappa_ref=16, samples=1, seed=0)
    c1, _ = _TerminalSampler(cfg).draw([0])
    per_degree = np.add.reduceat(c1**2, np.concatenate(([0], np.cumsum(
        2 * np.arange(cfg.kappa_ref + 1) + 1)[:-1])))
    assert per_degree[cfg.kappa_ref + 1:].sum() == 0.0  # nothing above the reference


def _coefficient_tails(data, cfg):
    """Coefficient-space tail norms of each row of `data`, shape (rows, len(kappas))."""
    return _degree_tails(np.add.reduceat(data**2, degree_offsets(cfg.kappa_ref, cfg.dim),
                                         axis=1), cfg)


@pytest.mark.parametrize("shape", [None, (17, 33), (24, 40)])
def test_synthesized_tails_satisfy_parseval(shape):
    # on a grid whose quadrature is exact for band kappa_ref, the L^2 norm of
    # every synthesized tail equals its coefficient norm: this is why the grid
    # L^2 error kind was dropped in favour of l2-coefficients
    grid = dict(zip(("n_theta", "n_phi"), shape or ()))
    cfg = ExperimentConfig(alpha=3.0, kappas=[2, 4, 8], kappa_ref=16, seed=21, **grid)
    data = _TerminalSampler(cfg).draw(range(4))
    g = cfg.grid()
    squares = [oracles.grid_integrate(g, harmonics._unfold(c, s, g.n_phi) ** 2)
               for c, s in synthesize_tails(data, cfg.kappa_ref, g, cfg.kappas)]
    quadrature = np.sqrt(np.reshape(squares, (len(data), -1))[:, ::-1])
    np.testing.assert_allclose(quadrature, _coefficient_tails(data, cfg), rtol=1e-12)


def test_tables_record_the_sampler():
    base = dict(alpha=3.0, kappas=[2, 4, 8], kappa_ref=16, samples=2, seed=4)
    per_degree = [strong_error_experiment(ExperimentConfig(**base)),
                  pathwise_error_experiment(ExperimentConfig(**base)),
                  weak_error_experiment(ExperimentConfig(**base))]
    per_mode = [experiment(ExperimentConfig(**base, error_kind="max-grid"))
                for experiment in (strong_error_experiment, pathwise_error_experiment)]
    for tables, sampler in [(t, "per-degree") for t in per_degree] + [
            (t, "per-mode") for t in per_mode]:
        for table in tables.values():
            assert table.metadata["sampler"] == sampler
    analytic = analytic_weak_error_experiment(ExperimentConfig(**base))
    assert all(t.metadata["sampler"] == "none" for t in analytic.values())


def test_thread_count_is_not_in_the_metadata():
    tables = strong_error_experiment(ExperimentConfig(alpha=3.0, kappas=[2, 4], kappa_ref=8,
                                                      samples=3, threads=2))
    assert "threads" not in tables["position"].metadata


def test_max_grid_error_dominates_scaled_l2():
    # ||f||_inf >= ||f||_2 / sqrt(4 pi) pointwise on the sphere, per sample
    cfg = ExperimentConfig(alpha=3.0, kappas=[2, 4, 8], kappa_ref=16, samples=1, seed=3,
                           error_kind="max-grid")
    data = _TerminalSampler(cfg).draw(range(5))
    e_max = oracles.grid_tail_errors(data, cfg, cfg.grid())
    e_l2 = _coefficient_tails(data, cfg)
    assert e_max.shape == e_l2.shape == (10, 3)
    assert np.all(e_max >= e_l2 / math.sqrt(4.0 * math.pi) - 1e-12)


def test_pathwise_experiment_single_realization():
    cfg = ExperimentConfig(alpha=3.0, kappas=[2, 4, 8, 16], kappa_ref=64, samples=1, seed=9)
    tables = pathwise_error_experiment(cfg)
    assert set(tables) == {"position", "velocity"}
    pos = tables["position"]
    assert np.all(pos.errors > 0)
    assert np.all(pos.stderrs == 0.0)
    assert pos.metadata["experiment"] == "pathwise"
    again = pathwise_error_experiment(cfg)
    assert np.array_equal(pos.errors, again["position"].errors)


def test_analytic_second_moment_closed_forms():
    zero = oracles.ZERO_SPECTRUM
    assert analytic_second_moment(zero, 4, 1.0) == (0.0, 0.0)

    ps = PowerSpectrum(alpha=3.0, head_value=0.6)
    t = 1.7
    pos, vel = analytic_second_moment(ps, 0, t)
    assert pos == pytest.approx(0.6 * t**3 / 3.0, rel=1e-14)
    assert vel == pytest.approx(0.6 * t, rel=1e-14)


def test_analytic_second_moment_with_deterministic_data():
    # pure initial data, zero noise: the moment is the propagated energy split
    v1 = CoefficientField.zeros(3)
    v1.data[oracles.index_of(1, 0)] = 2.0
    t = 0.4
    pos, vel = analytic_second_moment(oracles.ZERO_SPECTRUM, 3, t, v1=v1)
    assert pos == pytest.approx((2.0 * math.cos(math.sqrt(2.0) * t)) ** 2, rel=1e-13)
    assert vel == pytest.approx((2.0 * math.sqrt(2.0) * math.sin(math.sqrt(2.0) * t)) ** 2,
                                rel=1e-13)


def test_analytic_second_moment_agrees_with_monte_carlo():
    cfg = ExperimentConfig(alpha=3.0, kappas=[2, 4], kappa_ref=16, samples=10000, seed=17)
    sampler = _TerminalSampler(cfg)
    sq_pos = np.empty(cfg.samples)
    sq_vel = np.empty(cfg.samples)
    for i in range(cfg.samples):
        c1, c2 = sampler.draw([i])
        sq_pos[i] = np.sum(c1**2)
        sq_vel[i] = np.sum(c2**2)
    ref_pos, ref_vel = analytic_second_moment(cfg.power_spectrum(), 16, cfg.T)
    for sq, ref in ((sq_pos, ref_pos), (sq_vel, ref_vel)):
        stderr = sq.std(ddof=1) / math.sqrt(cfg.samples)
        assert abs(sq.mean() - ref) <= 3.0 * stderr


def test_weak_mc_agrees_with_analytic_differences():
    cfg = ExperimentConfig(alpha=3.0, kappas=[2, 4, 8], kappa_ref=32, samples=4000, seed=31)
    tables = weak_error_experiment(cfg)
    ps = cfg.power_spectrum()
    ref = analytic_second_moment(ps, cfg.kappa_ref, cfg.T)
    for pos, name in enumerate(("position", "velocity")):
        tab = tables[name]
        for j, k in enumerate(cfg.kappas):
            exact = abs(ref[pos] - analytic_second_moment(ps, k, cfg.T)[pos])
            assert abs(tab.errors[j] - exact) <= 3.0 * max(tab.stderrs[j], 1e-15)


def test_weak_experiment_reference_match_is_exact_zero():
    # phi evaluated on the reference itself cancels under coupling
    cfg = ExperimentConfig(alpha=3.0, kappas=[2, 4, 8], kappa_ref=32, samples=50, seed=2)
    c1, _ = _TerminalSampler(cfg).draw([0])
    full = np.sum(c1**2)
    prefix_full = np.add.reduceat(c1**2, [0]).sum()
    assert prefix_full == pytest.approx(full, rel=1e-15)


def test_weak_oracle_preset_equals_mpmath_tail_sums():
    # each error sums the mean power from the top degree down; a difference of
    # two totals would cancel their leading digits
    cfg = ExperimentConfig(**PRESETS["weak-oracle"])
    tables = analytic_weak_error_experiment(cfg)
    exact = oracles.mp_wave_weak_tails(cfg.power_spectrum(), cfg.kappa_ref, cfg.kappas, cfg.T)
    for name, expected in zip(("position", "velocity"), exact):
        np.testing.assert_allclose(tables[name].errors, expected, rtol=1e-13, atol=0)


def test_analytic_weak_experiment_refuses_the_exp_functional():
    cfg = ExperimentConfig(kappas=[2, 4, 8], kappa_ref=16,
                           weak_functional="exp-neg-squared-norm")
    with pytest.raises(ValueError, match="squared norm only"):
        analytic_weak_error_experiment(cfg)


@pytest.mark.parametrize("params", [
    dict(equation="schrodinger", alpha=4.0, seed=61),
    dict(alpha=3.0, beta=1.5, gamma=0.5, initial_data="random-sobolev", seed=62),
    dict(equation="schrodinger", alpha=4.0, initial_data="file", seed=63),
    dict(equation="wave-dsphere", dim=4, alpha=4.0, initial_data="file", seed=64)],
    ids=["schrodinger-zero", "wave-random-sobolev", "schrodinger-file", "dsphere-d4-file"])
def test_analytic_weak_errors_agree_with_monte_carlo(tmp_path, params):
    if params.get("initial_data") == "file":
        dim = params.get("dim", 3)
        _write_field(tmp_path / "v1.csv", 20, dim, 1, 0.3)
        _write_field(tmp_path / "v2.csv", 12, dim, 2, 0.5)
        params = {**params, "v1_file": str(tmp_path / "v1.csv"),
                  "v2_file": str(tmp_path / "v2.csv")}
    cfg = ExperimentConfig(kappas=[2, 4, 8, 16], kappa_ref=32, samples=4000, **params)
    exact = analytic_weak_error_experiment(cfg)
    mc = weak_error_experiment(cfg)
    for name in cfg.component_names():
        z = np.abs(mc[name].errors - exact[name].errors) / mc[name].stderrs
        assert np.all(z <= 5.0), f"{name}: {z}"


@pytest.mark.parametrize("dim", [3, 4])
def test_analytic_weak_errors_with_file_data_equal_second_moment_differences(tmp_path, dim):
    v1 = _write_field(tmp_path / "v1.csv", 20, dim, 3, 0.3)
    v2 = _write_field(tmp_path / "v2.csv", 12, dim, 4, 0.5)
    cfg = ExperimentConfig(equation="wave" if dim == 3 else "wave-dsphere", dim=dim,
                           alpha=3.0, kappas=[2, 4, 8, 16], kappa_ref=32, initial_data="file",
                           v1_file=str(tmp_path / "v1.csv"), v2_file=str(tmp_path / "v2.csv"))
    tables = analytic_weak_error_experiment(cfg)
    ps = cfg.power_spectrum()
    ref = analytic_second_moment(ps, cfg.kappa_ref, cfg.T, dim, v1, v2)
    for pos, name in enumerate(("position", "velocity")):
        expected = [ref[pos] - analytic_second_moment(ps, k, cfg.T, dim, v1, v2)[pos]
                    for k in cfg.kappas]
        np.testing.assert_allclose(tables[name].errors, expected, rtol=1e-11, atol=0)


def test_analytic_weak_slope_of_synthetic_alpha():
    cfg = ExperimentConfig(alpha=4.0, kappas=[8, 16, 32, 64], kappa_ref=512, samples=1, seed=0)
    tables = analytic_weak_error_experiment(cfg)
    # second-moment errors decay like kappa^-alpha (position), kappa^-(alpha-2) (velocity)
    assert tables["position"].slope == pytest.approx(-4.0, abs=0.3)
    assert tables["velocity"].slope == pytest.approx(-2.0, abs=0.3)


def test_rough_noise_regime_positions_converge_velocities_do_not():
    cfg = ExperimentConfig(alpha=1.0, kappas=[2, 4, 8, 16, 32], kappa_ref=256,
                           samples=20, seed=41)
    tables = strong_error_experiment(cfg)
    pos = tables["position"].errors
    assert np.all(np.diff(pos) < 0)
    assert tables["velocity"].slope > -0.1


def test_theoretical_rates():
    cfg = ExperimentConfig(alpha=3.0)
    assert theoretical_rates(cfg) == {"position": -1.5, "velocity": -0.5}
    cfg4 = ExperimentConfig(equation="wave-dsphere", dim=4, alpha=4.0)
    assert theoretical_rates(cfg4) == {"position": -1.5, "velocity": -0.5}
    data = ExperimentConfig(alpha=10.0, beta=2.0, initial_data="random-sobolev")
    assert theoretical_rates(data) == {"position": -2.0, "velocity": -1.0}
    both = ExperimentConfig(alpha=10.0, beta=2.0, gamma=0.5, initial_data="random-sobolev")
    assert theoretical_rates(both) == {"position": -1.5, "velocity": -0.5}
    sch = ExperimentConfig(equation="schrodinger", alpha=4.0)
    assert theoretical_rates(sch) == {"real": -1.0, "imag": -1.0}


def test_random_initial_data_draw_order_is_stable():
    cfg = ExperimentConfig(alpha=10.0, beta=2.0, initial_data="random-sobolev",
                           kappas=[2, 4], kappa_ref=8, samples=3, seed=77)
    a = strong_error_experiment(cfg)
    b = strong_error_experiment(cfg)
    assert np.array_equal(a["position"].errors, b["position"].errors)


# Grid errors recorded from the per-tail synthesis that preceded the shell
# synthesis (one full synthesis per kappa); the shells must reproduce them.
RECORDED_GRID_ERRORS = [
    (strong_error_experiment,
     dict(alpha=3.0, kappas=[2, 4, 8], kappa_ref=16, samples=3, seed=11, error_kind="max-grid"),
     {"position": [0.10908111366052643, 0.04421295749132558, 0.01671803326112789],
      "velocity": [0.5231202168176088, 0.3524444895939367, 0.19190425882429962]}),
    (pathwise_error_experiment,
     dict(alpha=2.0, kappas=[0, 3, 7, 12], kappa_ref=24, seed=5, error_kind="max-grid",
          n_theta=19, n_phi=30),
     {"position": [0.8212931769608188, 0.14800620293501351, 0.07062383914130962,
                   0.04203813625187407],
      "velocity": [2.0209705446777413, 1.1082557071192514, 0.8918589360287332,
                   0.7741610271330426]}),
    (strong_error_experiment,
     dict(equation="schrodinger", alpha=4.0, kappas=[2, 4, 8, 16], kappa_ref=32, samples=2,
          seed=3, error_kind="max-grid"),
     {"real": [0.22362320187814713, 0.13434671375376075, 0.07159673585988645,
               0.035146134108444665],
      "imag": [0.232381616403561, 0.15367041580447963, 0.07974665881019687,
               0.03454086048345245]}),
]


@pytest.mark.parametrize("experiment,config,recorded", RECORDED_GRID_ERRORS)
def test_grid_errors_match_recorded_per_tail_values(experiment, config, recorded):
    tables = experiment(ExperimentConfig(**config))
    assert set(tables) == set(recorded)
    for name, errors in recorded.items():
        np.testing.assert_allclose(tables[name].errors, errors, rtol=1e-12, atol=0)


# Grid L^2 errors recorded by the per-tail synthesis, before that error kind was
# dropped: by Parseval they are the coefficient tails of the same per-mode draws.
RECORDED_L2_GRID_ERRORS = [
    (3, dict(alpha=3.0, kappas=[2, 4, 8], kappa_ref=16, seed=11),
     {"position": [0.12840330965784766, 0.051488538775597975, 0.01993839627851573],
      "velocity": [0.678310577821851, 0.40913811505088155, 0.23961037700302867]}),
    (1, dict(alpha=2.0, kappas=[1, 5, 6, 20], kappa_ref=24, seed=5),
     {"position": [0.5703459130847862, 0.12041042616218693, 0.10354983543232903,
                   0.018018043142279182],
      "velocity": [1.6588914290593009, 1.1672391516085543, 1.0891498019298795,
                   0.42360656292424403]}),
]


@pytest.mark.parametrize("samples,config,recorded", RECORDED_L2_GRID_ERRORS)
def test_per_mode_coefficient_tails_match_recorded_l2_grid_errors(samples, config, recorded):
    cfg = ExperimentConfig(**config)
    tails = _coefficient_tails(_TerminalSampler(cfg).draw(range(samples)), cfg)
    for j, name in enumerate(cfg.component_names()):
        rms = np.sqrt(np.mean(tails[j::2] ** 2, axis=0))
        np.testing.assert_allclose(rms, recorded[name], rtol=1e-12, atol=0)


def test_l2_grid_error_kind_is_rejected_naming_l2_coefficients():
    cfg = ExperimentConfig(alpha=3.0, kappas=[2, 4, 8], kappa_ref=16, error_kind="l2-grid")
    with pytest.raises(ValueError, match="l2-coefficients"):
        cfg.validate()
    with pytest.raises(ValueError, match="l2-coefficients"):
        strong_error_experiment(cfg)


def test_coarse_max_grid_is_accepted():
    cfg = ExperimentConfig(alpha=3.0, kappas=[2, 4, 8], kappa_ref=16, samples=2,
                           error_kind="max-grid", n_theta=8, n_phi=20)
    cfg.validate_experiment()
    table = strong_error_experiment(cfg)["position"]
    assert np.all(table.errors > 0)
    assert (table.metadata["grid_n_theta"], table.metadata["grid_n_phi"]) == (8, 20)


def test_only_per_mode_samples_use_threads(monkeypatch):
    pools = []

    class CountingPool(harness.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", CountingPool)
    base = dict(alpha=3.0, kappas=[2, 4, 8], kappa_ref=16, samples=3, threads=2)
    strong_error_experiment(ExperimentConfig(**base))
    weak_error_experiment(ExperimentConfig(**base))
    assert pools == []
    strong_error_experiment(ExperimentConfig(**base, error_kind="max-grid"))
    assert pools == [2]


def test_grid_errors_do_not_depend_on_the_chunk_a_sample_lands_in(monkeypatch):
    cfg = ExperimentConfig(alpha=2.0, kappas=[1, 4, 9], kappa_ref=20, samples=7, seed=8,
                           error_kind="max-grid")
    field_bytes = _TailErrors(cfg).field_bytes
    runs = []
    for chunk in (1, 3, cfg.samples):
        monkeypatch.setattr(harness, "SAMPLE_CHUNK_BYTES", 2 * chunk * field_bytes)
        assert _TailErrors(cfg).chunk == chunk
        runs.append(harness._sample_tail_errors(cfg, cfg.samples)[0])
    for run in runs[1:]:
        assert len(run) == cfg.samples
        for sample, reference in zip(run, runs[0]):
            for errors, expected in zip(sample, reference):
                np.testing.assert_allclose(errors, expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n_phi", [1, 2, 3, 4, 7, 8, 514])
def test_grid_errors_equal_the_max_of_the_grids_synthesize_unfolds(monkeypatch, n_phi):
    # max(|C + S|, |C - S|) = |C| + |S| holds in floating point, so the error of
    # each pair of halves is, bit for bit, the max norm of the grid unfolded from it
    cfg = ExperimentConfig(alpha=2.0, kappas=[1, 6], kappa_ref=24, seed=3, n_theta=13,
                           n_phi=n_phi, error_kind="max-grid")
    tails = _TailErrors(cfg)
    recorded = []

    def recording(*args):
        for halves in synthesize_tails(*args):
            recorded.append(halves.copy())
            yield halves

    monkeypatch.setattr(harness, "synthesize_tails", recording)
    errors = tails.sample(range(2))
    maxima = []
    for halves in recorded:  # field by field, largest tail first
        sin = halves[1]
        assert np.all(sin[0] == 0.0) and (n_phi % 2 or np.all(sin[n_phi // 2] == 0.0))
        monkeypatch.setattr(harmonics, "synthesize_tails", lambda *args, h=halves: iter([h]))
        values = harmonics.synthesize(CoefficientField.zeros(cfg.kappa_ref), tails.grid).values
        maxima.append(np.max(np.abs(values)))
    assert len(recorded) == 4 * len(cfg.kappas)
    assert np.array_equal(errors, np.reshape(maxima, errors.shape)[:, ::-1])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_grid_error_memory_grows_per_field_by_its_profiles_never_by_a_grid():
    kappa, n_theta, n_phi = 16, 17, 600
    cfg = ExperimentConfig(alpha=2.0, kappas=[2, 4, 8], kappa_ref=kappa, seed=1,
                           n_theta=n_theta, n_phi=n_phi, error_kind="max-grid")
    tails = _TailErrors(cfg)
    tails.sample(range(1))  # the phase tables are cached
    # per field: the theta profiles of the shells (2, 4], (4, 8], (8, 16] and their
    # staged even and odd sums at the 9 northern colatitudes, and the packed
    # coefficients; the drawn coefficients are freed once packed
    profiles = 8 * 2 * (5 + 9 + 17) * n_theta
    staged = 8 * 2 * harmonics.FOLD_ORDERS * 2 * (n_theta + 1) // 2
    packed = 8 * 2 * (kappa + 1) * (kappa + 2) // 2
    per_field = profiles + staged + packed
    assert tails.field_bytes == per_field
    assert 4 * per_field < 8 * n_theta * n_phi
    assert (_traced_peak(tails.sample, range(3)) - _traced_peak(tails.sample, range(1))
            <= 4 * per_field)


def test_grid_error_chunk_depends_on_kappa_ref_the_grid_and_the_kappas_only(monkeypatch):
    base = dict(alpha=1.0, kappas=[2, 4, 8, 16, 32], kappa_ref=256, error_kind="max-grid")
    for threads, samples, memory in [(1, 6, None), (2, 100, 64 * 10**9), (8, 1, 8 * 10**9)]:
        monkeypatch.setattr(harmonics, "_physical_memory", lambda: memory)
        cfg = ExperimentConfig(**base, threads=threads, samples=samples)
        assert _TailErrors(cfg).chunk == 17
    # above kappa_ref 256 the budget grows with a field, so chunks keep several
    # samples, up to a worker of MAX_WORKER_BYTES; more shells hold more profiles
    def chunk(k, kappas):
        shape = harmonics.GridShape(k + 1, 2 * k + 2)
        return harness._sample_chunk(k, *harness._grid_working_set(k, shape, kappas))
    assert [chunk(k, base["kappas"]) for k in (256, 512, 1024)] == [17, 19, 14]
    assert chunk(1024, [4, 8, 16, 32, 64, 128, 256, 512]) == 8


@pytest.mark.parametrize("kappa_ref,kappas,n_theta,n_phi,initial", [
    (64, [2, 4, 8, 16, 32], None, None, "zero"),
    (64, [*range(4, 64, 4), 62], None, None, "zero"),
    (40, [3, 10, 21], 33, 67, "random-sobolev")])
def test_a_chunk_holds_at_most_its_working_set(kappa_ref, kappas, n_theta, n_phi, initial):
    cfg = ExperimentConfig(alpha=2.0, kappas=kappas, kappa_ref=kappa_ref, seed=3,
                           n_theta=n_theta, n_phi=n_phi, error_kind="max-grid",
                           initial_data=initial, beta=2.0, gamma=1.5)
    tails = _TailErrors(cfg)
    tails.sample(range(1))  # the phase tables and the degree tables are cached
    chunk = range(tails.chunk)
    assert tails.chunk > 1
    assert _traced_peak(tails.sample, chunk) <= tails.worker_bytes


def test_grid_error_memory_does_not_grow_with_the_samples():
    cfg = dict(alpha=1.0, kappas=[2, 4, 8, 16, 32], kappa_ref=64, seed=4, error_kind="max-grid")
    chunk = _TailErrors(ExperimentConfig(**cfg)).chunk

    def traced_peak(samples):
        tracemalloc.start()
        try:
            strong_error_experiment(ExperimentConfig(**cfg, samples=samples))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the smaller run fills one chunk; the larger runs four
    assert traced_peak(4 * chunk) <= 1.3 * traced_peak(chunk)


@pytest.mark.parametrize("equation,kind,experiment", [
    ("wave", "max-grid", strong_error_experiment),
    ("wave", "max-grid", pathwise_error_experiment),
    ("wave", "l2-coefficients", strong_error_experiment),
    ("schrodinger", "max-grid", strong_error_experiment),
    ("wave", "l2-coefficients", analytic_weak_error_experiment)])
def test_initial_data_file_of_another_dimension_is_rejected(tmp_path, equation, kind,
                                                            experiment):
    path = tmp_path / "v1-dim4.csv"
    write_coefficient_csv(str(path), CoefficientField(np.ones(mode_count(2, 4)), 2, 4))
    cfg = ExperimentConfig(equation=equation, alpha=3.0, kappas=[1, 2, 4], kappa_ref=8,
                           samples=2, seed=1, error_kind=kind, initial_data="file",
                           v1_file=str(path))
    with pytest.raises(ValueError, match=r"v1-dim4\.csv: initial data has dim=4, "
                                         r"the experiment needs dim=3"):
        experiment(cfg)


def _refuse(*args, **kwargs):
    raise AssertionError("no worker may start before the memory check")


def test_thread_count_beyond_physical_memory_is_refused_before_sampling(monkeypatch):
    monkeypatch.setattr(harness, "SAMPLE_CHUNK_BYTES", 1)  # one sample per chunk
    cfg = dict(alpha=1.0, kappas=[2, 4], kappa_ref=16, samples=4, seed=2, error_kind="max-grid")
    worker = _TailErrors(ExperimentConfig(**cfg)).worker_bytes
    # room for one worker but not for two
    monkeypatch.setattr(harness.harmonics, "_physical_memory", lambda: int(1.5 * worker))
    with monkeypatch.context() as m:
        m.setattr(harness, "ThreadPoolExecutor", _refuse)
        m.setattr(_TerminalSampler, "draw", _refuse)
        with pytest.raises(ValueError) as info:
            strong_error_experiment(ExperimentConfig(**cfg, threads=2))
    message = str(info.value)
    assert "--threads 2" in message and f"{worker / 1e6:.0f} MB per worker" in message
    assert f"{1.5 * worker / 1e9:.3g} GB of physical memory" in message
    # one worker fits, and so does a run of one chunk on any thread count
    one = strong_error_experiment(ExperimentConfig(**cfg, threads=1))
    two = strong_error_experiment(ExperimentConfig(**{**cfg, "samples": 1}, threads=8))
    assert one["position"].errors.shape == two["position"].errors.shape == (2,)


def test_worker_bytes_count_one_chunk_of_fields_and_the_largest_legendre_block():
    kappa = 40
    cfg = ExperimentConfig(alpha=1.0, kappas=[2, 4, 8], kappa_ref=kappa, error_kind="max-grid")
    tails = _TailErrors(cfg)
    grid = tails.grid
    blocks = [block.nbytes for _, _, block in harmonics._legendre_blocks(
        cfg.kappa_ref, grid.theta[:(grid.n_theta + 1) // 2])]
    # per field the packed coefficients, the profiles of the shells (2, 4], (4, 8],
    # (8, 40] and the staged sums; per worker the six phi half grids and the
    # draw's per-mode arrays beside the largest block
    field = 8 * ((kappa + 1) * (kappa + 2) + 2 * (5 + 9 + 41) * grid.n_theta
                 + 2 * harmonics.FOLD_ORDERS * 2 * (grid.n_theta + 1) // 2)
    halves = 6 * 8 * (grid.n_phi // 2 + 1) * grid.n_theta
    draw = 8 * harness.DRAW_MODE_ARRAYS * mode_count(kappa, 3)
    assert tails.field_bytes == field
    assert tails.worker_bytes == 2 * tails.chunk * field + max(blocks) + halves + draw

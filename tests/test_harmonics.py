import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spherewave import harmonics
from spherewave.harmonics import (MAX_SYNTHESIS_BAND, SphereGrid, GridField,
                                  normalized_legendre_table, synthesis_bytes, synthesize,
                                  synthesize_tails, _legendre_blocks, _pair_offsets)
from spherewave.modes import CoefficientField, harmonic_dimension, laplacian_lambdas, mode_count

import oracles
from oracles import (assoc_legendre, grid_l2_norm, grid_max_abs, laplacian_eigenvalue,
                     loop_legendre_table, normalization_factor, normalized_legendre,
                     rodrigues_legendre, symbolic_assoc_legendre, tail_values_by_modes)

FOUR_PI = 4.0 * math.pi


def _table_entry(ell, m, theta):
    """Lbar_{ell,m}(theta) from the package's table of the single order m."""
    return float(normalized_legendre_table(ell, [theta], m, m + 1)[ell - m, 0])


@pytest.mark.parametrize("ell", range(13))
@pytest.mark.parametrize("mu", [-1.0, -0.73, -0.2, 0.0, 0.31, 0.5, 0.99, 1.0])
def test_zonal_table_rows_match_rodrigues_oracle(ell, mu):
    # P_ell = sqrt(4 pi / (2 ell + 1)) Lbar_{ell,0}
    expected = rodrigues_legendre(ell, mu)
    got = math.sqrt(FOUR_PI / (2 * ell + 1)) * _table_entry(ell, 0, math.acos(mu))
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_assoc_legendre_reduces_to_legendre_at_m0():
    assert assoc_legendre(2, 0, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_assoc_legendre_spec_values():
    # P_{1,1}(mu) = -(1 - mu^2)^(1/2), P_{2,1}(mu) = -3 mu (1 - mu^2)^(1/2)
    assert assoc_legendre(1, 1, 0.0) == pytest.approx(-1.0, abs=1e-15)
    assert assoc_legendre(2, 1, 0.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("ell,m", [(1, 1), (2, 1), (3, 2), (5, 0), (6, 6), (9, 4), (12, 7)])
@pytest.mark.parametrize("mu", [-0.9, -0.25, 0.0, 0.4, 0.8])
def test_assoc_legendre_matches_symbolic_oracle(ell, m, mu):
    expected = symbolic_assoc_legendre(ell, m, mu)
    assert assoc_legendre(ell, m, mu) == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_assoc_legendre_domain_errors():
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre(2, 1, -1.5)


def test_normalized_legendre_constant_mode():
    for theta in (0.0, 0.4, 1.1, math.pi):
        assert _table_entry(0, 0, theta) == pytest.approx(1.0 / math.sqrt(FOUR_PI), rel=1e-15)


def test_normalized_legendre_dipole():
    # L_{1,0}(theta) = sqrt(3/(4 pi)) cos(theta)
    for theta in (0.0, 0.7, 2.0):
        expected = math.sqrt(3.0 / FOUR_PI) * math.cos(theta)
        assert _table_entry(1, 0, theta) == pytest.approx(expected, rel=1e-14, abs=1e-15)
    assert _table_entry(1, 0, 0.0) == pytest.approx(0.48860251190291987, rel=1e-14)


def test_normalized_legendre_high_order_stays_finite():
    # frozen mpmath value of sqrt(129/(4 pi)/128!) * 127!!
    value = _table_entry(64, 64, math.pi / 2)
    assert value == pytest.approx(0.85002823179514923, rel=1e-12)
    # no overflow/underflow far beyond the factorial-overflow regime
    big = _table_entry(2048, 2048, math.pi / 2)
    assert np.isfinite(big) and big != 0.0


@pytest.mark.parametrize("ell,m", [(3, 0), (4, 2), (7, 7), (10, 1), (12, 12)])
def test_normalized_legendre_matches_assoc_times_factor(ell, m):
    for theta in (0.3, 1.2, 2.6):
        expected = normalization_factor(ell, m) * assoc_legendre(ell, m, math.cos(theta))
        assert _table_entry(ell, m, theta) == pytest.approx(expected, rel=1e-12)


def test_normalized_table_matches_scalar_path():
    theta = np.array([0.2, 1.0, 2.2])
    kappa = 9
    table = normalized_legendre_table(kappa, theta)
    offsets = _pair_offsets(kappa)
    for m in range(kappa + 1):
        for ell in range(m, kappa + 1):
            row = table[offsets[m] + ell - m]
            for i, th in enumerate(theta):
                assert row[i] == pytest.approx(normalized_legendre(ell, m, th), rel=1e-13, abs=1e-15)


def test_laplacian_eigenvalue_integer_exact():
    for ell in range(0, 50):
        assert laplacian_eigenvalue(ell, 3) == -(ell * (ell + 1))
    assert laplacian_eigenvalue(0, 3) == 0.0
    assert laplacian_eigenvalue(1, 3) == -2.0
    assert laplacian_eigenvalue(2, 4) == -8.0


@pytest.mark.parametrize("dim", range(3, 9))
def test_laplacian_lambdas_equal_the_scalar_eigenvalues_bit_for_bit(dim):
    for kappa in (0, 1, 7, 2000):
        expected = np.array([-laplacian_eigenvalue(ell, dim) for ell in range(kappa + 1)])
        got = laplacian_lambdas(kappa, dim)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_harmonic_dimension_values():
    assert harmonic_dimension(0, 5) == 1
    for ell in range(11):
        assert harmonic_dimension(ell, 3) == 2 * ell + 1
    assert harmonic_dimension(2, 4) == 9
    for ell in range(8):
        assert harmonic_dimension(ell, 4) == (ell + 1) ** 2


def test_grid_weights_sum_to_sphere_area():
    for n_theta, n_phi in [(8, 16), (17, 36), (65, 130)]:
        grid = SphereGrid(n_theta, n_phi)
        total = oracles.grid_weights(grid).sum()
        assert total == pytest.approx(FOUR_PI, rel=1e-12)


def _basis_values(grid, kappa):
    """All real basis functions evaluated on the grid, via the scalar routine."""
    n_pts = grid.n_theta * grid.n_phi
    values = np.zeros((mode_count(kappa, 3), n_pts))
    theta = np.repeat(grid.theta, grid.n_phi)
    phi = np.tile(grid.phi, grid.n_theta)
    row = 0
    for ell in range(kappa + 1):
        l_vals = {m: np.array([normalized_legendre(ell, m, t) for t in grid.theta])
                  for m in range(ell + 1)}
        values[row] = np.repeat(l_vals[0], grid.n_phi)
        row += 1
        for m in range(1, ell + 1):
            base = math.sqrt(2.0) * np.repeat(l_vals[m], grid.n_phi)
            values[row] = base * np.cos(m * phi)
            values[row + 1] = base * np.sin(m * phi)
            row += 2
    return values


def test_real_basis_orthonormality():
    kappa = 16
    grid = SphereGrid(17, 36)
    basis = _basis_values(grid, kappa)
    w = oracles.grid_weights(grid).ravel()
    gram = (basis * w) @ basis.T
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


def test_synthesize_constant_and_dipole():
    grid = SphereGrid(12, 24)
    c = CoefficientField.zeros(2)
    c.data[oracles.index_of(0, 0)] = 1.0
    f = synthesize(c, grid)
    assert np.allclose(f.values, 1.0 / math.sqrt(FOUR_PI), rtol=1e-14)

    c = CoefficientField.zeros(2)
    c.data[oracles.index_of(1, 0)] = 1.0
    f = synthesize(c, grid)
    expected = math.sqrt(3.0 / FOUR_PI) * np.cos(grid.theta)[:, None]
    assert np.allclose(f.values, np.broadcast_to(expected, f.values.shape), atol=1e-14)
    # value approaches sqrt(3/4pi) ~ 0.48860 at the north pole
    north = synthesize(c, SphereGrid(64, 4))
    assert north.values[0, 0] == pytest.approx(0.48860, abs=5e-3)


def test_synthesize_parseval_small_band():
    rng = np.random.default_rng(42)
    kappa = 8
    c = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    grid = SphereGrid(32, 40)
    f = synthesize(c, grid)
    quad = oracles.grid_integrate(grid, f.values**2)
    assert quad == pytest.approx(np.sum(c.data**2), rel=1e-10)


def test_synthesize_parseval_large_band():
    rng = np.random.default_rng(7)
    kappa = 64
    c = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    grid = SphereGrid(kappa + 1, 2 * kappa + 2)
    f = synthesize(c, grid)
    assert grid_l2_norm(f) ** 2 == pytest.approx(np.sum(c.data**2), rel=1e-8)


def test_synthesize_rejects_higher_dimensions():
    c = CoefficientField.zeros(2, dim=4)
    with pytest.raises(ValueError):
        synthesize(c, SphereGrid(8, 8))


def test_grid_norms():
    grid = SphereGrid(10, 20)
    zero = GridField(np.zeros((10, 20)), grid)
    assert grid_l2_norm(zero) == 0.0
    assert grid_max_abs(zero) == 0.0

    const = GridField(np.full((10, 20), -2.5), grid)
    assert grid_l2_norm(const) == pytest.approx(2.5 * math.sqrt(FOUR_PI), rel=1e-12)
    assert grid_max_abs(const) == 2.5

    c = CoefficientField.zeros(3)
    c.data[oracles.index_of(1, 0)] = 1.0
    f = synthesize(c, SphereGrid(16, 16))
    assert grid_l2_norm(f) == pytest.approx(1.0, abs=1e-10)


def test_grid_field_shape_validation():
    grid = SphereGrid(4, 8)
    with pytest.raises(ValueError):
        GridField(np.zeros((5, 8)), grid)


def test_vectorized_table_is_bit_identical_to_the_loop():
    theta = _table_thetas()
    for kappa in (0, 1, 2, 5, 64):
        assert np.array_equal(normalized_legendre_table(kappa, theta),
                              loop_legendre_table(kappa, theta))


def _table_thetas():
    grid = SphereGrid(65, 8)
    return np.concatenate([grid.theta, [0.0, 0.05, math.asin(1.0 / math.e), math.pi]])


@pytest.mark.parametrize("kappa", [0, 1, 5, 64])
def test_order_ranges_concatenate_to_the_full_table(kappa):
    theta = _table_thetas()
    full = normalized_legendre_table(kappa, theta)
    for width in (1, 7, kappa + 1):
        blocks = [normalized_legendre_table(kappa, theta, m0, min(m0 + width, kappa + 1))
                  for m0 in range(0, kappa + 1, width)]
        assert np.array_equal(np.concatenate(blocks), full), width


def test_order_range_must_lie_within_the_band():
    for m0, m1 in [(0, 0), (3, 2), (-1, 2), (0, 7)]:
        with pytest.raises(ValueError, match="need 0 <= m0 < m1 <= kappa"):
            normalized_legendre_table(5, [0.3], m0, m1)


@pytest.mark.parametrize("budget_rows,kappa", [(1, 9), (10, 9), (40, 9), (10**6, 30)])
def test_legendre_blocks_cover_the_orders_within_the_budget(monkeypatch, budget_rows, kappa):
    theta = np.array([0.2, 1.0, 1.5])
    monkeypatch.setattr(harmonics, "LEGENDRE_BLOCK_BYTES", budget_rows * 8 * theta.size)
    blocks = list(_legendre_blocks(kappa, theta))
    assert [m0 for m0, _, _ in blocks] == [0] + [m1 for _, m1, _ in blocks[:-1]]
    assert blocks[-1][1] == kappa + 1
    offsets = _pair_offsets(kappa)
    for m0, m1, rows in blocks:
        # a block holds at most the budget, or one order that alone exceeds it
        assert rows.shape[0] <= budget_rows or m1 == m0 + 1
        assert m1 == kappa + 1 or offsets[m1 + 1] - offsets[m0] > budget_rows
    assert np.array_equal(np.concatenate([rows for *_, rows in blocks]),
                          normalized_legendre_table(kappa, theta))


def test_default_block_budget_keeps_small_tables_whole():
    # the northern half of the default grid for kappa 128
    assert len(list(_legendre_blocks(128, SphereGrid(129, 258).theta[:65]))) == 1


@pytest.mark.parametrize("kappa,orders", [
    (254, [(0, 255)]), (255, [(0, 240), (240, 256)]), (256, [(0, 221), (221, 257)])])
def test_the_default_grid_table_is_one_block_up_to_kappa_254(kappa, orders):
    n_north = (kappa + 2) // 2  # of the default grid, n_theta = kappa + 1
    assert harmonics._block_orders(kappa, n_north) == orders


def test_addition_theorem_holds_at_the_synthesis_guard():
    # sum_m (2 - delta_m0) Lbar_{ell,m}^2 = (2 ell + 1)/(4 pi) for every ell up to
    # the guard; sin(theta) = 1/e is where the order-m seeds underflow first
    kappa = MAX_SYNTHESIS_BAND
    theta = np.array([math.asin(1.0 / math.e), math.pi / 6, 0.05])
    table = normalized_legendre_table(kappa, theta)
    offsets = _pair_offsets(kappa)
    m = np.repeat(np.arange(kappa + 1), np.diff(offsets))
    ell = np.arange(offsets[-1]) - offsets[m] + m
    weight = np.where(m == 0, 1.0, 2.0)
    expected = (2.0 * np.arange(kappa + 1) + 1.0) / FOUR_PI
    for col in range(theta.size):
        sums = np.bincount(ell, weights=weight * table[:, col] ** 2, minlength=kappa + 1)
        assert np.max(np.abs(sums / expected - 1.0)) < 1e-11, theta[col]


def test_synthesis_above_the_guard_is_rejected():
    with pytest.raises(ValueError, match="exceeds synthesis maximum"):
        synthesize(CoefficientField.zeros(MAX_SYNTHESIS_BAND + 1), SphereGrid(2, 2))


def test_synthesis_fails_before_allocating_beyond_physical_memory(monkeypatch):
    grid = SphereGrid(65, 2000)
    coeffs = CoefficientField.zeros(64)
    monkeypatch.setattr(harmonics, "_physical_memory", lambda: 10**6)
    for name in ("normalized_legendre_table", "_packed_coefficients"):
        monkeypatch.setattr(harmonics, name,
                            lambda *a: pytest.fail("allocated despite the memory check"))
    # the field's packed coefficients, theta profiles and staged sums (2 x 2145 +
    # 130 x 65 + 4 x 8 x 33 values), its grid (65 x 2000), and per call the
    # Legendre table (2145 x 33) and six half grids (6 x 1001 x 65): 4,839,768 bytes,
    # and the phase tables (3 x 1001 x 65 + 10 x 2000 values): 1,721,560 bytes
    with pytest.raises(ValueError, match=r"synthesis of 1 field at kappa=64 on a 65 x 2000 grid "
                                         r".*: the arrays and 0\.00172 GB of phase tables need "
                                         r"about 0\.00656 GB, more than the 0\.001 GB"):
        synthesize(coeffs, grid)
    assert grid._phase_tables == {}
    monkeypatch.undo()
    monkeypatch.setattr(harmonics, "_physical_memory", lambda: None)  # unknown: no check
    assert synthesize(coeffs, grid).values.shape == (65, 2000)


def test_synthesis_counts_the_phase_table_before_building_it(monkeypatch):
    # one field of 1 x 100000 points needs 4.0 MB: its coefficients and their packed
    # copy (201^2 + 201 x 202 values) and its grid (100000), the Legendre table
    # (20301 x 1) and six half grids (6 x 50001 x 1); its phase tables need 249 MB
    grid = SphereGrid(1, 100000)
    coeffs = CoefficientField.zeros(200)
    monkeypatch.setattr(harmonics, "_physical_memory", lambda: 50 * 10**6)
    for name in ("_unit_circle", "normalized_legendre_table", "_packed_coefficients"):
        monkeypatch.setattr(harmonics, name,
                            lambda *a: pytest.fail("allocated despite the memory check"))
    with pytest.raises(ValueError, match=r"the arrays and 0\.249 GB of phase tables need about "
                                         r"0\.253 GB, more than the 0\.05 GB of physical memory"):
        synthesize(coeffs, grid)
    assert grid._phase_tables == {}


def test_phase_table_bytes_bound_the_build():
    grid = SphereGrid(3, 5000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = grid.phase_tables(60)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the gather's index array is as large as one of the two tables
    assert 1.5 * tables.nbytes < peak <= harmonics.phase_table_bytes(60, grid.n_phi)


def test_theta_profiles_hold_one_legendre_block_at_a_time(monkeypatch):
    kappa, n_fields = 96, 2
    grid = SphereGrid(kappa + 1, 2 * kappa + 2)
    north = grid.theta[:(grid.n_theta + 1) // 2]
    budget = 512 * 2**10
    monkeypatch.setattr(harmonics, "LEGENDRE_BLOCK_BYTES", budget)
    assert len(list(_legendre_blocks(kappa, north))) >= 3
    data = np.random.default_rng(1).standard_normal((n_fields, mode_count(kappa, 3)))
    packed = harmonics._packed_coefficients(data, kappa)
    shells = [(4, 20), (20, kappa)]
    profiles = 8 * sum(2 * (hi + 1) * n_fields * grid.n_theta for _, hi in shells)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        harmonics._theta_profiles(packed, kappa, grid, shells)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the slack covers a block's seeds and recurrence rows and the staged sums
    assert peak <= budget + profiles + 256 * 2**10


def test_the_theta_stage_holds_no_storage_order_stack(monkeypatch):
    kappa, n_fields = 96, 8
    grid = SphereGrid(kappa + 1, 2 * kappa + 2)
    budget = 512 * 2**10
    monkeypatch.setattr(harmonics, "LEGENDRE_BLOCK_BYTES", budget)
    grid.phase_tables(kappa)  # cached
    rng = np.random.default_rng(1)
    profiles = 8 * 2 * n_fields * grid.n_theta * (21 + 97)  # the shells (4, 20], (20, 96]
    packed = 8 * 2 * n_fields * _pair_offsets(kappa)[-1]
    stack = 8 * n_fields * mode_count(kappa, 3)
    tracemalloc.start()
    try:
        # only the generator holds the drawn stack, and it drops it once packed
        tails = synthesize_tails(rng.standard_normal((n_fields, mode_count(kappa, 3))),
                                 kappa, grid, [4, 20])
        next(tails)  # the theta stage, then the first field's top shell
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the slack covers a block's seeds and recurrence rows and the staged sums;
    # holding the stack through the theta stage would exceed it
    slack = 256 * 2**10
    assert stack > slack and peak <= budget + profiles + packed + slack


def test_a_stack_is_refused_on_its_fields_before_allocating(monkeypatch):
    kappa, kappas = 32, [4, 16]
    grid = SphereGrid(kappa + 1, 2 * kappa + 2)
    field, call, shared = synthesis_bytes(kappa, grid.n_theta, grid.n_phi, kappas)
    data = np.zeros((8, mode_count(kappa, 3)))
    # room for four fields beside the per-call and shared bytes, not for eight
    monkeypatch.setattr(harmonics, "_physical_memory", lambda: 4 * field + call + shared)
    with monkeypatch.context() as m:
        for name in ("normalized_legendre_table", "_packed_coefficients", "_unit_circle"):
            m.setattr(harmonics, name, lambda *a: pytest.fail("allocated despite the memory check"))
        need = (8 * field + call + shared) / 1e9
        with pytest.raises(ValueError, match=rf"synthesis of 8 fields at kappa=32 on a 33 x 66 "
                                             rf"grid \(n_theta x n_phi\): .* need about "
                                             rf"{need:.3g} GB"):
            next(synthesize_tails(data, kappa, grid, kappas))
    assert grid._phase_tables == {}
    assert len(list(synthesize_tails(data[:4], kappa, grid, kappas))) == 4 * len(kappas)


@pytest.mark.parametrize("kappas", [[4], [2, 8, 16, 32]])
def test_synthesis_bytes_bound_the_traced_peak_of_a_stack(kappas):
    kappa = 48
    grid = SphereGrid(kappa + 1, 2 * kappa + 2)
    grid.phase_tables(kappa)  # cached: shared by every call on the grid
    field, call, _ = synthesis_bytes(kappa, grid.n_theta, grid.n_phi, kappas)
    data = np.random.default_rng(0).standard_normal((8, mode_count(kappa, 3)))
    for n_fields in (1, 2, 8):
        tracemalloc.start()
        try:
            for _ in synthesize_tails(data[:n_fields], kappa, grid, kappas):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n_fields * field + call


def _tails(data, kappa, grid, kappas):
    """Unfolded tail grids, largest first, each of shape (B, n_theta, n_phi)."""
    fields = [harmonics._unfold(c, s, grid.n_phi)
              for c, s in synthesize_tails(data, kappa, grid, kappas)]
    return [np.stack(fields[i::len(kappas)]) for i in range(len(kappas))]


@pytest.mark.parametrize("n_theta,n_phi,kappas", [
    (25, 50, [2, 4, 8, 16]),        # default grid for kappa 24
    (23, 47, [3, 10]),              # odd grid sizes
    (30, 17, [1, 5]),               # n_phi < 2 kappa + 1: point values stay exact
    (25, 50, [1, 7, 8, 15]),        # gaps and a one-degree shell
    (25, 50, [0]),
    (1, 3, [0, 5]),                 # the equator alone
    (2, 5, [-1, 3]),                # one row per hemisphere
])
def test_shell_tails_match_mode_by_mode_tails(n_theta, n_phi, kappas):
    kappa = 24
    rng = np.random.default_rng(n_theta * 100 + n_phi)
    data = rng.standard_normal((3, mode_count(kappa, 3)))
    grid = SphereGrid(n_theta, n_phi)
    got = _tails(data, kappa, grid, kappas)
    assert len(got) == len(kappas)
    for values, k in zip(got, reversed(kappas)):
        assert values.shape == (3, n_theta, n_phi)
        for field, coeffs in zip(values, data):
            expected = tail_values_by_modes(coeffs, kappa, grid.theta, grid.phi, k)
            np.testing.assert_allclose(field, expected, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(expected)))


_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


@_PROPERTY
@given(st.data())
def test_batched_tails_match_mode_by_mode_tails(draw):
    kappa = draw.draw(st.integers(1, 24), label="kappa")
    n_fields = draw.draw(st.integers(1, 5), label="fields")
    kappas = sorted(draw.draw(st.sets(st.integers(-1, kappa - 1), min_size=1, max_size=4),
                              label="kappas"))
    n_theta = draw.draw(st.integers(1, kappa + 3), label="n_theta")
    n_phi = draw.draw(st.integers(1, 2 * kappa + 3), label="n_phi")
    seed = draw.draw(st.integers(0, 2**32 - 1), label="seed")
    data = np.random.default_rng(seed).standard_normal((n_fields, mode_count(kappa, 3)))
    grid = SphereGrid(n_theta, n_phi)
    got = _tails(data, kappa, grid, kappas)
    assert len(got) == len(kappas)
    for values, k in zip(got, reversed(kappas)):
        for field, coeffs in zip(values, data):
            expected = tail_values_by_modes(coeffs, kappa, grid.theta, grid.phi, k)
            np.testing.assert_allclose(field, expected, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(expected)))


@_PROPERTY
@given(kappa=st.integers(0, 24), n_fields=st.integers(1, 5), extra_theta=st.integers(0, 3),
       extra_phi=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_batched_synthesis_keeps_parseval_on_exact_grids(kappa, n_fields, extra_theta,
                                                         extra_phi, seed):
    data = np.random.default_rng(seed).standard_normal((n_fields, mode_count(kappa, 3)))
    grid = SphereGrid(kappa + 1 + extra_theta, 2 * kappa + 1 + extra_phi)
    (values,) = _tails(data, kappa, grid, [-1])
    for field, coeffs in zip(values, data):
        assert oracles.grid_integrate(grid, field**2) == pytest.approx(np.sum(coeffs**2), rel=1e-12)


@_PROPERTY
@given(n_theta=st.integers(1, 600))
def test_grid_nodes_are_exactly_antisymmetric(n_theta):
    # the hemisphere fold evaluates the Legendre rows at the northern colatitudes
    # only and mirrors them: southern row n_theta - 1 - i must be the reflection
    # of northern row i
    grid = SphereGrid(n_theta, 3)
    nodes = harmonics.gauss_legendre(n_theta)[0]
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(grid.theta, np.arccos(nodes))
    assert np.array_equal(grid.theta_weights, grid.theta_weights[::-1])
    # the Newton nodes agree with the eigenvalue nodes of numpy's leggauss
    assert np.max(np.abs(nodes[::-1] - np.polynomial.legendre.leggauss(n_theta)[0])) <= 2.3e-16
    north = (n_theta + 1) // 2
    assert np.all(grid.theta[:north] <= math.pi / 2) and np.all(grid.theta[north:] > math.pi / 2)


# With an extended np.longdouble the last Newton pass lands the weights within
# about an ulp of the exact ones; where long double is double, within 1e-13.
_WEIGHT_SLACK = 0.0 if np.finfo(np.longdouble).eps < np.finfo(float).eps else 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 257])
def test_gauss_legendre_weights_are_no_worse_than_leggauss(n):
    nodes, weights = harmonics.gauss_legendre(n)
    north = (n + 1) // 2
    exact = oracles.mp_gauss_legendre(n, nodes[:north])
    exact_weights = np.array([float(w) for _, w in exact])
    exact_weights = np.concatenate([exact_weights, exact_weights[:n // 2][::-1]])
    error = np.abs(weights / exact_weights - 1.0)
    leggauss = np.abs(np.polynomial.legendre.leggauss(n)[1][::-1] / exact_weights - 1.0)
    assert np.all(error <= leggauss + _WEIGHT_SLACK)
    # leggauss is off by 1.3e-12 at n = 64 and 1.4e-10 at the pole node of n = 257
    assert np.max(error) <= 2.3e-16 + _WEIGHT_SLACK
    assert np.max(np.abs(nodes[:north] - np.array([float(x) for x, _ in exact]))) <= 1.2e-16


def test_gauss_legendre_nodes_need_a_positive_count():
    with pytest.raises(ValueError, match="at least one node"):
        harmonics.gauss_legendre(0)


@pytest.mark.parametrize("kappa,n_phi", [(256, 514), (1024, 2050), (40, 97)])
def test_phase_table_matches_the_exactly_reduced_angles(kappa, n_phi):
    import mpmath

    grid = SphereGrid(1, n_phi)
    with mpmath.workdps(30):
        circle = [(mpmath.cos(2 * mpmath.pi * r / n_phi), mpmath.sin(2 * mpmath.pi * r / n_phi))
                  for r in range(n_phi)]
        scaled = np.array([[float(c * mpmath.sqrt(2)), float(s * mpmath.sqrt(2))]
                           for c, s in circle])
    reduced = np.outer(np.arange(n_phi // 2 + 1), np.arange(kappa + 1)) % n_phi
    expected = scaled[reduced].transpose(2, 0, 1)
    expected[:, :, 0] = [[1.0], [0.0]]  # order 0 carries no sqrt(2)
    # cos(m phi_j) from the rounded product m phi_j is off by up to 5.1e-13 at kappa 256
    assert np.max(np.abs(grid.phase_tables(kappa) - expected)) <= 1e-15


def test_full_synthesis_is_the_single_shell_case():
    kappa = 24
    rng = np.random.default_rng(3)
    coeffs = CoefficientField(rng.standard_normal(mode_count(kappa, 3)), kappa)
    grid = SphereGrid(23, 47)
    expected = tail_values_by_modes(coeffs.data, kappa, grid.theta, grid.phi, -1)
    np.testing.assert_allclose(synthesize(coeffs, grid).values, expected, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(expected)))


def test_tails_need_increasing_kappas_below_the_band():
    data = np.zeros((2, mode_count(6, 3)))
    grid = SphereGrid(7, 14)
    for kappas in ([3, 3], [4, 2], [], [3, 6]):
        with pytest.raises(ValueError, match="strictly increasing and below the band"):
            _tails(data, 6, grid, kappas)


def test_tails_need_a_stack_of_full_coefficient_arrays():
    grid = SphereGrid(7, 14)
    for shape in [(49,), (2, 48), (1, 2, 49)]:
        with pytest.raises(ValueError, match=r"shape \(B, 49\) for band limit 6"):
            _tails(np.zeros(shape), 6, grid, [2])


@pytest.mark.parametrize("kappa,n_theta,block_bytes", [
    (40, 81, harmonics.LEGENDRE_BLOCK_BYTES),  # the whole table in one block
    (40, 81, 8 * 41 * 100),                    # several orders per block
    (40, 81, 8),                               # one order per block
    (7, 6, 8 * 3 * 9),                         # even n_theta
])
def test_legendre_block_bytes_bound_the_largest_block(monkeypatch, kappa, n_theta, block_bytes):
    monkeypatch.setattr(harmonics, "LEGENDRE_BLOCK_BYTES", block_bytes)
    grid = SphereGrid(n_theta, 2 * n_theta)
    north = grid.theta[:(n_theta + 1) // 2]
    largest = max(block.nbytes for _, _, block in harmonics._legendre_blocks(kappa, north))
    bound = harmonics.legendre_block_bytes(kappa, grid.n_theta)
    assert largest <= bound <= max(largest, block_bytes)

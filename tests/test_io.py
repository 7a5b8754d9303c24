"""Streaming CSV writers against the line-by-line reference writers of oracles."""

import io
import os
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from spherewave import io as spherewave_io
from spherewave.harmonics import GridField, SphereGrid
from spherewave.io import (write_coefficient_csv, write_grid_field_csv,
                           write_schrodinger_trajectory_csv, write_wave_trajectory_csv)
from spherewave.modes import CoefficientField, mode_count
from spherewave.wave import State

METADATA = {"alpha": 3.0, "equation": "wave", "kappas": [2, 4], "seed": 5, "beta": None}

# -0.0, the smallest subnormal, a mid-range subnormal, the largest finite
# magnitudes tested and integer-valued floats, mixed with arbitrary doubles
SPECIAL = [-0.0, 0.0, 5e-324, -7.4e-310, 1.7e308, -1.7e308, 3.0, -12.0, 1e16, 2.0**53]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def _fields(draw_array, kappa, dim):
    return draw_array(hnp.arrays(np.float64, mode_count(kappa, dim), elements=values))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.sampled_from([(0, 3), (3, 3), (4, 4), (3, 6)]))
def test_coefficient_writer_matches_reference(tmp_path_factory, data, shape):
    kappa, dim = shape
    coeffs = _fields(data.draw, kappa, dim)
    path = str(tmp_path_factory.mktemp("coeff") / "c.csv")
    write_coefficient_csv(path, CoefficientField(coeffs, kappa, dim), METADATA)
    with open(path) as fh:
        assert fh.read() == oracles.coefficient_csv_text(coeffs, kappa, dim, METADATA)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(1, 6), st.integers(1, 9))
def test_grid_writer_matches_reference(tmp_path_factory, data, n_theta, n_phi):
    grid = SphereGrid(n_theta, n_phi)
    grid_values = data.draw(hnp.arrays(np.float64, (n_theta, n_phi), elements=values))
    path = str(tmp_path_factory.mktemp("grid") / "g.csv")
    write_grid_field_csv(path, GridField(grid_values, grid), METADATA)
    with open(path) as fh:
        assert fh.read() == oracles.grid_csv_text(grid_values, grid.theta, grid.phi, METADATA)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.sampled_from(["wave", "wave-d4", "schrodinger", "named"]),
       st.integers(0, 4))
def test_trajectory_writers_match_reference(tmp_path_factory, data, kind, n_states):
    kappa, dim = (3, 4) if kind == "wave-d4" else (3, 3)
    times = data.draw(st.lists(values, min_size=n_states, max_size=n_states))
    arrays = [(_fields(data.draw, kappa, dim), _fields(data.draw, kappa, dim))
              for _ in range(n_states)]
    if kind == "schrodinger":
        names, writer = ("real", "imag"), write_schrodinger_trajectory_csv
    elif kind == "named":  # the component names come from the caller
        names = ("real", "imag")
        def writer(*args):
            return write_wave_trajectory_csv(*args, names)
    else:
        names, writer = ("position", "velocity"), write_wave_trajectory_csv
    states = (State(CoefficientField(a, kappa, dim), CoefficientField(b, kappa, dim), t=t)
              for t, (a, b) in zip(times, arrays))
    path = str(tmp_path_factory.mktemp("traj") / "trajectory.csv")
    last = writer(path, states, 17, METADATA)
    snapshots = [(t, list(zip(names, pair))) for t, pair in zip(times, arrays)]
    with open(path) as fh:
        assert fh.read() == oracles.trajectory_csv_text(snapshots, kappa, dim, 17, METADATA)
    if n_states:
        assert np.array_equal(last.u1.data, arrays[-1][0], equal_nan=True)
    else:
        assert last is None


def _wave_states(kappa, count):
    rng = np.random.default_rng(0)
    for j in range(count):
        yield State(CoefficientField(rng.standard_normal(mode_count(kappa)), kappa),
                    CoefficientField(rng.standard_normal(mode_count(kappa)), kappa), t=float(j))


def _writer_peak(path, count):
    tracemalloc.start()
    try:
        write_wave_trajectory_csv(path, _wave_states(24, count), 1, METADATA)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_writer_memory_does_not_grow_with_the_snapshot_count(tmp_path):
    path = str(tmp_path / "trajectory.csv")
    _writer_peak(path, 2)  # warm up imports and caches
    few = _writer_peak(path, 8)
    many = _writer_peak(path, 64)
    assert many <= 1.5 * few, (few, many)


def test_failed_trajectory_leaves_no_file(tmp_path):
    def failing_states():
        yield from _wave_states(4, 2)
        raise RuntimeError("step failed")

    path = tmp_path / "trajectory.csv"
    with pytest.raises(RuntimeError, match="step failed"):
        write_wave_trajectory_csv(str(path), failing_states(), 1, METADATA)
    assert os.listdir(tmp_path) == []


def test_failed_trajectory_keeps_an_earlier_complete_file(tmp_path):
    path = tmp_path / "trajectory.csv"
    write_wave_trajectory_csv(str(path), _wave_states(4, 3), 1, METADATA)
    before = path.read_bytes()

    def failing_states():
        yield from _wave_states(4, 1)
        raise RuntimeError("step failed")

    with pytest.raises(RuntimeError):
        write_wave_trajectory_csv(str(path), failing_states(), 1, METADATA)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["trajectory.csv"]


def test_states_of_another_shape_are_rejected(tmp_path):
    states = [State(CoefficientField.zeros(2), CoefficientField.zeros(2)),
              State(CoefficientField.zeros(3), CoefficientField.zeros(3))]
    with pytest.raises(ValueError, match="band limit and dimension"):
        write_wave_trajectory_csv(str(tmp_path / "trajectory.csv"), states, 1)
    assert os.listdir(tmp_path) == []


def _written(values) -> bytes:
    """What the writers' row formatter makes of values, with empty prefixes."""
    values = np.asarray(values, dtype=np.float64)
    fh = io.BytesIO()
    spherewave_io._write_rows(fh, values,
                              lambda rows: np.zeros((rows.stop - rows.start, 0), np.uint32))
    return fh.getvalue()


def _percent(values) -> bytes:
    return "".join("%.16e\n" % v for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the neighbour of the largest double is inf
        around = np.concatenate([np.nextafter(values, -np.inf), values,
                                 np.nextafter(values, np.inf)])
    return np.concatenate([around, -around])


def test_formatter_matches_percent_around_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
    values = _with_neighbours(powers)
    assert _written(values) == _percent(values)


def test_formatter_matches_percent_at_the_fast_path_borders():
    low, high = spherewave_io._FAST_RANGE
    steps = np.arange(-64, 65)
    values = np.concatenate([_with_neighbours([low, high]),
                             low + steps * np.spacing(low), high + steps * np.spacing(high)])
    assert _written(values) == _percent(values)


def test_formatter_matches_percent_on_ties():
    rng = np.random.default_rng(3)
    # 18-digit integers ending in 5 (rounded to the nearest double)
    integers = [float(10 * int(q) + 5) for q in rng.integers(10**16, 10**17 - 1, 2000)]
    # doubles from 1e13 to 1e17 with short binary fractions, many of them exact
    # decimal ties at 17 significant digits
    fractions = [m / 2.0**j for j in range(1, 6)
                 for m in rng.integers(int(1e13) << j, min(int(1e17) << j, 2**53), 2000)]
    values = np.array(integers + fractions + [166058747059374.62])
    digits = [Decimal(v).normalize().as_tuple().digits for v in fractions]
    assert sum(len(d) == 18 and d[-1] == 5 for d in digits) > 1000  # exact ties
    assert _written(values) == _percent(values)
    assert _written(-values) == _percent(-values)


def test_formatter_matches_percent_on_special_values():
    tiny = np.finfo(np.float64).tiny
    values = _with_neighbours([5e-324, 1e-310, tiny, np.finfo(np.float64).max, 0.0, 1.0])
    values = np.concatenate([values, [np.nan, -np.nan, np.inf, -np.inf, -0.0]])
    assert _written(values) == _percent(values)


def test_formatter_matches_percent_on_random_bit_patterns():
    rng = np.random.default_rng(4)
    values = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
    assert _written(values) == _percent(values)


def test_formatter_falls_back_rarely_on_normal_draws():
    values = np.random.default_rng(5).standard_normal(10**5)
    words = np.empty((values.size, spherewave_io._FLOAT_WORDS), np.uint32)
    slow = spherewave_io._format_floats(values, words)
    assert len(slow) < values.size // 10**4, len(slow)
    text = words.view(np.uint8)
    assert text[text != 0].tobytes() == _percent(values)

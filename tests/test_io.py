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
from spherewave.harness import ErrorTable
from spherewave.io import (read_coefficient_csv, write_coefficient_csv, write_error_table_csv,
                           write_grid_field_csv, write_schrodinger_trajectory_csv,
                           write_wave_trajectory_csv)
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
    spherewave_io._write_rows(fh, values, spherewave_io._RowBuffer(len(values), lambda rows: ()))
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


def _writer_case(kind, path):
    """(rows per field, write(), expected bytes) of one writer on fixed random data."""
    rng = np.random.default_rng(8)
    if kind in ("trajectory", "trajectory-d4"):
        kappa, dim = (4, 3) if kind == "trajectory" else (3, 4)
        n = mode_count(kappa, dim)
        states = [State(CoefficientField(rng.standard_normal(n), kappa, dim),
                        CoefficientField(rng.standard_normal(n), kappa, dim), t=float(j))
                  for j in range(2)]
        snapshots = [(s.t, [("position", s.u1.data), ("velocity", s.u2.data)]) for s in states]
        return n, lambda: write_wave_trajectory_csv(path, iter(states), 3, METADATA), \
            oracles.trajectory_csv_text(snapshots, kappa, dim, 3, METADATA).encode()
    if kind == "coefficient":
        data = rng.standard_normal(25)
        return 25, lambda: write_coefficient_csv(path, CoefficientField(data, 4), METADATA), \
            oracles.coefficient_csv_text(data, 4, 3, METADATA).encode()
    if kind == "grid":
        grid, values = SphereGrid(4, 9), rng.standard_normal((4, 9))
        return 36, lambda: write_grid_field_csv(path, GridField(values, grid), METADATA), \
            oracles.grid_csv_text(values, grid.theta, grid.phi, METADATA).encode()
    values = rng.standard_normal(33)  # empty prefixes, against "%.16e" % x

    def write():
        with open(path, "wb") as fh:
            fh.write(_written(values))
    return 33, write, _percent(values)


CAPS = {"1": lambda n: 1, "7": lambda n: 7, "n-1": lambda n: n - 1, "n": lambda n: n,
        "n+1": lambda n: n + 1}


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("kind", ["trajectory", "trajectory-d4", "coefficient", "grid",
                                  "rows"])
def test_every_pass_plan_writes_the_same_bytes(tmp_path, monkeypatch, cap, kind):
    path = tmp_path / "out.csv"
    n, write, expected = _writer_case(kind, str(path))
    monkeypatch.setattr(spherewave_io, "_PASS_ROWS", CAPS[cap](n))
    write()
    assert path.read_bytes() == expected


@pytest.mark.parametrize("n,cap", [(1, 1), (25, 1), (25, 7), (4225, 8192), (8450, 8192),
                                   (16641, 8192), (8193, 8192), (33, 32)])
def test_a_field_takes_one_format_call_per_pass_of_equal_size(monkeypatch, n, cap):
    monkeypatch.setattr(spherewave_io, "_PASS_ROWS", cap)
    sizes = []
    real = spherewave_io._format_floats

    def counting(x, out):
        sizes.append(len(x))
        return real(x, out)

    monkeypatch.setattr(spherewave_io, "_format_floats", counting)
    values = np.random.default_rng(9).standard_normal(n)
    assert _written(values) == _percent(values)
    assert len(sizes) == -(-n // cap)
    assert sum(sizes) == n and max(sizes) - min(sizes) <= 1


def test_labels_of_a_one_pass_trajectory_are_built_and_laid_once(tmp_path, monkeypatch):
    built, laid = [], []
    real = spherewave_io._label_prefix

    def counting(kappa, dim):
        built.append((kappa, dim))
        prefix = real(kappa, dim)

        def lay(rows):
            laid.append(rows)
            return prefix(rows)
        return lay

    monkeypatch.setattr(spherewave_io, "_label_prefix", counting)
    write_wave_trajectory_csv(str(tmp_path / "trajectory.csv"), _wave_states(24, 9), 1)
    assert built == [(24, 3)]
    assert laid == [slice(0, mode_count(24))]


def _pass_peak(path, states):
    tracemalloc.start()
    try:
        write_wave_trajectory_csv(path, iter(states), 1, METADATA)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_writer_memory_does_not_grow_with_the_mode_count(tmp_path):
    path = str(tmp_path / "trajectory.csv")
    _pass_peak(path, list(_wave_states(8, 2)))  # warm up imports and caches
    # kappa 64: 4225 rows in one pass; kappa 128: 16641 rows in three passes of 5547
    one_pass = _pass_peak(path, list(_wave_states(64, 3)))
    three_passes = _pass_peak(path, list(_wave_states(128, 3)))
    assert three_passes <= 1.5 * one_pass, (one_pass, three_passes)


def test_error_tables_are_utf8_whatever_the_locale(tmp_path, monkeypatch):
    def latin1_open(file, mode="r", *args, encoding=None, **kwargs):
        if "b" not in mode and encoding is None:
            encoding = "latin-1"
        return open(file, mode, *args, encoding=encoding, **kwargs)

    monkeypatch.setattr(spherewave_io, "open", latin1_open, raising=False)
    table = ErrorTable([2, 4], np.array([0.5, 0.25]), np.zeros(2), -1.0, [4],
                       {"v1_file": "données/v1.csv"})
    path = tmp_path / "table.csv"
    write_error_table_csv(str(path), table)
    assert path.read_bytes().startswith("# v1_file=données/v1.csv\n".encode("utf-8"))


@pytest.mark.parametrize("kappa", [128, 256])
def test_coefficient_reader_holds_at_most_160_bytes_per_row(tmp_path, kappa):
    # a row is held as its line number and stripped text until the counts are
    # checked; the labels are built a pass at a time, not as one tuple per mode
    n = mode_count(kappa)
    field = CoefficientField(np.random.default_rng(kappa).standard_normal(n), kappa)
    path = str(tmp_path / "coeffs.csv")
    write_coefficient_csv(path, field)
    tracemalloc.start()
    try:
        read = read_coefficient_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(read.data, field.data)
    assert peak / n <= 160, peak / n

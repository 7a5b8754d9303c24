import numpy as np
import pytest

import oracles
from spherewave import io as spherewave_io
from spherewave import modes
from spherewave.io import read_coefficient_csv, write_coefficient_csv
from spherewave.modes import (CoefficientField, degree_sizes, harmonic_dimension,
                              label_in_degree, mode_count, mode_labels)


def _first_overflow(dim):
    """The first degree whose harmonic dimension overflows int64, by bisection."""
    def fits(ell):
        try:
            harmonic_dimension(ell, dim)
        except OverflowError:
            return False
        return True
    lo, hi = 0, 1
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return hi


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8, 40, 2**64])
def test_degree_sizes_equal_harmonic_dimension_up_to_the_overflow_guard(dim):
    first = _first_overflow(dim) if dim > 4 else None  # beyond any array for dim 3, 4
    top = 3000 if first is None else first - 1
    sizes = degree_sizes(top, dim)
    checked = range(top + 1) if top < 120_000 else range(top - 2000, top + 1)
    assert [int(sizes[ell]) for ell in checked] == [harmonic_dimension(ell, dim)
                                                    for ell in checked]
    if first is not None:
        for kappa in (first, first + 7):
            with pytest.raises(OverflowError, match=rf"^harmonic dimension overflows int64 at "
                                                    rf"ell={first}, dim={dim}$"):
                degree_sizes(kappa, dim)


def test_mode_count_is_exact_where_the_int64_sum_of_the_sizes_wraps():
    kappa = _first_overflow(5) - 1
    assert mode_count(kappa, 5) == sum(int(h) for h in degree_sizes(kappa, 5)) > 2**63
    assert [mode_count(k, 4) for k in (-1, 0, 1, 2)] == [0, 1, 5, 14]


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_mode_labels_follow_the_oracle_labels(dim):
    assert label_in_degree(4, dim) == ((2, 2) if dim == 3 else (5, 0))
    for kappa in range(21):
        assert mode_labels(kappa, dim) == oracles.mode_labels(kappa, dim), kappa


@pytest.mark.parametrize("dim", [3, 5])
def test_every_label_comes_from_the_one_rule_of_modes(tmp_path, monkeypatch, dim):
    # another rule, patched where modes and io look it up: the writer, the
    # reader and mode_labels all follow it, so none of them spells its own
    def other(index, dim):
        index = np.asarray(index)
        return 2 * index, index % 3

    path = tmp_path / "other.csv"
    field = CoefficientField(np.arange(mode_count(4, dim), dtype=float), 4, dim)
    monkeypatch.setattr(modes, "label_in_degree", other)
    monkeypatch.setattr(spherewave_io, "label_in_degree", other)
    write_coefficient_csv(str(path), field)
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line[0].isdigit()]
    assert [tuple(int(v) for v in row[:3]) for row in rows] == mode_labels(4, dim)
    assert mode_labels(4, dim) != oracles.mode_labels(4, dim)
    assert np.array_equal(read_coefficient_csv(str(path)).data, field.data)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="mode label"):
        read_coefficient_csv(str(path))

import pytest

from spherewave.modes import degree_sizes, harmonic_dimension, mode_count


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

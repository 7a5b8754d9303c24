"""Legendre functions, sphere grids, and synthesis of coefficient fields on S^2.

The real orthonormal basis of degree ell is

    Y_{ell,0}          = Lbar_{ell,0}(theta)
    sqrt(2) * Lbar_{ell,m}(theta) * cos(m phi),   m = 1..ell
    sqrt(2) * Lbar_{ell,m}(theta) * sin(m phi),   m = 1..ell

where Lbar_{ell,m}(theta) = sqrt((2 ell + 1)/(4 pi) (ell-m)!/(ell+m)!)
P_{ell,m}(cos theta) and P_{ell,m} carries the Condon-Shortley phase (-1)^m.
All normalization factors are folded into the recurrences; raw factorials are
never formed.  The order-m seeds still scale like sin(theta)^m, and they
underflow where sin(theta) is small and m large; the worst colatitude is
sin(theta) = 1/e, where the addition theorem holds to 2e-13 up to degree 1900
and fails beyond about 1925.  Synthesis is therefore capped at
MAX_SYNTHESIS_BAND.

Grids are Gauss-Legendre in cos(theta) and uniform in phi, which makes the
quadrature exact for band-limited products and the discrete basis exactly
orthonormal at finite resolution.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .modes import CoefficientField

FOUR_PI = 4.0 * math.pi

# Largest Legendre order block synthesize_tails generates at once, in bytes.
# Fewer blocks pay the per-degree recurrence overhead fewer times; the northern
# half of the table is a single block up to kappa 254 on the default grid (at
# 255 the blocks are the orders [0, 240) and [240, 256)).
LEGENDRE_BLOCK_BYTES = 32 * 2**20

# Orders whose even and odd theta sums _theta_profiles stages before folding
# them into both hemispheres with one addition and one subtraction.  From 4 to
# 64 orders the time is the same; the staging holds 2 x FOLD_ORDERS x 2B x
# n_theta / 2 values.
FOLD_ORDERS = 8

# Highest band limit whose Legendre table is verified: the addition theorem
# sum_m (2 - delta_m0) Lbar_{ell,m}^2 = (2 ell + 1)/(4 pi) holds to 2e-13 for
# every ell <= 1900 at the worst colatitude, sin(theta) = 1/e.
MAX_SYNTHESIS_BAND = 1900

# Newton's method for the Gauss-Legendre nodes stops after a step below
# NEWTON_TOLERANCE: it converges quadratically, with a constant below n^2 / 8,
# so such a step leaves an error far below rounding for every n the grids use.
# From Tricomi's guesses it takes 3 or 4 passes; NEWTON_PASSES bounds them.
NEWTON_TOLERANCE = 1e-13
NEWTON_PASSES = 20


def _pair_offsets(kappa: int) -> np.ndarray:
    """Row offset of order m in the packed (m-major) table of (ell, m) pairs."""
    m = np.arange(kappa + 2)
    return m * (kappa + 1) - m * (m - 1) // 2


def normalized_legendre_table(kappa: int, theta: np.ndarray, m0: int = 0,
                              m1: int | None = None) -> np.ndarray:
    """Lbar_{ell,m} for all ell <= kappa and the orders m0 <= m < m1, at each colatitude.

    Returns an array of shape (n_pairs, n_theta) packed m-major: row
    _pair_offsets(kappa)[m] - _pair_offsets(kappa)[m0] + (ell - m) holds
    (ell, m).  By default m1 = kappa + 1, the full table.  The diagonal seeds
    Lbar_{m,m} are products over the orders from 0 up, so every order range
    gets the entries of the full table bit for bit; the three-term recurrence
    then runs degree by degree over all orders of the range at once, with the
    coefficients a(n, m) and b(n, m) of the whole range formed in one pass.
    """
    m1 = kappa + 1 if m1 is None else m1
    if not 0 <= m0 < m1 <= kappa + 1:
        raise ValueError(f"need 0 <= m0 < m1 <= kappa + 1, got m0={m0}, m1={m1}, kappa={kappa}")
    theta = np.asarray(theta, dtype=float)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    offsets = _pair_offsets(kappa)[m0:m1 + 1]
    offsets = offsets - offsets[0]
    table = np.empty((offsets[-1], theta.size))
    # Lbar_{m,m} = Lbar_{m-1,m-1} * (-sqrt((2m + 1)/(2m)) sin(theta)), accumulated in order
    factors = np.empty((m1, theta.size))
    factors[0] = 1.0 / math.sqrt(FOUR_PI)
    up = np.arange(1, m1)
    np.multiply(-np.sqrt((2 * up + 1) / (2.0 * up))[:, None], sin_t, out=factors[1:])
    diag = np.cumprod(factors, axis=0)[m0:]
    orders = np.arange(m0, m1)
    table[offsets[:-1]] = diag
    inner = orders < kappa  # Lbar_{m+1,m} exists
    table[offsets[:-1][inner] + 1] = (np.sqrt(2 * orders[inner] + 3.0)[:, None] * cos_t
                                      * diag[inner])
    del factors, diag  # the seeds are in the table; free them before it fills
    counts, a_nm, b_nm = _recurrence_coefficients(kappa, m0, m1)
    base = offsets[:-1] - orders  # row of (n, m) is base + n
    # prev[i], prev2[i]: Lbar_{n-1,m} and Lbar_{n-2,m} of order m = m0 + i while
    # degree n is built
    prev, prev2, work = np.empty((3, m1 - m0, theta.size))
    start = 0
    for n, k in zip(range(m0 + 2, kappa + 1), counts.tolist()):
        j = n - 2 - m0  # order n - 2 joins from its two seeds
        if j < m1 - m0:
            prev[j] = table[offsets[j] + 1]
            prev2[j] = table[offsets[j]]
        # orders m0 .. m0 + k - 1 recur
        a, b = a_nm[start:start + k], b_nm[start:start + k]
        start += k
        row = np.multiply(a[:, None], cos_t, out=work[:k])
        row *= prev[:k]
        older = prev2[:k]
        older *= b[:, None]
        np.subtract(row, older, out=older)  # a cos(theta) Lbar_{n-1,m} - b Lbar_{n-2,m}
        table[base[:k] + n] = older
        prev, prev2 = prev2, prev  # degree n becomes n - 1
    return table


def _recurrence_coefficients(kappa: int, m0: int, m1: int):
    """a(n, m) and b(n, m) of every degree n >= m + 2 of the orders [m0, m1).

    Degree-major: degree n has the orders m0 .. m0 + counts[n - m0 - 2] - 1.
    Returns (counts, a, b).
    """
    degrees = np.arange(m0 + 2, kappa + 1)
    counts = np.minimum(degrees - 1 - m0, m1 - m0)
    n = np.repeat(degrees, counts)
    m = np.arange(n.size) - np.repeat(np.cumsum(counts) - counts, counts) + m0
    a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
    b = np.sqrt((2.0 * n + 1.0) / (2.0 * n - 3.0)
                * ((n - 1.0) ** 2 - m * m) / (n * n - m * m))
    return counts, a, b


def _block_orders(kappa: int, n_theta: int) -> list[tuple[int, int]]:
    """The consecutive order ranges [m0, m1) of the Legendre blocks at n_theta
    colatitudes: each holds at most LEGENDRE_BLOCK_BYTES, or a single order
    where one order alone is larger; small tables come as one block."""
    offsets = _pair_offsets(kappa)
    rows = max(LEGENDRE_BLOCK_BYTES // (8 * n_theta), 1)
    ranges, m0 = [], 0
    while m0 <= kappa:
        m1 = max(int(np.searchsorted(offsets, offsets[m0] + rows, side="right")) - 1, m0 + 1)
        ranges.append((m0, m1))
        m0 = m1
    return ranges


def _legendre_blocks(kappa: int, theta: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """(m0, m1, rows): the Legendre table in the order blocks of _block_orders."""
    for m0, m1 in _block_orders(kappa, theta.size):
        yield m0, m1, normalized_legendre_table(kappa, theta, m0, m1)


def legendre_block_bytes(kappa: int, n_theta: int) -> int:
    """Bytes of the largest Legendre block one synthesis at band kappa holds on
    a grid of n_theta colatitudes, at the northern ones only (see _theta_profiles)."""
    n_north = (n_theta + 1) // 2
    offsets = _pair_offsets(kappa)
    return 8 * n_north * max(int(offsets[m1] - offsets[m0])
                             for m0, m1 in _block_orders(kappa, n_north))


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def check_fits(subject: str, nbytes: int, what: str, disk: tuple[int, str] | None = None):
    """The one refusal of every memory and disk check: refuse `subject`, whose
    `what` need nbytes, beyond physical memory, or with disk = (free bytes,
    directory) beyond the free space there.  Where the platform does not say
    how much memory it has, nothing is refused."""
    if disk is None:
        limit, room = _physical_memory(), "of physical memory"
    else:
        limit, room = disk[0], f"free in {disk[1]}"
    if limit is not None and nbytes > limit:
        raise ValueError(f"{subject}: the {what} need about {nbytes / 1e9:.3g} GB, more than "
                         f"the {limit / 1e9:.3g} GB {room}")


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes x_k = cos(theta_k) on [-1, 1], descending, and
    their weights.

    Newton's method on P_n runs over the northern nodes (x > 0, and the
    equator, x = 0, when n is odd) from Tricomi's asymptotic guesses, all
    nodes at once, until the largest step is below NEWTON_TOLERANCE.  One more
    pass, in extended precision (np.longdouble) where the platform has it,
    takes the last Newton step and evaluates the weights
    2 (1 - x^2) / (n (P_{n-1}(x) - x P_n(x)))^2 at the exact roots.  The
    southern nodes and weights are the mirror images, so x_{n-1-k} = -x_k
    exactly.  Each pass is one three-term recurrence over the degrees: O(n^2)
    work and O(n) memory, where a companion-matrix eigensolver takes O(n^3)
    and O(n^2).
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    k = np.arange(1, (n + 1) // 2 + 1)
    angle = (4 * k - 1) * math.pi / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(angle) ** 2) / (384.0 * n**4)) * np.cos(angle)
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly for odd n, so the equator stays put
    for _ in range(NEWTON_PASSES):
        step = _newton_step(n, x)[0]
        x -= step
        if np.max(np.abs(step)) <= NEWTON_TOLERANCE:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes did not converge for n={n}")
    x = x.astype(np.longdouble)
    step, p, slope = _newton_step(n, x)
    # the weight at x, times its first-order change from x to the root x - step
    weights = 2.0 * (1.0 - x) * (1.0 + x) / slope**2 * (1.0 + 2.0 * x * p / slope)
    x = (x - step).astype(float)
    weights = weights.astype(float)
    return (np.concatenate([x, -x[:n // 2][::-1]]),
            np.concatenate([weights, weights[:n // 2][::-1]]))


def _newton_step(n: int, x: np.ndarray):
    """(P_n / P_n', P_n, (1 - x^2) P_n') at x, in the precision of x."""
    j = np.arange(1, n, dtype=x.dtype)
    prev, p, work = np.ones_like(x), x.copy(), np.empty_like(x)
    # P_{j+1} = (2j + 1)/(j + 1) x P_j - j/(j + 1) P_{j-1}
    for a, b in zip((2 * j + 1) / (j + 1), j / (j + 1)):
        np.multiply(x, p, out=work)
        work *= a
        prev *= b
        work -= prev
        prev, p, work = p, work, prev
    slope = n * (prev - x * p)
    return p * ((1.0 - x) * (1.0 + x)) / slope, p, slope


def _unit_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi r / n for r = 0..n-1.  r is split exactly into
    quarter turns and a remainder, so every angle evaluated lies in [0, pi/2)
    and each value is within 5e-16 of the exact one."""
    quarter, rest = np.divmod(4 * np.arange(n), n)
    angle = (0.5 * math.pi / n) * rest
    c, s = np.cos(angle), np.sin(angle)
    return np.choose(quarter, [c, -s, -c, s]), np.choose(quarter, [s, c, -s, -c])


@dataclass(eq=False)
class SphereGrid:
    """Gauss-Legendre x uniform grid on S^2 with quadrature weights."""

    n_theta: int
    n_phi: int
    theta: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    theta_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("grid sizes must be positive")
        nodes, self.theta_weights = gauss_legendre(self.n_theta)
        self.theta = np.arccos(nodes)  # ascending: the nodes descend
        self.phi = 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi
        self._phase_tables: dict[int, np.ndarray] = {}

    def phase_tables(self, kappa: int) -> np.ndarray:
        """Cached phi factors of the real basis at j = 0..n_phi // 2: the cos and
        the sin table, stacked as (2, n_phi // 2 + 1, kappa + 1).

        Column m holds c_m cos(m phi_j) and c_m sin(m phi_j), with c_0 = 1 and
        c_m = sqrt(2).  m phi_j = 2 pi (m j mod n_phi) / n_phi is reduced
        exactly in integers, so both tables are one gather of the values of
        _unit_circle at m j mod n_phi.  Holds phase_table_bytes while built.
        """
        if kappa not in self._phase_tables:
            circle = np.multiply(_unit_circle(self.n_phi), math.sqrt(2.0))
            index = np.multiply.outer(np.arange(self.n_phi // 2 + 1), np.arange(kappa + 1))
            tables = np.take(circle, np.remainder(index, self.n_phi, out=index), axis=1)
            tables[:, :, 0] = [[1.0], [0.0]]  # order 0 carries no sqrt(2)
            self._phase_tables[kappa] = tables
        return self._phase_tables[kappa]


@dataclass(eq=False)
class GridField:
    """Real values sampled on a SphereGrid."""

    values: np.ndarray
    grid: SphereGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_theta, self.grid.n_phi):
            raise ValueError(
                f"values have shape {self.values.shape}, grid expects "
                f"({self.grid.n_theta}, {self.grid.n_phi})"
            )


def synthesize(coeffs: CoefficientField, grid: SphereGrid) -> GridField:
    """Evaluate a coefficient field pointwise on the grid (S^2 only).

    The one-field, single-shell case of synthesize_tails, unfolded.
    """
    if coeffs.dim != 3:
        raise ValueError(f"pointwise synthesis is available for dim == 3 only, got dim={coeffs.dim}")
    check_synthesis_memory(coeffs.kappa, grid.n_theta, grid.n_phi, unfolded=True)
    ((c, s),) = synthesize_tails(coeffs.data[None], coeffs.kappa, grid, [-1])
    return GridField(_unfold(c, s, grid.n_phi), grid)


def _unfold(c: np.ndarray, s: np.ndarray, n_phi: int) -> np.ndarray:
    """Grid values from the halves C, S (phi_j by theta): C + S at phi_j for
    j <= n_phi // 2, then C - S at phi_{n_phi - j} for j = n_phi - len(C) .. 1."""
    return np.concatenate([(c + s).T, (c - s)[n_phi - len(c):0:-1].T], axis=1)


def phase_table_bytes(kappa: int, n_phi: int) -> int:
    """Bytes SphereGrid.phase_tables(kappa) holds while built at n_phi longitudes:
    the two tables and the gather indices, (n_phi // 2 + 1) x (kappa + 1) each,
    and at most ten n_phi-long arrays of unit-circle values."""
    return 8 * (3 * (kappa + 1) * (n_phi // 2 + 1) + 10 * n_phi)


def synthesis_bytes(kappa: int, n_theta: int, n_phi: int, kappas) -> tuple[int, int, int]:
    """(per field, per call, shared): the bytes synthesize_tails holds at band
    kappa on an n_theta x n_phi grid for the tails above `kappas`.

    Per field, the largest of its stages: its coefficients (one value per
    mode) with their packed copy (two per (ell, m) pair); then the packed copy
    with the theta profiles of every shell (2 (hi + 1) x n_theta values for a
    shell of top degree hi) and the staged even and odd sums.  Per call: the
    largest Legendre block and six phi half grids ((n_phi // 2 + 1) x n_theta:
    halves, products and two to reduce or unfold them).  Shared: the phase tables.
    """
    modes = (kappa + 1) ** 2
    packed = (kappa + 1) * (kappa + 2)
    profiles = 2 * n_theta * sum(hi + 1 for hi in [*kappas[1:], kappa])
    staged = 4 * FOLD_ORDERS * ((n_theta + 1) // 2)
    field = 8 * max(modes + packed, packed + profiles + staged)
    call = legendre_block_bytes(kappa, n_theta) + 8 * 6 * (n_phi // 2 + 1) * n_theta
    return field, call, phase_table_bytes(kappa, n_phi)


def check_synthesis_memory(kappa, n_theta, n_phi, kappas=(-1,), n_fields=1, unfolded=False):
    """Refuse, before anything is allocated, a synthesis of n_fields fields at
    once (synthesize_tails, and with `unfolded` also each field's grid, as
    synthesize makes it) whose synthesis_bytes exceed physical memory.  Only
    the grid's sizes are read, so a grid is checked before its nodes are built."""
    field, call, shared = synthesis_bytes(kappa, n_theta, n_phi, kappas)
    check_fits(f"synthesis of {n_fields} field{'s' * (n_fields != 1)} at kappa={kappa} on a "
               f"{n_theta} x {n_phi} grid (n_theta x n_phi)",
               n_fields * (field + 8 * n_theta * n_phi * unfolded) + call + shared,
               f"arrays and {shared / 1e9:.3g} GB of phase tables")


def _packed_coefficients(data: np.ndarray, kappa: int) -> np.ndarray:
    """Cos (row 0) and sin (row 1) coefficients of each field, by order and parity.

    Shape (2, n_fields, n_pairs).  Order m fills the columns
    _pair_offsets(kappa)[m:m + 2]: first its degrees with ell - m even, then
    those with ell - m odd, each ascending.
    """
    offsets = _pair_offsets(kappa)
    m = np.repeat(np.arange(kappa + 1), np.diff(offsets))
    r = np.arange(offsets[-1]) - offsets[m]
    n_even = (kappa - m) // 2 + 1
    ell = m + np.where(r < n_even, 2 * r, 2 * (r - n_even) + 1)
    cos_index = ell * ell + np.maximum(2 * m - 1, 0)
    packed = np.empty((2, data.shape[0], offsets[-1]))
    # mode="clip" writes straight into `out`; it also keeps order 0's unused sin
    # index, zeroed below, in range at kappa 0
    np.take(data, cos_index, axis=1, out=packed[0], mode="clip")
    np.take(data, cos_index + 1, axis=1, out=packed[1], mode="clip")
    packed[1, :, :offsets[1]] = 0.0  # order 0 has no sin part
    return packed


def synthesize_tails(data: np.ndarray, kappa: int, grid: SphereGrid,
                     kappas: Sequence[int]) -> Iterator[np.ndarray]:
    """Folded grid halves (C, S), stacked, of the tails above each of the
    increasing `kappas`: field by field, and for each field largest tail first.

    `data` stacks the coefficient arrays of B fields on S^2 at band limit
    kappa, shape (B, (kappa + 1)^2).  The tail above k keeps the degrees
    k < ell <= kappa; every k must lie below kappa, and k = -1 gives the whole
    field.  The degrees are split into shells (kappas[j], kappas[j + 1]] and
    (kappas[-1], kappa].

    Packing: the stack is copied by order and parity (_packed_coefficients)
    and the generator drops its own reference to `data` before the theta
    stage allocates anything, so a caller that hands over a freshly drawn
    stack and keeps no reference holds each field's coefficients once.

    Theta: the Legendre rows are generated in order blocks at the northern
    colatitudes only (and the equator when n_theta is odd), applied to the
    whole batch and dropped; no table is stored.  Gauss-Legendre nodes are
    antisymmetric and Lbar_{ell,m}(pi - theta) = (-1)^{ell+m} Lbar_{ell,m}(theta),
    so per order and shell one (2B, rows) x (rows, n_north) product over the
    even ell - m and one over the odd give E and O, and the northern and
    southern profiles are E + O and E - O.

    Phi: cos(m phi) is even and sin(m phi) odd, so a tail is C + S at phi_j
    and C - S at phi_{n_phi - j}, with C the cos and S the sin terms at
    j <= n_phi // 2 (S is exactly zero at j = 0 and n_phi / 2).  Field by
    field, the shells are added from the top into the running halves, each
    (n_phi // 2 + 1, n_theta), by one product per half with the first k + 1
    columns (top degree k) of a phase table; reduce or copy them before
    advancing.  As max(|C + S|, |C - S|) = |C| + |S|, also in floating point,
    a max norm needs no grid.  Degrees at or below kappas[0] are never touched.

    Cost per field: theta O(kappa^2 n_theta / 2) once; phi O(n_theta kappa
    n_phi) for the top shell plus O(n_theta k n_phi) for each lower shell of
    top k.  Raises ValueError, before allocating, if the stack's working set
    and the phase tables (synthesis_bytes) exceed physical memory.
    """
    if kappa > MAX_SYNTHESIS_BAND:
        raise ValueError(f"band limit {kappa} exceeds synthesis maximum {MAX_SYNTHESIS_BAND}")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != (kappa + 1) ** 2:
        raise ValueError(f"expected coefficient arrays of shape (B, {(kappa + 1) ** 2}) for "
                         f"band limit {kappa}, got {data.shape}")
    bottoms = [int(k) for k in kappas]
    if not bottoms or any(b <= a for a, b in zip(bottoms, bottoms[1:])) or bottoms[-1] >= kappa:
        raise ValueError(f"kappas must be strictly increasing and below the band limit "
                         f"{kappa}, got {bottoms}")
    n_fields = len(data)
    check_synthesis_memory(kappa, grid.n_theta, grid.n_phi, bottoms, n_fields)
    packed = _packed_coefficients(data, kappa)
    del data  # a stack only this generator holds is freed before the theta stage
    shells = list(zip(bottoms, bottoms[1:] + [kappa]))
    profiles = _theta_profiles(packed, kappa, grid, shells)[::-1]  # top shell first
    del packed
    tables = grid.phase_tables(kappa)
    halves, products = np.empty((2, 2, grid.n_phi // 2 + 1, grid.n_theta))
    for b in range(n_fields):
        for i, profile in enumerate(profiles):
            # each table's orders m <= hi times field b's cos or sin rows
            for row, out, table in zip((b, n_fields + b), products if i else halves, tables):
                np.matmul(table[:, :len(profile)], profile[:, row], out=out)
            if i:
                halves += products
            yield halves


def _theta_profiles(packed, kappa, grid, shells) -> list[np.ndarray]:
    """Per shell (lo, hi], the theta sums of every field, shape (hi + 1, 2B, n_theta),
    from the packed coefficients (2, B, n_pairs) of _packed_coefficients.

    Row (m, cB + b) holds the sum over the shell's degrees of the cos (c = 0)
    or sin (c = 1) coefficient of order m of field b times Lbar_{ell,m}; in
    memory that is row 2m + c, field b of (2 (hi + 1), B, n_theta).  Per
    order the even and odd sums E and O are staged; every FOLD_ORDERS orders,
    one addition writes the northern rows E + O and one subtraction the
    southern rows E - O.  Every row is written: each order m <= hi has a
    degree in (lo, hi].  The Legendre blocks and the staged sums are dropped
    on return.
    """
    n_fields, n_theta = packed.shape[1], grid.n_theta
    n_north, n_south = (n_theta + 1) // 2, n_theta // 2
    offsets = _pair_offsets(kappa).tolist()
    packed = packed.reshape(2 * n_fields, -1)
    profiles = [np.empty((hi + 1, 2 * n_fields, n_theta)) for _, hi in shells]
    even, odd = np.empty((2, FOLD_ORDERS, 2 * n_fields, n_north))
    for m0, m1, block in _legendre_blocks(kappa, grid.theta[:n_north]):
        for (lo, hi), profile in zip(shells, profiles):
            for g0 in range(m0, min(m1, hi + 1), FOLD_ORDERS):
                g1 = min(g0 + FOLD_ORDERS, m1, hi + 1)
                for i, m in enumerate(range(g0, g1)):
                    rows = block[offsets[m] - offsets[m0]:offsets[m + 1] - offsets[m0]]
                    coef = packed[:, offsets[m]:offsets[m + 1]]
                    n_even = (kappa - m) // 2 + 1
                    start, stop = max(lo + 1 - m, 0), hi + 1 - m  # rows ell - m of the shell
                    e0, e1, o0, o1 = (start + 1) // 2, (stop + 1) // 2, start // 2, stop // 2
                    np.matmul(coef[:, e0:e1], rows[2 * e0:2 * e1:2], out=even[i])
                    np.matmul(coef[:, n_even + o0:n_even + o1], rows[2 * o0 + 1:2 * o1 + 1:2],
                              out=odd[i])
                g = g1 - g0
                np.add(even[:g], odd[:g], out=profile[g0:g1, :, :n_north])
                # southern row n_theta - 1 - i mirrors northern row i
                np.subtract(even[:g, :, :n_south], odd[:g, :, :n_south],
                            out=profile[g0:g1, :, n_north:][..., ::-1])
        del block, rows  # freed before the next block is built
    return profiles

"""Truncation-error experiments: strong, pathwise, and weak, with rate fitting.

Every experiment couples the coarse approximation to the reference through the
same noise realization: the band-kappa solution is by construction the
projection of the band-kappa_ref solution, because modes evolve independently.
The per-sample error is therefore exactly the norm of the reference tail above
degree kappa (the L^2 norm in coefficient space via Parseval, or the max norm
on a grid).

Since the sampling is exact in distribution, experiments take a single step of
size T; the number of time steps does not enter the error.  Two samplers draw
the terminal state:

* per-degree (`_DegreeSampler`): coefficient-space errors and weak errors see a
  sample only through its per-degree sums of squares, which are drawn directly
  from their exact (Wishart) law at O(kappa_ref) cost, whatever the dimension;
* per-mode (`_TerminalSampler`): grid errors need every coefficient.  Its
  per-mode increment factors are expanded once per chunk and fixed data is
  propagated once per run, so a sample costs its normal draws and a few
  array operations.

Both run in chunks of consecutive samples whose size depends on kappa_ref (and
the grid and the kappas) only: a per-degree chunk makes each sample's draws
into a row of one array and does the algebra, tails and functionals once per
chunk; a per-mode chunk synthesizes all its fields in one batch.  Sample i
draws from the generator of np.random.SeedSequence(seed, spawn_key=(i,)), so
results do not depend on the chunk a sample lands in or on how chunks are
scheduled across workers.  `_sample_rngs` derives a chunk's generators in one
pass: the SeedSequence pool after the seed's words is computed once per seed,
and the index words and PCG64 seed words of every sample in a few uint32 array
operations, bit for bit as SeedSequence would (about 3 µs per sample in a
31-sample chunk instead of about 20).
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import harmonics
from .harmonics import (GridShape, SphereGrid, legendre_block_bytes, phase_table_bytes,
                        synthesis_field_bytes, synthesize_tails)
from .modes import degree_offsets, degree_sizes, mode_count, mode_degrees
from .noise import ConvFactorTable, ModeFactors, _factor_entries, sample_degree_wishart
from .spectrum import PowerSpectrum, sobolev_scale
from .wave import expand, rotate

EQUATIONS = ("wave", "wave-dsphere", "schrodinger")
ERROR_KINDS = ("l2-coefficients", "max-grid")
INITIAL_DATA_MODES = ("zero", "random-sobolev", "file")
WEAK_METHODS = ("mc", "analytic")

# Test functionals phi(u); both depend on u only through the squared L^2 norm.
FUNCTIONALS = {
    "squared-norm": lambda s: s,
    "exp-neg-squared-norm": lambda s: np.exp(-s),
}


# The numeric config keys and their kinds, as JSON can hold them: an int key
# takes a Python int, a float key a finite int or float; neither takes a bool,
# a string or a numpy integer, and only the optional keys take None.  `kappas`
# is a list of int.
_NUMERIC_KEYS = {
    "dim": int, "alpha": float, "scale": float, "ell0": int, "head_value": float,
    "beta": float, "gamma": float, "T": float, "steps": int, "kappas": int,
    "kappa_ref": int, "samples": int, "seed": int, "n_theta": int, "n_phi": int,
    "store_every": int, "threads": int,
}
_OPTIONAL_KEYS = {"beta", "gamma", "n_theta", "n_phi"}


def _named(key: str) -> str:
    return f"{key} (--{key.replace('_', '-')})"


def _check_number(key: str, value, kind: type):
    """Refuse a value that is not of its key's kind, naming the key."""
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{_named(key)} must be an integer, got {value!r}")
    elif (isinstance(value, bool) or not isinstance(value, (int, float))
          or not math.isfinite(value)):
        raise ValueError(f"{_named(key)} must be a finite number, got {value!r}")


@dataclass
class ExperimentConfig:
    """Knobs for one convergence experiment (and for path simulation)."""

    equation: str = "wave"
    dim: int = 3
    alpha: float = 3.0
    scale: float = 1.0
    ell0: int = 1
    head_value: float = 1.0
    beta: float | None = None
    gamma: float | None = None
    initial_data: str = "zero"
    v1_file: str | None = None
    v2_file: str | None = None
    T: float = 1.0
    steps: int = 1
    kappas: list[int] = field(default_factory=lambda: [2, 4, 8, 16, 32])
    kappa_ref: int = 64
    samples: int = 100
    seed: int = 0
    error_kind: str = "l2-coefficients"
    n_theta: int | None = None
    n_phi: int | None = None
    weak_functional: str = "squared-norm"
    weak_method: str = "mc"
    store_every: int = 1
    threads: int = 1
    output: str = "."

    def validate(self):
        for key, kind in _NUMERIC_KEYS.items():
            value = getattr(self, key)
            if key == "kappas":
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{_named(key)} must be a list of integers, got {value!r}")
                for k in value:
                    _check_number(key, k, kind)
            elif value is not None or key not in _OPTIONAL_KEYS:
                _check_number(key, value, kind)
        if self.equation not in EQUATIONS:
            raise ValueError(f"unknown equation {self.equation!r}, expected one of {EQUATIONS}")
        if self.error_kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.error_kind!r}, expected one of "
                             f"{ERROR_KINDS} (grid L^2 errors equal l2-coefficients)")
        if self.initial_data not in INITIAL_DATA_MODES:
            raise ValueError(f"unknown initial data mode {self.initial_data!r}")
        if self.weak_functional not in FUNCTIONALS:
            raise ValueError(f"unknown test functional {self.weak_functional!r}")
        if self.weak_method not in WEAK_METHODS:
            raise ValueError(f"unknown weak method {self.weak_method!r}")
        if self.equation != "wave-dsphere" and self.dim != 3:
            raise ValueError("dim != 3 requires equation == 'wave-dsphere'")
        if self.dim < 3:
            raise ValueError(f"ambient dimension must be >= 3, got {self.dim}")
        if self.dim != 3 and self.error_kind != "l2-coefficients":
            raise ValueError("grid-based errors are available for dim == 3 only")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.seed < 0:
            raise ValueError(f"{_named('seed')} must be non-negative, got {self.seed!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not self.kappas:
            raise ValueError("kappas must be non-empty")
        ks = self.kappas
        if any(k < 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"kappas must be strictly increasing and non-negative, got {ks}")
        if self.kappa_ref < 0:
            raise ValueError(f"kappa_ref must be non-negative, got {self.kappa_ref}")
        if self.initial_data == "file" and self.v1_file is None and self.v2_file is None:
            raise ValueError("initial_data == 'file' needs v1_file and/or v2_file")

    def validate_experiment(self):
        """Stricter checks for truncation-error experiments (not needed to simulate)."""
        self.validate()
        if self.kappa_ref <= max(self.kappas):
            raise ValueError(
                f"kappa_ref ({self.kappa_ref}) must exceed every tested kappa "
                f"(max {max(self.kappas)})")

    def power_spectrum(self) -> PowerSpectrum:
        return PowerSpectrum(self.alpha, self.scale, self.ell0, self.head_value)

    def grid_shape(self) -> GridShape:
        """(n_theta, n_phi), by default the smallest exact grid for band kappa_ref."""
        n_theta = self.n_theta if self.n_theta is not None else self.kappa_ref + 1
        n_phi = self.n_phi if self.n_phi is not None else 2 * self.kappa_ref + 2
        return GridShape(n_theta, n_phi)

    def grid(self) -> SphereGrid:
        """The grid, built only once synthesis_field_bytes has found room for one
        field's synthesis at kappa_ref on it: nothing is allocated for a grid
        that does not fit in physical memory."""
        shape = self.grid_shape()
        synthesis_field_bytes(self.kappa_ref, shape)
        return SphereGrid(*shape)

    def component_names(self) -> tuple[str, str]:
        if self.equation == "schrodinger":
            return ("real", "imag")
        return ("position", "velocity")

    def resolved(self) -> dict:
        """Config as written into output metadata; enough to re-run bit-identically.

        The output directory and the thread count are omitted: neither
        influences the numbers, and keeping them out makes runs into different
        directories or on different thread counts byte-comparable.
        """
        d = asdict(self)
        d["kappas"] = list(self.kappas)
        del d["output"]
        del d["threads"]
        return d


@dataclass(eq=False)
class FitResult:
    slope: float
    intercept: float
    residuals: np.ndarray


def fit_rate(kappas, errors) -> FitResult:
    """Least-squares slope of log(error) against log(kappa)."""
    kappas = np.asarray(kappas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if kappas.size < 3:
        raise ValueError(f"rate fitting needs at least 3 points, got {kappas.size}")
    if np.any(errors <= 0.0):
        raise ValueError("rate fitting needs strictly positive errors "
                         "(drop exact-zero points such as kappa == kappa_ref)")
    x = np.log(kappas)
    y = np.log(errors)
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - (slope * x + intercept)
    return FitResult(float(slope), float(intercept), residuals)


@dataclass(eq=False)
class ErrorTable:
    """Per-kappa error statistics with a fitted log-log rate."""

    kappas: list[int]
    errors: np.ndarray
    stderrs: np.ndarray
    slope: float
    fit_kappas: list[int]
    metadata: dict

    def __post_init__(self):
        ks = list(self.kappas)
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("kappas must be strictly increasing")
        if np.any(np.asarray(self.errors) < 0):
            raise ValueError("errors must be non-negative")


def default_fit_range(kappas, kappa_ref) -> list[int]:
    """Fit range: drop kappa_ref (zero error) and the smallest, pre-asymptotic kappa."""
    ks = [k for k in kappas if k != kappa_ref]
    return ks[1:]


def _make_table(cfg, kind, component, kappas, errors, stderrs, sampler,
                extra=None) -> ErrorTable:
    errors, stderrs = np.asarray(errors, dtype=float), np.asarray(stderrs, dtype=float)
    if not (np.all(np.isfinite(errors)) and np.all(np.isfinite(stderrs))):
        raise ValueError(f"the {kind} errors of the {component} are not finite: errors "
                         f"{errors.tolist()}, standard errors {stderrs.tolist()}")
    fit_ks = default_fit_range(kappas, cfg.kappa_ref)
    sel = [kappas.index(k) for k in fit_ks]
    if len(fit_ks) >= 3:
        slope = fit_rate(fit_ks, np.asarray(errors)[sel]).slope
    else:
        slope = float("nan")  # too few points after exclusions; no rate claimed
    metadata = {
        "experiment": kind,
        "component": component,
        "time_stepping": "single-exact-step",
        "fit_kappas": list(fit_ks),
        "slope": slope,
        "sampler": sampler,
    }
    metadata.update(cfg.resolved())
    if extra:
        metadata.update(extra)
    return ErrorTable(list(kappas), errors, stderrs, slope, list(fit_ks), metadata)


# ---------------------------------------------------------------------------
# sampling of coupled terminal states at the reference band limit
# ---------------------------------------------------------------------------

def _load_initial_fields(cfg):
    """Fixed (non-random) initial data, or None per component when absent.

    A file whose dimension differs from cfg.dim is rejected, naming the file.
    """
    if cfg.initial_data != "file":
        return None, None
    from .io import read_coefficient_csv

    def load(path):
        if not path:
            return None
        v = read_coefficient_csv(path)
        if v.dim != cfg.dim:
            raise ValueError(f"{path}: initial data has dim={v.dim}, "
                             f"the experiment needs dim={cfg.dim}")
        return v.truncated(cfg.kappa_ref)
    return load(cfg.v1_file), load(cfg.v2_file)


# Constants of numpy's SeedSequence: its entropy pool has 4 uint32 words, the
# `hashmix` of an entropy word uses the multipliers INIT_A * MULT_A^k in turn,
# `mix` combines two words, and generate_state hashes the pool with INIT_B, MULT_B.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _hash_multipliers(init: int, mult: int, start: int, count: int):
    """The (xor, multiply) constants of `count` consecutive hash steps from step `start`."""
    chain = np.array([init * pow(mult, start + k, 2**32) & _MASK32 for k in range(count + 1)],
                     dtype=np.uint32)
    return chain[:-1], chain[1:]


def _hashmix(words, xor, mul):
    v = words ^ xor
    v *= mul
    v ^= v >> _SHIFT
    return v


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> _SHIFT
    return r


# generate_state's constants for the 8 uint32 words of PCG64's 4 uint64 words,
# as (2, 4): word 4 a + b hashes pool word b
_OUTPUT_HASH = tuple(c.reshape(2, _POOL_WORDS)
                     for c in _hash_multipliers(_INIT_B, _MULT_B, 0, 2 * _POOL_WORDS))


@functools.lru_cache(maxsize=8)
def _seed_pool(seed: int):
    """SeedSequence(seed, spawn_key=(i,))'s pool before the spawn words, and the
    hash constants of the first and second spawn word (of an index < 2**64).

    With a spawn key the seed's words are padded with zeros to the pool size;
    the pool after them does not depend on the index.
    """
    from numpy.random import SeedSequence

    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n_words = max(_POOL_WORDS, -(-seed.bit_length() // 32))
    words = [(seed >> 32 * k) & _MASK32 for k in range(n_words)]
    pool = SeedSequence(np.array(words, dtype=np.uint32)).pool
    # hash steps so far: one per pool word, pool - 1 per pool word in the
    # all-to-all mix, and one per pool word for each seed word beyond the pool
    done = _POOL_WORDS * len(words)
    return pool, [_hash_multipliers(_INIT_A, _MULT_A, done + _POOL_WORDS * j, _POOL_WORDS)
                  for j in range(2)]


@functools.cache
def _generator_from_words():
    """Generator(PCG64(...)) from 4 given uint64 seed words.  numpy.random is
    imported on first use: importing the package does not load it."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


def _sample_rngs(seed: int, indices) -> list:
    """The generators of samples `indices`: sample i's is bit for bit
    np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))).

    SeedSequence mixes its entropy words into a pool with fixed uint32
    constants, so the pool after the seed's words is computed once per seed,
    and the spawn words (one per index below 2**32, two below 2**64) and the
    PCG64 seed words of the whole chunk in a few array operations.
    """
    indices = list(indices)
    if not indices:
        return []
    if min(indices) < 0 or max(indices) >= 2**64:
        raise ValueError(f"sample indices must lie in [0, 2**64), got "
                         f"{min(indices)}..{max(indices)}")
    pool, (first, second) = _seed_pool(seed)
    index = np.array(indices, dtype=np.uint64)
    pool = _mix(pool, _hashmix(index.astype(np.uint32)[:, None], *first))
    if max(indices) >= 2**32:  # SeedSequence encodes such an index as two words
        two = index >= 2**32
        high = (index[two] >> np.uint64(32)).astype(np.uint32)
        pool[two] = _mix(pool[two], _hashmix(high[:, None], *second))
    state = _hashmix(pool[:, None, :], *_OUTPUT_HASH).reshape(len(indices), 2 * _POOL_WORDS)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    make = _generator_from_words()
    return [make(w) for w in words]


class _TerminalSampler:
    """Draws coupled (component1, component2) coefficient arrays at kappa_ref.

    Per mode the terminal state is M u0 + (W1, sign * W2) under the law of
    one step over T: u0 is the initial data, M the noise-free step and W the
    convolution increment.  Data from files is propagated once per run.
    `draw` expands the per-mode increment factors once per chunk, with the
    rotation and the Sobolev scales for random-sobolev data or M 0 for zero
    data (the sum keeps its signed zeros), and drops them on return, before
    the chunk is synthesized.  Per sample it then draws the data (if random)
    and the normals and adds M u0.

    Draw order per sample: first component data (if random), second component
    data (if random), then the convolution increments; this pins reproducibility.
    """

    def __init__(self, cfg: ExperimentConfig):
        cfg.validate_experiment()
        self.cfg = cfg
        self.ps = cfg.power_spectrum()
        self.kref = cfg.kappa_ref
        self.dim = cfg.dim
        self.law = ConvFactorTable.for_equation(cfg.equation, self.kref, self.dim, cfg.T)
        self.random = cfg.initial_data == "random-sobolev"
        self.mean = _propagated_file_data(cfg, self.law)

    def draw(self, indices) -> np.ndarray:
        """Terminal states of the samples `indices`, shape (2 len(indices), n_modes):
        row 2k is sample indices[k]'s first component, row 2k + 1 its second."""
        cfg, kref, dim = self.cfg, self.kref, self.dim
        data = np.empty((2 * len(indices), mode_count(kref, dim)))
        noise = ModeFactors.expand(self.ps, self.law)
        if self.random:
            rotation = expand(self.law.rotation, kref, dim)
            degrees = mode_degrees(kref, dim)
            scales = [None if exponent is None else sobolev_scale(exponent, kref, dim)[degrees]
                      for exponent in (cfg.beta, cfg.gamma)]
        elif self.mean is None:  # zero data
            mean = expand(rotate(self.law.rotation, 0.0, 0.0), kref, dim)
        else:
            mean = self.mean
        for k, rng in enumerate(_sample_rngs(cfg.seed, indices)):
            if self.random:  # the data of random_sobolev_data, from the expanded scales
                mean = rotate(rotation, *(0.0 if scale is None
                                          else scale * rng.standard_normal(scale.size)
                                          for scale in scales))
            data[2 * k], data[2 * k + 1] = noise.add(*mean, rng)
        return data


def _propagated_file_data(cfg: ExperimentConfig, law: ConvFactorTable):
    """M u0 per mode for initial data from files (a missing file is zero data),
    or None without file data: the mean of the terminal state."""
    v1, v2 = _load_initial_fields(cfg)
    if v1 is None and v2 is None:
        return None
    zero = np.zeros(mode_count(cfg.kappa_ref, cfg.dim))
    return rotate(expand(law.rotation, cfg.kappa_ref, cfg.dim),
                  zero if v1 is None else v1.data, zero if v2 is None else v2.data)


def _terminal_law(cfg: ExperimentConfig):
    """(Sigma, mean) of the state at T: within degree ell its h(ell, dim) modes
    are i.i.d. N(mu_m, Sigma_ell).

    Sigma, shape (kappa_ref + 1, 2, 2), is A_ell C_ell(T) for the noise, with
    C_ell the law's covariance of (W1, sign * W2), plus M_ell diag(s1^2, s2^2)
    M_ell^T for random-sobolev data, where M_ell is the law's noise-free step
    and s the data scale.  mean is the propagated file data M u0 per mode, or
    None without file data.
    """
    kref, dim = cfg.kappa_ref, cfg.dim
    law = ConvFactorTable.for_equation(cfg.equation, kref, dim, cfg.T)
    sigma = cfg.power_spectrum().values(kref)[:, None, None] * law.covariance_matrices()
    if cfg.initial_data == "random-sobolev":
        rot = law.rotation_matrices()
        var = np.zeros((kref + 1, 2))
        for j, exponent in enumerate((cfg.beta, cfg.gamma)):
            if exponent is not None:
                var[:, j] = sobolev_scale(exponent, kref, dim) ** 2
        sigma = sigma + np.einsum("lij,lj,lkj->lik", rot, var, rot)
    return sigma, _propagated_file_data(cfg, law)


def _mean_gram(mu1, mu2, offsets):
    """Entries (g11, g12, g22) of the mean Gram G_ell = sum_m mu_m mu_m^T per degree."""
    return (np.add.reduceat(mu1 * mu1, offsets), np.add.reduceat(mu1 * mu2, offsets),
            np.add.reduceat(mu2 * mu2, offsets))


class _DegreeSampler:
    """Draws the per-degree Gram sums S_ell = sum_m u_m u_m^T of the terminal state.

    Within degree ell the modes of the state at T are u_m = mu_m + L_ell z_m,
    with z_m standard normal and L_ell L_ell^T = Sigma_ell (see _terminal_law).
    Without fixed data S_ell is therefore Wishart_2(h, Sigma_ell), drawn by the
    Bartlett decomposition.

    With fixed data the law is noncentral, but only through the mean Gram
    G_ell = sum_m mu_m mu_m^T, which has rank <= 2: rotating the h modes so
    that the means lie in the first two gives two modes with means nu_1, nu_2
    (rows of the factor N with N^T N = G_ell) plus a central Wishart_2(h - 2).
    Degrees with h <= 2 keep their own modes instead.

    Draw order per sample: the Bartlett variables of every degree (see
    sample_degree_wishart), then, with fixed data only, standard normals for
    the two explicit modes of every degree in (degree, mode, component) order.

    `draw` takes a chunk of samples: each sample draws from its own generator
    into a row of (chunk, kappa_ref + 1) arrays, and the algebra after the
    draws runs once per chunk.  `chunk` is the number of samples whose row
    array fits DEGREE_CHUNK_BYTES; it depends on kappa_ref only.
    """

    def __init__(self, cfg: ExperimentConfig):
        cfg.validate_experiment()
        self.cfg = cfg
        sizes = degree_sizes(cfg.kappa_ref, cfg.dim)
        sigma, mean = _terminal_law(cfg)
        self.l11, self.l21, self.l22 = _factor_entries(sigma[:, 0, 0], sigma[:, 0, 1],
                                                       sigma[:, 1, 1])
        self.chunk = max(1, DEGREE_CHUNK_BYTES // (8 * (cfg.kappa_ref + 1)))
        self.dof = sizes.astype(float)
        self.means = None
        if mean is not None:
            self.means, self.present = self._explicit_modes(*mean, sizes)
            self.dof = np.maximum(sizes - 2, 0).astype(float)

    def _explicit_modes(self, mu1, mu2, sizes):
        """Means (degree, mode, component) of the two explicit modes, and which exist."""
        kref, dim = self.cfg.kappa_ref, self.cfg.dim
        offsets = degree_offsets(kref, dim)
        n11, n12, n22 = _factor_entries(*_mean_gram(mu1, mu2, offsets))
        means = np.zeros((kref + 1, 2, 2))
        means[:, 0, 0], means[:, 0, 1], means[:, 1, 1] = n11, n12, n22
        for ell in np.flatnonzero(sizes <= 2):
            o, h = offsets[ell], sizes[ell]
            means[ell] = 0.0
            means[ell, :h, 0] = mu1[o:o + h]
            means[ell, :h, 1] = mu2[o:o + h]
        present = (np.arange(2)[None, :] < sizes[:, None]).astype(float)
        return means, present

    def draw(self, indices):
        """(S11, S12, S22) per degree, shape (len(indices), kappa_ref + 1) each;
        row k is sample indices[k]."""
        rngs = _sample_rngs(self.cfg.seed, indices)
        s11, s12, s22 = sample_degree_wishart(self.l11, self.l21, self.l22, self.dof, rngs)
        if self.means is not None:
            z = np.empty((len(rngs), *self.means.shape))
            for row, rng in zip(z, rngs):
                rng.standard_normal(out=row)
            u1 = (self.means[:, :, 0] + self.l11[:, None] * z[..., 0]) * self.present
            u2 = (self.means[:, :, 1] + self.l21[:, None] * z[..., 0]
                  + self.l22[:, None] * z[..., 1]) * self.present
            s11 = s11 + np.sum(u1 * u1, axis=-1)
            s12 = s12 + np.sum(u1 * u2, axis=-1)
            s22 = s22 + np.sum(u2 * u2, axis=-1)
        return s11, s12, s22


def _tail_sums(per_degree: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Sums of the per-degree values above every tested kappa, from the top degree down.

    per_degree has the degrees on its last axis; so has the result, one entry
    per tested kappa (each below kappa_ref).
    """
    suffix = np.cumsum(per_degree[..., ::-1], axis=-1)[..., ::-1]
    return suffix[..., np.asarray(cfg.kappas) + 1]


def _degree_tails(per_degree: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Tail norms above every tested kappa from the per-degree sums of squares."""
    return np.sqrt(np.maximum(_tail_sums(per_degree, cfg), 0.0))


# Size of one (chunk, kappa_ref + 1) array of per-degree draws: at kappa_ref
# 256 a chunk holds 31 samples, and the chunk's arrays stay in the cache.
DEGREE_CHUNK_BYTES = 64 * 2**10


# Working memory of the fields of one chunk of grid-error samples, two fields
# each at the per-field bytes of _grid_working_set, up to kappa_ref 256: at
# kappa_ref 256 on the default grid, with the kappas 2, 4, ..., 32, a chunk
# holds 17 samples.  Every chunk pays a whole pass of the Legendre recurrence,
# so above 256 the budget grows as kappa_ref^2, as a field does, and a chunk
# keeps sharing each pass among several samples.  A worker (its chunk's fields
# plus what it holds whatever the chunk) stays within MAX_WORKER_BYTES.
SAMPLE_CHUNK_BYTES = 64 * 2**20
MAX_WORKER_BYTES = 960 * 2**20

# Arrays of 8 bytes per mode that _TerminalSampler.draw holds beside its stack:
# the expanded increment factors, the rotation, the Sobolev scales and one
# sample's normals and sums.  Traced at kappa_ref 64 with chunks of 4 samples:
# 18.2 with random data in both components, 11.2 with zero data.
DRAW_MODE_ARRAYS = 20


def _grid_working_set(kappa_ref: int, grid: SphereGrid | GridShape,
                      kappas) -> tuple[int, int]:
    """(per field, per worker): the bytes one grid-error worker holds for each
    field of its chunk, and whatever the chunk.

    Per field, the largest of its stages: the drawn coefficients (one value
    per mode) with their packed copy (two per (ell, m) pair) while they are
    packed; then the packed copy with the theta profiles of every shell the
    kappas cut (2 (hi + 1) x n_theta values for a shell of top degree hi) and
    the staged even and odd sums; the phi stage holds the profiles alone.  Per
    worker: the largest Legendre block, the six phi half grids
    ((n_phi // 2 + 1) x n_theta each) and the draw's DRAW_MODE_ARRAYS per-mode
    arrays.  The workers share the phase tables (phase_table_bytes).
    """
    n_theta = grid.n_theta
    modes = (kappa_ref + 1) ** 2
    packed = (kappa_ref + 1) * (kappa_ref + 2)
    profiles = 2 * n_theta * sum(hi + 1 for hi in [*kappas[1:], kappa_ref])
    staged = 4 * harmonics.FOLD_ORDERS * ((n_theta + 1) // 2)
    field = 8 * max(modes + packed, packed + profiles + staged)
    worker = (legendre_block_bytes(kappa_ref, grid) + 8 * 6 * (grid.n_phi // 2 + 1) * n_theta
              + 8 * DRAW_MODE_ARRAYS * modes)
    return field, worker


def _sample_chunk(kappa_ref: int, field_bytes: int, worker_bytes: int) -> int:
    """Grid-error samples per chunk, from the per-field and per-worker bytes of
    _grid_working_set: it depends on kappa_ref, the grid and the kappas only."""
    budget = min(SAMPLE_CHUNK_BYTES * max(1.0, kappa_ref / 256) ** 2,
                 MAX_WORKER_BYTES - worker_bytes)
    return max(1, int(budget // (2 * field_bytes)))


class _TailErrors:
    """Max-norm errors of the tails above every tested kappa, for chunks of samples.

    One batched synthesis pass (synthesize_tails) serves a whole chunk; each
    field's tails, built from the top as folded halves C and S, are reduced to
    their largest |C| + |S| as they come, so no tail grid is formed.  `chunk`,
    the samples (two fields each) per chunk (_sample_chunk), depends on
    kappa_ref, the grid shape and the kappas only, not on --threads or
    --samples; `worker_bytes` is what one worker holds for it.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.grid = cfg.grid()  # refuses a grid beyond physical memory before building it
        self.field_bytes, fixed = _grid_working_set(cfg.kappa_ref, self.grid, cfg.kappas)
        self.chunk = _sample_chunk(cfg.kappa_ref, self.field_bytes, fixed)
        self.worker_bytes = 2 * self.chunk * self.field_bytes + fixed
        self.sampler = _TerminalSampler(cfg)

    def check_threads(self, n: int):
        """Refuse, before any worker starts, a thread count whose concurrent
        chunks of n samples would exceed physical memory."""
        workers = min(self.cfg.threads, -(-n // self.chunk))
        memory = harmonics._physical_memory()
        # the workers share the grid's phase tables
        total = workers * self.worker_bytes + phase_table_bytes(self.cfg.kappa_ref, self.grid)
        if memory is not None and total > memory:
            raise ValueError(
                f"--threads {self.cfg.threads} runs {workers} chunks of grid-error samples at "
                f"once, {self.worker_bytes / 1e6:.0f} MB per worker, "
                f"{total / 1e9:.3g} GB in all: more than the "
                f"{memory / 1e9:.3g} GB of physical memory")

    def sample(self, indices) -> np.ndarray:
        """Errors of the samples `indices`, shape (2 len(indices), len(kappas)),
        kappas ascending: rows 2k and 2k + 1 are sample indices[k]'s components.
        The drawn stack goes straight to synthesize_tails, which frees it once
        packed."""
        cfg = self.cfg
        return self._maxima(synthesize_tails(self.sampler.draw(indices), cfg.kappa_ref,
                                             self.grid, cfg.kappas))

    def __call__(self, data: np.ndarray) -> np.ndarray:
        """Errors of the (B, n_modes) stack `data`, shape (B, len(kappas)), kappas ascending."""
        return self._maxima(synthesize_tails(data, self.cfg.kappa_ref, self.grid,
                                             self.cfg.kappas))

    def _maxima(self, tails) -> np.ndarray:
        largest_first, work = [], None  # |C| and |S|, allocated once the theta stage is done
        for halves in tails:
            work = np.abs(halves, out=work)
            largest_first.append(np.add(*work, out=work[0]).max())
        return np.array(largest_first).reshape(-1, len(self.cfg.kappas))[:, ::-1]


def _map_samples(cfg, fn, n, sampler):
    """Evaluate fn(0..n-1) preserving index order; each task is a chunk of samples.

    Per-mode tasks (chunks of grid-error samples) run on cfg.threads workers.
    Per-degree chunks (about 3 ms at kappa_ref 256: 31 samples of small numpy
    calls each) run serially; when they ran one sample per task, two threads
    were measured slower than one.
    """
    if cfg.threads > 1 and sampler == "per-mode":
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(i) for i in range(n)]


def _map_chunks(cfg, fn, n, size, sampler):
    """Per-sample results of samples 0..n-1 in index order, where fn(indices)
    returns those of one chunk of at most `size` consecutive samples."""
    chunks = _map_samples(cfg, lambda j: fn(range(j * size, min(n, (j + 1) * size))),
                          -(-n // size), sampler)
    return [r for chunk in chunks for r in chunk]


def _sample_tail_errors(cfg: ExperimentConfig, n: int):
    """Both components' tail errors of samples 0..n-1, the sampler name, grid metadata.

    Coefficient-space errors need only per-degree sums of squares, so they use
    the per-degree sampler.  Grid errors synthesize every coefficient: each
    task draws a chunk of samples and synthesizes both components of all of
    them in one batch.
    """
    if cfg.error_kind == "l2-coefficients":
        sampler = _DegreeSampler(cfg)

        def per_degree(indices):
            s11, _, s22 = sampler.draw(indices)
            return list(zip(_degree_tails(s11, cfg), _degree_tails(s22, cfg)))
        return _map_chunks(cfg, per_degree, n, sampler.chunk, "per-degree"), "per-degree", {}

    tails = _TailErrors(cfg)  # refuses a grid beyond physical memory before sampling
    tails.check_threads(n)

    def per_mode(indices):
        errors = tails.sample(indices)
        return list(zip(errors[0::2], errors[1::2]))

    return (_map_chunks(cfg, per_mode, n, tails.chunk, "per-mode"), "per-mode",
            {"grid_n_theta": tails.grid.n_theta, "grid_n_phi": tails.grid.n_phi})


def strong_error_experiment(cfg: ExperimentConfig) -> dict[str, ErrorTable]:
    """Mean-square truncation errors per kappa for both solution components."""
    results, sampler, grid_meta = _sample_tail_errors(cfg, cfg.samples)
    names = cfg.component_names()
    out = {}
    for pos, name in enumerate(names):
        sq = np.array([r[pos] ** 2 for r in results])
        mean_sq = sq.mean(axis=0)
        rms = np.sqrt(mean_sq)
        if cfg.samples > 1:
            se_mean = sq.std(axis=0, ddof=1) / math.sqrt(cfg.samples)
            stderr = np.where(rms > 0, se_mean / (2.0 * np.maximum(rms, 1e-300)), 0.0)
        else:
            stderr = np.zeros_like(rms)
        out[name] = _make_table(cfg, "strong", name, list(cfg.kappas), rms, stderr,
                                sampler, extra=grid_meta)
    return out


def pathwise_error_experiment(cfg: ExperimentConfig) -> dict[str, ErrorTable]:
    """Truncation errors along a single realization (sample index 0)."""
    (first,), sampler, grid_meta = _sample_tail_errors(cfg, 1)
    names = cfg.component_names()
    out = {}
    for name, errs in zip(names, first):
        out[name] = _make_table(cfg, "pathwise", name, list(cfg.kappas), errs,
                                np.zeros_like(errs), sampler, extra=grid_meta)
    return out


def weak_error_experiment(cfg: ExperimentConfig,
                          functional: str | None = None) -> dict[str, ErrorTable]:
    """|E phi(u^kref) - E phi(u^kappa)| with common random numbers.

    Both supported functionals depend on u only through its squared L^2 norm,
    which is a prefix sum of the per-degree sums of squares under the coupling.
    """
    name_phi = functional or cfg.weak_functional
    if name_phi not in FUNCTIONALS:
        raise ValueError(f"unknown test functional {name_phi!r}")
    phi = FUNCTIONALS[name_phi]
    sampler = _DegreeSampler(cfg)
    # phi of the tested prefixes and of the full norm in one call per chunk
    columns = np.append(cfg.kappas, cfg.kappa_ref)

    def deltas(per_degree):
        values = phi(np.cumsum(per_degree, axis=1)[:, columns])
        return values[:, -1:] - values[:, :-1]

    def per_chunk(indices):
        s11, _, s22 = sampler.draw(indices)
        return list(zip(deltas(s11), deltas(s22)))

    results = _map_chunks(cfg, per_chunk, cfg.samples, sampler.chunk, "per-degree")
    names = cfg.component_names()
    out = {}
    for pos, name in enumerate(names):
        d = np.array([r[pos] for r in results])
        mean = d.mean(axis=0)
        stderr = (d.std(axis=0, ddof=1) / math.sqrt(cfg.samples)
                  if cfg.samples > 1 else np.zeros_like(mean))
        out[name] = _make_table(cfg, "weak-mc", name, list(cfg.kappas),
                                np.abs(mean), stderr, "per-degree",
                                extra={"functional": name_phi})
    return out


def analytic_weak_error_experiment(cfg: ExperimentConfig) -> dict[str, ErrorTable]:
    """Exact weak errors of the squared norm, from the per-degree sampler's law.

    Under the coupling ||u^kappa_ref||^2 - ||u^kappa||^2 is the power of the
    degrees kappa < ell <= kappa_ref, whose mean per degree is
    E S_ell,ii = h_ell Sigma_ell,ii + G_ell,ii (_terminal_law; G is the mean
    Gram of file data, else zero).  Each error sums these from the top degree
    down, so no digits cancel in a difference of two totals.
    """
    cfg.validate_experiment()
    if cfg.weak_functional != "squared-norm":
        raise ValueError("analytic weak errors cover the squared norm only")
    kref, dim = cfg.kappa_ref, cfg.dim
    sigma, mean = _terminal_law(cfg)
    power = degree_sizes(kref, dim)[:, None] * sigma[:, [0, 1], [0, 1]]
    if mean is not None:
        g11, _, g22 = _mean_gram(*mean, degree_offsets(kref, dim))
        power += np.stack([g11, g22], axis=1)
    return {
        name: _make_table(cfg, "weak-analytic", name, list(cfg.kappas), errors,
                          np.zeros(len(cfg.kappas)), "none",
                          extra={"functional": "squared-norm"})
        for name, errors in zip(cfg.component_names(), _tail_sums(power.T, cfg))
    }


def theoretical_rates(cfg: ExperimentConfig) -> dict[str, float]:
    """Predicted log-log slopes implied by the spectrum decay and data smoothness."""
    if cfg.equation == "schrodinger":
        r = cfg.alpha / 2.0 - 1.0
        return {"real": -r, "imag": -r}
    pos_terms = [(cfg.alpha + 3.0 - cfg.dim) / 2.0]
    vel_terms = [(cfg.alpha + 1.0 - cfg.dim) / 2.0]
    if cfg.initial_data != "zero":
        if cfg.beta is not None:
            pos_terms.append(cfg.beta)
            vel_terms.append(cfg.beta - 1.0)
        if cfg.gamma is not None:
            pos_terms.append(cfg.gamma + 1.0)
            vel_terms.append(cfg.gamma)
    return {"position": -min(pos_terms), "velocity": -min(vel_terms)}

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
* per-mode (`_TerminalSampler`): grid errors need every coefficient.  A
  sample is its initial data (`initial_data`) and one step of size T of the
  path stepper (wave.mode_stepper), expanded once per chunk; fixed data is
  propagated once per chunk, so a sample costs its normal draws and a few
  array operations.

Both run in chunks of consecutive samples whose size depends on kappa_ref (and
the grid and the kappas) only: a per-degree chunk makes each sample's draws
into a row of one array and does the algebra, tails and functionals once per
chunk; a per-mode chunk synthesizes all its fields in one batch.  Sample i
draws from the generator of np.random.SeedSequence(seed, spawn_key=(i,)), so
results do not depend on the chunk a sample lands in or on how chunks are
scheduled across workers.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import harmonics
from .harmonics import SphereGrid, synthesize_tails
from .io import read_coefficient_csv
from .modes import degree_offsets, degree_sizes, mode_count, mode_degrees
from .noise import ConvFactorTable, _factor_entries, sample_degree_wishart
from .spectrum import PowerSpectrum, sobolev_scale
from .wave import expand, mode_stepper, rotate

# Test functionals phi(u); both depend on u only through the squared L^2 norm.
FUNCTIONALS = {
    "squared-norm": lambda s: s,
    "exp-neg-squared-norm": lambda s: np.exp(-s),
}


# The config schema: every key of ExperimentConfig is declared once, by _key;
# `validate` checks each key and cli._add_flags builds each flag from it.  Per
# kind, as JSON holds it: (what it takes, test).  No kind takes a bool, and an
# int beyond the float range is compared exactly, without converting it.
_KINDS = {
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
}


def _key(default, kind=str, help=None, choices=None, low=None, above=None):
    """A config key: its default (a key whose default is None also takes None),
    kind (str, int, float, or list: a non-empty list of ints), choices, bound
    (>= low, or > above) and help line."""
    spec = {"kind": kind, "help": help, "choices": choices, "low": low, "above": above}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=spec)
    return field(default=default, metadata=spec)


def _named(key: str) -> str:
    return f"{key} (--{key.replace('_', '-')})"


def _check_key(key: str, value, spec):
    """Refuse a value that is not of its key's kind, choices or bound, naming the key."""
    kind, low, above = spec["kind"], spec["low"], spec["above"]
    items = [value]
    if kind is list:
        if not (isinstance(value, (list, tuple)) and value):
            raise ValueError(f"{_named(key)} must be a non-empty list of integers, got {value!r}")
        items, kind = value, int
    what, is_kind = _KINDS[kind]
    for v in items:
        if not is_kind(v):
            raise ValueError(f"{_named(key)} must be {what}, got {v!r}")
        if (low is not None and v < low) or (above is not None and not v > above):
            bound = f">= {low}" if low is not None else f"> {above}"
            raise ValueError(f"{_named(key)} must be {bound}, got {v!r}")
    if spec["choices"] is not None and value not in spec["choices"]:
        raise ValueError(f"{_named(key)} must be one of {', '.join(spec['choices'])}, "
                         f"got {value!r}")


@dataclass
class ExperimentConfig:
    """Knobs for one convergence experiment (and for path simulation)."""

    equation: str = _key("wave", choices=("wave", "wave-dsphere", "schrodinger"))
    dim: int = _key(3, int, "ambient dimension (wave-dsphere)", low=3)
    alpha: float = _key(3.0, float, "spectrum decay exponent", above=0)
    scale: float = _key(1.0, float, "spectrum prefactor (0 = no noise)", low=0)
    ell0: int = _key(1, int, "start of the power-law tail", low=1)
    head_value: float = _key(1.0, float, "spectrum value at ell = 0", low=0)
    beta: float | None = _key(None, float, "Sobolev exponent of random v1")
    gamma: float | None = _key(None, float, "Sobolev exponent of random v2")
    initial_data: str = _key("zero", choices=("zero", "random-sobolev", "file"))
    v1_file: str | None = _key(None)
    v2_file: str | None = _key(None)
    T: float = _key(1.0, float, "final time", above=0)
    steps: int = _key(1, int, "time steps for simulate", low=1)
    kappas: list[int] = _key([2, 4, 8, 16, 32], list, "comma-separated band limits", low=0)
    kappa_ref: int = _key(64, int, "reference band limit", low=0)
    samples: int = _key(100, int, "Monte Carlo samples", low=1)
    seed: int = _key(0, int, "base seed", low=0)
    error_kind: str = _key("l2-coefficients", choices=("l2-coefficients", "max-grid"))
    n_theta: int | None = _key(None, int, "grid colatitudes", low=1)
    n_phi: int | None = _key(None, int, "grid longitudes", low=1)
    weak_functional: str = _key("squared-norm", choices=tuple(FUNCTIONALS))
    weak_method: str = _key("mc", choices=("mc", "analytic"),
                            help="mc: coupled Monte Carlo; analytic: exact squared-norm "
                                 "errors from the per-degree law, without sampling")
    store_every: int = _key(1, int, "trajectory storage stride", low=1)
    threads: int = _key(1, int, "worker threads for chunks of per-mode samples (grid errors)",
                        low=1)
    output: str = _key(".", help="output directory")

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                _check_key(f.name, value, f.metadata)
        if self.equation != "wave-dsphere" and self.dim != 3:
            raise ValueError(f"{_named('dim')} = {self.dim} requires equation 'wave-dsphere'")
        if self.dim != 3 and self.error_kind != "l2-coefficients":
            raise ValueError("grid-based errors are available for dim == 3 only")
        ks = self.kappas
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"{_named('kappas')} must be strictly increasing, got {ks}")
        if self.initial_data == "file" and not (self.v1_file or self.v2_file):
            raise ValueError("initial_data == 'file' needs v1_file and/or v2_file")
        harmonics.check_fits(f"{_named('kappa_ref')} = {self.kappa_ref}",
                             DEGREE_BYTES * (self.kappa_ref + 1), "per-degree tables")
        try:
            degree_sizes(self.kappa_ref, self.dim)
        except OverflowError as exc:
            raise ValueError(f"{_named('dim')} = {self.dim} with {_named('kappa_ref')} = "
                             f"{self.kappa_ref}: {exc}") from None
        for key in ("beta", "gamma") if self.initial_data == "random-sobolev" else ():
            exponent = getattr(self, key)
            with np.errstate(over="ignore"):
                huge = exponent is not None and not np.all(
                    np.isfinite(sobolev_scale(exponent, self.kappa_ref, self.dim) ** 2))
            if huge:
                raise ValueError(f"{_named(key)} = {exponent!r}: the variance of the random "
                                 f"data overflows")
        try:  # the law's entries are largest at degree 0, the wave's c11 = T^3 / 3
            ConvFactorTable.for_equation(self.equation, 0, self.dim, self.T)
        except OverflowError:
            raise ValueError(f"{_named('T')} = {self.T!r}: the noise law's covariance is not "
                             f"finite") from None

    def validate_experiment(self) -> ConvFactorTable:
        """Stricter checks for truncation-error experiments (not needed to simulate):
        above degree 0 the spectrum and the noise variance must have finite
        squares and, with zero data, must not underflow to 0, which would make
        errors 0.  Each names the key at fault.  Returns the noise law over T at
        kappa_ref that it checked."""
        self.validate()
        if self.kappa_ref <= max(self.kappas):
            raise ValueError(
                f"{_named('kappa_ref')} = {self.kappa_ref} must exceed every tested kappa "
                f"of {_named('kappas')} (max {max(self.kappas)})")
        values = self.power_spectrum().values(self.kappa_ref)[1:]  # degrees 1..kappa_ref
        decay = PowerSpectrum(self.alpha, 1.0, self.ell0).values(self.kappa_ref)[1:]
        law = ConvFactorTable.for_equation(self.equation, self.kappa_ref, self.dim, self.T)
        c11, c22 = law.covariance_matrices()[1:, [0, 1], [0, 1]].T
        with np.errstate(over="ignore"):
            checks = [("scale", ~np.isfinite(values * values), "squared spectrum overflows"),
                      ("T", ~np.isfinite((values * np.maximum(c11, c22)) ** 2),
                       "squared noise variance overflows")]
        if self.initial_data == "zero":
            checks += [("alpha", decay == 0.0, "spectrum underflows to 0"),
                       ("scale", values == 0.0, "spectrum underflows to 0"),
                       ("T", values * np.minimum(c11, c22) == 0.0,
                        "noise variance underflows to 0")]
        for key, bad, what in checks:
            if self.scale > 0 and bad.any():
                raise ValueError(f"{_named(key)} = {getattr(self, key)!r}: the {what} at "
                                 f"degree {np.argmax(bad) + 1}")
        return law

    def power_spectrum(self) -> PowerSpectrum:
        return PowerSpectrum(self.alpha, self.scale, self.ell0, self.head_value)

    def grid_shape(self) -> tuple[int, int]:
        """(n_theta, n_phi), by default the smallest exact grid for band kappa_ref."""
        n_theta = self.n_theta if self.n_theta is not None else self.kappa_ref + 1
        n_phi = self.n_phi if self.n_phi is not None else 2 * self.kappa_ref + 2
        return n_theta, n_phi

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

    def load(path):
        if not path:
            return None
        v = read_coefficient_csv(path)
        if v.dim != cfg.dim:
            raise ValueError(f"{path}: initial data has dim={v.dim}, "
                             f"the experiment needs dim={cfg.dim}")
        return v.truncated(cfg.kappa_ref)
    return load(cfg.v1_file), load(cfg.v2_file)


def initial_data(cfg: ExperimentConfig):
    """draw(rng) -> (v1, v2): the initial data per mode at kappa_ref, a missing
    component 0.0.

    Random-sobolev data draws the first component (if beta is set), then the
    second (if gamma is set) from rng, with the Sobolev scales gathered once,
    here.  Fixed data is read once, here, and ignores rng.
    """
    if cfg.initial_data == "random-sobolev":
        degrees = mode_degrees(cfg.kappa_ref, cfg.dim)
        scales = [None if exponent is None else sobolev_scale(exponent, cfg.kappa_ref,
                                                              cfg.dim)[degrees]
                  for exponent in (cfg.beta, cfg.gamma)]
        return lambda rng: tuple(0.0 if scale is None else scale * rng.standard_normal(scale.size)
                                 for scale in scales)
    fixed = tuple(0.0 if v is None else v.data for v in _load_initial_fields(cfg))
    return lambda rng: fixed


def _sample_rngs(seed: int, indices) -> list:
    """The generators of samples `indices`: sample i's is
    np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))).

    np.random is looked up here, on first use, so that importing the package
    does not load numpy.random."""
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            for i in indices]


class _TerminalSampler:
    """Draws coupled (component1, component2) coefficient arrays at kappa_ref.

    A sample is its initial data u0 (`initial_data`) and one step of size T
    of the path stepper (wave.mode_stepper), M u0 + (W1, sign * W2).  `draw`
    builds the stepper once per chunk and drops it on return, before the chunk
    is synthesized.  Fixed data is propagated once per chunk, M 0 included (the
    sum keeps its signed zeros), and the expanded rotation is dropped before
    the draws: kept, its arrays made glibc trim the heap after every chunk.

    Draw order per sample: first component data (if random), second component
    data (if random), then the convolution increments; this pins reproducibility.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.law = cfg.validate_experiment()
        self.cfg = cfg
        self.ps = cfg.power_spectrum()
        self.initial = initial_data(cfg)

    def draw(self, indices) -> np.ndarray:
        """Terminal states of the samples `indices`, shape (2 len(indices), n_modes):
        row 2k is sample indices[k]'s first component, row 2k + 1 its second."""
        data = np.empty((2 * len(indices), mode_count(self.cfg.kappa_ref, self.cfg.dim)))
        advance = mode_stepper(self.law, self.ps)
        if self.cfg.initial_data != "random-sobolev":  # M u0 once per chunk, rotation dropped
            mean, noise = rotate(advance.rotation, *self.initial(None)), advance.noise
            advance = lambda _u1, _u2, rng: noise.add(*mean, rng)  # noqa: E731
        for k, rng in enumerate(_sample_rngs(self.cfg.seed, indices)):
            data[2 * k], data[2 * k + 1] = advance(*self.initial(rng), rng)
        return data


def _terminal_law(cfg: ExperimentConfig, law: ConvFactorTable):
    """(Sigma, mean) of the state at T under `law`, the noise law over T at
    kappa_ref: within degree ell its h(ell, dim) modes are i.i.d. N(mu_m, Sigma_ell).

    Sigma, shape (kappa_ref + 1, 2, 2), is A_ell C_ell(T) for the noise, with
    C_ell the law's covariance of (W1, sign * W2), plus M_ell diag(s1^2, s2^2)
    M_ell^T for random-sobolev data, where M_ell is the law's noise-free step
    and s the data scale.  mean is the propagated file data M u0 per mode, or
    None without file data.
    """
    kref, dim = cfg.kappa_ref, cfg.dim
    sigma = cfg.power_spectrum().values(kref)[:, None, None] * law.covariance_matrices()
    if cfg.initial_data == "random-sobolev":
        rot = law.rotation_matrices()
        var = np.zeros((kref + 1, 2))
        for j, exponent in enumerate((cfg.beta, cfg.gamma)):
            if exponent is not None:
                var[:, j] = sobolev_scale(exponent, kref, dim) ** 2
        sigma = sigma + np.einsum("lij,lj,lkj->lik", rot, var, rot)
    if cfg.initial_data != "file":
        return sigma, None
    return sigma, rotate(expand(law.rotation, kref, dim), *initial_data(cfg)(None))


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
        law = cfg.validate_experiment()
        self.cfg = cfg
        sizes = degree_sizes(cfg.kappa_ref, cfg.dim)
        sigma, mean = _terminal_law(cfg, law)
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


# Peak resident bytes per degree of the per-degree tables: the growth of peak
# RSS between kappa_ref 1e5 and 4e5 (fresh processes, two runs each) was 169.5 B
# per degree for `weak --weak-method analytic` and 155.4-155.9 B for
# `convergence --samples 2`.
DEGREE_BYTES = 176

# Peak resident bytes per value (a sample at a tested kappa) of the sampled
# values: their chunks, concatenation, squares and deviations.  The growth of
# peak RSS between 100 and 1000 samples of `convergence --kappa-ref 1024` with
# the kappas 1..1023 was 64.0-64.2 B per value (three runs); 49.6 B for `weak`.
SAMPLE_VALUE_BYTES = 72

# Size of one (chunk, kappa_ref + 1) array of per-degree draws: at kappa_ref
# 256 a chunk holds 31 samples, and the chunk's arrays stay in the cache.
DEGREE_CHUNK_BYTES = 64 * 2**10


# Working memory of the fields of one chunk of grid-error samples, two fields
# each at the per-field bytes of harmonics.synthesis_bytes, up to kappa_ref 256: at
# kappa_ref 256 on the default grid, with the kappas 2, 4, ..., 32, a chunk
# holds 17 samples.  Every chunk pays a whole pass of the Legendre recurrence,
# so above 256 the budget grows as kappa_ref^2, as a field does, and a chunk
# keeps sharing each pass among several samples.  A worker (its chunk's fields
# plus what it holds whatever the chunk) stays within MAX_WORKER_BYTES.
SAMPLE_CHUNK_BYTES = 64 * 2**20
MAX_WORKER_BYTES = 960 * 2**20

# Arrays of 8 bytes per mode that a grid-error sampler holds beside its stack:
# the stepper's increment factors and rotation, one sample's normals and sums,
# and the initial data's Sobolev scales, which it holds for the whole run.
# Traced at kappa_ref 64 with chunks of 4 samples: 16.2 in draw plus the 2
# scales with random data in both components, 11.2 with zero data.
DRAW_MODE_ARRAYS = 20


def _grid_working_set(kappa_ref: int, shape: tuple[int, int], kappas) -> tuple[int, int]:
    """(per field, per worker): the bytes one grid-error worker holds for each
    field of its chunk, and whatever the chunk: those of synthesize_tails
    (harmonics.synthesis_bytes), and per worker the draw's per-mode arrays."""
    field, call, _ = harmonics.synthesis_bytes(kappa_ref, *shape, kappas)
    return field, call + 8 * DRAW_MODE_ARRAYS * (kappa_ref + 1) ** 2


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
    --samples; `worker_bytes` is what one worker holds for it.  Before the
    grid's nodes are built, the constructor refuses n samples whose workers (a
    chunk each, at most --threads at once) and phase tables would not fit.
    """

    def __init__(self, cfg: ExperimentConfig, n: int = 1):
        self.cfg = cfg
        n_theta, n_phi = shape = cfg.grid_shape()
        self.field_bytes, fixed = _grid_working_set(cfg.kappa_ref, shape, cfg.kappas)
        self.chunk = _sample_chunk(cfg.kappa_ref, self.field_bytes, fixed)
        self.worker_bytes = 2 * self.chunk * self.field_bytes + fixed
        workers = min(cfg.threads, -(-n // self.chunk))
        harmonics.check_fits(
            f"{_named('threads')} = {cfg.threads} on a {n_theta} x {n_phi} grid (n_theta x n_phi)",
            workers * self.worker_bytes + harmonics.phase_table_bytes(cfg.kappa_ref, n_phi),
            f"phase tables and {workers} x {self.worker_bytes / 1e9:.3g} GB of grid-error workers")
        self.grid = SphereGrid(*shape)
        self.sampler = _TerminalSampler(cfg)

    def sample(self, indices) -> np.ndarray:
        """Errors of the samples `indices`, shape (2 len(indices), len(kappas)),
        kappas ascending: rows 2k and 2k + 1 are sample indices[k]'s components.
        The drawn stack goes straight to synthesize_tails, which frees it once
        packed."""
        cfg = self.cfg
        largest_first, work = [], None  # |C| and |S|, allocated once the theta stage is done
        for halves in synthesize_tails(self.sampler.draw(indices), cfg.kappa_ref, self.grid,
                                       cfg.kappas):
            work = np.abs(halves, out=work)
            largest_first.append(np.add(*work, out=work[0]).max())
        return np.array(largest_first).reshape(-1, len(cfg.kappas))[:, ::-1]


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


def _sample_values(cfg: ExperimentConfig, n: int, per_degree=None):
    """Both components' values of samples 0..n-1, shape (n, 2, len(kappas)), the
    sampler name and grid metadata, chunk by chunk through _map_samples.

    The per-degree sampler serves coefficient-space values: per_degree maps a
    component's per-degree sums of squares (a row per sample) to its values,
    by default the tail norms.  Max-grid tail errors (no per_degree) draw every
    coefficient and synthesize a chunk's fields in one batch.
    """
    harmonics.check_fits(f"{_named('samples')} = {n}", SAMPLE_VALUE_BYTES * n * len(cfg.kappas),
                         "per-sample values")
    if per_degree is not None or cfg.error_kind == "l2-coefficients":
        sampler, name, meta = _DegreeSampler(cfg), "per-degree", {}
        reduce = per_degree or (lambda sums: _degree_tails(sums, cfg))

        def chunk_values(indices):
            s11, _, s22 = sampler.draw(indices)
            return np.stack([reduce(s11), reduce(s22)], axis=1)
    else:
        sampler, name = _TailErrors(cfg, n), "per-mode"  # refuses workers beyond memory
        meta = {"grid_n_theta": sampler.grid.n_theta, "grid_n_phi": sampler.grid.n_phi}

        def chunk_values(indices):
            return sampler.sample(indices).reshape(len(indices), 2, len(cfg.kappas))
    size = sampler.chunk
    chunks = _map_samples(cfg, lambda j: chunk_values(range(j * size, min(n, (j + 1) * size))),
                          -(-n // size), name)
    return np.concatenate(chunks), name, meta


def _tables(cfg, kind, errors, stderrs, sampler, extra) -> dict[str, ErrorTable]:
    """One table per component from errors and standard errors of shape (2, len(kappas))."""
    return {name: _make_table(cfg, kind, name, list(cfg.kappas), e, s, sampler, extra)
            for name, e, s in zip(cfg.component_names(), errors, stderrs)}


def _mean_and_stderr(values: np.ndarray):
    """Sample mean over the first axis and its standard error (0 for one sample)."""
    mean = values.mean(axis=0)
    if len(values) < 2:
        return mean, np.zeros_like(mean)
    return mean, values.std(axis=0, ddof=1) / math.sqrt(len(values))


def strong_error_experiment(cfg: ExperimentConfig) -> dict[str, ErrorTable]:
    """Mean-square truncation errors per kappa for both solution components."""
    errors, sampler, grid_meta = _sample_values(cfg, cfg.samples)
    mean_sq, se_mean = _mean_and_stderr(errors ** 2)
    rms = np.sqrt(mean_sq)
    stderr = np.where(rms > 0, se_mean / (2.0 * np.maximum(rms, 1e-300)), 0.0)
    return _tables(cfg, "strong", rms, stderr, sampler, grid_meta)


def pathwise_error_experiment(cfg: ExperimentConfig) -> dict[str, ErrorTable]:
    """Truncation errors along a single realization (sample index 0)."""
    (errors,), sampler, grid_meta = _sample_values(cfg, 1)
    return _tables(cfg, "pathwise", errors, np.zeros_like(errors), sampler, grid_meta)


def weak_error_experiment(cfg: ExperimentConfig) -> dict[str, ErrorTable]:
    """|E phi(u^kref) - E phi(u^kappa)| with common random numbers.

    Both supported functionals depend on u only through its squared L^2 norm,
    which is a prefix sum of the per-degree sums of squares under the coupling.
    """
    # phi of the tested prefixes and of the full norm in one call per chunk
    columns = np.append(cfg.kappas, cfg.kappa_ref)

    def deltas(per_degree):
        values = FUNCTIONALS[cfg.weak_functional](np.cumsum(per_degree, axis=1)[:, columns])
        return values[:, -1:] - values[:, :-1]

    mean, stderr = _mean_and_stderr(_sample_values(cfg, cfg.samples, deltas)[0])
    return _tables(cfg, "weak-mc", np.abs(mean), stderr, "per-degree",
                   {"functional": cfg.weak_functional})


def analytic_weak_error_experiment(cfg: ExperimentConfig) -> dict[str, ErrorTable]:
    """Exact weak errors of the squared norm, from the per-degree sampler's law.

    Under the coupling ||u^kappa_ref||^2 - ||u^kappa||^2 is the power of the
    degrees kappa < ell <= kappa_ref, whose mean per degree is
    E S_ell,ii = h_ell Sigma_ell,ii + G_ell,ii (_terminal_law; G is the mean
    Gram of file data, else zero).  Each error sums these from the top degree
    down, so no digits cancel in a difference of two totals.
    """
    law = cfg.validate_experiment()
    if cfg.weak_functional != "squared-norm":
        raise ValueError("analytic weak errors cover the squared norm only")
    kref, dim = cfg.kappa_ref, cfg.dim
    sigma, mean = _terminal_law(cfg, law)
    power = degree_sizes(kref, dim)[:, None] * sigma[:, [0, 1], [0, 1]]
    if mean is not None:
        g11, _, g22 = _mean_gram(*mean, degree_offsets(kref, dim))
        power += np.stack([g11, g22], axis=1)
    errors = _tail_sums(power.T, cfg)
    return _tables(cfg, "weak-analytic", errors, np.zeros_like(errors), "none",
                   {"functional": "squared-norm"})


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

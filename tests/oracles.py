"""Independent reference computations used across the test suite.

Apart from the per-step references at the end, nothing here shares code with
the package: Legendre values come from symbolic
differentiation of the generating polynomial, Gauss-Legendre nodes and weights
from Newton's method in mpmath's multiple precision, covariance entries from
adaptive quadrature of the kernel products, and norms from plain dense sums.  Grid
values are summed mode by mode from scipy's spherical harmonics, and the
Legendre table is built by the plain (ell, m) loop that the vectorized
builder must reproduce bit for bit.  The CSV writers below are the
line-by-line writers that the streaming writers in `spherewave.io` must
reproduce byte for byte, the one-generator Bartlett draw is the one the
chunked Wishart sampler must reproduce bit for bit, and numpy's SeedSequence
builds the per-sample generators that the chunk-wise derivation must match.

The per-step samplers below gather every per-degree entry through the mode
degrees on every step, and the Legendre table builds its recurrence
coefficients degree by degree: the samplers and the Legendre table that
expand or tabulate these once per run, chunk or block must reproduce them
bit for bit.  They take the per-degree tables (factor tables, propagators,
spectra) from the package.

The helpers at the end were public in the package although no package code
called them; the scalar covariances and factors still go through the
package's private entry functions (noise._conv_entries and _factor_entries),
so a test that compares them with quadrature keeps testing the package.
"""

import math
from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy import integrate
from scipy.special import sph_harm_y

from spherewave import noise
from spherewave.harmonics import synthesize_tails
from spherewave.harness import _load_initial_fields
from spherewave.modes import CoefficientField, degree_offsets, mode_count, mode_degrees
from spherewave.noise import ConvFactorTable, Propagator
from spherewave.spectrum import PowerSpectrum, sobolev_scale
from spherewave.wave import State


def rodrigues_legendre(ell: int, mu: float) -> float:
    """P_ell(mu) by differentiating (mu^2 - 1)^ell symbolically."""
    x = sp.Symbol("x")
    expr = sp.diff((x**2 - 1) ** ell, x, ell) / (2**ell * sp.factorial(ell))
    return float(expr.subs(x, sp.Rational(mu).limit_denominator(10**12)))


def symbolic_assoc_legendre(ell: int, m: int, mu: float) -> float:
    """P_{ell,m}(mu) with the Condon-Shortley phase, from the defining formula."""
    x = sp.Symbol("x")
    p_ell = sp.diff((x**2 - 1) ** ell, x, ell) / (2**ell * sp.factorial(ell))
    expr = (-1) ** m * (1 - x**2) ** sp.Rational(m, 2) * sp.diff(p_ell, x, m)
    return float(expr.subs(x, sp.Rational(mu).limit_denominator(10**12)).evalf(30))


def normalization_factor(ell: int, m: int) -> float:
    """sqrt((2 ell + 1)/(4 pi) (ell-m)!/(ell+m)!) via exact integers."""
    ratio = math.factorial(ell - m) / math.factorial(ell + m)
    return math.sqrt((2 * ell + 1) / (4 * math.pi) * ratio)


def wave_kernels(lam: float):
    if lam == 0.0:
        return (lambda s: s, lambda s: np.ones_like(np.asarray(s, dtype=float)))
    sq = math.sqrt(lam)
    return (lambda s: np.sin(sq * s) / sq, lambda s: np.cos(sq * s))


def schrodinger_kernels(lam: float):
    if lam == 0.0:
        return (lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                lambda s: np.ones_like(np.asarray(s, dtype=float)))
    sq = math.sqrt(lam)
    return (lambda s: np.sin(sq * s), lambda s: np.cos(sq * s))


def conv_covariance_quadrature(kernels, lam: float, t: float) -> np.ndarray:
    """2x2 covariance entries int_0^t R_i(s) R_j(s) ds by panelled adaptive quadrature.

    Panels of length at most pi/sqrt(lam) keep the integrand non-oscillatory
    within each call, so the result is reliable for strongly oscillatory modes.
    """
    r1, r2 = kernels(lam)
    n_panels = max(1, int(math.ceil(math.sqrt(lam) * t / math.pi))) if lam > 0 else 1
    edges = np.linspace(0.0, t, n_panels + 1)
    out = np.zeros((2, 2))
    for a, b in zip(edges[:-1], edges[1:]):
        out[0, 0] += integrate.quad(lambda s: r1(s) ** 2, a, b, epsabs=1e-13, epsrel=1e-13)[0]
        out[0, 1] += integrate.quad(lambda s: r1(s) * r2(s), a, b, epsabs=1e-13, epsrel=1e-13)[0]
        out[1, 1] += integrate.quad(lambda s: r2(s) ** 2, a, b, epsabs=1e-13, epsrel=1e-13)[0]
    out[1, 0] = out[0, 1]
    return out


def loop_legendre_table(kappa: int, theta) -> np.ndarray:
    """Lbar_{ell,m} packed m-major, one (ell, m) entry at a time in scalar arithmetic."""
    theta = np.asarray(theta, dtype=float)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    orders = np.arange(kappa + 2)
    offsets = orders * (kappa + 1) - orders * (orders - 1) // 2
    table = np.empty((offsets[-1], theta.size))
    diag = np.full(theta.size, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(kappa + 1):
        if m > 0:
            diag = -math.sqrt((2 * m + 1) / (2.0 * m)) * sin_t * diag
        base = offsets[m]
        table[base] = diag
        if m < kappa:
            table[base + 1] = math.sqrt(2 * m + 3.0) * cos_t * diag
        for n in range(m + 2, kappa + 1):
            a = math.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b = math.sqrt((2.0 * n + 1.0) / (2.0 * n - 3.0)
                          * ((n - 1.0) ** 2 - m * m) / (n * n - m * m))
            row = base + n - m
            table[row] = a * cos_t * table[row - 1] - b * table[row - 2]
    return table


def degree_recurrence_legendre_table(kappa: int, theta, m0: int = 0, m1=None) -> np.ndarray:
    """Lbar_{ell,m} for the orders m0 <= m < m1, packed m-major; the three-term
    recurrence runs degree by degree and forms a(n, m) and b(n, m) per degree."""
    m1 = kappa + 1 if m1 is None else m1
    theta = np.asarray(theta, dtype=float)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    all_orders = np.arange(kappa + 2)
    offsets = (all_orders * (kappa + 1) - all_orders * (all_orders - 1) // 2)[m0:m1 + 1]
    offsets = offsets - offsets[0]
    table = np.empty((offsets[-1], theta.size))
    factors = np.empty((m1, theta.size))
    factors[0] = 1.0 / math.sqrt(4.0 * math.pi)
    up = np.arange(1, m1)
    np.multiply(-np.sqrt((2 * up + 1) / (2.0 * up))[:, None], sin_t, out=factors[1:])
    diag = np.cumprod(factors, axis=0)[m0:]
    orders = np.arange(m0, m1)
    table[offsets[:-1]] = diag
    inner = orders < kappa
    table[offsets[:-1][inner] + 1] = (np.sqrt(2 * orders[inner] + 3.0)[:, None] * cos_t
                                      * diag[inner])
    prev, prev2, work = np.empty((3, m1 - m0, theta.size))
    for n in range(m0 + 2, kappa + 1):
        j = n - 2 - m0
        if j < m1 - m0:
            prev[j] = table[offsets[j] + 1]
            prev2[j] = table[offsets[j]]
        k = min(j + 1, m1 - m0)
        m = orders[:k]
        a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        b = np.sqrt((2.0 * n + 1.0) / (2.0 * n - 3.0)
                    * ((n - 1.0) ** 2 - m * m) / (n * n - m * m))
        row = np.multiply(a[:, None], cos_t, out=work[:k])
        row *= prev[:k]
        older = prev2[:k]
        older *= b[:, None]
        np.subtract(row, older, out=older)
        table[offsets[:k] + n - m] = older
        prev, prev2 = prev2, prev
    return table


def mp_gauss_legendre(n: int, guesses, digits: int = 40):
    """Gauss-Legendre nodes near the float `guesses` and their weights, as mpmath
    numbers: Newton's method on P_n at `digits` decimal digits, from each guess,
    with P_n and P_{n-1} by the three-term recurrence in exact rational steps."""
    import mpmath

    with mpmath.workdps(digits):
        out = []
        for guess in guesses:
            x = mpmath.mpf(float(guess))
            for _ in range(3):  # from a float guess, each step doubles the digits
                p0, p1 = mpmath.mpf(1), x
                for j in range(1, n):
                    p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
                slope = n * (p0 - x * p1)  # (1 - x^2) P_n'(x)
                x -= p1 * (1 - x * x) / slope
            out.append((x, 2 * (1 - x * x) / slope**2))
        return out


def tail_values_by_modes(data, kappa: int, theta, phi, above: int) -> np.ndarray:
    """(n_theta, n_phi) values of the degrees above `above` of a real S^2 expansion.

    Sums sqrt(2) Re/Im Y_ell^m (scipy, Condon-Shortley phase) mode by mode, in
    the package's storage order: (ell, 0), then (ell, m) cos and sin for m >= 1.
    """
    th, ph = np.meshgrid(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float),
                         indexing="ij")
    values = np.zeros(th.shape)
    for ell in range(above + 1, kappa + 1):
        base = ell * ell
        values += data[base] * sph_harm_y(ell, 0, th, ph).real
        for m in range(1, ell + 1):
            y = math.sqrt(2.0) * sph_harm_y(ell, m, th, ph)
            values += data[base + 2 * m - 1] * y.real + data[base + 2 * m] * y.imag
    return values


def harmonic_dimension(ell: int, dim: int) -> int:
    """h(ell, dim) as the difference of two counts of homogeneous monomials."""
    below = math.comb(ell + dim - 3, dim - 1) if ell >= 2 else 0
    return math.comb(ell + dim - 1, dim - 1) - below


def laplacian_eigenvalue(ell: int, dim: int = 3) -> float:
    """Eigenvalue of the Laplace-Beltrami operator on S^{dim-1} at degree ell."""
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    if dim < 3:
        raise ValueError(f"ambient dimension must be >= 3, got {dim}")
    return -float(ell * (ell + dim - 2))


def mode_labels(kappa: int, dim: int) -> list[tuple[int, int, int]]:
    """(ell, m, component) per flat index: (ell, 0, 0), then (ell, m, 1) and
    (ell, m, 2) for m >= 1 on S^2; (ell, j, 0) for j = 1..h(ell, dim) above."""
    if dim == 3:
        return [(ell, m, comp) for ell in range(kappa + 1)
                for m, comp in [(0, 0)] + [(m, c) for m in range(1, ell + 1) for c in (1, 2)]]
    return [(ell, j, 0) for ell in range(kappa + 1)
            for j in range(1, harmonic_dimension(ell, dim) + 1)]


def random_sobolev_data(beta: float, kappa: int, rng: np.random.Generator,
                        dim: int = 3) -> CoefficientField:
    """A centered Gaussian field whose truncation error saturates rate beta:
    the package's Sobolev scales gathered per mode on the spot."""
    if kappa < 0:
        raise ValueError(f"band limit must be non-negative, got {kappa}")
    sigma = sobolev_scale(beta, kappa, dim)[mode_degrees(kappa, dim)]
    return CoefficientField(sigma * rng.standard_normal(mode_count(kappa, dim)), kappa, dim)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Sample `index`'s generator, built by numpy's own SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def bartlett_wishart(l11, l21, l22, dof, rng):
    """(s11, s12, s22) per degree from one generator, chi2(k) drawn as gamma(k/2, 2).

    Draws a11^2 for every degree, then every a22^2, then every a21.
    """
    dof = np.asarray(dof, dtype=float)
    a11 = np.sqrt(rng.gamma(dof / 2.0, 2.0))
    a22 = np.sqrt(rng.gamma(np.maximum(dof - 1.0, 0.0) / 2.0, 2.0))
    a21 = np.where(dof > 0.0, rng.standard_normal(dof.shape), 0.0)
    p = l11 * a11
    q = l21 * a11 + l22 * a21
    r = l22 * a22
    return p * p, p * q, q * q + r * r


def _float(x) -> str:
    return f"{float(x):.16e}"


def _metadata_lines(metadata: dict) -> list[str]:
    return [f"# {key}={metadata[key]!r}" if isinstance(metadata[key], float)
            else f"# {key}={metadata[key]}" for key in sorted(metadata)]


def coefficient_csv_text(data, kappa: int, dim: int, metadata: dict) -> str:
    lines = _metadata_lines({**metadata, "kappa": kappa, "dim": dim})
    lines.append("ell,m,component,value")
    for (ell, m, comp), value in zip(mode_labels(kappa, dim), data):
        lines.append(f"{ell},{m},{comp},{_float(value)}")
    return "\n".join(lines) + "\n"


def grid_csv_text(values, theta, phi, metadata: dict) -> str:
    lines = _metadata_lines({**metadata, "n_theta": len(theta), "n_phi": len(phi)})
    lines.append("theta,phi,value")
    for i, th in enumerate(theta):
        for j, ph in enumerate(phi):
            lines.append(f"{_float(th)},{_float(ph)},{_float(values[i, j])}")
    return "\n".join(lines) + "\n"


def trajectory_csv_text(snapshots, kappa: int, dim: int, seed: int, metadata: dict) -> str:
    """snapshots: (t, [(field name, data), ...]) per stored state."""
    lines = _metadata_lines(metadata)
    lines.append("ell,m,component,value")
    labels = mode_labels(kappa, dim)
    for t, fields in snapshots:
        lines.append(f"# t={float(t)!r} kappa={kappa} d={dim} seed={seed}")
        for name, data in fields:
            lines.append(f"# field={name}")
            for (ell, m, comp), value in zip(labels, data):
                lines.append(f"{ell},{m},{comp},{_float(value)}")
    return "\n".join(lines) + "\n"


def _increments_by_gathers(ps, factors, rng):
    degrees = mode_degrees(factors.kappa, factors.dim)
    sa = np.sqrt(ps.values(factors.kappa))[degrees]
    x = rng.standard_normal((degrees.size, 2))
    w1 = sa * factors.d11[degrees] * x[:, 0]
    w2 = sa * (factors.d12[degrees] * x[:, 0] + factors.d22[degrees] * x[:, 1])
    return w1, w2


def step_by_gathers(equation, u1, u2, h, ps, factors, rng):
    """One exact step of the coefficient arrays (u1, u2), every per-degree entry
    gathered per mode on the spot."""
    kappa, dim = factors.kappa, factors.dim
    degrees = mode_degrees(kappa, dim)
    w1, w2 = _increments_by_gathers(ps, factors, rng)
    if equation == "schrodinger":
        x = np.sqrt(np.array([float(ell * (ell + 1)) for ell in range(kappa + 1)])) * h
        c, s = np.cos(x)[degrees], np.sin(x)[degrees]
        return c * u1 + s * u2 + w1, -s * u1 + c * u2 - w2
    prop = Propagator.build(kappa, dim, h)
    r1, r2, lam = prop.r1[degrees], prop.r2[degrees], prop.lam[degrees]
    return (r2 * u1 + r1 * u2) + w1, (-lam * r1 * u1 + r2 * u2) + w2


def _factor_table(equation, kappa, dim, h):
    if equation == "schrodinger":
        return ConvFactorTable.for_schrodinger(kappa, h)
    return ConvFactorTable.for_wave(kappa, dim, h)


def terminal_state_by_steps(cfg, index):
    """Both components at T of grid-error sample `index`: draw the data of the
    sample from its own generator, then take one step of size T."""
    kappa, dim = cfg.kappa_ref, cfg.dim
    rng = sample_rng(cfg.seed, index)
    data = []
    for fixed, exponent in zip(_load_initial_fields(cfg), (cfg.beta, cfg.gamma)):
        if cfg.initial_data == "random-sobolev" and exponent is not None:
            data.append(random_sobolev_data(exponent, kappa, rng, dim).data)
        elif fixed is not None:
            data.append(fixed.data)
        else:
            data.append(np.zeros(mode_count(kappa, dim)))
    factors = _factor_table(cfg.equation, kappa, dim, cfg.T)
    return step_by_gathers(cfg.equation, *data, cfg.T, cfg.power_spectrum(), factors, rng)


def grid_tail_errors(data, cfg, grid) -> np.ndarray:
    """Max-norm tail errors of the (B, n_modes) stack `data`, shape
    (B, len(kappas)), kappas ascending: the largest |C| + |S| of each of
    synthesize_tails' folded halves, taken before the generator advances."""
    maxima = [np.max(np.abs(c) + np.abs(s))
              for c, s in synthesize_tails(data, cfg.kappa_ref, grid, cfg.kappas)]
    return np.array(maxima).reshape(-1, len(cfg.kappas))[:, ::-1]


def path_by_steps(equation, ps, u1, u2, kappa, dim, T, steps, seed, store_every):
    """(t, u1, u2) of the stored states of one path, step by step from one generator."""
    h = T / steps
    factors = _factor_table(equation, kappa, dim, h)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = 0.0
    stored = [(t, u1, u2)]
    for j in range(1, steps + 1):
        u1, u2 = step_by_gathers(equation, u1, u2, h, ps, factors, rng)
        t = t + h
        if j % store_every == 0 or j == steps:
            stored.append((t, u1, u2))
    return stored


def mp_wave_weak_tails(ps, kappa_ref: int, kappas, t: float, dim: int = 3,
                       digits: int = 40):
    """Exact E ||tail above kappa||^2 per kappa of both wave components with zero
    data: the sums over kappa < ell <= kappa_ref of h(ell, dim) A_ell
    c_11|22(ell, t), with the closed-form entries evaluated in mpmath at
    `digits` decimal digits and summed exactly (fsum).  Returns two lists of
    floats, position then velocity."""
    import mpmath

    with mpmath.workdps(digits):
        t = mpmath.mpf(t)
        terms = []
        for ell in range(kappa_ref + 1):
            a = (mpmath.mpf(ps.head_value) if ell == 0
                 else ps.scale * mpmath.mpf(max(ell, ps.ell0)) ** (-mpmath.mpf(ps.alpha)))
            if ell == 0:
                c11, c22 = t**3 / 3, t
            else:
                sq = mpmath.sqrt(ell * (ell + dim - 2))
                x = sq * t
                c11 = (2 * x - mpmath.sin(2 * x)) / (4 * sq**3)
                c22 = (2 * x + mpmath.sin(2 * x)) / (4 * sq)
            weight = harmonic_dimension(ell, dim) * a
            terms.append((weight * c11, weight * c22))
        return [[float(mpmath.fsum(term[j] for term in terms[k + 1:])) for k in kappas]
                for j in range(2)]


# ---------------------------------------------------------------------------
# helpers that no package code calls
# ---------------------------------------------------------------------------

def index_of(ell: int, m: int, component: int = 0) -> int:
    """Flat index of the S^2 mode (ell, m, component): 0 for m = 0, then 1 (cos)
    and 2 (sin)."""
    if not 0 <= m <= ell or (component == 0) != (m == 0) or component not in (0, 1, 2):
        raise ValueError(f"no mode (ell={ell}, m={m}, component={component})")
    return ell * ell + (0 if m == 0 else 2 * m - 1 + (component - 1))


def assoc_legendre(ell: int, m: int, mu):
    """Associated Legendre function P_{ell,m}(mu) with the (-1)^m phase.

    Stable recurrence in ell at fixed m.  Unnormalized, so the seed
    (2m-1)!! overflows double precision around m = 150.
    """
    if ell < 0 or not 0 <= m <= ell:
        raise ValueError(f"need 0 <= m <= ell, got ell={ell}, m={m}")
    mu = np.asarray(mu, dtype=float)
    if np.any(np.abs(mu) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    # P_{m,m} = (-1)^m (2m-1)!! (1 - mu^2)^(m/2)
    pmm = np.ones_like(mu)
    if m > 0:
        s = np.sqrt((1.0 - mu) * (1.0 + mu))
        for k in range(1, m + 1):
            pmm = -pmm * (2 * k - 1) * s
    if ell == m:
        return pmm if pmm.ndim else float(pmm)
    pm1 = mu * (2 * m + 1) * pmm
    if ell == m + 1:
        return pm1 if pm1.ndim else float(pm1)
    for n in range(m + 2, ell + 1):
        pm1, pmm = ((2 * n - 1) * mu * pm1 - (n + m - 1) * pmm) / (n - m), pm1
    return pm1 if pm1.ndim else float(pm1)


def normalized_legendre(ell: int, m: int, theta: float) -> float:
    """Lbar_{ell,m}(theta) as the normalization factor times P_{ell,m}(cos theta);
    like assoc_legendre, it overflows near m = 150."""
    return normalization_factor(ell, m) * assoc_legendre(ell, m, math.cos(theta))


def grid_weights(grid) -> np.ndarray:
    """Full quadrature weight matrix of a SphereGrid, summing to 4 pi: the
    Gauss-Legendre weights times the uniform phi weight 2 pi / n_phi."""
    return np.outer(grid.theta_weights, np.full(grid.n_phi, 2.0 * math.pi / grid.n_phi))


def grid_integrate(grid, values) -> float:
    """Quadrature of (n_theta, n_phi) grid values, as a dense weighted sum."""
    return float(np.sum(grid_weights(grid) * values))


def grid_l2_norm(f) -> float:
    """L^2 norm of a GridField via the grid quadrature weights."""
    return math.sqrt(max(grid_integrate(f.grid, f.values**2), 0.0))


def grid_max_abs(f) -> float:
    return float(np.max(np.abs(f.values)))


ZERO_SPECTRUM = PowerSpectrum(alpha=1.0, scale=0.0, head_value=0.0)


def spectrum_eval(ps, ell: int) -> float:
    """A_ell from the definition: the head value at ell = 0, then the power law
    with its flat part below ell0."""
    if ell == 0:
        return ps.head_value
    return ps.scale * float(max(ell, ps.ell0)) ** (-ps.alpha)


def degree_power(f: CoefficientField) -> np.ndarray:
    """Sum of squared coefficients per degree, length kappa + 1."""
    return np.add.reduceat(f.data**2, degree_offsets(f.kappa, f.dim))


def sobolev_norm(f: CoefficientField, s: float) -> float:
    """H^s norm: ( sum (1 + ell(ell+dim-2))^s c^2 )^(1/2); s = 0 is the L^2 norm."""
    lam = np.array([-laplacian_eigenvalue(ell, f.dim) for ell in range(f.kappa + 1)])
    weights = (1.0 + lam) ** s
    return float(np.sqrt(np.dot(weights[mode_degrees(f.kappa, f.dim)], f.data**2)))


@dataclass(frozen=True)
class ConvCovariance:
    """2x2 covariance of a per-mode stochastic-convolution vector."""

    c11: float
    c12: float
    c22: float
    lam: float
    t: float

    def matrix(self) -> np.ndarray:
        return np.array([[self.c11, self.c12], [self.c12, self.c22]])

    def psd_defect(self) -> float:
        """det shortfall relative to c11*c22; >= -1e-14 for a valid covariance."""
        prod = self.c11 * self.c22
        if prod == 0.0:
            return 0.0
        return (prod - self.c12**2) / prod


def _scalar_entries(kind, ell, dim, t):
    """(lam, (c11, c12, c22)) of one degree from the package's entry function."""
    noise._check_time(t)
    lam = -laplacian_eigenvalue(ell, dim)
    return lam, noise._conv_entries(np.array([lam]), t, kind)


def wave_conv_covariance(ell: int, dim: int, t: float) -> ConvCovariance:
    lam, c = _scalar_entries("wave", ell, dim, t)
    return ConvCovariance(*(float(x[0]) for x in c), lam, t)


def wave_conv_cholesky(ell: int, dim: int, t: float) -> tuple[float, float, float]:
    """(d11, d12, d22) with D^T D equal to the wave covariance."""
    _, c = _scalar_entries("wave", ell, dim, t)
    return tuple(float(d[0]) for d in noise._factor_entries(*c))


def schrodinger_conv_covariance(ell: int, t: float) -> ConvCovariance:
    lam, c = _scalar_entries("schrodinger", ell, 3, t)
    return ConvCovariance(*(float(x[0]) for x in c), lam, t)


def analytic_second_moment(ps, kappa: int, t: float, dim: int = 3,
                           v1: CoefficientField | None = None,
                           v2: CoefficientField | None = None):
    """Closed-form E ||u1^kappa(t)||^2 and E ||u2^kappa(t)||^2 of the wave equation.

    The noise contributes sum_{ell<=kappa} h(ell, dim) A_ell c_11|22(ell, t),
    with the scalar covariances above; deterministic data adds its energy
    after the closed-form rotation, R2 u1 + R1 u2 and -lam R1 u1 + R2 u2 per
    mode.  Nothing here goes through a factor table, a propagator or a sampler.
    """
    pos = vel = 0.0
    for ell in range(kappa + 1):
        c = wave_conv_covariance(ell, dim, t)
        weight = harmonic_dimension(ell, dim) * spectrum_eval(ps, ell)
        pos += weight * c.c11
        vel += weight * c.c22
    if v1 is not None or v2 is not None:
        lam = np.array([-laplacian_eigenvalue(ell, dim) for ell in mode_degrees(kappa, dim)])
        sq = np.sqrt(lam)
        r1 = np.where(lam > 0.0, np.sin(sq * t) / np.where(lam > 0.0, sq, 1.0), t)
        r2 = np.cos(sq * t)
        zero = CoefficientField.zeros(kappa, dim)
        u1, u2 = ((v or zero).truncated(kappa).data for v in (v1, v2))
        pos += float(np.sum((r2 * u1 + r1 * u2) ** 2))
        vel += float(np.sum((-lam * r1 * u1 + r2 * u2) ** 2))
    return pos, vel


def wiener_increment(ps, kappa: int, dim: int, h: float,
                     rng: np.random.Generator) -> CoefficientField:
    """Increment of the Q-Wiener process over a step h (spectrum scaled by h)."""
    noise._check_time(h)
    sigma = np.sqrt(h * ps.values(kappa))[mode_degrees(kappa, dim)]
    return CoefficientField(sigma * rng.standard_normal(sigma.size), kappa, dim)


def propagator_matrix(prop: Propagator, ell: int) -> np.ndarray:
    return np.array([[prop.r2[ell], prop.r1[ell]],
                     [-prop.lam[ell] * prop.r1[ell], prop.r2[ell]]])


def determinants(prop: Propagator) -> np.ndarray:
    return prop.r2**2 + prop.lam * prop.r1**2


def mode_energy(state: State) -> np.ndarray:
    """Per-degree oscillator energy lam |u1|^2 + |u2|^2; conserved without noise."""
    lam = np.array([-laplacian_eigenvalue(ell, state.dim) for ell in range(state.kappa + 1)])
    return lam * degree_power(state.u1) + degree_power(state.u2)


def mode_modulus(state: State) -> np.ndarray:
    """Per-degree squared modulus |uR|^2 + |uI|^2; conserved without noise."""
    return degree_power(state.u1) + degree_power(state.u2)


def add_increments(state: State, w1: CoefficientField, w2: CoefficientField) -> State:
    return State(CoefficientField(state.u1.data + w1.data, state.kappa, state.dim),
                 CoefficientField(state.u2.data + w2.data, state.kappa, state.dim), t=state.t)

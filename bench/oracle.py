"""Correctness checks on the CLI's output files, independent of the sampler.

Everything here is computed from closed forms and the raw files; nothing is
imported from spherewave.  With zero initial data, every degree-ell mode of
the solution after time T is a centered Gaussian whose variance is A_ell
times a diagonal entry of the stochastic-convolution covariance (noise.py):

    wave:         c11 = (2x - sin 2x) / (4 lam^(3/2)),  c22 = (2x + sin 2x) / (4 sqrt(lam))
    Schrodinger:  c11 = (2x - sin 2x) / (4 sqrt(lam)),  c22 = (2x + sin 2x) / (4 sqrt(lam))

with lam = ell (ell + 1) on S^2 and x = sqrt(lam) T.  At ell = 0 the wave
entries are T^3/3 and T; the Schrodinger ones are 0 and T.  The squared tail
norm above degree kappa, summed over the 2 ell + 1 modes of each degree, has
mean sum (2 ell + 1) A_ell c_ii and variance sum 2 (2 ell + 1) (A_ell c_ii)^2.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

Z_LIMIT = 5.0          # Monte Carlo standard errors allowed between estimate and mean
PARSEVAL_RTOL = 1e-9
SERIES_BELOW = 0.5     # below this x, 2x - sin 2x is summed as a power series


def two_x_minus_sin_2x(x):
    """2x - sin 2x; the power series sum_k (-1)^(k+1) (2x)^(2k+1)/(2k+1)! for small x."""
    x = np.asarray(x, dtype=float)
    y = 2.0 * x
    term = y**3 / 6.0
    series = term.copy()
    for k in range(2, 12):
        term = -term * y * y / ((2 * k) * (2 * k + 1))
        series = series + term
    with np.errstate(invalid="ignore"):
        return np.where(x < SERIES_BELOW, series, y - np.sin(y))


def diagonal_entries(equation: str, ells, T: float):
    """(c11, c22) per degree for one step of size T on S^2."""
    ells = np.asarray(ells, dtype=float)
    lam = ells * (ells + 1.0)
    sq = np.sqrt(lam)
    x = sq * T
    zero = lam == 0.0
    safe = np.where(zero, 1.0, sq)
    c22 = np.where(zero, T, (2.0 * x + np.sin(2.0 * x)) / (4.0 * safe))
    if equation == "schrodinger":
        c11 = np.where(zero, 0.0, two_x_minus_sin_2x(x) / (4.0 * safe))
    else:
        c11 = np.where(zero, T**3 / 3.0, two_x_minus_sin_2x(x) / (4.0 * safe**3))
    return c11, c22


def power(ells, alpha: float):
    """Default power spectrum: A_0 = 1, A_ell = ell^-alpha."""
    ells = np.asarray(ells, dtype=float)
    return np.where(ells == 0, 1.0, np.maximum(ells, 1.0) ** -alpha)


def tail_moments(equation: str, alpha: float, T: float, kappa_ref: int, kappas):
    """Per component (index 0, 1): mean and variance of ||tail above kappa||^2."""
    ells = np.arange(kappa_ref + 1)
    a = power(ells, alpha)
    h = 2.0 * ells + 1.0
    out = []
    for c in diagonal_entries(equation, ells, T):
        v = a * c
        out.append(([float(np.sum((h * v)[k + 1:])) for k in kappas],
                    [float(np.sum((2.0 * h * v * v)[k + 1:])) for k in kappas]))
    return out


# --------------------------------------------------------------------------
# file readers
# --------------------------------------------------------------------------

def _components(params) -> tuple[str, str]:
    if params["equation"] == "schrodinger":
        return ("real", "imag")
    return ("position", "velocity")


def _kappas(params) -> list[int]:
    return [int(k) for k in str(params["kappas"]).split(",")]


def _read_table(outdir, stem, component):
    with open(os.path.join(outdir, f"{stem}_{component}.json")) as fh:
        payload = json.load(fh)
    return np.asarray(payload["kappas"]), np.asarray(payload["errors"], dtype=float)


# --------------------------------------------------------------------------
# checks: each returns a list of failure messages (empty when correct)
# --------------------------------------------------------------------------

def _check_tail_means(params, outdir, stem, squared):
    """Estimated E||tail||^2 per kappa within Z_LIMIT standard errors of the mean."""
    kappas = _kappas(params)
    n = int(params["samples"])
    moments = tail_moments(params["equation"], float(params["alpha"]), float(params["T"]),
                           int(params["kappa_ref"]), kappas)
    problems = []
    for component, (mean, var) in zip(_components(params), moments):
        ks, errors = _read_table(outdir, stem, component)
        if list(ks) != kappas:
            problems.append(f"{component}: kappas {list(ks)} != {kappas}")
            continue
        estimate = squared(errors)
        for k, est, m, v in zip(kappas, estimate, mean, var):
            z = abs(est - m) / math.sqrt(v / n)
            if not z <= Z_LIMIT:
                problems.append(f"{component} kappa={k}: E||tail||^2 estimate {est:.6e} "
                                f"vs {m:.6e} is {z:.1f} standard errors off")
    return problems


def check_strong_tails(params, outdir):
    # the table holds the RMS error, so its square estimates E||tail||^2
    return _check_tail_means(params, outdir, "convergence", lambda e: e**2)


def check_weak_tails(params, outdir):
    # |E(||u||^2 - ||u^kappa||^2)| is the mean squared tail itself
    return _check_tail_means(params, outdir, "weak", lambda e: e)


def check_grid_max(params, outdir):
    """Max-norm errors are finite and positive, and mean max^2 >= E||tail||^2 / 4 pi."""
    kappas = _kappas(params)
    moments = tail_moments(params["equation"], float(params["alpha"]), float(params["T"]),
                           int(params["kappa_ref"]), kappas)
    problems = []
    for component, (mean, _) in zip(_components(params), moments):
        ks, errors = _read_table(outdir, "convergence", component)
        if list(ks) != kappas:
            problems.append(f"{component}: kappas {list(ks)} != {kappas}")
            continue
        if not np.all(np.isfinite(errors) & (errors > 0)):
            problems.append(f"{component}: errors not finite and positive: {errors}")
            continue
        for k, e, m in zip(kappas, errors, mean):
            if not e**2 >= m / (4.0 * math.pi):
                problems.append(f"{component} kappa={k}: mean max^2 {e**2:.6e} below "
                                f"E||tail||^2/4pi = {m / (4.0 * math.pi):.6e}")
    return problems


def _snapshot_count(steps: int, store_every: int) -> int:
    return 1 + len({j for j in range(1, steps + 1) if j % store_every == 0 or j == steps})


def _last_position(text: str) -> np.ndarray:
    block = text[text.rindex("\n# t="):]
    start = block.index("# field=position\n") + len("# field=position\n")
    end = block.index("\n# field=", start)
    return np.array([float(line.rsplit(",", 1)[1]) for line in block[start:end].split("\n")])


def _read_grid(path):
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif not line.startswith("theta"):
                rows.append(line)
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    return int(meta["n_theta"]), int(meta["n_phi"]), data


def check_trajectory(params, outdir):
    """Snapshot count, and Parseval between final_field.csv and the last snapshot."""
    with open(os.path.join(outdir, "trajectory.csv")) as fh:
        text = fh.read()
    problems = []
    expected = _snapshot_count(int(params["steps"]), int(params.get("store_every", 1)))
    found = text.count("\n# t=")
    if found != expected:
        problems.append(f"trajectory has {found} snapshots, expected {expected}")
    coeff_norm = float(np.linalg.norm(_last_position(text)))

    n_theta, n_phi, data = _read_grid(os.path.join(outdir, "final_field.csv"))
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    theta = data[:, 0].reshape(n_theta, n_phi)[:, 0]
    # nodes ascend in cos(theta), so they descend in theta
    if not np.allclose(np.cos(theta), nodes[::-1], rtol=0, atol=1e-12):
        problems.append("final_field.csv colatitudes are not Gauss-Legendre nodes")
        return problems
    values = data[:, 2].reshape(n_theta, n_phi)
    quad = float(weights[::-1] @ (values**2).sum(axis=1)) * 2.0 * math.pi / n_phi
    grid_norm = math.sqrt(quad)
    if not abs(grid_norm - coeff_norm) <= PARSEVAL_RTOL * coeff_norm:
        problems.append(f"Parseval: grid L2 norm {grid_norm!r} vs coefficient norm "
                        f"{coeff_norm!r}")
    return problems


CHECKS = {
    "strong-tails": check_strong_tails,
    "weak-tails": check_weak_tails,
    "grid-max": check_grid_max,
    "trajectory": check_trajectory,
}


def check(name: str, params: dict, outdir: str) -> list[str]:
    """Run one named check; a missing or unreadable file is a failure, not a crash."""
    try:
        return CHECKS[name](params, outdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{name}: {type(exc).__name__}: {exc}"]

"""File formats: CSV tables with '# key=value' metadata headers and JSON twins.

Every file starts with a metadata block reproducing the resolved configuration,
so a run can be repeated bit-identically from its own output.  Floating-point
values are written with 17 significant digits (lossless round trip); nothing
time- or environment-dependent is ever written.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .harmonics import GridField
from .harness import ErrorTable
from .modes import CoefficientField, mode_labels


def format_float(x: float) -> str:
    return f"{float(x):.16e}"


def _metadata_lines(metadata: dict) -> list[str]:
    lines = []
    for key in sorted(metadata):
        value = metadata[key]
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"# {key}={value}")
    return lines


def write_error_table_csv(path: str, table: ErrorTable):
    lines = _metadata_lines(table.metadata)
    lines.append("kappa,error,stderr")
    for k, e, s in zip(table.kappas, table.errors, table.stderrs):
        lines.append(f"{k},{format_float(e)},{format_float(s)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_error_table_json(path: str, table: ErrorTable):
    payload = {
        "kappas": [int(k) for k in table.kappas],
        "errors": [float(e) for e in table.errors],
        "stderrs": [float(s) for s in table.stderrs],
        "slope": float(table.slope),
        "fit_kappas": [int(k) for k in table.fit_kappas],
        "metadata": {k: table.metadata[k] for k in sorted(table.metadata)},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_coefficient_csv(path: str, field: CoefficientField, metadata: dict | None = None):
    meta = dict(metadata) if metadata else {}
    # the field's own shape wins over whatever the caller carries
    meta.update({"kappa": field.kappa, "dim": field.dim})
    lines = _metadata_lines(meta)
    lines.append("ell,m,component,value")
    for (ell, m, comp), value in zip(mode_labels(field.kappa, field.dim), field.data):
        lines.append(f"{ell},{m},{comp},{format_float(value)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficient_csv(path: str) -> CoefficientField:
    """Coefficients written by write_coefficient_csv.

    Rows must carry the (ell, m, component) labels of mode_labels(kappa, dim)
    in storage order, one row per mode; anything else (reordered, mislabelled,
    missing or extra rows) is rejected, naming the file and the first bad row.
    """
    meta = {}
    rows = []  # (line number, fields)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    meta[key.strip()] = val.strip()
                continue
            if line.startswith("ell,"):
                continue
            rows.append((lineno, line.split(",")))
    if "kappa" not in meta:
        raise ValueError(f"{path}: missing '# kappa=...' metadata line")
    kappa = int(meta["kappa"])
    dim = int(meta.get("dim", 3))
    labels = mode_labels(kappa, dim)
    values = np.empty(len(labels))
    for j, (lineno, fields) in enumerate(rows):
        if j >= len(labels):
            raise ValueError(f"{path}: line {lineno}: more than the {len(labels)} coefficient "
                             f"rows of kappa={kappa}, dim={dim}")
        try:
            label = tuple(int(f) for f in fields[:3])
            values[j] = float(fields[3])
        except (ValueError, IndexError):
            raise ValueError(f"{path}: line {lineno}: expected 'ell,m,component,value', "
                             f"got {','.join(fields)!r}") from None
        if label != labels[j]:
            raise ValueError(f"{path}: line {lineno}: mode label {label} where {labels[j]} "
                             f"is expected (rows must follow the storage order)")
    if len(rows) != len(labels):
        raise ValueError(f"{path}: {len(rows)} coefficient rows, expected {len(labels)} "
                         f"for kappa={kappa}, dim={dim}; first missing mode {labels[len(rows)]}")
    return CoefficientField(values, kappa, dim)


def write_grid_field_csv(path: str, field: GridField, metadata: dict | None = None):
    """Row-major (theta, phi) samples; header theta,phi,value."""
    meta = dict(metadata) if metadata else {}
    # the resolved grid size wins over whatever the caller carries
    meta.update({"n_theta": field.grid.n_theta, "n_phi": field.grid.n_phi})
    lines = _metadata_lines(meta)
    lines.append("theta,phi,value")
    for i, theta in enumerate(field.grid.theta):
        ts = format_float(theta)
        for j, phi in enumerate(field.grid.phi):
            lines.append(f"{ts},{format_float(phi)},{format_float(field.values[i, j])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _snapshot_lines(fields_by_name, t, kappa, dim, seed):
    lines = [f"# t={repr(float(t))} kappa={kappa} d={dim} seed={seed}"]
    labels = mode_labels(kappa, dim)
    for name, data in fields_by_name:
        lines.append(f"# field={name}")
        for (ell, m, comp), value in zip(labels, data):
            lines.append(f"{ell},{m},{comp},{format_float(value)}")
    return lines


def write_wave_trajectory_csv(path: str, trajectory, seed: int, metadata: dict | None = None):
    lines = _metadata_lines(metadata or {})
    lines.append("ell,m,component,value")
    for state in trajectory:
        lines.extend(_snapshot_lines(
            [("position", state.position.data), ("velocity", state.velocity.data)],
            state.t, state.kappa, state.dim, seed))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_schrodinger_trajectory_csv(path: str, trajectory, seed: int,
                                     metadata: dict | None = None):
    lines = _metadata_lines(metadata or {})
    lines.append("ell,m,component,value")
    for state in trajectory:
        lines.extend(_snapshot_lines(
            [("real", state.real.data), ("imag", state.imag.data)],
            state.t, state.kappa, 3, seed))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ensure_dir(path: str):
    os.makedirs(path, exist_ok=True)

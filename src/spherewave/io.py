"""File formats: CSV tables with '# key=value' metadata headers and JSON twins.

Every file starts with a metadata block reproducing the resolved configuration,
so a run can be repeated bit-identically from its own output.  Floating-point
values are written with 17 significant digits (lossless round trip); nothing
time- or environment-dependent is ever written.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .harmonics import GridField
from .harness import ErrorTable
from .modes import CoefficientField, mode_count, mode_labels


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


def _header(metadata: dict, columns: str) -> str:
    return "\n".join(_metadata_lines(metadata) + [columns]) + "\n"


def _mode_template(kappa: int, dim: int) -> str:
    """'%' template of one field's rows 'ell,m,component,value', one per mode in
    storage order; `template % tuple(data.tolist())` formats every value as
    format_float does."""
    return "".join(f"{ell},{m},{comp},%.16e\n" for ell, m, comp in mode_labels(kappa, dim))


def write_coefficient_csv(path: str, field: CoefficientField, metadata: dict | None = None):
    meta = dict(metadata) if metadata else {}
    # the field's own shape wins over whatever the caller carries
    meta.update({"kappa": field.kappa, "dim": field.dim})
    with open(path, "w") as fh:
        fh.write(_header(meta, "ell,m,component,value"))
        fh.write(_mode_template(field.kappa, field.dim) % tuple(field.data.tolist()))


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
    if kappa < 0 or dim < 3:
        raise ValueError(f"{path}: need kappa >= 0 and dim >= 3, got kappa={kappa}, dim={dim}")
    # Every degree has at least one mode, so a file with at most kappa rows is
    # short whatever dim is; otherwise kappa is below the row count and the
    # mode count costs O(rows).  The labels are built only for a file of the
    # right length.
    n_modes = mode_count(kappa, dim) if len(rows) > kappa else None
    if n_modes is not None and len(rows) > n_modes:
        raise ValueError(f"{path}: line {rows[n_modes][0]}: more than the {n_modes} "
                         f"coefficient rows of kappa={kappa}, dim={dim}")
    if len(rows) != n_modes:
        expected = n_modes if n_modes is not None else f"at least {kappa + 1}"
        raise ValueError(f"{path}: {len(rows)} coefficient rows, expected {expected} "
                         f"for kappa={kappa}, dim={dim}")
    labels = mode_labels(kappa, dim)
    values = np.empty(n_modes)
    for j, (lineno, fields) in enumerate(rows):
        try:
            label = tuple(int(f) for f in fields[:3])
            values[j] = float(fields[3])
        except (ValueError, IndexError):
            raise ValueError(f"{path}: line {lineno}: expected 'ell,m,component,value', "
                             f"got {','.join(fields)!r}") from None
        if label != labels[j]:
            raise ValueError(f"{path}: line {lineno}: mode label {label} where {labels[j]} "
                             f"is expected (rows must follow the storage order)")
    return CoefficientField(values, kappa, dim)


def write_grid_field_csv(path: str, field: GridField, metadata: dict | None = None):
    """Row-major (theta, phi) samples; header theta,phi,value."""
    meta = dict(metadata) if metadata else {}
    # the resolved grid size wins over whatever the caller carries
    meta.update({"n_theta": field.grid.n_theta, "n_phi": field.grid.n_phi})
    # theta.join(pieces) is the '%' template of one theta row: theta precedes
    # every piece but the empty first one
    pieces = [""] + [f",{format_float(phi)},%.16e\n" for phi in field.grid.phi]
    with open(path, "w") as fh:
        fh.write(_header(meta, "theta,phi,value"))
        for theta, row in zip(field.grid.theta, field.values):
            fh.write(format_float(theta).join(pieces) % tuple(row.tolist()))


def _write_trajectory_csv(path, states, seed, metadata, names):
    """Write each state's fields `names` as it arrives; return the last state.

    The file is written under a temporary name in the same directory and
    renamed to `path` after the last state, so a run that fails midway
    leaves no trajectory that looks complete.
    """
    partial = path + ".part"
    state = shape = template = None
    try:
        with open(partial, "w") as fh:
            fh.write(_header(metadata or {}, "ell,m,component,value"))
            for state in states:
                fields = [getattr(state, name) for name in names]
                if template is None:
                    shape = (fields[0].kappa, fields[0].dim)
                    template = _mode_template(*shape)
                if any((f.kappa, f.dim) != shape for f in fields):
                    raise ValueError(f"state at t={state.t} does not have the band limit "
                                     f"and dimension {shape} of the first state")
                fh.write(f"# t={float(state.t)!r} kappa={shape[0]} d={shape[1]} seed={seed}\n")
                for name, f in zip(names, fields):
                    fh.write(f"# field={name}\n")
                    fh.write(template % tuple(f.data.tolist()))
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise
    return state


def write_wave_trajectory_csv(path: str, states, seed: int, metadata: dict | None = None):
    """Stream wave states (position, velocity) to path; returns the last state."""
    return _write_trajectory_csv(path, states, seed, metadata, ("position", "velocity"))


def write_schrodinger_trajectory_csv(path: str, states, seed: int,
                                     metadata: dict | None = None):
    """Stream Schrodinger states (real, imag) to path; returns the last state."""
    return _write_trajectory_csv(path, states, seed, metadata, ("real", "imag"))


def ensure_dir(path: str):
    os.makedirs(path, exist_ok=True)

"""File formats: CSV tables with '# key=value' metadata headers and JSON twins.

Every file starts with a metadata block reproducing the resolved configuration,
so a run can be repeated bit-identically from its own output.  Floating-point
values are written with 17 significant digits (lossless round trip); nothing
time- or environment-dependent is ever written.

The coefficient, grid and trajectory CSVs hold one value per row, so their
writers format values with numpy instead of one Python `%` call per value; the
bytes are those of `"%.16e" % x`.  A field of n rows is written in
ceil(n / `_PASS_ROWS`) passes of equal size (they differ by at most one row),
so a kappa-64 field of 4225 rows takes one pass and the working set does not
grow with the mode count or the grid size.  Each file has one word buffer,
sized for its largest pass and reused by every pass and every field; the row
prefixes are laid into it again only when a pass covers other rows than the
last, so the labels of a one-pass trajectory are laid once per file.  A finite x
with 1e-280 <= |x| < 1e280 has the decimal exponent e10 = floor(log10|x|),
corrected by one where log10 rounds across a power of ten, and
S = |x| * 10**(16 - e10) lies in [1e16, 1e17).  The power of ten is held as
a double-double (hi, lo) rounded from exact integers, |x| * hi is split
exactly into p + err by Dekker's product, and S = p + (err + |x| * lo) has
an absolute error below 1e-14.  The integer part N = floor(S) is therefore
exact, and so is the rounding of S to 17 digits unless the remainder S - N
lies within `_TIE` (1e-9) of 1/2.  The exponent is corrected from N before
rounding; a rounding that carries N to 1e17 gives 1e16 and e10 + 1.  The
digits of N come from a table of 4-digit groups, and every byte a row does
not print (padding, a positive sign, the hundreds digit of a two-digit
exponent) is NUL and deleted in one pass over the buffer.  Python `%` formats, one by
one, the values this argument does not cover: nan and inf, magnitudes below
1e-280 (including subnormals) or from 1e280 up, and remainders near 1/2,
which include the exact ties (166058747059374.62 is one at 17 digits).
"""

from __future__ import annotations

import array
import contextlib
import functools
import json
import math
import os
from typing import TYPE_CHECKING

import numpy as np

from .modes import CoefficientField, degree_sizes, label_in_degree, mode_count, row_degrees

if TYPE_CHECKING:
    from .harmonics import GridField
    from .harness import ErrorTable

# Most rows formatted per numpy pass, so the writers' working set does not
# grow with the mode count or the grid size.
_PASS_ROWS = 1 << 13
_FAST_RANGE = (1e-280, 1e280)  # magnitudes formatted without Python `%`
_E10_RANGE = (-281, 281)       # decimal exponents the fast path can meet
_TIE = 1e-9                    # remainders this close to 1/2 go to Python `%`
_SPLITTER = 134217729.0        # 2**27 + 1, Dekker's splitting constant
_WORD = np.dtype("<u4")
# One formatted value in words: "\0-d." "dddd" x 4 "e+ht" "o\n\0\0"
_FLOAT_WORDS = 7


def format_float(x: float) -> str:
    return f"{float(x):.16e}"


def _split(a):
    """Dekker's split of a into a high part of 26 bits and the exact rest."""
    t = a * _SPLITTER
    high = t - (t - a)
    return high, a - high


@functools.cache
def _format_tables():
    """Tables of the fast path; built on first use, not at import (a few ms).

    Returns, indexed by e10_max - e10, the double-double 10**(16 - e10) as
    (hi, lo) and hi's Dekker split; the byte words of the 4-digit groups
    0000..9999; and, indexed by e10 - e10_min, the exponent words "e+ht"
    (NUL for the hundreds digit below 100) and "o\n\0\0".
    """
    lo_e10, hi_e10 = _E10_RANGE
    powers = []
    for k in range(16 - hi_e10, 17 - lo_e10):
        if k >= 0:
            hi = float(10**k)
            powers.append((hi, float(10**k - int(hi))))
        else:
            hi = 1 / 10**-k  # int / int rounds correctly
            num, den = hi.as_integer_ratio()
            powers.append((hi, (den - num * 10**-k) / (den * 10**-k)))
    hi, lo = np.array(powers).T
    digits = np.frombuffer(b"".join(b"%04d" % g for g in range(10**4)), _WORD)
    heads, tails = [], []
    for e in range(lo_e10, hi_e10 + 2):  # + 1 for a carry
        hundreds, tens, ones = b"%03d" % abs(e)
        heads.append(bytes([ord("e"), ord("-" if e < 0 else "+"),
                            hundreds if abs(e) >= 100 else 0, tens]))
        tails.append(bytes([ones, ord("\n"), 0, 0]))
    return (hi, lo, *_split(hi), digits, np.frombuffer(b"".join(heads), _WORD),
            np.frombuffer(b"".join(tails), _WORD))


def _scaled(a, e10, tables):
    """floor(S) and S - floor(S) of S = a * 10**(16 - e10), as a double-double."""
    row = _E10_RANGE[1] - e10
    hi, lo, hi_high, hi_low = (t[row] for t in tables[:4])
    a_high, a_low = _split(a)
    p = a * hi
    err = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    s = err + a * lo
    whole = np.floor(s)
    return p.astype(np.int64) + whole.astype(np.int64), s - whole


def _divmod(a, d):
    # numpy divides by a scalar several times faster than np.divmod does
    q = a // d
    return q, a - q * d


def _format_floats(x, out):
    """Write the bytes of "%.16e\n" % v for each v of x into out, an (n, 7)
    array of words, NUL where a byte is not printed (see the module notes).

    Returns the indices of the values formatted by Python `%`.
    """
    tables = _format_tables()
    magnitude = np.abs(x)
    fast = (magnitude >= _FAST_RANGE[0]) & (magnitude < _FAST_RANGE[1])
    zero = magnitude == 0
    a = np.where(fast, magnitude, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    n, rem = _scaled(a, e10, tables)
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if off.size:  # log10 rounded across a power of ten
        e10[off] += np.where(n[off] >= 10**17, 1, -1)
        n[off], rem[off] = _scaled(a[off], e10[off], tables)
        fast[off] &= (n[off] >= 10**16) & (n[off] < 10**17)
    fast &= np.abs(rem - 0.5) >= _TIE
    n += rem > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    e10 += carry
    n[zero] = 0
    e10[zero] = 0
    lead, rest = _divmod(n, 10**16)
    digits, heads, tails = tables[4:]
    sign = np.where(np.signbit(x), ord("-"), 0)
    out[:, 0] = (sign << 8) | ((lead + ord("0")) << 16) | (ord(".") << 24)  # NUL sign d .
    for col, eight in zip((1, 3), _divmod(rest, 10**8)):
        out[:, col], out[:, col + 1] = (digits[g] for g in _divmod(eight, 10**4))
    out[:, 5] = heads[e10 - _E10_RANGE[0]]
    out[:, 6] = tails[e10 - _E10_RANGE[0]]
    slow = np.flatnonzero(~(fast | zero))
    for i in slow:
        out[i] = np.frombuffer((b"%.16e\n" % x[i]).ljust(4 * _FLOAT_WORDS, b"\0"), _WORD)
    return slow


def _passes(n: int) -> list[slice]:
    """The pass plan of n rows: ceil(n / _PASS_ROWS) consecutive slices (one
    for n = 0) whose sizes differ by at most one."""
    count = max(-(-n // _PASS_ROWS), 1)
    bounds = [n * j // count for j in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


class _RowBuffer:
    """The word buffer of a file of n rows, for its pass plan.

    prefix(rows), for the rows of a pass, gives their prefixes as a tuple of
    word blocks with NUL padding, laid side by side before the value words.
    The buffer holds the largest pass and is reused by every pass and every
    field written through it; the prefixes are laid again only when a pass
    covers other rows than the last one did.
    """

    def __init__(self, n: int, prefix):
        self.passes = _passes(n)
        self.prefix = prefix
        self.words = None
        self.laid = None  # the rows whose prefixes the buffer holds

    def for_pass(self, rows: slice) -> np.ndarray:
        """The buffer of one pass, its prefix columns holding those of `rows`."""
        if rows == self.laid:
            return self.words[:rows.stop - rows.start]
        blocks = self.prefix(rows)
        if self.words is None:
            size = max(p.stop - p.start for p in self.passes)
            width = sum(b.shape[1] for b in blocks) + _FLOAT_WORDS
            self.words = np.empty((size, width), _WORD)
        words, col = self.words[:rows.stop - rows.start], 0
        for block in blocks:
            words[:, col:col + block.shape[1]] = block
            col += block.shape[1]
        self.laid = rows
        return words


def _write_rows(fh, values, buffer: _RowBuffer):
    """Write "<prefix>%.16e\n" for each value to the binary handle fh, one
    formatting pass per slice of the buffer's pass plan."""
    values = np.asarray(values, dtype=np.float64)
    for rows in buffer.passes:
        words = buffer.for_pass(rows)
        _format_floats(values[rows], words[:, -_FLOAT_WORDS:])
        fh.write(words.tobytes().translate(None, b"\0"))


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
    with open(path, "w", encoding="utf-8") as fh:
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


def _decimal_rows(top: int) -> np.ndarray:
    """Digits of 0..top, one row each, right-aligned with NUL for leading zeros.

    Shape (top + 1, len(str(top))), bytes; the digits come from the 4-digit
    groups of the float formatter.
    """
    width = len(str(top))
    groups = -(-width // 4)
    words = np.empty((top + 1, groups), _WORD)
    rest, digits = np.arange(top + 1), _format_tables()[4]
    for g in reversed(range(groups)):
        rest, group = _divmod(rest, 10**4)
        words[:, g] = digits[group]
    text = words.view(np.uint8)[:, 4 * groups - width:]
    leading = np.logical_and.accumulate(text == ord("0"), axis=1)
    leading[:, -1] = False
    text[leading] = 0
    return text


def _word_rows(text: np.ndarray) -> np.ndarray:
    """Rows of bytes right-aligned in whole words, NUL-padded on the left."""
    pad = np.zeros((len(text), -text.shape[1] % 4), np.uint8)
    return np.hstack((pad, text.astype(np.uint8))).view(_WORD)


def _label_prefix(kappa: int, dim: int):
    """prefix(rows) of the mode rows: their prefixes 'ell,m,component,' as words.

    'ell,' is a word row per degree and 'm,component,' one per index within a
    degree (modes.label_in_degree), both formatted once per file; a pass
    gathers its rows' degrees and indices (modes.row_degrees), so nothing per
    mode outlives the pass.
    """
    second, comp = label_in_degree(np.arange(int(degree_sizes(kappa, dim).max())), dim)
    commas = np.full(len(second), ord(","))
    ells = _word_rows(np.column_stack((_decimal_rows(kappa), np.full(kappa + 1, ord(",")))))
    tails = _word_rows(np.column_stack((_decimal_rows(int(second.max()))[second], commas,
                                        ord("0") + comp, commas)))

    def prefix(rows):
        ell, index = row_degrees(kappa, dim, rows)
        return np.take(ells, ell, axis=0), np.take(tails, index, axis=0)

    return prefix


def write_coefficient_csv(path: str, field: CoefficientField, metadata: dict | None = None):
    meta = dict(metadata) if metadata else {}
    # the field's own shape wins over whatever the caller carries
    meta.update({"kappa": field.kappa, "dim": field.dim})
    with open(path, "wb") as fh:
        fh.write(_header(meta, "ell,m,component,value").encode())
        _write_rows(fh, field.data, _RowBuffer(field.data.size,
                                               _label_prefix(field.kappa, field.dim)))


def read_coefficient_csv(path: str) -> CoefficientField:
    """Coefficients written by write_coefficient_csv.

    Rows must be four comma-separated fields: the (ell, m, component) labels
    of modes.label_in_degree in plain decimal digits, in storage order, one
    row per mode, and a finite value without '_' or blanks; anything else
    (reordered, mislabelled, missing or extra rows or fields, signs, nan, inf
    or an overflow such as 1e400) is rejected, naming the file and the first
    bad row.
    """
    meta = {}
    linenos, texts = array.array("q"), []  # per data row; labels are built per pass
    with open(path, encoding="utf-8") as fh:
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
            linenos.append(lineno)
            texts.append(line)
    if "kappa" not in meta:
        raise ValueError(f"{path}: missing '# kappa=...' metadata line")
    def header_int(key, default=None):
        try:
            return int(meta.get(key, default))
        except ValueError:
            raise ValueError(f"{path}: '# {key}={meta[key]}' is not an integer") from None

    kappa, dim = header_int("kappa"), header_int("dim", 3)
    if kappa < 0 or dim < 3:
        raise ValueError(f"{path}: need kappa >= 0 and dim >= 3, got kappa={kappa}, dim={dim}")
    # Every degree has at least one mode, so a file with at most kappa rows is
    # short whatever dim is; otherwise kappa is below the row count and the
    # mode count costs O(rows).  No label is built for a file of another length.
    n_modes = mode_count(kappa, dim) if len(texts) > kappa else None
    if n_modes is not None and len(texts) > n_modes:
        raise ValueError(f"{path}: line {linenos[n_modes]}: more than the {n_modes} "
                         f"coefficient rows of kappa={kappa}, dim={dim}")
    if len(texts) != n_modes:
        expected = n_modes if n_modes is not None else f"at least {kappa + 1}"
        raise ValueError(f"{path}: {len(texts)} coefficient rows, expected {expected} "
                         f"for kappa={kappa}, dim={dim}")
    values = np.empty(n_modes)
    for rows in _passes(n_modes):
        ells, index = row_degrees(kappa, dim, rows)
        labels = zip(ells.tolist(), *(a.tolist() for a in label_in_degree(index, dim)))
        for j, expected in zip(range(rows.start, rows.stop), labels):
            *label, value = texts[j].split(",")
            try:  # three plain decimal labels and a value without '_' or blanks
                if (len(label) != 3 or "_" in value or value != value.strip()
                        or not all(f.isascii() and f.isdigit() for f in label)):
                    raise ValueError
                label = tuple(int(f) for f in label)
                values[j] = float(value)
            except ValueError:
                raise ValueError(f"{path}: line {linenos[j]}: expected "
                                 f"'ell,m,component,value', got {texts[j]!r}") from None
            if label != expected:
                raise ValueError(f"{path}: line {linenos[j]}: mode label {label} where "
                                 f"{expected} is expected (rows must follow the storage order)")
            if not math.isfinite(values[j]):
                raise ValueError(f"{path}: line {linenos[j]}: value {value!r} is not finite")
    return CoefficientField(values, kappa, dim)


def _column_words(values) -> np.ndarray:
    """'%.16e,' of each value as words, for the leading columns of a row."""
    words = np.empty((len(values), _FLOAT_WORDS), _WORD)
    _format_floats(values, words)
    text = words.view(np.uint8)
    text[text == ord("\n")] = ord(",")
    return words


def write_grid_field_csv(path: str, field: GridField, metadata: dict | None = None):
    """Row-major (theta, phi) samples; header theta,phi,value."""
    meta = dict(metadata) if metadata else {}
    # the resolved grid size wins over whatever the caller carries
    meta.update({"n_theta": field.grid.n_theta, "n_phi": field.grid.n_phi})
    theta = _column_words(field.grid.theta)
    phi = _column_words(field.grid.phi)

    def prefix(rows):
        point = np.arange(rows.start, rows.stop)
        return (np.take(theta, point // len(phi), axis=0),
                np.take(phi, point % len(phi), axis=0))

    with open(path, "wb") as fh:
        fh.write(_header(meta, "theta,phi,value").encode())
        _write_rows(fh, field.values.ravel(), _RowBuffer(field.values.size, prefix))


def write_wave_trajectory_csv(path: str, states, seed: int, metadata: dict | None = None,
                              names: tuple[str, str] = ("position", "velocity")):
    """Stream each state's two components to path as it arrives, under `names`;
    return the last state.  The trajectory writer of both equations.

    The file is written under a temporary name in the same directory and
    renamed to `path` after the last state, so a run that fails midway
    leaves no trajectory that looks complete.
    """
    partial = path + ".part"
    state = shape = buffer = None
    try:
        with open(partial, "wb") as fh:
            fh.write(_header(metadata or {}, "ell,m,component,value").encode())
            for state in states:
                if buffer is None:
                    shape = (state.kappa, state.dim)
                    buffer = _RowBuffer(mode_count(*shape), _label_prefix(*shape))
                if (state.kappa, state.dim) != shape:
                    raise ValueError(f"state at t={state.t} does not have the band limit "
                                     f"and dimension {shape} of the first state")
                fh.write(f"# t={float(state.t)!r} kappa={shape[0]} d={shape[1]} "
                         f"seed={seed}\n".encode())
                for name, f in zip(names, (state.u1, state.u2)):
                    fh.write(f"# field={name}\n".encode())
                    _write_rows(fh, f.data, buffer)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise
    return state


def write_schrodinger_trajectory_csv(path: str, states, seed: int,
                                     metadata: dict | None = None):
    """write_wave_trajectory_csv under the Schrodinger component names (real, imag)."""
    return write_wave_trajectory_csv(path, states, seed, metadata, ("real", "imag"))


def ensure_dir(path: str):
    os.makedirs(path, exist_ok=True)

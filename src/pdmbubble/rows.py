"""CSV rows from numpy columns, byte for byte as %-formatting prints them.

``format_rows`` turns a chunk of columns into lines of text: an integer
column prints as ``%d`` and a float column as ``NUMBER``.  The floats are
formatted a whole column at a time in numpy, from tables of ASCII digit
groups; the few values numpy's scaling cannot round with certainty go
through ``NUMBER % v`` itself (see ``_float_cells``).
"""

from __future__ import annotations

import sys

import numpy as np

from . import NUMBER


def _table(strings: list[str]) -> np.ndarray:
    """Equal-length ASCII strings as a 1-d array of fixed-size void items,
    one per string, for gathers."""
    return np.frombuffer("".join(strings).encode("ascii"), f"V{len(strings[0])}")


def _exponent(e: int, width: int) -> str:
    """"e+TU" (width 4, for |e| < 100) or "e+HTU" (width 5), with a hundreds
    digit of 0 as a 0 byte, which format_rows drops."""
    sign = "-" if e < 0 else "+"
    if width == 4:
        return f"e{sign}{abs(e) % 100:02d}"
    hundreds = chr(ord("0") + abs(e) // 100) if abs(e) >= 100 else "\0"
    return f"e{sign}{hundreds}{abs(e) % 100:02d}"


# The tables a float cell is gathered from (see _float_cells): "d.dd" for
# the first group of three mantissa digits, "ddd" plus a spare byte for each
# of the other three, and the exponent by e + 308.
_LEAD = _table([f"{i // 100}.{i % 100:02d}" for i in range(1000)])
_GROUP = _table([f"{i:03d}\0" for i in range(1000)])
_EXPONENT = {width: _table([_exponent(e, width) for e in range(-308, 309)])
             for width in (4, 5)}
# 10**k correctly rounded, for the two factors that scale any normal double
# to 12 integer digits: k = 11 - e over e in [-308, 308] is split in halves.
_POW10_MIN = -160
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 161)])
_TIE_MARGIN = 5e-3


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``NUMBER % v`` for each float v of x, as the rows of a uint8 array of
    ASCII padded with 0 bytes.

    For a normal |v| the decimal exponent is e = floor(log10|v|), and
    s = (|v| * 10**k1) * 10**k2, with k1 + k2 = 11 - e, is |v| scaled to
    t = |v| 10**(11 - e); the 12-digit mantissa is the nearest integer to s.
    Each factor of ``_POW10`` and each product is correctly rounded, so
    |s - t| <= ((1 + 2**-53)**4 - 1) t < 4.5e-4 for t < 1e12.  A value takes
    the vectorized path only when s lies in [1e11 + M, 1e12 - 1/2 - M] and
    |s - round(s)| < 1/2 - M, with M = ``_TIE_MARGIN`` = 5e-3, more than ten
    times that bound.  Then t lies in [1e11, 1e12 - 1/2), so e is its
    exponent (a log10 off by one puts s outside the interval), and no
    half-way point separates s from t, so round(s) is the correctly rounded
    mantissa that ``%.11e`` prints.  Every other value (a near-tie, an s
    outside the interval, 0, a subnormal, inf or nan) is formatted by
    ``NUMBER % v`` into its own row.

    A sign byte is there only if some v is negative, and a hundreds digit of
    the exponent only if some |e| >= 100, so most rows carry no 0 byte.
    """
    n = len(x)
    a = np.abs(x)
    normal = (a >= sys.float_info.min) & (a < np.inf)
    a = np.where(normal, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    k = 11 - e
    k1 = k >> 1
    s = a * _POW10[k1 - _POW10_MIN] * _POW10[k - k1 - _POW10_MIN]
    q = np.rint(s)
    exact = (normal & (np.abs(s - q) < 0.5 - _TIE_MARGIN)
             & (s >= 1e11 + _TIE_MARGIN) & (s <= 1e12 - 0.5 - _TIE_MARGIN))
    q = np.where(exact, q, 1e11).astype(np.int64)
    q, g4 = np.divmod(q, 1000)
    q, g3 = np.divmod(q, 1000)
    g1, g2 = np.divmod(q, 1000)
    slow = np.flatnonzero(~exact)
    text = [(NUMBER % v).encode("ascii") for v in x[slow].tolist()]
    negative = np.signbit(x)
    sign = int(negative.any())  # a sign byte, or none
    exponent_width = 5 if (e.min() <= -100 or e.max() >= 100) else 4
    # Each group after "d.dd" is copied as a 4-byte item whose spare byte the
    # next field overwrites: numpy copies 4-byte items several times faster
    # than 3-byte ones.
    cell = np.dtype({
        "names": ["lead", "g2", "g3", "g4", "exponent"],
        "formats": ["V4"] * 4 + [f"V{exponent_width}"],
        "offsets": [sign, sign + 4, sign + 7, sign + 10, sign + 13],
        "itemsize": max([sign + 13 + exponent_width, *map(len, text)]),
    })
    cells = np.zeros(n, cell)
    cells["lead"] = _LEAD[g1]
    cells["g2"] = _GROUP[g2]
    cells["g3"] = _GROUP[g3]
    cells["g4"] = _GROUP[g4]
    cells["exponent"] = _EXPONENT[exponent_width][e + 308]
    cells = cells.view(np.uint8).reshape(n, -1)
    if sign:
        cells[:, 0] = negative * np.uint8(ord("-"))
    if text:
        cells[slow] = _ascii_rows(text, cells.shape[1])
    return cells


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``"%d" % i`` for each integer i of v, as the rows of a uint8 array of
    ASCII padded with 0 bytes.  Only the short index column of ``spectrum``
    is an integer column, so each value is formatted by ``%`` itself."""
    text = [b"%d" % i for i in v.tolist()]
    return _ascii_rows(text, max(map(len, text)))


def _ascii_rows(text: list[bytes], width: int) -> np.ndarray:
    """The byte strings as the rows of an (n, width) uint8 array, each padded
    with 0 bytes."""
    return np.array(text, f"S{width}").view(np.uint8).reshape(-1, width)


def format_rows(columns, prefix: str = "") -> str:
    """One CSV line per row of the equal-length columns, prefix first: an
    integer column prints as ``%d``, a float column as ``NUMBER``."""
    lead = np.frombuffer(prefix.encode("ascii"), np.uint8)
    n = len(columns[0])
    comma = np.full((n, 1), ord(","), np.uint8)
    parts = [np.broadcast_to(lead, (n, lead.size))]
    for c in columns:
        parts += [_int_cells(c) if c.dtype.kind in "iu" else _float_cells(c),
                  comma]
    rows = np.concatenate(parts, axis=1)
    rows[:, -1] = ord("\n")
    return rows.tobytes().replace(b"\0", b"").decode("ascii")

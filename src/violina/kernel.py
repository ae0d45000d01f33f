"""Banded causal Toeplitz memory kernels, and the readers and packers of
the JSON fields every file of violina holds.

A memory kernel is an upper-triangular Toeplitz matrix whose first ``q``
columns are zero and whose main diagonal is one.  Only the ``Q - 1``
super-diagonal coefficients are free, so kernels are stored compactly and
expanded to a dense matrix only where an operation genuinely needs one.

A float array is written packed, as base64 of its float64 bytes
(``pack_floats``, ``pack_json``), and read back by ``json_table``.  The
reader decodes through ``_PAIRS``, a read-only table of every pair of
base64 characters built at import: two lookups per 4-character group,
written straight into the array it returns, the last group's ``=`` read as
zero bits and its bytes cut to the count the shape needs.  Any text the
table declines (a character outside the alphabet, ``=`` anywhere but at
the end, a length other than the canonical one, a character that is not
ASCII, or a big-endian host) goes through ``base64.b64decode`` as before,
so every array and every error message is the decoder's own.

All functions here are pure; values are immutable and safe to share across
threads.
"""

from __future__ import annotations

import base64
import binascii
import math
import reprlib
import sys
from dataclasses import dataclass

import numpy as np


def _member(d: dict, key: str, default):
    """``d[key]``, or ``default`` when ``key`` is missing.  A ``d`` that is not
    a JSON object, and a missing key without a default, raise ``ValueError``."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {reprlib.repr(d)}")
    if key in d:
        return d[key]
    if default is None:
        raise ValueError(f"missing field {key!r}")
    return default


def json_int(d: dict, key: str, default: int | None = None) -> int:
    """Field ``key`` of a parsed JSON object as an ``int``.  Only a JSON
    integer counts: ``true``, ``1.7`` or ``"3"`` raises ``ValueError`` naming
    the field, as do the faults of ``_member``."""
    value = _member(d, key, default)
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {reprlib.repr(value)}")
    return value


def check_ints(**fields) -> None:
    """Raise ``ValueError`` naming the first field whose value is not an
    integer: a Python or numpy integer counts, a ``bool`` or a float does not."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")


def json_floats(d: dict, key: str, ndim: int, default=None) -> np.ndarray:
    """Field ``key`` of a parsed JSON object as a finite float array with
    ``ndim`` axes (``ndim=0`` for one number).  A ragged array (numpy's own
    error), a string (even one that spells a number), ``true`` or ``false``,
    an object, an integer too large for a float, ``null``, NaN, an infinity
    and the wrong number of axes raise ``ValueError`` naming the field, as do
    the faults of ``_member``."""
    value = _member(d, key, default)
    name = repr(key)
    types = set(map(type, np.asarray(value, dtype=object).flat))
    if str in types:
        raise ValueError(f"{name}: a string is not a number")
    if bool in types:
        raise ValueError(f"{name}: true/false is not a number")
    try:
        a = np.asarray(value).astype(float, copy=False)
    except (TypeError, OverflowError, ValueError) as exc:  # ValueError: a ragged array
        raise ValueError(f"{name}: {exc}") from exc
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} holds non-finite values")
    if a.ndim != ndim:
        shape = ("a number", "a flat list", "a list of lists")[ndim]
        raise ValueError(f"{name} must be {shape}, got shape {a.shape}")
    return a


def packed(value) -> bool:
    """Whether a parsed JSON value has the packed layout of a float array,
    ``[rows, cols, "<base64>"]`` or ``[rows, cols, "<base64>", [j0, j1,
    …]]``: a list of three or four whose first two items are not lists,
    whose third is a string and whose fourth, if any, is a list.  A list of
    rows never has it, even a malformed one such as ``[[0.0], [1.0], "1.5"]``."""
    return (type(value) is list and len(value) in (3, 4) and type(value[0]) is not list
            and type(value[1]) is not list and type(value[2]) is str
            and all(type(item) is list for item in value[3:]))


def _base64_floats(a: np.ndarray) -> tuple[int, int, bytes, list | None]:
    """The shape of the finite 2-D float array ``a``, the RFC 4648 base64
    text, without line breaks, of the little-endian float64 bytes of its
    stored columns in row-major order, and the ascending list of those
    columns.  A column whose float64 bits are all zero (``+0.0``, not
    ``-0.0``) is not stored; when every column is, the list is ``None``.
    Non-finite values raise ``ValueError``, as JSON has no token for them."""
    a = np.asarray(a, dtype="<f8")
    if not np.all(np.isfinite(a)):
        raise ValueError("a packed array holds non-finite values")
    rows, cols = a.shape
    stored = a.view("<u8").any(axis=0)
    columns = None if stored.all() else np.flatnonzero(stored).tolist()
    if columns is not None:
        a = a[:, columns]
    return rows, cols, binascii.b2a_base64(a.tobytes(), newline=False), columns


def pack_floats(a: np.ndarray) -> list:
    """The packed layout of the finite 2-D float array ``a``:
    ``[rows, cols, "<base64>"]``, with the list of stored columns as a
    fourth item when an all-zero column is left out (``_base64_floats``)."""
    rows, cols, text, columns = _base64_floats(a)
    value = [rows, cols, text.decode("ascii")]
    return value if columns is None else [*value, columns]


def pack_json(a: np.ndarray) -> bytes:
    """The compact JSON text of ``pack_floats(a)`` as ASCII bytes, put
    together without an encoder: base64 text holds no character JSON
    escapes, so these are the bytes ``json.dumps`` gives for it."""
    rows, cols, text, columns = _base64_floats(a)
    listed = b"" if columns is None else b",[%s]" % b",".join(b"%d" % j for j in columns)
    return b'[%d,%d,"%s"%s]' % (rows, cols, text, listed)


_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_OUTSIDE = 0xFFFFFFFF  # the entry of a pair with a character outside the alphabet
_GROUPS = 1 << 12  # 4-character groups per block: 48 KiB of working arrays


def _pair_table() -> np.ndarray:
    """The read-only ``uint32`` table of every pair of characters, indexed by
    the little-endian ``uint16`` of the pair: the pair's 12 bits, the first
    character's 6 leading, shifted left by 8, or ``_OUTSIDE`` when either
    character is not in the RFC 4648 alphabet."""
    six = np.full(256, 1 << 20, dtype=np.uint32)  # outside: past the bits of every pair
    six[np.frombuffer(_ALPHABET, dtype=np.uint8)] = np.arange(64, dtype=np.uint32) << 8
    table = np.add.outer(six, six << 6).ravel()  # row: the second character, column: the first
    table[table >= 1 << 20] = _OUTSIDE
    table.flags.writeable = False
    return table


_PAIRS = _pair_table()


def _pair_floats(text: str, rows: int, width: int) -> np.ndarray | None:
    """The ``rows x width`` float array whose little-endian float64 bytes
    the base64 ``text`` holds, decoded through ``_PAIRS``: a fresh C-ordered
    array, bit for bit what ``base64.b64decode`` gives.  The last group's
    ``=`` reads as ``A`` (zero bits), and its bytes are cut to those the
    shape needs.  ``None`` when the table path declines the text: a length
    other than the canonical ``4 * ceil(8 * rows * width / 3)``, a character
    that is not ASCII or not in the alphabet (``=`` too, but for the padding
    of the last group), a shape numpy cannot build, or a big-endian host."""
    size = 8 * rows * width
    groups = -(-size // 3)
    if sys.byteorder != "little" or not text.isascii() or len(text) != 4 * groups:
        return None
    try:
        out = np.empty((rows, width))
    except ValueError:
        return None
    if not size:
        return out
    encoded = text.encode("ascii")
    body, pad = groups - 1, 3 * groups - size
    last = encoded[4 * body:]
    if last[4 - pad:] != b"=" * pad:
        return None
    end = _PAIRS[np.frombuffer(last[:4 - pad] + b"A" * pad, dtype="<u2")]
    if end.max() == _OUTSIDE:
        return None
    raw = out.reshape(-1).view(np.uint8)
    pairs = np.frombuffer(encoded, dtype="<u2", count=2 * body).reshape(body, 2)
    # group g's three bytes, big-endian in the top of word g at byte 3 g; its
    # low byte is the next group's first, which the next word writes over (a
    # 1-D assignment writes in index order), and the last group's after the loop
    words = np.ndarray((body,), dtype=">u4", buffer=raw, strides=(3,))
    lookups = np.empty((min(body, _GROUPS), 2), dtype=np.uint32)
    word = np.empty(len(lookups), dtype=np.uint32)
    for g in range(0, body, len(lookups)):
        pair, w = lookups[:body - g], word[:body - g]
        np.take(_PAIRS, pairs[g:g + len(pair)], out=pair, mode="clip")  # a uint16 never clips
        if pair.max() == _OUTSIDE:
            return None
        np.left_shift(pair[:, 0], 12, out=w)
        w |= pair[:, 1]
        words[g:g + len(w)] = w
    tail = (int(end[0]) << 12 | int(end[1])).to_bytes(4, "big")
    raw[3 * body:] = np.frombuffer(tail, dtype=np.uint8, count=size - 3 * body)
    return out


def json_table(d: dict, key: str) -> np.ndarray:
    """Field ``key`` of a parsed JSON object as a finite 2-D float array,
    from either layout: the packed one (``packed``), or a list of lists of
    numbers, which ``json_floats`` reads.  Packed, ``rows`` and ``cols`` must
    be nonnegative JSON integers and the list of stored columns, if given,
    strictly increasing JSON integers in ``[0, cols)``; every other column
    holds ``+0.0``.  The text must be the padded base64, with no other
    character, of exactly ``8 * rows`` bytes per stored column, and the
    values finite; anything else, a shape numpy cannot build too, raises
    ``ValueError`` naming the field.  The text is decoded through the pair
    table (``_pair_floats``); text that path declines goes through
    ``base64.b64decode``, whose faults this reports.  The array owns its
    data, C-ordered, as ``json_floats`` returns it."""
    value = _member(d, key, None)
    if not packed(value):
        return json_floats(d, key, 2)
    name = repr(key)
    rows, cols, text, *listed = value
    for what, size in (("rows", rows), ("cols", cols)):
        if type(size) is not int or size < 0:
            raise ValueError(f"{name}: {what} must be a nonnegative integer, "
                             f"got {reprlib.repr(size)}")
    columns = listed[0] if listed else None
    if columns is not None and not (all(type(j) is int for j in columns) and all(
            i < j for i, j in zip([-1, *columns], [*columns, cols]))):
        raise ValueError(f"{name}: the stored columns must be increasing integers "
                         f"in [0, {cols}), got {reprlib.repr(columns)}")
    width = cols if columns is None else len(columns)
    block = _pair_floats(text, rows, width)
    if block is None:
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:  # binascii.Error, or a character that is not ASCII
            raise ValueError(f"{name}: not base64: {exc}") from None
        size = 8 * rows * width
        if len(raw) != size:
            raise ValueError(f"{name}: {len(raw)} bytes, but {rows} x {width} floats take {size}")
        if len(text) != 4 * -(-size // 3):  # the decoder may take padding after the last group
            raise ValueError(f"{name}: base64 padding after the last group")
        try:  # a copy, in native byte order, not a view on the bytes
            block = np.frombuffer(raw, dtype="<f8").reshape(rows, width).astype(float)
        except ValueError as exc:  # a shape numpy cannot build
            raise ValueError(f"{name}: {exc}") from None
    if not np.all(np.isfinite(block)):
        raise ValueError(f"{name} holds non-finite values")
    if columns is None:
        return block
    try:  # the text need not hold the zero columns, so a short one may ask for any size
        a = np.zeros((rows, cols))
    except (MemoryError, ValueError):
        raise ValueError(f"{name}: {rows} x {cols} floats do not fit in memory") from None
    a[:, columns] = block
    return a


def band_start(q: int, d: int) -> int:
    """First column of super-diagonal ``d`` that lies inside the band support
    of a kernel with nullity ``q``; its row is ``band_start(q, d) - d``."""
    return max(q, d)


def band_offset_counts(m: int, q: int, Q: int) -> np.ndarray:
    """In-band entry counts of super-diagonals ``d = 1 .. Q-1`` of an ``m x m``
    kernel with nullity ``q``, as floats.  Raises ``ValueError`` when ``Q < 1``
    or a super-diagonal has no in-band entry."""
    if Q < 1:
        raise ValueError(f"bandwidth must be at least 1, got Q={Q}")
    counts = [m - band_start(q, d) for d in range(1, Q)]
    if min(counts, default=1) <= 0:
        raise ValueError(f"degenerate band offsets for q={q}, Q={Q}, m={m}")
    return np.array(counts, dtype=float)


@dataclass(frozen=True)
class CausalBandKernel:
    """Normalized time-invariant causal matrix with bandwidth ``Q``.

    ``m`` is the matrix dimension, ``q`` the number of leading zero columns
    (the nullity), and ``coeffs`` holds the super-diagonal values
    ``c_1 .. c_{Q-1}``; the main-diagonal value ``c_0`` is implicitly one.
    """

    m: int
    q: int
    Q: int
    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        m, q, Q = self.m, self.q, self.Q
        check_ints(m=m, q=q, Q=Q)
        if q < 0 or Q < 1 or q > Q or Q > m:
            raise ValueError(
                f"kernel shape must satisfy 0 <= q <= Q <= m with Q >= 1, "
                f"got m={m}, q={q}, Q={Q}"
            )
        if q >= m:
            raise ValueError(f"q={q} leaves no unit-diagonal column in an {m}x{m} kernel")
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) != Q - 1:
            raise ValueError(f"expected {Q - 1} coefficients, got {len(coeffs)}")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("kernel coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def identity(cls, m: int, q: int, Q: int) -> "CausalBandKernel":
        """Kernel with all free coefficients zero (dense form is ``1_m^q``)."""
        return cls(m, q, Q, (0.0,) * (Q - 1))

    def to_dense(self) -> np.ndarray:
        """Dense ``m x m`` expansion of the kernel."""
        E = np.zeros((self.m, self.m))
        for d in range(self.Q):
            c = 1.0 if d == 0 else self.coeffs[d - 1]
            cols = np.arange(band_start(self.q, d), self.m)
            E[cols - d, cols] = c
        return E

    def left_pseudoinverse(self) -> np.ndarray:
        """Left pseudoinverse: zero first ``q`` rows/columns, inverse of the
        trailing unit upper-triangular block elsewhere."""
        m, q = self.m, self.q
        out = np.zeros((m, m))
        # LU of a unit upper-triangular matrix neither pivots nor updates, so
        # this is the triangular solve against the identity, bit for bit
        out[q:, q:] = np.linalg.inv(self.to_dense()[q:, q:])
        return out

    def to_dict(self) -> dict:
        return {"m": self.m, "q": self.q, "Q": self.Q, "coeffs": list(self.coeffs)}

    @classmethod
    def from_dict(cls, d: dict) -> "CausalBandKernel":
        """Parse a kernel; a field ``json_int`` or ``json_floats`` rejects
        raises ``ValueError``."""
        try:
            m, q, Q = (json_int(d, key) for key in ("m", "q", "Q"))
            coeffs = json_floats(d, "coeffs", 1)
        except ValueError as exc:
            raise ValueError(f"kernel: {exc}") from None
        return cls(m, q, Q, tuple(coeffs))


def partial_identity(m: int, q: int = 0) -> np.ndarray:
    """Identity with the first ``q`` rows and columns zeroed (``1_m^q``).
    Raises ``ValueError`` for an ``m`` or ``q`` that is not an integer, or a
    ``q`` outside ``[0, m]``."""
    check_ints(m=m, q=q)
    if not 0 <= q <= m:
        raise ValueError(f"q must lie in [0, m] = [0, {m}], got {q}")
    out = np.zeros((m, m))
    idx = np.arange(q, m)
    out[idx, idx] = 1.0
    return out


def project_to_band(M: np.ndarray, q: int, Q: int) -> CausalBandKernel:
    """Euclidean projection of a dense matrix onto the normalized band set.

    Each free super-diagonal coefficient is the mean of the corresponding
    in-band entries of ``M``; the main diagonal is forced to one and
    everything else to zero.  Averaging over the in-band rows is the exact
    least-squares solution for this affine set.  A ``q`` or ``Q`` that is
    not an integer raises ``ValueError`` naming it.
    """
    check_ints(q=q, Q=Q)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    m = M.shape[0]
    CausalBandKernel.identity(m, q, Q)  # refuses a band the matrix cannot hold, before any mean
    coeffs = []
    for d in range(1, Q):
        vals = np.diagonal(M, offset=d)[band_start(q, d) - d:]
        if np.all(vals == vals[0]):
            # an exactly constant diagonal must average to itself bit-for-bit
            coeffs.append(float(vals[0]))
        else:
            coeffs.append(float(vals.mean()))
    return CausalBandKernel(m, q, Q, tuple(coeffs))


def apply_kernel(Y: np.ndarray, kernel) -> np.ndarray:
    """Return ``Y @ D`` for a band kernel or a dense kernel matrix.

    The banded path works on shifted column slices in ``O(n m Q)`` and never
    materializes the dense kernel.
    """
    Y = np.asarray(Y, dtype=float)
    if isinstance(kernel, np.ndarray):
        return Y @ kernel
    m = kernel.m
    if Y.ndim != 2 or Y.shape[1] != m:
        raise ValueError(f"expected {Y.shape[0]}x{m} left factor, got shape {Y.shape}")
    out = np.zeros_like(Y)
    for d in range(kernel.Q):
        c = 1.0 if d == 0 else kernel.coeffs[d - 1]
        if d > 0 and c == 0.0:
            continue
        j0 = band_start(kernel.q, d)
        out[:, j0:] += c * Y[:, j0 - d : m - d]
    return out


def fractional_toeplitz(alpha: float, m: int) -> np.ndarray:
    """Upper-triangular Toeplitz factor of the fractional-difference kernel.

    Super-diagonal ``k`` carries ``(-1)^k * binom(alpha, k)``.  These factors
    form an exact semigroup, ``T_a @ T_b == T_{a+b}``, in the nilpotent shift
    algebra.  Raises ``ValueError`` for an order ``alpha`` that is negative
    or not finite and an ``m`` that is not a positive integer.
    """
    if not 0 <= alpha < math.inf:
        raise ValueError(f"fractional order alpha must be finite and nonnegative, got {alpha}")
    check_ints(m=m)
    if m < 1:
        raise ValueError(f"matrix dimension must be positive, got {m}")
    w = np.zeros(m)
    w[0] = 1.0
    for k in range(1, m):
        w[k] = w[k - 1] * (k - 1 - alpha) / k
    i, j = np.indices((m, m))
    return np.where(j >= i, w[j - i], 0.0)


def fractional_kernel(alpha: float, m: int) -> np.ndarray:
    """Dense fractional-difference kernel of order ``alpha``.

    The Toeplitz factor with its first ``ceil(alpha)`` columns zeroed; the
    zeroed column count matches the kernel dimension of the order-``alpha``
    derivative (``alpha = 0`` gives the identity).
    """
    T = fractional_toeplitz(alpha, m)
    n_zero = int(math.ceil(alpha))
    if n_zero > 0:
        T[:, :n_zero] = 0.0
    return T

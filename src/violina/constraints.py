"""Declarative convex constraint sets for (A, B, D) and their Euclidean
projections.

A set for ``A`` or ``B`` states its structure once, as its affine hull in
coordinates: every member is an offset plus a sum of coordinates times
fixed sparse directions, each coordinate bounded below by ``0`` or ``-inf``.
``hull(shape)`` returns the flat arrays ``(entries, coords, values, lower,
offset)``:

- ``entries``, ``coords`` and ``values`` hold one item per touched entry:
  its flat (C-order) index, the coordinate it belongs to and its
  coefficient;
- ``lower`` holds one bound per coordinate;
- ``offset`` is a new matrix of that shape.

The solver steps only the entries that the coordinates touch, the set's
*support*, and holds every other entry at the offset.  :func:`coordinates`
derives all it needs from the hull: the support's flat indices in ascending
order, the offset, and the projection of the values there.  A separable
hull's projection averages each coordinate's entries and clips them at its
bound; the Laplacian, whose diagonal entries every coordinate of their
column shares, projects with its own ``_project``.  ``project(M)`` is that
projection written into the offset (:func:`_scatter`), so each set has one
implementation of its projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernel import CausalBandKernel, check_ints, project_to_band


def _check_mask(mask: np.ndarray) -> np.ndarray:
    """A read-only copy of a validated neighbor mask; a constraint set
    validates its mask once and keeps this copy."""
    mask = np.array(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError(f"mask must be square, got shape {mask.shape}")
    if not np.array_equal(mask, mask.T):
        raise ValueError("mask must be symmetric")
    if not np.all(np.diagonal(mask)):
        raise ValueError("mask must include the diagonal")
    mask.setflags(write=False)
    return mask


def _check_shift(shift, n: int) -> np.ndarray:
    shift = np.array(shift, dtype=float)
    if shift.ndim != 2 or shift.shape[0] != shift.shape[1]:
        raise ValueError(f"shift must be square, got shape {shift.shape}")
    if shift.shape != (n, n):
        raise ValueError(f"shift shape {shift.shape} does not match mask {(n, n)}")
    if not np.all(np.isfinite(shift)):
        raise ValueError("shift holds non-finite values")
    return shift


def _check_support_shape(shape, mask: np.ndarray) -> None:
    if tuple(shape) != mask.shape:
        raise ValueError(f"matrix shape {tuple(shape)} does not match mask {mask.shape}")


def _read_only(*arrays: np.ndarray):
    for a in arrays:
        a.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


def coordinates(cset, shape):
    """``(index, base, project)`` of a set for ``A`` or ``B``, derived from
    ``cset.hull(shape)``: the flat indices that its coordinates touch (and its
    ``_isolated`` ones), in ascending order, its offset, and the projection
    of the values at ``index``.  A set with ``_project`` projects with it; any
    other's hull must be separable (:func:`_separable`).  The index and the
    projection are derived once per shape and kept in ``cset._cache``, so
    that a projection derives nothing.  An object with only ``project`` may
    change every entry: it projects the whole matrix, once per call."""
    if not hasattr(cset, "hull"):
        def project(v):
            return np.asarray(cset.project(v.reshape(shape)), dtype=float).ravel()
        return np.arange(int(np.prod(shape))), np.zeros(shape), project
    entries, coords, values, lower, offset = cset.hull(shape)
    derived = cset._cache.get(offset.shape)
    if derived is None:
        mark = np.zeros(offset.size, dtype=bool)
        mark[entries] = mark[getattr(cset, "_isolated", entries[:0])] = True
        index = _read_only(np.flatnonzero(mark))
        project = getattr(cset, "_project", None) or _separable(
            index, entries, coords, values, lower)
        derived = cset._cache[offset.shape] = index, project
    return derived[0], offset, derived[1]


def _separable(index, entries, coords, values, lower):
    """The projection of the values at ``index`` onto a hull whose
    coordinates each touch one entry, or two, all with coefficient 1, and no
    entry twice; any other hull raises ``ValueError``.  A pair takes its mean
    ``0.5 * (v + v[partner])`` and a lone entry stays ``v`` (no overflow),
    each clipped at its coordinate's bound; with no pair or bound, ``v`` itself."""
    counts = np.bincount(coords, minlength=len(lower))
    for broken, problem in ((len(entries) != len(index), "an entry is touched twice"),
                            (np.any(counts > 2), "a coordinate touches more than two entries"),
                            (np.any(values != 1.0), "a coefficient is not 1")):
        if broken:
            raise ValueError(f"hull is not separable: {problem}")
    at = np.searchsorted(index, entries)  # each item's place in the support
    floor = lower[coords[np.argsort(at)]]  # each support entry's bound
    if not np.any(counts == 2):
        return (lambda v: v) if np.all(floor == -np.inf) else (lambda v: np.maximum(v, floor))
    # the two items of each pair, adjacent once the items are sorted by coordinate
    first = (np.cumsum(counts) - counts)[counts == 2, None]
    ends = at[np.argsort(coords, kind="stable")][first + [0, 1]]  # one row per pair
    pair, partner = ends.ravel(), ends[:, ::-1].ravel()

    def project(v):
        s = v.copy()
        s[pair] = 0.5 * (v[pair] + v[partner])
        return np.maximum(s, floor, out=s)

    return project


def _scatter(cset, M) -> np.ndarray:
    """The projection of the whole matrix ``M`` onto ``cset``: its
    projection at the index written into its offset."""
    M = np.asarray(M, dtype=float)
    index, out, project = coordinates(cset, M.shape)
    out.put(index, project(M.ravel()[index]))
    return out


def project_symmetric_masked_nonneg(M: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Exact projection onto symmetric matrices supported on ``mask`` with
    nonnegative off-diagonal entries (the diagonal is unconstrained)."""
    return SymmetricMaskedNonneg(mask).project(M)


def project_nonneg_diagonal(M: np.ndarray) -> np.ndarray:
    """Projection onto (rectangular) diagonal matrices with nonnegative
    diagonal entries."""
    return NonnegativeDiagonal().project(M)


def project_shifted_laplacian(M: np.ndarray, mask: np.ndarray,
                              shift: np.ndarray | None = None,
                              column_sums: bool = True) -> np.ndarray:
    """Projection onto ``{A : A - shift is a graph Laplacian on mask}``.

    ``shift=None`` means the identity, which makes the set contain
    discretized diffusion operators ``I + L h`` and preserve the total-state
    sum under iteration.  ``column_sums=False`` constrains row sums instead.
    """
    return ShiftedGraphLaplacian(mask, "identity" if shift is None else shift,
                                 column_sums).project(M)


@dataclass(frozen=True)
class FullSpace:
    """No constraint: every entry is an unbounded coordinate."""

    _cache = {}  # by shape, shared: every instance is the same set

    def hull(self, shape):
        size = int(np.prod(shape))
        every = np.arange(size)
        return every, every, np.ones(size), np.full(size, -np.inf), np.zeros(shape)

    def project(self, M):
        return np.asarray(M, dtype=float)


@dataclass(frozen=True, eq=False)
class Fixed:
    """The singleton set ``{value}``; the value may be a band kernel or a
    dense matrix (for the D factor) or a plain matrix (for A or B).  A matrix
    is kept as a read-only float copy, which ``project`` returns, so that
    neither the caller's array nor a fitted model's kernel can change the
    set.  Its hull has no coordinate, and its offset is a copy of the value."""

    value: object

    def __post_init__(self):
        if not isinstance(self.value, CausalBandKernel):
            object.__setattr__(self, "value", _read_only(np.array(self.value, dtype=float)))
        object.__setattr__(self, "_cache", {})

    def _check(self, shape):
        if isinstance(self.value, np.ndarray) and tuple(shape) != self.value.shape:
            raise ValueError(
                f"fixed constraint of shape {self.value.shape} bound to "
                f"input of shape {tuple(shape)}"
            )

    def hull(self, shape):
        self._check(shape)
        none = np.zeros(0, dtype=np.intp)
        return none, none, np.zeros(0), np.zeros(0), np.array(self.value, dtype=float)

    def project(self, M):
        if isinstance(M, np.ndarray):
            self._check(M.shape)
        return self.value


@dataclass(frozen=True, eq=False)
class SymmetricMaskedNonneg:
    """Symmetric, supported on the neighbor mask, nonnegative off-diagonal.

    Its hull has one unbounded coordinate per diagonal entry and one per
    mask pair ``i < j``, touching ``(i, j)`` and ``(j, i)`` and bounded by
    ``0``; the offset is zero.  The mask is validated once; ``mask`` is a
    read-only copy of it."""

    mask: np.ndarray

    def __post_init__(self):
        mask = _check_mask(self.mask)
        n = mask.shape[0]
        # one coordinate per mask entry on or above the diagonal: a diagonal
        # entry, unbounded, or a pair that also touches its transpose, bounded by 0
        rows, cols = np.divmod(np.flatnonzero(mask), n)
        rows, cols = rows[rows <= cols], cols[rows <= cols]
        pair = np.flatnonzero(rows != cols)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_hull", _read_only(
            np.concatenate((rows * n + cols, cols[pair] * n + rows[pair])),
            np.concatenate((np.arange(len(rows)), pair)),
            np.ones(len(rows) + len(pair)), np.where(rows == cols, -np.inf, 0.0)))

    def hull(self, shape):
        _check_support_shape(shape, self.mask)
        return (*self._hull, np.zeros(shape))

    project = _scatter


@dataclass(frozen=True, eq=False)
class ShiftedGraphLaplacian:
    """``A`` such that ``A - shift`` is a graph Laplacian on the mask, with
    zero column sums (or row sums); the zero shift is the bare Laplacian.

    ``shift`` is ``"identity"``, ``"zero"``, or an explicit square matrix of
    the mask's shape with finite entries.  The mask and shift are validated
    once; ``mask`` is a read-only copy of the mask.

    Its hull has one coordinate per off-diagonal mask entry ``(i, j)``, with
    ``+1`` there and ``-1`` on the diagonal entry of the sum it enters,
    ``(j, j)`` (``(i, i)`` for row sums), bounded by ``0``.  Its offset is
    ``shift + 0.0``, as the dense ``shift + P(M - shift)`` has off the mask,
    so an explicit ``-0.0`` in the shift comes out as ``0.0``.  Its index is
    the mask entries: it keeps the diagonal of an isolated cell
    (``_isolated``), which no coordinate touches but ``P`` computes, as ``M_jj
    - (M_jj + 0.0)``, which keeps a ``-0.0``.

    A diagonal entry is in every coordinate of its column, so the hull is
    not separable and ``_project`` gives ``shift + P(M - shift)`` on the
    mask entries.  Each sum splits the Laplacian projection ``P`` into one
    problem per column.  Column ``j`` of ``P(M)`` is ``max(M_ij - lam_j,
    0)`` at the off-diagonal mask entries and ``M_jj - lam_j`` on the
    diagonal, where the scalar ``lam_j`` makes the column sum to zero.  As
    in projection onto the simplex (Duchi et al., 2008; Condat, 2016),
    sorting the off-diagonal entries ``w`` of a column in descending order
    finds ``lam_j``: entry ``k`` (1-based) is positive exactly when ``(k +
    1) w_(k) > M_jj + w_(1) + ... + w_(k)``, a condition that holds for a
    prefix of ``k``.

    The off-diagonal entries of column ``j`` sit in column ``j`` of a
    ``slots x n`` array with one more slot than the largest column needs, so
    that every column ends in an empty slot, as a dense column ends in its
    diagonal; empty slots hold ``-inf``, which is never active.  All columns
    are sorted at once.  The arithmetic is that of sorting every column of
    the dense ``n x n`` matrix with ``-inf`` off the mask, bit for bit: the
    sorted entries, their running sums and the active sums are the same, in
    the same order, and only the number of trailing ``-inf`` differs.
    """

    mask: np.ndarray
    shift: object = "identity"
    column_sums: bool = True

    def __post_init__(self):
        mask = _check_mask(self.mask)
        n = mask.shape[0]
        if isinstance(self.shift, str):
            if self.shift not in ("identity", "zero"):
                raise ValueError(
                    f"shift must be 'identity', 'zero' or a matrix, got {self.shift!r}")
            shift = np.eye(n) if self.shift == "identity" else np.zeros((n, n))
        else:
            shift = _check_shift(self.shift, n)
        entries = np.flatnonzero(mask)
        rows, cols = np.divmod(entries, n)
        # the column (row) of each mask entry, whose sum it enters
        group = cols if self.column_sums else rows
        off = np.flatnonzero(rows != cols)
        k = len(off)
        counts = np.bincount(group[off], minlength=n)
        # column j holds the positions of column j's off-diagonal entries
        # among the mask entries; the rest point at the -inf appended to them
        slots = np.full((counts.max(initial=0) + 1, n), len(entries))
        for j in range(n):
            column = off[group[off] == j]
            slots[: len(column), j] = column
        # not vars(self).update: a real instance dict slows every attribute read
        for name, value in dict(
            mask=mask, _cache={}, _shift=shift, _shift_support=shift.ravel()[entries],
            _hull=_read_only(np.concatenate((entries[off], group[off] * (n + 1))),
                             np.tile(np.arange(k), 2), np.repeat([1.0, -1.0], k), np.zeros(k)),
            _isolated=_read_only(np.flatnonzero(counts == 0) * (n + 1)),
            _group=group, _diag=np.flatnonzero(rows == cols), _slots=slots,
            # the bound of each mask entry: none on the diagonal, 0 off it
            _floor=np.where(rows == cols, -np.inf, 0.0),
            # k + 1 for the k-th largest off-diagonal entry of a column
            _ranks=np.arange(2.0, slots.shape[0] + 2)[:, None]).items():
            object.__setattr__(self, name, value)

    def hull(self, shape):
        _check_support_shape(shape, self.mask)
        return (*self._hull, self._shift + 0.0)

    def _project(self, v):
        """``shift + P(v - shift)`` for the mask entries ``v``, in ascending
        order."""
        shift = self._shift_support
        buf = np.empty(len(v) + 1)  # per call: the set is shared, so keeps no scratch
        buf[-1] = -np.inf  # every empty slot's
        v = np.subtract(v, shift, out=buf[:-1])
        diag = v[self._diag]
        w = buf[self._slots]
        w.sort(axis=0)
        w = w[::-1]
        # cumsum, and the sum of np.where(active, w, 0.0), bit for bit; each
        # sum adds diag last, which commutes the one addition of diag + sum
        acc = np.add.accumulate(w, axis=0)
        acc += diag
        active = self._ranks * w > acc
        lam = np.add.reduce(w, 0, where=active)
        lam += diag
        lam /= np.add.reduce(active, 0, dtype=float) + 1.0
        np.subtract(v, lam[self._group], out=v)
        return np.add(np.maximum(v, self._floor, out=v), shift, out=v)

    project = _scatter


@dataclass(frozen=True)
class NonnegativeDiagonal:
    """Diagonal matrices with nonnegative entries: each diagonal entry is a
    coordinate bounded by ``0``."""

    _cache = {}  # by shape, shared: every instance is the same set

    def hull(self, shape):
        if len(shape) != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {tuple(shape)}")
        return (*_diagonal_coordinates(*shape), np.zeros(shape))

    project = _scatter


@lru_cache
def _diagonal_coordinates(rows: int, cols: int):
    """The hull of :class:`NonnegativeDiagonal` without its offset."""
    diagonal = np.arange(min(rows, cols))
    return _read_only(diagonal * (cols + 1), diagonal, np.ones(len(diagonal)),
                      np.zeros(len(diagonal)))


@dataclass(frozen=True)
class CausalBand:
    """The normalized banded causal Toeplitz set ``T_m^q(Q)``."""

    q: int
    Q: int

    def __post_init__(self):
        check_ints(q=self.q, Q=self.Q)
        if not 0 <= self.q <= self.Q or self.Q < 1:
            raise ValueError(f"band shape must satisfy 0 <= q <= Q with Q >= 1, "
                             f"got q={self.q}, Q={self.Q}")

    def project(self, D):
        if isinstance(D, CausalBandKernel):
            if (D.q, D.Q) == (self.q, self.Q):
                return D
            D = D.to_dense()
        return project_to_band(D, self.q, self.Q)


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """Product set ``St(A) x St(B) x St(D)`` with one projection per factor."""

    on_A: object = field(default_factory=FullSpace)
    on_B: object = field(default_factory=FullSpace)
    on_D: object = field(default_factory=lambda: CausalBand(0, 1))

    def __post_init__(self):
        if not isinstance(self.on_D, (CausalBand, Fixed)):
            raise ValueError("the D factor must be a CausalBand or Fixed constraint")


"""Declarative convex constraint sets for (A, B, D) and their Euclidean
projections.

A set for ``A`` or ``B`` changes only some entries of the matrix, its
*support*, and holds every other entry at a constant.  It exposes both parts,
so that the solver can step the support alone:

- ``support(shape)`` returns ``(index, base)``: the flat (C-order) indices of
  the support, and a new matrix of that shape holding the set's constant at
  every other entry;
- ``project_support(v)`` projects the values ``v`` at those indices.

``project(M)`` is that projection written into ``base`` (:func:`_scatter`),
so each set has one implementation of its projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import CausalBandKernel, project_to_band


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


def _read_only(index: np.ndarray) -> np.ndarray:
    index.setflags(write=False)
    return index


def _scatter(cset, M) -> np.ndarray:
    """The projection of the whole matrix ``M`` onto ``cset``: its support
    projection written into its value off the support."""
    M = np.asarray(M, dtype=float)
    index, out = cset.support(M.shape)
    out.flat[index] = cset.project_support(M.ravel()[index])
    return out


class _GraphLaplacian:
    """Graph Laplacians on a validated mask, with zero column sums (or row
    sums), projected on the mask entries alone.

    Each sum splits the projection into one problem per column.  Column
    ``j`` of the projection is ``max(M_ij - lam_j, 0)`` at the off-diagonal
    mask entries and ``M_jj - lam_j`` on the diagonal, where the scalar
    ``lam_j`` makes the column sum to zero.  As in projection onto the
    simplex (Duchi et al., 2008; Condat, 2016), sorting the off-diagonal
    entries ``w`` of a column in descending order finds ``lam_j``: entry
    ``k`` (1-based) is positive exactly when ``(k + 1) w_(k) > M_jj + w_(1) +
    ... + w_(k)``, a condition that holds for a prefix of ``k``.

    The off-diagonal entries of column ``j`` sit in column ``j`` of a
    ``slots x n`` array with one more slot than the largest column needs, so
    that every column ends in an empty slot, as a dense column ends in its
    diagonal; empty slots hold ``-inf``, which is never active.  All columns
    are sorted at once.  The arithmetic is that of sorting every column of
    the dense ``n x n`` matrix with ``-inf`` off the mask, bit for bit: the
    sorted entries, their running sums and the active sums are the same, in
    the same order, and only the number of trailing ``-inf`` differs.
    """

    def __init__(self, mask: np.ndarray, column_sums: bool = True):
        n = mask.shape[0]
        self.mask = mask
        self.index = _read_only(np.flatnonzero(mask))
        rows, cols = np.divmod(self.index, n)
        # the column (row) of each mask entry, whose sum it enters
        self._group = cols if column_sums else rows
        self._diag = np.flatnonzero(rows == cols)
        # the bound of each mask entry: none on the diagonal, 0 off it
        self._floor = np.where(rows == cols, -np.inf, 0.0)
        off = np.flatnonzero(rows != cols)
        counts = np.bincount(self._group[off], minlength=n)
        # column j holds the positions of column j's off-diagonal entries
        # among the mask entries; the rest point at the -inf appended to them
        self._slots = np.full((counts.max(initial=0) + 1, n), len(self.index))
        for j in range(n):
            column = off[self._group[off] == j]
            self._slots[: len(column), j] = column
        self._neg_inf = np.array([-np.inf])
        # k + 1 for the k-th largest off-diagonal entry of a column
        self._ranks = np.arange(2, self._slots.shape[0] + 2)[:, None]

    def support(self, shape):
        _check_support_shape(shape, self.mask)
        return self.index, np.zeros(shape)

    def project_support(self, v):
        """The projection of the mask entries ``v``, in the order of ``index``."""
        diag = v[self._diag]
        w = np.sort(np.concatenate((v, self._neg_inf))[self._slots], axis=0)[::-1]
        active = self._ranks * w > diag + np.cumsum(w, axis=0)
        lam = (diag + np.where(active, w, 0.0).sum(axis=0)) / (active.sum(axis=0) + 1)
        return np.maximum(v - lam[self._group], self._floor)


def project_symmetric_masked_nonneg(M: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Exact projection onto symmetric matrices supported on ``mask`` with
    nonnegative off-diagonal entries (the diagonal is unconstrained)."""
    return SymmetricMaskedNonneg(mask).project(M)


def project_nonneg_diagonal(M: np.ndarray) -> np.ndarray:
    """Projection onto (rectangular) diagonal matrices with nonnegative
    diagonal entries."""
    return NonnegativeDiagonal().project(M)


def nearest_graph_laplacian(M: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Exact projection onto ``{L: support in mask, off-diag >= 0, column
    sums = 0}``; see :class:`_GraphLaplacian`."""
    return _scatter(_GraphLaplacian(_check_mask(mask)), M)


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
    """No constraint."""

    def support(self, shape):
        return np.arange(int(np.prod(shape))), np.zeros(shape)

    def project_support(self, v):
        return np.asarray(v, dtype=float)

    def project(self, M):
        return np.asarray(M, dtype=float)


@dataclass(frozen=True, eq=False)
class Fixed:
    """The singleton set ``{value}``; the value may be a band kernel or a
    dense matrix (for the D factor) or a plain matrix (for A or B)."""

    value: object

    def __post_init__(self):
        if not isinstance(self.value, CausalBandKernel):  # a float array stays itself
            object.__setattr__(self, "value", np.asarray(self.value, dtype=float))

    def _check(self, shape):
        if isinstance(self.value, np.ndarray) and tuple(shape) != self.value.shape:
            raise ValueError(
                f"fixed constraint of shape {self.value.shape} bound to "
                f"input of shape {tuple(shape)}"
            )

    def support(self, shape):
        self._check(shape)
        return np.zeros(0, dtype=np.intp), np.array(self.value, dtype=float)

    def project_support(self, v):
        return v

    def project(self, M):
        if isinstance(M, np.ndarray):
            self._check(M.shape)
        return self.value


@dataclass(frozen=True, eq=False)
class SymmetricMaskedNonneg:
    """Symmetric, supported on the neighbor mask, nonnegative off-diagonal.

    The mask is validated once; ``mask`` is a read-only copy of it."""

    mask: np.ndarray

    def __post_init__(self):
        mask = _check_mask(self.mask)
        n = mask.shape[0]
        index = _read_only(np.flatnonzero(mask))
        rows, cols = np.divmod(index, n)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_index", index)
        # the position of each mask entry's transpose among the mask entries
        object.__setattr__(self, "_transpose", np.searchsorted(index, cols * n + rows))
        object.__setattr__(self, "_off", rows != cols)

    def support(self, shape):
        _check_support_shape(shape, self.mask)
        return self._index, np.zeros(shape)

    def project_support(self, v):
        s = 0.5 * (v + v[self._transpose])
        return np.where(self._off, np.maximum(s, 0.0), s)

    project = _scatter


@dataclass(frozen=True, eq=False)
class ShiftedGraphLaplacian:
    """``A`` such that ``A - shift`` is a graph Laplacian on the mask.

    ``shift`` is ``"identity"``, ``"zero"``, or an explicit square matrix of
    the mask's shape with finite entries.  The mask and shift are validated
    once; ``mask`` is a read-only copy of the mask.  Off the mask ``A``
    equals the shift; on it the projection is ``shift + P(M - shift)`` for
    the Laplacian projection ``P`` of :class:`_GraphLaplacian`.
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
        laplacian = _GraphLaplacian(mask, self.column_sums)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_laplacian", laplacian)
        object.__setattr__(self, "_shift", shift)
        object.__setattr__(self, "_shift_support", shift.ravel()[laplacian.index])

    def support(self, shape):
        _check_support_shape(shape, self.mask)
        # shift + 0.0, as the dense shift + P(M - shift) has off the mask:
        # an explicit -0.0 in the shift comes out as 0.0
        return self._laplacian.index, self._shift + 0.0

    def project_support(self, v):
        shift = self._shift_support
        return shift + self._laplacian.project_support(v - shift)

    project = _scatter


@dataclass(frozen=True)
class NonnegativeDiagonal:
    """Diagonal matrices with nonnegative entries."""

    def support(self, shape):
        rows, cols = shape
        return np.arange(min(rows, cols)) * (cols + 1), np.zeros(shape)

    def project_support(self, v):
        return np.maximum(v, 0.0)

    project = _scatter


@dataclass(frozen=True)
class CausalBand:
    """The normalized banded causal Toeplitz set ``T_m^q(Q)``."""

    q: int
    Q: int

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


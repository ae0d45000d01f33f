"""Declarative convex constraint sets for (A, B, D) and their Euclidean
projections, composed into the product projection used by the solver."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import CausalBandKernel, project_to_band
from .model import StateSpaceModel


def _check_mask(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A read-only copy of a validated neighbor mask, and its off-diagonal
    part; a constraint set validates its mask once and keeps this copy."""
    mask = np.array(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError(f"mask must be square, got shape {mask.shape}")
    if not np.array_equal(mask, mask.T):
        raise ValueError("mask must be symmetric")
    if not np.all(np.diagonal(mask)):
        raise ValueError("mask must include the diagonal")
    mask.setflags(write=False)
    return mask, mask & ~np.eye(mask.shape[0], dtype=bool)


def _check_shape(M: np.ndarray, mask: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != mask.shape:
        raise ValueError(f"matrix shape {M.shape} does not match mask {mask.shape}")
    return M


def _check_shift(shift, n: int) -> np.ndarray:
    shift = np.array(shift, dtype=float)
    if shift.ndim != 2 or shift.shape[0] != shift.shape[1]:
        raise ValueError(f"shift must be square, got shape {shift.shape}")
    if shift.shape != (n, n):
        raise ValueError(f"shift shape {shift.shape} does not match mask {(n, n)}")
    if not np.all(np.isfinite(shift)):
        raise ValueError("shift holds non-finite values")
    return shift


def _rank_column(n: int) -> np.ndarray:
    """``k + 1`` for the ``k``-th largest off-diagonal entry of a column."""
    return np.arange(2, n + 2)[:, None]


def project_symmetric_masked_nonneg(M: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Exact projection onto symmetric matrices supported on ``mask`` with
    nonnegative off-diagonal entries (the diagonal is unconstrained)."""
    return SymmetricMaskedNonneg(mask).project(M)


def project_nonneg_diagonal(M: np.ndarray) -> np.ndarray:
    """Projection onto (rectangular) diagonal matrices with nonnegative
    diagonal entries."""
    M = np.asarray(M, dtype=float)
    out = np.zeros_like(M)
    cols = M.shape[1]
    out.flat[: min(M.shape) * cols : cols + 1] = np.maximum(np.diagonal(M), 0.0)
    return out


def _graph_laplacian(M: np.ndarray, off: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    diag = np.diagonal(M)
    w = np.sort(np.where(off, M, -np.inf), axis=0)[::-1]
    active = ranks * w > diag + np.cumsum(w, axis=0)
    lam = (diag + np.where(active, w, 0.0).sum(axis=0)) / (active.sum(axis=0) + 1)
    out = np.where(off, np.maximum(M - lam, 0.0), 0.0)
    np.fill_diagonal(out, diag - lam)
    return out


def nearest_graph_laplacian(M: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Exact projection onto ``{L: support in mask, off-diag >= 0, column
    sums = 0}``.

    The set splits column by column.  Column ``j`` of the projection is
    ``max(M_ij - lam_j, 0)`` at the off-diagonal mask entries and
    ``M_jj - lam_j`` on the diagonal, where the scalar ``lam_j`` makes the
    column sum to zero.  As in projection onto the simplex (Duchi et al.,
    2008; Condat, 2016), sorting the off-diagonal entries ``w`` of a column
    in descending order finds ``lam_j``: entry ``k`` (1-based) is positive
    exactly when ``(k + 1) w_(k) > M_jj + w_(1) + ... + w_(k)``, a condition
    that holds for a prefix of ``k``.  All columns are sorted at once.
    """
    mask, off = _check_mask(mask)
    return _graph_laplacian(_check_shape(M, mask), off, _rank_column(mask.shape[0]))


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

    def project(self, M):
        return np.asarray(M, dtype=float)


@dataclass(frozen=True, eq=False)
class Fixed:
    """The singleton set ``{value}``; the value may be a band kernel or a
    dense matrix (for the D factor) or a plain matrix (for A or B)."""

    value: object

    def project(self, M):
        if isinstance(self.value, np.ndarray) and isinstance(M, np.ndarray):
            if M.shape != self.value.shape:
                raise ValueError(
                    f"fixed constraint of shape {self.value.shape} bound to "
                    f"input of shape {M.shape}"
                )
        return self.value


@dataclass(frozen=True, eq=False)
class SymmetricMaskedNonneg:
    """Symmetric, supported on the neighbor mask, nonnegative off-diagonal.

    The mask is validated once; ``mask`` is a read-only copy of it."""

    mask: np.ndarray

    def __post_init__(self):
        mask, off = _check_mask(self.mask)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_off", off)

    def project(self, M):
        M = _check_shape(M, self.mask)
        out = np.where(self.mask, 0.5 * (M + M.T), 0.0)
        return np.where(self._off, np.maximum(out, 0.0), out)


@dataclass(frozen=True, eq=False)
class ShiftedGraphLaplacian:
    """``A`` such that ``A - shift`` is a graph Laplacian on the mask.

    ``shift`` is ``"identity"``, ``"zero"``, or an explicit square matrix of
    the mask's shape with finite entries.  The mask and shift are validated
    once; ``mask`` is a read-only copy of the mask.
    """

    mask: np.ndarray
    shift: object = "identity"
    column_sums: bool = True

    def __post_init__(self):
        mask, off = _check_mask(self.mask)
        n = mask.shape[0]
        if isinstance(self.shift, str):
            if self.shift not in ("identity", "zero"):
                raise ValueError(
                    f"shift must be 'identity', 'zero' or a matrix, got {self.shift!r}")
            shift = np.eye(n) if self.shift == "identity" else np.zeros((n, n))
        else:
            shift = _check_shift(self.shift, n)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_off", off)
        object.__setattr__(self, "_ranks", _rank_column(n))
        object.__setattr__(self, "_shift", shift)

    def project(self, M):
        M, shift = _check_shape(M, self.mask), self._shift
        if not self.column_sums:  # the mask is symmetric: project the transpose
            M, shift = M.T, shift.T
        out = shift + _graph_laplacian(M - shift, self._off, self._ranks)
        return out if self.column_sums else out.T


@dataclass(frozen=True)
class NonnegativeDiagonal:
    """Diagonal matrices with nonnegative entries."""

    def project(self, M):
        return project_nonneg_diagonal(M)


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


def project_params(theta: StateSpaceModel, spec: ConstraintSpec) -> StateSpaceModel:
    """Apply the factor projections independently; each factor is idempotent."""
    return StateSpaceModel(
        spec.on_A.project(theta.A),
        spec.on_B.project(theta.B),
        spec.on_D.project(theta.kernel),
    )

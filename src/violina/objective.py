"""The multi-trajectory least-squares loss, its gradient and Hessian action,
smoothness diagnostics, and the uniqueness certificates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .kernel import CausalBandKernel, apply_kernel, band_offset_counts
from .model import DataMatrices, StateSpaceModel, Trajectory, build_data_matrices

# LAPACK block size of the data compression (the fastest of 16..128 at r = 500)
_QR_BLOCK = 32


class Dataset:
    """A corpus of trajectories with the shared truncation parameters
    ``0 <= q < m``; ``m`` may not exceed any trajectory length (the columns
    it references must exist).  It holds only the trajectories."""

    def __init__(self, trajectories, q: int, m: int):
        self.trajectories, self.q, self.m = tuple(trajectories), int(q), int(m)
        if not self.trajectories:
            raise ValueError("a dataset needs at least one trajectory")
        if not 0 <= self.q < self.m:
            raise ValueError(f"need 0 <= q < m, got q={self.q}, m={self.m}")
        n, k, m = self.n, self.k, self.m
        for i, traj in enumerate(self.trajectories):
            if (traj.n, traj.k) != (n, k):
                raise ValueError(
                    f"trajectory {i} has shape ({traj.n}, {traj.k}), expected ({n}, {k})"
                )
            if traj.length < m:
                raise ValueError(
                    f"trajectory {i} has {traj.length + 1} states but m={m} needs {m + 1}"
                )

    @property
    def matrices(self) -> tuple[DataMatrices, ...]:
        """The zero-padded data matrices per trajectory, built on each access."""
        return tuple(build_data_matrices(t, self.q, self.m) for t in self.trajectories)

    @property
    def n(self) -> int:
        return self.trajectories[0].n

    @property
    def k(self) -> int:
        return self.trajectories[0].k

    @property
    def size(self) -> int:
        return len(self.trajectories)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "trajectories": [t.to_dict() for t in self.trajectories],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Dataset":
        """Parse a dataset; malformed content raises ``ValueError``, naming
        the trajectory index when one trajectory is at fault."""
        for key in ("q", "m", "trajectories"):
            if key not in d:
                raise ValueError(f"missing field {key!r}")
        trajs = []
        for i, t in enumerate(d["trajectories"]):
            try:
                trajs.append(Trajectory.from_dict(t))
            except ValueError as exc:
                raise ValueError(f"trajectory {i}: {exc}") from exc
        return cls(trajs, int(d["q"]), int(d["m"]))


@dataclass(frozen=True, eq=False)
class TangentTuple:
    """A direction ``(dA, dB, dD)`` in the ambient parameter space; ``dD`` is
    a dense ``m x m`` matrix."""

    dA: np.ndarray
    dB: np.ndarray
    dD: np.ndarray

    def inner(self, other: "TangentTuple") -> float:
        return float(
            np.sum(self.dA * other.dA)
            + np.sum(self.dB * other.dB)
            + np.sum(self.dD * other.dD)
        )

    def norm(self) -> float:
        return float(np.sqrt(self.inner(self)))


@dataclass(frozen=True)
class UniquenessReport:
    positive_definite: bool
    smallest_eigenvalue: float
    rank_condition: bool


def _check_shapes(theta: StateSpaceModel, data: Dataset):
    if theta.n != data.n or theta.k != data.k:
        raise ValueError(
            f"parameter shapes ({theta.n}, {theta.k}) do not match data "
            f"({data.n}, {data.k})"
        )
    km = theta.kernel.m if isinstance(theta.kernel, CausalBandKernel) else theta.kernel.shape[0]
    if km != data.m:
        raise ValueError(f"kernel dimension {km} does not match data m={data.m}")


def residuals(theta: StateSpaceModel, data: Dataset) -> list[np.ndarray]:
    """Per-trajectory residuals ``E = Y D - (A X + B U)`` in dataset order."""
    _check_shapes(theta, data)
    out = []
    for mat in data.matrices:
        out.append(apply_kernel(mat.Y, theta.kernel) - theta.A @ mat.X - theta.B @ mat.U)
    return out


def loss(theta: StateSpaceModel, data: Dataset) -> float:
    """Sum of squared Frobenius norms of the residuals, in fixed order."""
    total = 0.0
    for E in residuals(theta, data):
        total += float(np.sum(E * E))
    return total


def gradient(theta: StateSpaceModel, data: Dataset) -> TangentTuple:
    """Ambient gradient ``sum_mu (-2 E X^T, -2 E U^T, 2 Y^T E)``.

    The ``dD`` block is the full dense matrix; projection onto the kernel's
    feasible set is the solver's job, not the gradient's.
    """
    gA = np.zeros((data.n, data.n))
    gB = np.zeros((data.n, data.k))
    gD = np.zeros((data.m, data.m))
    for mat, E in zip(data.matrices, residuals(theta, data)):
        gA -= 2.0 * E @ mat.X.T
        gB -= 2.0 * E @ mat.U.T
        gD += 2.0 * mat.Y.T @ E
    return TangentTuple(gA, gB, gD)


def hessian_apply(delta: TangentTuple, data: Dataset) -> TangentTuple:
    """Hessian action on a tangent direction; independent of the base point."""
    gA = np.zeros((data.n, data.n))
    gB = np.zeros((data.n, data.k))
    gD = np.zeros((data.m, data.m))
    for mat in data.matrices:
        e = mat.Y @ delta.dD - delta.dA @ mat.X - delta.dB @ mat.U
        gA -= 2.0 * e @ mat.X.T
        gB -= 2.0 * e @ mat.U.T
        gD += 2.0 * mat.Y.T @ e
    return TangentTuple(gA, gB, gD)


def _band_blocks(Y: np.ndarray, q: int, Q: int) -> list[np.ndarray]:
    """The band shifts ``S_d Y = Y Delta_d`` for ``d = 1 .. Q-1``, where
    ``Delta_d`` is one on the in-band entries of super-diagonal ``d``: the
    ``d``-th term of :func:`apply_kernel` for nullity ``q``."""
    m = Y.shape[1]
    out = []
    for d in range(1, Q):
        j0 = max(q, d)
        shifted = np.zeros_like(Y)
        shifted[:, j0:] = Y[:, j0 - d : m - d]
        out.append(shifted)
    return out


def _compress(stacks, r: int) -> np.ndarray:
    """The ``r x r`` upper-triangular ``R`` with ``R^T R = sum W W^T`` over
    the ``r``-row stacks ``W``, reduced one stack at a time."""
    R = np.zeros((r, r), order="F")
    for W in stacks:
        # R := triangle of qr([R; W^T]), exploiting the triangle of R
        R, *_, info = scipy.linalg.lapack.dtpqrt(
            0, min(r, _QR_BLOCK), R, W.T, overwrite_a=True, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtpqrt failed with info={info}")
    return R


class _StartRelativeLoss:
    """The loss and gradient of :func:`violina_fit` from one triangular factor.

    Relative to the start ``theta0 = (A0, B0, D0)`` the residual of each
    trajectory is ``E = E0 - (A - A0) X - (B - B0) U + sum_i z_i K_i``.
    ``E0`` is the residual at ``theta0`` in residual form, so an exactly
    fitted start has a bitwise-zero loss and gradient.  The kernel blocks
    ``K_i`` are the band shifts ``S_d Y`` for ``d = 1 .. Q-1`` (the ``d``-th
    term of :func:`apply_kernel` for nullity ``q``) and, when ``kernel_after``
    is given, ``J = Y D_after - Y D0``, which carries a start kernel outside
    the band form (or a fixed kernel other than ``D0``) into the kernel the
    first projection returns.

    Stacking ``W = [X; U; K_1; ...; E0]`` over all trajectories, ``R^T R =
    W W^T`` for the ``r x r`` triangular factor ``R``, ``r = n (Q + 1) + k``
    (``n`` more with ``J``); it is reduced one trajectory at a time, as in the
    LQ data compression of subspace identification (Van Overschee & De Moor,
    1996) and tall-skinny QR (Demmel et al., 2012).  With ``Theta = [-(A-A0),
    -(B-B0), z_1 I, ..., I]`` the compressed residual is ``F = Theta R^T``,
    the loss ``||F||^2``, and ``F R = Theta W W^T`` holds the gradient.

    One evaluation costs ``O(n r^2)`` against ``O(N m n (n + k + Q))`` in
    residual form, after a one-off ``O(N m r^2)`` compression; the residual
    form is cheaper only when ``r`` approaches ``N m``.
    """

    def __init__(self, data: Dataset, theta0: StateSpaceModel, q: int, Q: int, kernel_after):
        self.A0, self.B0 = theta0.A, theta0.B
        self.nz = Q - 1 + (kernel_after is not None)
        E0 = residuals(theta0, data)
        self.initial_loss = sum(float(np.sum(e * e)) for e in E0)

        def stack(mat, e0):
            blocks = [mat.X, mat.U, *_band_blocks(mat.Y, q, Q)]
            if kernel_after is not None:
                blocks.append(apply_kernel(mat.Y, kernel_after)
                              - apply_kernel(mat.Y, theta0.kernel))
            blocks.append(e0)
            return np.vstack(blocks)

        self.R = _compress(map(stack, data.matrices, E0), data.n * (2 + self.nz) + data.k)

    def residual(self, A: np.ndarray, B: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Compressed residual ``F`` at ``(A, B)`` and kernel weights ``z``;
        the loss there is ``||F||^2``."""
        eye = np.eye(self.A0.shape[0])
        theta = np.hstack([self.A0 - A, self.B0 - B, np.kron(z, eye), eye])
        return theta @ self.R.T

    def gradient(self, F: np.ndarray):
        """``(gA, gB, gz)`` at the point whose compressed residual is ``F``."""
        n, k = self.B0.shape
        G = 2.0 * (F @ self.R)
        kernel_blocks = G[:, n + k : n + k + self.nz * n].reshape(n, self.nz, n)
        return -G[:, :n], -G[:, n : n + k], np.trace(kernel_blocks, axis1=0, axis2=2)


def lipschitz_constant(data: Dataset) -> float:
    """Smoothness constant ``L = 2 (lambda_Z + lambda_Y)``: an upper bound on
    ``||grad f(theta2) - grad f(theta1)|| / ||theta2 - theta1||`` over the
    ambient space, so a constant step ``t <= 1 / L`` never increases the loss.

    ``lambda_Z = lambda_max(sum_mu Z Z^T)`` with ``Z = [X; U]`` (the largest
    eigenvalue of ``fixed_d_hessian``) and ``lambda_Y = lambda_max(sum_mu
    Y^T Y)``.

    Proof: the loss is quadratic, so the gradient difference is ``H Delta``
    for the symmetric positive semidefinite Hessian ``H``, and
    ``<Delta, H Delta> = 2 sum_mu ||Y dD - [dA dB] Z||^2``.  Minkowski's
    inequality bounds this by ``2 (sqrt(lambda_Y) ||dD|| + sqrt(lambda_Z)
    ||[dA dB]||)^2`` and Cauchy-Schwarz by ``2 (lambda_Z + lambda_Y)
    ||Delta||^2``.  Directions in ``[dA dB]`` alone or ``dD`` alone give
    ``lambda_max(H) >= 2 max(lambda_Z, lambda_Y)``, so ``L`` is never looser
    than twice the exact constant.

    Diagnostic only: the solver's backtracking never relies on it.
    """
    gram_y = np.zeros((data.m, data.m))
    for mat in data.matrices:
        gram_y += mat.Y.T @ mat.Y
    lam_z = np.linalg.eigvalsh(fixed_d_hessian(data))[-1]
    lam_y = np.linalg.eigvalsh(gram_y)[-1]
    return float(2.0 * (lam_z + lam_y))


def fixed_d_hessian(data: Dataset) -> np.ndarray:
    """Hessian of the fixed-kernel problem: ``sum_mu [X; U] [X; U]^T``."""
    dim = data.n + data.k
    H = np.zeros((dim, dim))
    for mat in data.matrices:
        Z = np.vstack([mat.X, mat.U])
        H += Z @ Z.T
    return H


def perturbed(theta: StateSpaceModel, delta: TangentTuple, t: float = 1.0) -> StateSpaceModel:
    """The point ``theta + t * delta`` (kernel densified by the dD block)."""
    dense = theta.kernel if isinstance(theta.kernel, np.ndarray) else theta.kernel.to_dense()
    return StateSpaceModel(
        theta.A + t * delta.dA, theta.B + t * delta.dB, dense + t * delta.dD
    )


def _restricted_hessian_extremes(data: Dataset, q: int, Q: int) -> tuple[float, float, int]:
    """Extreme eigenvalues of the Hessian on an orthonormal basis of the
    feasible directions: all of ``A`` and ``B``, and the band directions
    ``Delta_d / sqrt(count_d)``, ``d = 1 .. Q-1``; and the rank of ``[X; U]``.

    With ``G = R^T R`` for the stacks ``[X; U; S_1 Y; ...]`` that Hessian is
    ``2 [[I_n (x) G_zz, -K], [-K^T, S]]``: ``G_zz`` the leading ``n + k``
    block of ``G``, ``K_d = G[band d, :n+k]``, ``S_de = tr G[band d, band
    e]``, bands scaled by ``1 / sqrt(count_d)``.  Each eigenvalue ``lambda_j``
    of ``G_zz`` meets the bands only through ``C_j = [K_d v_j]_d``, whose QR
    triangle ``T_j`` (``p = min(n, Q-1)`` rows) carries that coupling: the
    spectrum is that of ``[[diag(lambda_j I_p), -T], [-T^T, S]]`` plus
    copies of the ``lambda_j``, which by Cauchy interlacing lie inside it
    (``Q = 1`` leaves ``2 lambda``).  Exact: one dense eigenproblem.  The
    leading ``n + k`` block of ``R`` has the singular values of the stacked
    ``[X; U]``; the rank applies ``numpy.linalg.matrix_rank``'s tolerance.
    """
    n, a = data.n, data.n + data.k
    scale = 1.0 / np.sqrt(band_offset_counts(data.m, q, Q))
    R = _compress((np.vstack([mat.X, mat.U, *_band_blocks(mat.Y, q, Q)])
                   for mat in data.matrices), a + n * (Q - 1))
    sigma = np.linalg.svd(R[:a, :a], compute_uv=False)
    rank = int(np.sum(sigma > sigma[0] * max(a, data.size * data.m) * np.finfo(float).eps))
    G = R.T @ R
    lam, V = np.linalg.eigh(G[:a, :a])
    K = G[a:, :a].reshape(Q - 1, n, a) * scale[:, None, None]
    T = np.linalg.qr((K @ V).transpose(2, 1, 0), mode="r")
    p = T.shape[1]
    T = T.reshape(a * p, Q - 1)
    S = np.trace(G[a:, a:].reshape(Q - 1, n, Q - 1, n), axis1=1, axis2=3)
    small = np.block([[np.diag(np.repeat(lam, p)), -T],
                      [-T.T, S * np.outer(scale, scale)]])
    eigs = np.concatenate([np.linalg.eigvalsh(small), lam])
    return 2.0 * float(eigs.min()), 2.0 * float(eigs.max()), rank


def uniqueness_certificate(data: Dataset, mode: str = "fixed_d",
                           Q: int | None = None) -> UniquenessReport:
    """Certify uniqueness of the minimizer.

    ``full`` restricts the Hessian to ``A``, ``B`` and the feasible band
    directions (bandwidth ``Q``, default ``q + 1``) and reports its smallest
    eigenvalue.  ``fixed_d`` is ``Q = 1``, a fixed kernel: eigenvalues twice
    those of :func:`fixed_d_hessian`.  Either way ``rank_condition`` states
    whether the stacked ``[X; U]`` has full row rank ``n + k``.
    """
    if mode == "fixed_d":
        Q = 1
    elif mode != "full":
        raise ValueError(f"unknown mode {mode!r}, expected 'fixed_d' or 'full'")
    smallest, largest, rank = _restricted_hessian_extremes(
        data, data.q, data.q + 1 if Q is None else Q)
    tol = 1e-10 * max(1.0, abs(largest))
    return UniquenessReport(
        positive_definite=smallest > tol,
        smallest_eigenvalue=smallest,
        rank_condition=rank == data.n + data.k,
    )

"""The multi-trajectory least-squares loss, its gradient and Hessian action,
smoothness diagnostics, and the uniqueness certificates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import CausalBandKernel, apply_kernel, band_offset_counts, check_ints
from .model import DataMatrices, Dataset, StateSpaceModel, _matrices, _stacks


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


def _residual(theta: StateSpaceModel, mat: DataMatrices) -> np.ndarray:
    return apply_kernel(mat.Y, theta.kernel) - theta.A @ mat.X - theta.B @ mat.U


def loss(theta: StateSpaceModel, data: Dataset) -> float:
    """Sum of squared Frobenius norms of the residuals, in fixed order."""
    _check_shapes(theta, data)
    total = 0.0
    for mat in _matrices(data):
        E = _residual(theta, mat)
        total += float(np.sum(E * E))
    return total


def gradient(theta: StateSpaceModel, data: Dataset) -> TangentTuple:
    """Ambient gradient ``sum_mu (-2 E X^T, -2 E U^T, 2 Y^T E)``.

    The ``dD`` block is the full dense matrix; projection onto the kernel's
    feasible set is the solver's job, not the gradient's.
    """
    _check_shapes(theta, data)
    gA = np.zeros((data.n, data.n))
    gB = np.zeros((data.n, data.k))
    gD = np.zeros((data.m, data.m))
    for mat in _matrices(data):
        E = _residual(theta, mat)
        gA -= 2.0 * E @ mat.X.T
        gB -= 2.0 * E @ mat.U.T
        gD += 2.0 * mat.Y.T @ E
    return TangentTuple(gA, gB, gD)


def hessian_apply(delta: TangentTuple, data: Dataset) -> TangentTuple:
    """Hessian action on a tangent direction; independent of the base point.
    The loss is a quadratic form in ``(A, B, D)``, so this is its gradient at
    ``delta``."""
    return gradient(StateSpaceModel(delta.dA, delta.dB, delta.dD), data)


def _add_gram(G, Z, r):
    """Add ``Z Z^T`` for a stack's ``Z = [X; U_r]`` into ``G``, at the rows
    and columns that ``Z`` has in ``[X; U]``.  Returns ``Z Z^T`` and those
    rows.  The one sum of ``G_PP`` for the engine and
    :func:`fixed_d_hessian`."""
    n = len(Z) - len(r)
    rows = np.concatenate((np.arange(n), n + r))
    ZZ = np.dot(Z, Z.T)
    # one flat index: half the time of G[np.ix_(rows, rows)] at desk size
    G.reshape(-1)[(rows[:, None] * len(G) + rows).ravel()] += ZZ.ravel()
    return ZZ, rows


class _StartRelativeLoss:
    """The gradient of the loss of :func:`violina_fit` from the data's Gram
    blocks.

    Relative to the start ``theta0 = (A0, B0, D0)`` the residual of each
    trajectory is ``E = E0 - (A - A0) X - (B - B0) U + sum_i z_i K_i``.
    ``E0`` is the residual at ``theta0`` in residual form, so an exactly
    fitted start has a bitwise-zero loss and gradient.  The kernel blocks
    ``K_i`` are the band shifts ``S_d Y``, ``d = 1 .. Q-1``, of
    :func:`_stacks` and, when ``kernel_after`` is given, ``J = Y D_after - Y
    D0``, which carries a start kernel outside the band form (or a fixed
    kernel other than ``D0``) into the kernel the first projection returns.

    With ``W = [X; U; K_1; ...; K_nz; E0]``, ``r = n (nz + 2) + k`` rows, and
    ``Theta = [P, z_1 I, ..., z_nz I, I]`` for ``P = [A0 - A, B0 - B]``, each
    residual is ``Theta W``, the loss ``tr(Theta G Theta^T)`` and its
    gradient in ``Theta`` is ``2 Theta G`` for the Gram matrix ``G = sum W
    W^T``.  Every block of ``Theta`` but ``P`` is a multiple of the
    identity, so only these blocks of ``G`` are needed, and only they are
    summed: ``G_PP = sum Z Z^T`` for ``Z = [X; U]`` (``nk = n + k`` rows),
    ``C = sum K Z^T`` for the rows ``K = [K_1; ...; K_nz; E0]``, whose
    ``n``-row block ``l`` is ``C_l``, and ``S``, the Frobenius products
    ``<K_l, K_l'>`` of those blocks, which are the traces of the ``n x n``
    blocks of ``G`` pairing two identity blocks.  With ``w = [z, 1]``:

    - ``[gA, gB] = -2 (P G_PP + sum_l w_l C_l)``;
    - ``gz_l = 2 (<C_l, P> + (S w)_l)``, ``l < nz``.

    The sums run one trajectory at a time, in dataset order, over stacks
    that :func:`_stacks` writes into one ``r x m`` buffer with only the
    ``k_i`` input rows trajectory ``i`` drives, ``Z_i = [X; U_r]``: an
    undriven row adds exact zeros, so ``Z_i Z_i^T``, ``K Z_i^T`` and
    ``B0 U`` are summed over ``Z_i`` alone and added at its rows and
    columns.  When ``Q > 1``, ``C_1 = sum S_1 Y Z^T`` comes from the state
    rows of ``Z_i Z_i^T``: ``S_1 Y`` is ``X`` less its columns ``data.q ..
    max(q, data.q + 1) - 1``, so their outer products are subtracted.  ``S``
    takes one ``np.vdot`` per pair of ``n``-row blocks of ``K``.  ``E0`` is
    formed in the stack's last ``n`` rows in residual form's order, its
    products with ``A0`` and ``B0`` written in place, and its ``||E0||^2``
    is added to ``initial_loss``.  So beside the dataset the accumulation
    holds one trajectory's stack and no ``r x r`` array, whatever the
    number of trajectories, and it costs ``O(m sum_i a_i (a_i + n (nz +
    1)))`` for ``a_i = n + k_i``.  One evaluation is one ``n x nk`` by
    ``nk x nk`` product plus ``O((nz + 1) n nk)``, against ``O(N m n (n + k
    + Q))`` in residual form.  Its products use ``np.dot``, not ``@``: the
    same BLAS routine and bits, without the matmul ufunc's dispatch, which
    at desk size costs as much as the arithmetic.  No loss is evaluated
    here: it is quadratic, so the solver moves it by the exact increment
    ``1/2 <Delta, g + g_new>``, whose rounding is relative to the
    gradients, not to ``f``.  ``G`` squares the data (Bjorck, *Numerical
    Methods for Least Squares Problems*, 1996), which the tests bound
    against the triangular-factor form ``Theta R^T`` of
    ``tests/oracles.py``.
    """

    def __init__(self, data: Dataset, theta0: StateSpaceModel, q: int, Q: int, kernel_after):
        moved = kernel_after is not None
        self.nz = Q - 1 + moved
        _check_shapes(theta0, data)
        n, nk, l, p = data.n, data.n + data.k, self.nz + 1, data.q
        G_PP, C, S = np.zeros((nk, nk)), np.zeros((l * n, nk)), np.zeros((l, l))
        T = np.empty((n, data.m))
        c = n if Q > 1 else 0  # rows of K whose products come from Z Z^T
        lacks = slice(p, max(q, p + 1))  # the columns of X that S_1 Y lacks
        self.initial_loss = 0.0
        for W, Y, r in _stacks(data, q, Q, n * (1 + moved), driven=True):
            Z, K, E = W[: n + len(r)], W[nk:], W[-n:]  # (J and) E0 after the band
            E[...] = apply_kernel(Y, theta0.kernel)
            if moved:
                np.subtract(apply_kernel(Y, kernel_after), E, out=W[-2 * n : -n])
            np.matmul(theta0.A, Z[:n], out=T)
            E -= T
            np.matmul(theta0.B[:, r], Z[n:], out=T)
            E -= T
            self.initial_loss += float(np.sum(np.multiply(E, E, out=T)))
            ZZ, rows = _add_gram(G_PP, Z, r)
            KZ = np.empty((l * n, len(Z)))
            np.dot(K[c:], Z.T, out=KZ[c:])
            if c:  # S_1 Y Z^T: X Z^T less the products of the columns S_1 Y lacks
                np.subtract(ZZ[:n], np.dot(Z[:n, lacks], Z[:, lacks].T), out=KZ[:n])
            C[:, rows] += KZ
            blocks = K.reshape(l, -1)  # one row per n-row block of K
            for i in range(l):
                for j in range(i, l):
                    S[i, j] += np.vdot(blocks[i], blocks[j])
        S += np.triu(S, 1).T
        # kept times -2 (and S times 2), which is exact, so that the gradient
        # needs no scaling pass; C_l flattened, one row per identity block:
        # K_1 .. K_nz, then E0
        G_PP *= -2.0
        C *= -2.0
        S *= 2.0
        self._G_PP, self._C, self._S = G_PP, C.reshape(l, n * nk), S
        self._w, self._S_z, self._C_z = np.ones(l), self._S[:-1], self._C[:-1]

    def gradient(self, P: np.ndarray, z: np.ndarray):
        """``(G, gz)`` where ``Theta``'s leading ``n x (n + k)`` block is ``P =
        [A0 - A, B0 - B]`` and its kernel weights are ``z``: ``G = [gA, gB]``
        is the ``n x (n + k)`` gradient in ``(A, B)``, ``gz`` the one in
        ``z``.  Both are new arrays on every call."""
        w, dot = self._w, np.dot
        w[:-1] = z
        G = dot(P, self._G_PP)
        G += dot(w, self._C).reshape(P.shape)
        gz = dot(self._S_z, w)
        gz -= dot(self._C_z, P.ravel())
        return G, gz


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
    H, gram_y = np.zeros((data.n + data.k,) * 2), np.zeros((data.m, data.m))
    for W, Y, r in _stacks(data, data.q, 1, driven=True):
        _add_gram(H, W[: data.n + len(r)], r)
        gram_y += Y.T @ Y
    lam_z = np.linalg.eigvalsh(H)[-1]
    lam_y = np.linalg.eigvalsh(gram_y)[-1]
    return float(2.0 * (lam_z + lam_y))


def fixed_d_hessian(data: Dataset) -> np.ndarray:
    """Hessian of the fixed-kernel problem: ``sum_mu [X; U] [X; U]^T``."""
    H = np.zeros((data.n + data.k,) * 2)
    for W, _, r in _stacks(data, data.q, 1, driven=True):
        _add_gram(H, W[: data.n + len(r)], r)
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
    R = np.zeros((a + n * (Q - 1),) * 2)
    for W, *_ in _stacks(data, q, Q):  # R^T R = sum W W^T, reduced one stack at a time
        R = np.linalg.qr(np.vstack([R, W.T]), mode="r")
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
    those of :func:`fixed_d_hessian`; any other ``Q`` with it raises
    ``ValueError``.  Either way ``rank_condition`` states whether the stacked
    ``[X; U]`` has full row rank ``n + k``.  A ``Q`` that is not an integer
    raises ``ValueError`` naming it.
    """
    if Q is not None:
        check_ints(Q=Q)
    if mode == "fixed_d":
        if Q not in (None, 1):
            raise ValueError(f"mode 'fixed_d' fixes the kernel (Q = 1), got Q={Q}")
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

"""Independent oracles used across the test suite.

These deliberately avoid the library's computational paths: projections are
checked against an active-set quadratic-program enumeration, gradients
against central finite differences, and losses against literal entry loops.
The dataset reader is checked against the byte-offset parser it replaced,
the packed-array decoder against the ``base64.b64decode`` path it
replaced, and the fit engine's Gram blocks against one whole Gram matrix
per trajectory.  The data matrices that every oracle reads are three
zero-padded slices of each trajectory, not the library's stack writer.
"""

import base64
import json
import re

import numpy as np

from violina import (
    CausalBand,
    CausalBandKernel,
    Fixed,
    FullSpace,
    NonnegativeDiagonal,
    ShiftedGraphLaplacian,
    StateSpaceModel,
    TangentTuple,
    hessian_apply,
    loss,
    perturbed,
)
from violina.cli import _HEAD_END
from violina.dmdc import _StackSvd, as_model
from violina.kernel import apply_kernel, band_offset_counts
from violina.model import DataMatrices, relative_error


def project_polyhedral(v, A_eq, b_eq, nonneg_idx):
    """Exact projection of ``v`` onto ``{x: A_eq x = b_eq, x[i] >= 0}``.

    Enumerates every active set of the inequality constraints, solves the
    equality-constrained projection in closed form, and keeps the feasible
    candidate closest to ``v``.  Exponential in ``len(nonneg_idx)``; use for
    tiny instances only.
    """
    v = np.asarray(v, dtype=float)
    nonneg_idx = list(nonneg_idx)
    best, best_dist = None, np.inf
    for bits in range(2 ** len(nonneg_idx)):
        active = [nonneg_idx[i] for i in range(len(nonneg_idx)) if (bits >> i) & 1]
        rows = []
        rhs = []
        if A_eq is not None and len(A_eq):
            rows.append(np.atleast_2d(A_eq))
            rhs.append(np.atleast_1d(b_eq))
        for i in active:
            e = np.zeros(v.size)
            e[i] = 1.0
            rows.append(e[None, :])
            rhs.append([0.0])
        if rows:
            C = np.vstack(rows)
            d = np.concatenate([np.asarray(r, dtype=float) for r in rhs])
            x = v - C.T @ np.linalg.pinv(C @ C.T) @ (C @ v - d)
        else:
            x = v.copy()
        if all(x[i] >= -1e-9 for i in nonneg_idx):
            dist = float(np.sum((x - v) ** 2))
            if dist < best_dist:
                best, best_dist = x, dist
    assert best is not None, "no feasible active set found"
    return best


def _support_rows(mask_flat, extra_zero=()):
    rows = []
    for i in np.flatnonzero(~mask_flat):
        e = np.zeros(mask_flat.size)
        e[i] = 1.0
        rows.append(e)
    for i in extra_zero:
        e = np.zeros(mask_flat.size)
        e[i] = 1.0
        rows.append(e)
    return rows


def qp_symmetric_masked_nonneg(M, mask):
    """QP-oracle projection for the symmetric masked nonnegative set."""
    n = M.shape[0]
    v = M.ravel()
    rows = _support_rows(mask.ravel())
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros(n * n)
            e[i * n + j] = 1.0
            e[j * n + i] = -1.0
            rows.append(e)
    nonneg = [i * n + j for i in range(n) for j in range(n)
              if i != j and mask[i, j]]
    A_eq = np.vstack(rows) if rows else None
    b_eq = np.zeros(len(rows)) if rows else None
    return project_polyhedral(v, A_eq, b_eq, nonneg).reshape(n, n)


def qp_graph_laplacian(M, mask):
    """QP-oracle projection onto the zero-column-sum Laplacian set."""
    n = M.shape[0]
    v = M.ravel()
    rows = _support_rows(mask.ravel())
    for j in range(n):
        e = np.zeros(n * n)
        e[j::n] = 1.0
        rows.append(e)
    nonneg = [i * n + j for i in range(n) for j in range(n)
              if i != j and mask[i, j]]
    return project_polyhedral(v, np.vstack(rows), np.zeros(len(rows)), nonneg).reshape(n, n)


def laplacian_kkt_residual(M, P, mask):
    """Largest violation of the optimality conditions for ``P`` as the
    projection of ``M`` onto the zero-column-sum Laplacian set on ``mask``.

    Checks feasibility (support in the mask, nonnegative off-diagonal, zero
    column sums) and, column by column with ``lam = M_jj - P_jj``, that
    ``M_ij - P_ij = lam`` at positive off-diagonal entries and
    ``M_ij - lam <= 0`` at zero ones.  Loops over every entry, so it scales
    to masks far beyond the reach of the active-set enumeration.
    """
    n = M.shape[0]
    worst = 0.0
    for j in range(n):
        lam = M[j, j] - P[j, j]
        worst = max(worst, abs(sum(P[i, j] for i in range(n))))
        for i in range(n):
            if not mask[i, j]:
                worst = max(worst, abs(P[i, j]))
            elif i != j:
                worst = max(worst, -P[i, j])
                if P[i, j] > 0:
                    worst = max(worst, abs(M[i, j] - P[i, j] - lam))
                else:
                    worst = max(worst, M[i, j] - lam)
    return worst


def qp_nonneg_diagonal(M):
    """QP-oracle projection onto nonnegative diagonal matrices."""
    n, k = M.shape
    v = M.ravel()
    rows = []
    for i in range(n):
        for j in range(k):
            if i != j:
                e = np.zeros(n * k)
                e[i * k + j] = 1.0
                rows.append(e)
    nonneg = [i * k + i for i in range(min(n, k))]
    A_eq = np.vstack(rows) if rows else None
    b_eq = np.zeros(len(rows)) if rows else None
    return project_polyhedral(v, A_eq, b_eq, nonneg).reshape(n, k)


def lstsq_band_projection(M, q, Q):
    """Least-squares oracle for the band projection: solve for the free
    coefficients on the explicit affine parameterization."""
    m = M.shape[0]
    basis = []
    offset = np.zeros((m, m))
    rows = np.arange(q, m)
    offset[rows, rows] = 1.0
    for d in range(1, Q):
        B = np.zeros((m, m))
        rows = np.arange(max(0, q - d), m - d)
        B[rows, rows + d] = 1.0
        basis.append(B.ravel())
    if not basis:
        return offset
    A = np.stack(basis, axis=1)
    c, *_ = np.linalg.lstsq(A, (M - offset).ravel(), rcond=None)
    return offset + (A @ c).reshape(m, m)


def finite_difference_gradient(theta, data, h=1e-6):
    """Central-difference gradient of the loss, coordinate by coordinate."""
    n, k, m = data.n, data.k, data.m

    def fd(shape, key):
        out = np.zeros(shape)
        for idx in np.ndindex(shape):
            blocks = {
                "A": np.zeros((n, n)),
                "B": np.zeros((n, k)),
                "D": np.zeros((m, m)),
            }
            blocks[key][idx] = 1.0
            delta = TangentTuple(blocks["A"], blocks["B"], blocks["D"])
            out[idx] = (
                loss(perturbed(theta, delta, h), data)
                - loss(perturbed(theta, delta, -h), data)
            ) / (2 * h)
        return out

    return TangentTuple(fd((n, n), "A"), fd((n, k), "B"), fd((m, m), "D"))


def literal_matrices(traj, q, m):
    """The zero-padded ``X``, ``Y`` and ``U`` of one trajectory: three
    arrays of zeros, then three slices of its states and inputs."""
    X = np.zeros((traj.n, m))
    Y = np.zeros((traj.n, m))
    U = np.zeros((traj.k, m))
    X[:, q:] = traj.states[:, q:m]
    Y[:, q:] = traj.states[:, q + 1 : m + 1]
    U[:, q:] = traj.inputs[:, q:m]
    return DataMatrices(X, Y, U)


def _literal_matrices(data):
    """:func:`literal_matrices` of each trajectory of ``data``, in order."""
    return [literal_matrices(traj, data.q, data.m) for traj in data.trajectories]


def literal_loss(theta, data):
    """Loss recomputed with dense matrices and explicit entry loops."""
    from violina import CausalBandKernel

    D = theta.kernel.to_dense() if isinstance(theta.kernel, CausalBandKernel) else theta.kernel
    total = 0.0
    for mat in _literal_matrices(data):
        E = mat.Y @ D - (theta.A @ mat.X + theta.B @ mat.U)
        for i in range(E.shape[0]):
            for j in range(E.shape[1]):
                total += E[i, j] ** 2
    return total


def literal_lipschitz(data):
    """Literal recomputation of the printed formula ``2 max(rho_X, rho_U,
    rho_Y)``, which is not an upper bound on the gradient variation."""
    rho = {}
    for name in ("X", "U", "Y"):
        acc = 0.0
        for mat in _literal_matrices(data):
            Z = getattr(mat, name)
            for W in (mat.X, mat.U, mat.Y):
                acc += np.sum((W @ Z.T) ** 2)
        rho[name] = np.sqrt(acc)
    return 2.0 * max(rho.values())


def literal_smoothness_bound(data):
    """The bound ``2 (lambda_max(sum Z Z^T) + lambda_max(sum Y^T Y))`` with
    ``Z = [X; U]``: Gram matrices by entry loops, largest eigenvalues as
    spectral norms."""
    dim = data.n + data.k
    Gz = np.zeros((dim, dim))
    Gy = np.zeros((data.m, data.m))
    for mat in _literal_matrices(data):
        Z = np.vstack([mat.X, mat.U])
        for i in range(dim):
            for j in range(dim):
                Gz[i, j] += sum(Z[i, c] * Z[j, c] for c in range(data.m))
        for i in range(data.m):
            for j in range(data.m):
                Gy[i, j] += sum(mat.Y[r, i] * mat.Y[r, j] for r in range(data.n))
    return 2.0 * (np.linalg.norm(Gz, 2) + np.linalg.norm(Gy, 2))


def stacked_rank(data):
    """Rank of the stacked ``[X; U]``: ``numpy.linalg.matrix_rank`` of the
    ``(n + k) x N m`` matrix of all trajectories side by side."""
    return int(np.linalg.matrix_rank(
        np.hstack([np.vstack([mat.X, mat.U]) for mat in _literal_matrices(data)])))


def exact_lipschitz(data):
    """The exact gradient Lipschitz constant: the largest eigenvalue of the
    ambient Hessian over ``(A, B, D)``, assembled column by column from
    ``hessian_apply`` on the unit directions."""
    n, k, m = data.n, data.k, data.m
    sizes = (n * n, n * k, m * m)
    dim = sum(sizes)
    H = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        dA, dB, dD = np.split(e, np.cumsum(sizes)[:-1])
        h = hessian_apply(TangentTuple(dA.reshape(n, n), dB.reshape(n, k),
                                       dD.reshape(m, m)), data)
        H[:, j] = np.concatenate([h.dA.ravel(), h.dB.ravel(), h.dD.ravel()])
    return float(np.linalg.eigvalsh(0.5 * (H + H.T))[-1])


def restricted_hessian(data, q, Q):
    """The dense Hessian on an orthonormal basis of the feasible directions
    (all of ``A`` and ``B``, then one unit-norm direction per in-band
    super-diagonal ``d = 1 .. Q-1``), assembled column by column from
    ``hessian_apply``."""
    n, k, m = data.n, data.k, data.m
    basis = []
    for j in range(n * n + n * k):
        e = np.zeros(n * n + n * k)
        e[j] = 1.0
        basis.append(TangentTuple(e[: n * n].reshape(n, n), e[n * n:].reshape(n, k),
                                  np.zeros((m, m))))
    for d in range(1, Q):
        dD = np.zeros((m, m))
        rows = np.arange(max(0, q - d), m - d)
        dD[rows, rows + d] = 1.0 / np.sqrt(rows.size)
        basis.append(TangentTuple(np.zeros((n, n)), np.zeros((n, k)), dD))
    columns = [hessian_apply(v, data) for v in basis]
    H = np.array([[u.inner(h) for h in columns] for u in basis])
    return 0.5 * (H + H.T)


def literal_simulate(model, initial_states, inputs):
    """The ARX recursion one state column at a time, with ``B u_{t-1}`` formed
    per step: ``n x (m+1)`` states from ``n x (q+1)`` initial ones."""
    q = model.kernel.q
    m = inputs.shape[1]
    x = np.zeros((model.n, m + 1))
    x[:, : q + 1] = initial_states
    for t in range(q + 1, m + 1):
        acc = model.A @ x[:, t - 1] + model.B @ inputs[:, t - 1]
        for j, c in enumerate(model.kernel.coeffs, start=1):
            if c != 0.0 and t - j >= 0:
                acc -= c * x[:, t - j]
        x[:, t] = acc
    return x


def column_simulate(model, initial_states, inputs):
    """``StateSpaceModel.simulate``'s states as its column-major loop formed
    them: ``B u_{t-1}`` of every step in one product into the ``n x (m+1)``
    states, then each step on a state column.  Its bits are the contract of
    the time-major recursion."""
    q = model.kernel.q
    m = inputs.shape[1]
    x = np.empty((model.n, m + 1))
    x[:, : q + 1] = initial_states
    np.matmul(model.B, inputs[:, q:], out=x[:, q + 1 :])
    memory = [(j, c) for j, c in enumerate(model.kernel.coeffs, start=1) if c != 0.0]
    for t in range(q + 1, m + 1):
        x[:, t] += model.A @ x[:, t - 1]
        for j, c in memory:
            if t - j >= 0:
                x[:, t] -= c * x[:, t - j]
    return x


def literal_rank_scan(train, fit_index=0):
    """The DMDc rank scan by full-state simulation: for every attainable rank,
    the truncated ``(A, B)`` of trajectory ``fit_index`` (all of them when it
    is ``None``) re-simulates each train trajectory through
    ``StateSpaceModel.simulate``.  Returns the ranks, their mean relative
    errors and the singular values of the stacked ``[X; U]``."""
    svd = _StackSvd(train.trajectories if fit_index is None
                    else [train.trajectories[fit_index]], train.m)
    ranks, errors = [], []
    for r in range(1, svd.rank + 1):
        A, B = svd.solve(r)
        model = as_model(A, B, train.m)
        total = 0.0
        for traj in train.trajectories:
            pred = model.simulate(traj.states[:, :1], traj.inputs[:, : train.m])
            total += relative_error(pred.states, traj.states[:, : train.m + 1], first=1)
        ranks.append(r)
        errors.append(total / train.size)
    return tuple(ranks), tuple(errors), svd.s


def literal_theta(P, z):
    """The solver's dense weight matrix ``Theta = [P, z (x) I, I]`` with
    ``P = [A0 - A, B0 - B]``."""
    eye = np.eye(P.shape[0])
    return np.hstack([P, np.kron(z, eye), eye])


def _dense_kernel(D):
    return D if isinstance(D, np.ndarray) else D.to_dense()


class LiteralEngine:
    """The fit's start-relative loss in triangular-factor form, every product
    dense: ``R`` with ``R^T R = sum W W^T`` over the stacks ``W = [X; U; Y
    Delta_1; ...; Y Delta_(Q-1); (J); E0]`` (``Delta_d`` the in-band ones of
    super-diagonal ``d``, ``J = Y (D_after - D0)``), reduced one trajectory
    at a time by Householder QR; the residual ``F = Theta R^T``, its loss
    ``||F||^2`` and the gradient read off ``2 F R``.  ``row_norms`` holds the
    Euclidean norm of each row of the stacked ``W``, for rounding bounds."""

    def __init__(self, data, theta0, q, Q, kernel_after):
        m = data.m
        self.nz = Q - 1 + (kernel_after is not None)
        deltas = [np.eye(m, k=d) for d in range(1, Q)]
        for delta in deltas:
            delta[:, :q] = 0.0
        D0 = _dense_kernel(theta0.kernel)
        R, sq = None, 0.0
        for mat in _literal_matrices(data):
            blocks = [mat.X, mat.U, *(mat.Y @ delta for delta in deltas)]
            if kernel_after is not None:
                blocks.append(mat.Y @ (_dense_kernel(kernel_after) - D0))
            blocks.append(mat.Y @ D0 - theta0.A @ mat.X - theta0.B @ mat.U)
            W = np.vstack(blocks)
            sq = sq + np.sum(W * W, axis=1)
            R = np.linalg.qr(W.T if R is None else np.vstack([R, W.T]), mode="r")
        self.R, self.row_norms = R, np.sqrt(sq)

    def residual(self, P, z):
        return literal_theta(P, z) @ self.R.T

    def gradient(self, F):
        """``(G, gz)`` at the point whose residual is ``F``: minus the leading
        ``n + k`` columns of ``2 F R``, and the traces of its kernel blocks."""
        n = F.shape[0]
        nk = self.R.shape[1] - n * (self.nz + 1)
        G = 2.0 * (F @ self.R)
        kernel_blocks = G[:, nk : nk + self.nz * n].reshape(n, self.nz, n)
        return -G[:, :nk], np.trace(kernel_blocks, axis1=0, axis2=2)


def literal_stacks(data, q, Q):
    """Each trajectory's :func:`literal_matrices` and, stacked from them, its
    ``W = [X; U; S_1 Y; ...; S_(Q-1) Y]``, ``S_d Y`` holding ``Y``'s
    columns moved ``d`` to the right from column ``max(q, d)`` on: fresh
    arrays per trajectory, in dataset order."""
    m = data.m
    for traj in data.trajectories:
        mat = literal_matrices(traj, data.q, m)
        shifts = [np.zeros_like(mat.Y) for _ in range(1, Q)]
        for d, shift in enumerate(shifts, start=1):
            shift[:, max(q, d):] = mat.Y[:, max(q, d) - d : m - d]
        yield mat, np.vstack([mat.X, mat.U, *shifts])


def gram_blocks(data, theta0, q, Q, kernel_after):
    """The fit engine's sums the long way: one whole Gram matrix ``W W^T``
    per trajectory of the stack ``W = [X; U; S_1 Y; ...; S_(Q-1) Y; (J);
    E0]`` of :func:`literal_stacks`, ``E0 = Y D0 - A0 X - B0 U`` in residual
    form and ``J = Y D_after - Y D0``, then sliced.  Returns ``(G_PP, C, S,
    initial_loss, row_norms)``: the leading ``n + k`` block, the rows of
    the identity blocks in its columns, the traces of the ``n x n`` blocks
    pairing two identity blocks, ``sum ||E0||^2`` in dataset order, and the
    Euclidean norm of each row of the stacked ``W``, all unscaled."""
    n, nk = data.n, data.n + data.k
    nz = Q - 1 + (kernel_after is not None)
    G, f0 = 0.0, 0.0
    for mat, W in literal_stacks(data, q, Q):
        YD0 = apply_kernel(mat.Y, theta0.kernel)
        e0 = YD0 - theta0.A @ mat.X - theta0.B @ mat.U
        f0 += float(np.sum(e0 * e0))
        J = [] if kernel_after is None else [apply_kernel(mat.Y, kernel_after) - YD0]
        W = np.vstack([W, *J, e0])
        G = G + W @ W.T
    S = np.trace(G[nk:, nk:].reshape(nz + 1, n, nz + 1, n), axis1=1, axis2=3)
    return G[:nk, :nk], G[nk:, :nk], S, f0, np.sqrt(np.diag(G))


def literal_fit(data, spec, cfg):
    """``violina_fit``'s scheme on a :class:`LiteralEngine`, with dense
    ``[A B]``: every trial forms ``F`` and its loss ``||F||^2``, every step
    its gradient, and each trial projects the whole of ``A`` and ``B``.
    Returns the loss curve, the accepted stepsizes and the backtracks."""
    theta = cfg.theta0
    n = theta.n
    kern_after = spec.on_D.project(theta.kernel)
    moved = kern_after is not theta.kernel
    if isinstance(spec.on_D, CausalBand):
        q, Q, c_ref = spec.on_D.q, spec.on_D.Q, np.array(kern_after.coeffs)
    else:
        q, Q, c_ref = 0, 1, np.zeros(0)
    counts = band_offset_counts(data.m, q, Q)
    engine = LiteralEngine(data, theta, q, Q, kern_after if moved else None)
    kernel_jump2 = 0.0
    if moved:
        kernel_jump2 = float(np.sum((_dense_kernel(kern_after) - _dense_kernel(theta.kernel)) ** 2))
    AB0 = np.hstack([theta.A, theta.B])
    AB, c, z = AB0, c_ref, np.zeros(engine.nz)
    F = engine.residual(np.zeros_like(AB0), z)
    f = float(np.sum(F * F))
    t = cfg.t0
    curve, steps, backs = [f], [], []
    for step in range(cfg.max_steps):
        G, gz = engine.gradient(F)
        nb = 0
        while True:
            Y = AB - t * G
            AB_new = np.hstack([spec.on_A.project(Y[:, :n]), spec.on_B.project(Y[:, n:])])
            c_new = (c * counts - t * gz[: Q - 1]) / counts
            z_new = np.append(c_new - c_ref, [1.0] * moved)
            F_new = engine.residual(AB0 - AB_new, z_new)
            f_new = float(np.sum(F_new * F_new))
            d = AB_new - AB
            gdot = float(np.sum(d * G) + (z_new - z) @ gz)
            dist2 = float(np.sum(d * d) + counts @ (c_new - c) ** 2)
            if step == 0:
                dist2 += kernel_jump2
            if f_new <= f + gdot + dist2 / (2.0 * t) + 1e-12 * (1.0 + abs(f)):
                break
            t /= cfg.eta
            nb += 1
            assert nb <= 200, "backtracking underflow"
        f_prev = f
        AB, c, z, F, f = AB_new, c_new, z_new, F_new, f_new
        curve.append(f)
        steps.append(t)
        backs.append(nb)
        if cfg.stop_tol is not None and f_prev - f <= cfg.stop_tol * (1.0 + abs(f_prev)):
            break
    return np.array(curve), np.array(steps), np.array(backs, dtype=int)


def literal_nonneg_diagonal(M):
    """Projection onto nonnegative (rectangular) diagonal matrices by an
    index gather and scatter."""
    M = np.asarray(M, dtype=float)
    out = np.zeros_like(M)
    d = min(M.shape)
    idx = np.arange(d)
    out[idx, idx] = np.maximum(M[idx, idx], 0.0)
    return out


def literal_fractional_toeplitz(alpha, m):
    """The fractional-difference Toeplitz factor entry by entry: row ``i``
    carries ``w_0 = 1`` at column ``i`` and ``w_k = w_{k-1} (k - 1 - alpha) / k``
    at column ``i + k``; every entry below the diagonal is zero."""
    T = [[0.0] * m for _ in range(m)]
    for i in range(m):
        w = 1.0
        for j in range(i, m):
            k = j - i
            if k > 0:
                w = w * (k - 1 - alpha) / k
            T[i][j] = w
    return np.array(T)


def _percall_mask(mask):
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError(f"mask must be square, got shape {mask.shape}")
    if not np.array_equal(mask, mask.T):
        raise ValueError("mask must be symmetric")
    if not np.all(np.diagonal(mask)):
        raise ValueError("mask must include the diagonal")
    return mask


def percall_symmetric_masked_nonneg(M, mask):
    """The symmetric masked nonnegative projection, validating the mask and
    building the identity mask on every call."""
    mask = _percall_mask(mask)
    M = np.asarray(M, dtype=float)
    S = 0.5 * (M + M.T)
    out = np.where(mask, S, 0.0)
    eye = np.eye(M.shape[0], dtype=bool)
    return np.where(eye, out, np.maximum(out, 0.0))


def percall_graph_laplacian(M, mask):
    """The sort-based zero-column-sum Laplacian projection, validating the
    mask and building the off-diagonal mask and rank column on every call."""
    mask = _percall_mask(mask)
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    off = mask & ~np.eye(n, dtype=bool)
    diag = np.diagonal(M)
    w = np.sort(np.where(off, M, -np.inf), axis=0)[::-1]
    active = np.arange(2, n + 2)[:, None] * w > diag + np.cumsum(w, axis=0)
    lam = (diag + np.where(active, w, 0.0).sum(axis=0)) / (active.sum(axis=0) + 1)
    out = np.where(off, np.maximum(M - lam, 0.0), 0.0)
    np.fill_diagonal(out, diag - lam)
    return out


def percall_shifted_laplacian(M, mask, shift, column_sums=True):
    """``shift + P(M - shift)`` for the Laplacian projection ``P``; row sums
    project the transpose."""
    M = np.asarray(M, dtype=float)
    if not column_sums:
        return percall_shifted_laplacian(M.T, mask, shift.T).T
    return shift + percall_graph_laplacian(M - shift, mask)


def literal_support(cset, shape):
    """``(index, base)`` of a set for ``A`` or ``B`` by the rule each class
    stated for itself before the support was derived from the hull: every
    entry, the diagonal, the mask entries or none, and a new matrix holding
    zero, the shift plus ``0.0`` or a copy of the fixed value."""
    shape = tuple(shape)
    if isinstance(cset, FullSpace):
        return np.arange(int(np.prod(shape))), np.zeros(shape)
    if isinstance(cset, NonnegativeDiagonal):
        rows, cols = shape
        return np.arange(min(rows, cols)) * (cols + 1), np.zeros(shape)
    if isinstance(cset, Fixed):
        assert shape == np.shape(cset.value)
        return np.zeros(0, dtype=np.intp), np.array(cset.value, dtype=float)
    assert shape == cset.mask.shape
    base = np.zeros(shape)
    if isinstance(cset, ShiftedGraphLaplacian):
        shift = cset.shift
        if isinstance(shift, str):
            shift = np.eye(shape[0]) if shift == "identity" else base
        base = np.array(shift, dtype=float) + 0.0
    return np.flatnonzero(cset.mask), base


def lift(hull, x):
    """The member ``offset + sum_c x_c d_c`` of a hull ``(entries, coords,
    values, lower, offset)`` at the coordinates ``x``, summed entry by entry
    with ``np.add.at``."""
    entries, coords, values, _, offset = hull
    flat = np.ravel(offset).copy()
    np.add.at(flat, entries, values * x[coords])
    return flat.reshape(offset.shape)


def hankel_companion(model):
    """Companion form of the stacked ``Q``-state recursion.

    Returns ``(script_A, script_B)`` with shapes ``nQ x nQ`` and ``nQ x kQ``.
    Identity blocks shift the stack; the bottom block-row is
    ``(0, -c_{Q-1} I, ..., -c_2 I, A - c_1 I)``, aligned so that iterating the
    stacked state reproduces the ARX recursion exactly (the deepest memory
    lag is ``Q - 1``, so the oldest stack entry carries no coefficient).
    """
    if not isinstance(model.kernel, CausalBandKernel):
        raise TypeError("companion form needs a band kernel")
    n, k, Q = model.n, model.k, model.kernel.Q
    coeffs = model.kernel.coeffs
    sA = np.zeros((n * Q, n * Q))
    for r in range(Q - 1):
        sA[r * n : (r + 1) * n, (r + 1) * n : (r + 2) * n] = np.eye(n)
    bottom = slice((Q - 1) * n, Q * n)
    for p in range(1, Q - 1):
        sA[bottom, p * n : (p + 1) * n] = -coeffs[Q - p - 1] * np.eye(n)
    last = model.A.copy()
    if Q > 1:
        last -= coeffs[0] * np.eye(n)
    sA[bottom, (Q - 1) * n : Q * n] = last
    sB = np.zeros((n * Q, k * Q))
    sB[bottom, (Q - 1) * k :] = model.B
    return sA, sB


def attainable_rank(data, indices=None):
    """Numerical rank of the stacked ``[X; U]`` matrix."""
    trajs = data.trajectories if indices is None else [data.trajectories[i] for i in indices]
    return _StackSvd(trajs, data.m).rank


def project_params(theta, spec):
    """Apply the factor projections independently; each factor is idempotent."""
    return StateSpaceModel(
        spec.on_A.project(theta.A),
        spec.on_B.project(theta.B),
        spec.on_D.project(theta.kernel),
    )


# the bytes violina writes before each array of a trajectory, the packed
# array's head, and what follows its text up to the next ']': nothing, or the
# stored columns; each number a nonnegative integer as %d writes it
_MEMBERS = ((b'{"inputs":', "inputs"), (b',"states":', "states"))
_PACKED_HEAD = re.compile(rb'\[(0|[1-9][0-9]*),(0|[1-9][0-9]*),"')
_PACKED_TAIL = re.compile(rb'(?:,\[((?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*|))?')


def byte_offset_dataset_json(fh, chunk):
    """The objects of the dataset text in the binary file ``fh`` as the
    byte-offset parser reads them, ``chunk`` bytes at a time, one
    ``bytearray`` cut at the offsets its searches find: the head up to the
    first ``,"trajectories":[`` through the JSON decoder, then each
    trajectory exactly ``{"inputs":[R,C,"…"],"states":[R,C,"…"]}``, each
    array with or without a fourth item ``,[j0,…]``, and a ``}`` with one
    byte after it before it is yielded.  Any other text raises
    ``ValueError``, some of it after trajectories were yielded."""
    buf = bytearray()

    def fill():
        if not (data := fh.read(chunk)):
            raise ValueError("the text ends early")
        buf.extend(data)

    def find(sub: bytes, i: int = 0) -> int:
        while (j := buf.find(sub, i)) < 0:
            i = max(i, len(buf) - len(sub) + 1)
            fill()
        return j

    def packed(start: bytes) -> list:
        quote = find(b'"', len(start))
        head = buf.startswith(start) and _PACKED_HEAD.fullmatch(buf, len(start), quote + 1)
        if not head:
            raise ValueError("a trajectory not in the packed layout")
        close = find(b'"', quote + 1)
        end = find(b"]", close + 1)  # the array's ']', or its column list's
        tail = _PACKED_TAIL.fullmatch(buf, close + 1, end)
        columns = tail and tail[1]
        end += columns is not None  # then the array's ']' follows the list's
        while len(buf) <= end:
            fill()
        if not tail or buf[end] != ord("]"):
            raise ValueError("a trajectory not in the packed layout")
        with memoryview(buf) as view:  # released before buf is resized
            array = [int(head[1]), int(head[2]), str(view[quote + 1 : close], "ascii")]
        if columns is not None:
            array.append([int(j) for j in columns.split(b",")] if columns else [])
        del buf[: end + 1]
        return array

    i = find(_HEAD_END) + len(_HEAD_END)
    head = json.JSONDecoder().decode(buf[:i].decode("utf-8") + "]}")
    del buf[:i]
    yield head
    if not buf:
        fill()
    if buf[0] != ord("]"):
        while True:  # buf starts after the '[' or ',' before a trajectory
            obj = {key: packed(start) for start, key in _MEMBERS}
            while len(buf) < 2:  # the '}', and the ',' or ']' after it
                fill()
            if buf[0] != ord("}"):
                raise ValueError("a trajectory not in the packed layout")
            del buf[:1]
            yield obj
            del obj
            if buf[0] != ord(","):
                break
            del buf[:1]
    if buf[0] != ord("]") or (buf[1:] + fh.read()).rstrip(b" \t\n\r") != b"}":
        raise ValueError("expected ',' or ']}' and the end of the text")


def stdlib_packed_block(name, text, rows, width):
    """The ``rows x width`` float block of a packed array's base64 ``text``,
    decoded as ``kernel.json_table`` did before its pair table: through
    ``base64.b64decode(text, validate=True)``, then the byte count and the
    text length, each fault raising the ``ValueError`` it raised, naming
    ``name``.  A read-only view on the decoded bytes."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"{name}: not base64: {exc}") from None
    size = 8 * rows * width
    if len(raw) != size:
        raise ValueError(f"{name}: {len(raw)} bytes, but {rows} x {width} floats take {size}")
    if len(text) != 4 * -(-size // 3):
        raise ValueError(f"{name}: base64 padding after the last group")
    return np.frombuffer(raw, dtype="<f8").reshape(rows, width)

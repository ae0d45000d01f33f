"""Independent oracles used across the test suite.

These deliberately avoid the library's computational paths: projections are
checked against an active-set quadratic-program enumeration, gradients
against central finite differences, and losses against literal entry loops.
"""

import numpy as np

from violina import TangentTuple, hessian_apply, loss, perturbed


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


def literal_loss(theta, data):
    """Loss recomputed with dense matrices and explicit entry loops."""
    from violina import CausalBandKernel

    D = theta.kernel.to_dense() if isinstance(theta.kernel, CausalBandKernel) else theta.kernel
    total = 0.0
    for mat in data.matrices:
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
        for mat in data.matrices:
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
    for mat in data.matrices:
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
        np.hstack([np.vstack([mat.X, mat.U]) for mat in data.matrices])))


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

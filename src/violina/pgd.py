"""Projected gradient descent with backtracking stepsize adjustment — the
Violina solver.

The loop follows the reference scheme exactly: gradient step, product
projection, then divide the stepsize by ``eta`` while the sufficient-decrease
surrogate is violated; the accepted stepsize carries over to the next
iteration.  The kernel's set ``St(D)`` is affine (a band, or one fixed
kernel), so after one ``spec.on_D.project`` of the start kernel the loop moves
only the band coefficients: projecting a stepped kernel equals stepping each
coefficient by the in-band diagonal mean of the gradient.  No iteration
builds an ``m x m`` matrix or a kernel object.

No iteration touches the trajectories either.  The loss is quadratic in
``(A, B)`` and the band coefficients, so before the first step the data are
reduced, relative to ``theta0``, to blocks of their ``r x r`` Gram matrix
``G`` with ``r = n (Q + 1) + k`` (``n`` more when the start kernel is outside
the band form or differs from a ``Fixed`` one); see
``objective._StartRelativeLoss``.  Each trial point costs one gradient
evaluation there: one ``n x (n + k)`` by ``(n + k) x (n + k)`` product plus
``O((nz + 1) n (n + k))``, whatever the number ``N`` and length ``m`` of the
trajectories.  Its loss is the previous loss plus the exact increment of a
quadratic, ``1/2 <Delta, g + g_new>`` over the move ``Delta`` in ``(A, B, z)``,
and it is accepted when that increment stays below the surrogate
``<Delta, g> + |Delta|^2 / (2 t)``.  The whole test takes ``Delta`` in
``(A, B)`` on the dense ``n x (n + k)`` layout and weights each entry of ``z``
by the squared length of the kernel direction it moves (these directions are
orthogonal), so it does not depend on the supports below.  As ``P`` and
``z`` are taken relative to ``theta0``, the first step's move of the start
onto the sets is part of ``Delta`` like any other move.  An accepted trial's
gradient is the next step's.  The residual form of :mod:`.objective` costs
``O(N m n (n + k))`` per evaluation; it stays the reference the tests compare
the solver against, with the triangular-factor form ``Theta R^T``.

Nor does a trial point touch the entries of ``(A, B)`` that the sets of ``A``
and ``B`` hold constant (off the neighbour mask, off the diagonal).  The
entries the sets can change (160 of 1 800 for the desk ``a2b`` fit) and the
band coefficients move as one vector ``u``, weighted by 1 and the in-band
counts ``w``: a trial steps it to ``(u w - t g) / w`` and projects its ``A``
and ``B`` slices with the projections that ``constraints.coordinates``
derives from the sets' hulls.  The trial path takes its products with
``np.dot``, not ``@``: both call the same BLAS routine on these operands and
give the same bits, but ``np.dot`` skips the matmul ufunc's dispatch, which at
desk size is a visible share of a trial of some 50 small numpy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import CausalBand, ConstraintSpec, coordinates
from .kernel import CausalBandKernel, band_offset_counts, check_ints
from .model import Dataset, StateSpaceModel
from .objective import _StartRelativeLoss

_MIN_STEPSIZE = 1e-300
_MAX_BACKTRACKS = 200
# Acceptance slack for the sufficient-decrease test: once the loss decrease
# reaches the floating-point noise floor of its evaluation, an exact comparison
# flips randomly and backtracking would divide the stepsize forever.  The
# slack stays well inside the 1e-10 * (1 + f) tolerance of the monotonicity
# and surrogate contracts.
_SURROGATE_SLACK = 1e-12


class SolverError(RuntimeError):
    """The solver hit a numerical failure (NaN loss or stepsize underflow)."""


@dataclass
class PgdConfig:
    """Solver settings.

    ``theta0`` may lie outside the feasible set; the first projection maps it
    in.  ``stop_tol`` enables optional early stopping on the relative loss
    decrease and is disabled by default (the benchmark runs all steps).
    """

    theta0: StateSpaceModel
    t0: float = 0.3
    eta: float = 1.05
    max_steps: int = 10000
    stop_tol: float | None = None

    def __post_init__(self):
        check_ints(max_steps=self.max_steps)
        if not 0 < self.t0 < math.inf:
            raise ValueError(f"initial stepsize must be positive and finite, got {self.t0}")
        if not 1 < self.eta < math.inf:
            raise ValueError(f"backtracking divisor must be finite and exceed 1, got {self.eta}")
        if self.max_steps < 1:
            raise ValueError(f"need at least one step, got {self.max_steps}")
        if self.stop_tol is not None and not 0 <= self.stop_tol < math.inf:
            raise ValueError(
                f"stopping tolerance must be finite and nonnegative, got {self.stop_tol}")


@dataclass(eq=False)
class FitReport:
    """Fit result plus the learning curve.

    ``loss_curve`` holds the loss at every iterate (one more entry than
    steps taken); ``stepsizes`` and ``backtracks`` record the accepted
    stepsize and the number of stepsize divisions per outer iteration.
    """

    theta_final: StateSpaceModel
    loss_curve: np.ndarray
    stepsizes: np.ndarray
    backtracks: np.ndarray
    initial_stepsize: float

    @property
    def steps(self) -> int:
        return len(self.stepsizes)


def default_initial_point(n: int, k: int, m: int, q: int, Q: int) -> StateSpaceModel:
    """The standard start: identity A, zero B, identity-like kernel.  An
    argument that is not an integer raises ``ValueError`` naming it."""
    check_ints(n=n, k=k, m=m, q=q, Q=Q)
    return StateSpaceModel(np.eye(n), np.zeros((n, k)), CausalBandKernel.identity(m, q, Q))


def violina_fit(data: Dataset, spec: ConstraintSpec, cfg: PgdConfig) -> FitReport:
    """Fit the parameter triple to the dataset by projected gradient descent.

    ``data.trajectories`` is read once, in order, when the engine
    accumulates its Gram blocks, so ``data`` may be a one-pass stream.

    Raises :class:`SolverError` on non-finite losses (a stepsize so large
    that a trial point overflows, say) or when backtracking underflows
    (more than 200 divisions in one outer step, which signals an inconsistent
    projection).
    """
    theta = cfg.theta0
    m = data.m
    # The first projection maps the start kernel D0 into St(D) once; after it
    # only the band coefficients c move (none for a Fixed kernel).  The
    # engine's kernel weights z are c - c_ref then, when D0 moved, the weight
    # of J = Y kern_after - Y D0: 0 at theta0 and 1 from the first step on.
    kern_after = spec.on_D.project(theta.kernel)
    # Fixed keeps its own copy of a dense kernel, so compare those by value
    moved = kern_after is not theta.kernel and not (
        isinstance(theta.kernel, np.ndarray) and np.array_equal(kern_after, theta.kernel))
    if isinstance(spec.on_D, CausalBand):
        q, Q, c_ref = spec.on_D.q, spec.on_D.Q, np.array(kern_after.coeffs)
    else:
        q, Q, c_ref = 0, 1, np.zeros(0)
    counts = band_offset_counts(m, q, Q)
    engine = _StartRelativeLoss(data, theta, q, Q, kern_after if moved else None)
    # dz's weights: the in-band counts of the band coefficients, then J's
    # |D_after - D0|^2, which the band projection makes orthogonal to them
    wz = counts
    if moved:
        D_after, D0 = (D if isinstance(D, np.ndarray) else D.to_dense()
                       for D in (kern_after, theta.kernel))
        wz = np.append(counts, np.sum((D_after - D0) ** 2))

    # u holds the entries of (A, B) that their sets can change, then the band
    # coefficients, weighted by w.  index places the entries in the n x (n + k)
    # layout of [A B] that the engine's P = [A0 - A, B0 - B] and gradient G
    # share; every other entry of P holds A0 - base (B0 - base), its value
    # from the first step on.
    n, k = theta.B.shape
    (iA, baseA, project_A), (iB, baseB, project_B) = (
        coordinates(cset, M.shape) for cset, M in ((spec.on_A, theta.A), (spec.on_B, theta.B)))
    index = np.concatenate([iA // n * (n + k) + iA % n, iB // k * (n + k) + n + iB % k])
    split, nx, nc = len(iA), len(index), len(c_ref)
    AB0 = np.hstack([theta.A, theta.B])
    P = AB0 - np.hstack([baseA, baseB])
    ab0 = AB0.ravel()[index]

    f = engine.initial_loss
    if not np.isfinite(f):
        raise SolverError("initial loss is not finite")
    u, w = np.concatenate([ab0, c_ref]), np.concatenate([np.ones(nx), counts])
    # z and P at the accepted point (zero at theta0); P itself holds the trial point
    z, P_at = np.zeros(engine.nz), np.zeros_like(P)
    G, gz = engine.gradient(P_at, z)

    loss_curve, stepsizes, backtracks = [f], [], []
    t = cfg.t0
    # P is contiguous, so P_flat is a view of it
    P_flat, gradient, dot, vdot = P.ravel(), engine.gradient, np.dot, np.vdot

    # A huge stepsize may overflow a trial point; its loss increment is then
    # not finite, which raises SolverError below instead of a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.max_steps):
            g, uw = np.concatenate([G.take(index), gz[:nc]]), u * w

            n_back = 0
            while True:
                u_new = uw - t * g
                u_new[nx:] /= counts  # (u w - t g) / w, as w = 1 before nx
                u_new[:split] = project_A(u_new[:split])
                u_new[split:nx] = project_B(u_new[split:nx])
                z_new = u_new[nx:] - c_ref
                if moved:
                    z_new = np.append(z_new, 1.0)
                P_flat[index] = ab0 - u_new[:nx]
                G_new, gz_new = gradient(P, z_new)
                # the loss is quadratic: its increment is exactly the mean gradient
                # along the move.  The whole test takes the move on P's dense layout
                dP, dz = P_at - P, z_new - z
                df = 0.5 * (float(vdot(dP, G + G_new)) + float(dot(dz, gz + gz_new)))
                if not math.isfinite(df):
                    raise SolverError(f"loss became non-finite at step {step}")
                gdot = float(vdot(dP, G)) + float(dot(dz, gz))
                dist2 = float(vdot(dP, dP)) + float(dot(dz * wz, dz))

                if df <= gdot + dist2 / (2.0 * t) + _SURROGATE_SLACK * (1.0 + abs(f)):
                    break
                t /= cfg.eta
                n_back += 1
                if t < _MIN_STEPSIZE or n_back > _MAX_BACKTRACKS:
                    raise SolverError(
                        f"backtracking underflow at step {step} after {n_back} "
                        f"divisions (projection inconsistent with the objective?)"
                    )

            f_prev = f
            f += df
            np.copyto(P_at, P)
            u, z, G, gz = u_new, z_new, G_new, gz_new
            loss_curve.append(f)
            stepsizes.append(t)
            backtracks.append(n_back)
            if cfg.stop_tol is not None and f_prev - f <= cfg.stop_tol * (1.0 + abs(f_prev)):
                break

    baseA.flat[iA] = u[:split]
    baseB.flat[iB] = u[split:nx]
    return FitReport(
        theta_final=StateSpaceModel(
            baseA, baseB, spec.on_D.project(CausalBandKernel(m, q, Q, tuple(u[nx:])))),
        loss_curve=np.array(loss_curve),
        stepsizes=np.array(stepsizes),
        backtracks=np.array(backtracks, dtype=int),
        initial_stepsize=cfg.t0,
    )

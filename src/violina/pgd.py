"""Projected gradient descent with backtracking stepsize adjustment — the
Violina solver.

The loop follows the reference scheme exactly: gradient step, product
projection, then divide the stepsize by ``eta`` while the sufficient-decrease
surrogate is violated; the accepted stepsize carries over to the next
iteration.  The kernel update runs on the band coefficients only (the band
set is affine, so projecting the stepped dense kernel equals stepping the
coefficients by in-band diagonal means), which keeps every iteration free of
``m x m`` matrices.

No iteration touches the trajectories either.  The loss is quadratic in
``(A, B)`` and the band coefficients, so before the first step the data are
compressed, relative to ``theta0``, into one ``r x r`` triangular factor with
``r = n (Q + 1) + k`` (``n`` more when the start kernel is outside the band
form or differs from a ``Fixed`` one); see ``objective._StartRelativeLoss``.
Each loss or gradient evaluation is then one ``n x r`` by ``r x r`` product,
whatever the number ``N`` and length ``m`` of the trajectories.  The residual
form of :mod:`.objective` costs ``O(N m n (n + k))`` per evaluation and is
cheaper only when ``r`` approaches ``N m`` (the desk and paper benchmarks have
``r / (N m)`` of 150/2400 and 500/20000); it stays the reference the tests
compare the solver against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import CausalBand, ConstraintSpec
from .kernel import CausalBandKernel, band_diagonal_sums, band_offset_counts, kernel_distance_sq
from .model import StateSpaceModel
from .objective import Dataset, _StartRelativeLoss

_MIN_STEPSIZE = 1e-300
# Acceptance slack for the sufficient-decrease test: once the loss reaches the
# floating-point noise floor of the residual evaluation, an exact comparison
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
    ``backtracking=False`` freezes the stepsize at ``t0`` (useful only for
    constant-step experiments).
    """

    theta0: StateSpaceModel
    t0: float = 0.3
    eta: float = 1.05
    max_steps: int = 10000
    stop_tol: float | None = None
    backtracking: bool = True
    max_backtracks: int = 200

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError(f"initial stepsize must be positive, got {self.t0}")
        if not self.eta > 1:
            raise ValueError(f"backtracking divisor must exceed 1, got {self.eta}")
        if self.max_steps < 1:
            raise ValueError(f"need at least one step, got {self.max_steps}")


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

    def curve_rows(self):
        """Rows ``(step, loss, stepsize, backtracks)`` for the curve CSV."""
        rows = [(0, float(self.loss_curve[0]), float(self.initial_stepsize), 0)]
        for i in range(self.steps):
            rows.append(
                (i + 1, float(self.loss_curve[i + 1]), float(self.stepsizes[i]),
                 int(self.backtracks[i]))
            )
        return rows

    def write_curve_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("step,loss,stepsize,backtracks\n")
            for step, loss_value, stepsize, nback in self.curve_rows():
                fh.write(f"{step},{loss_value!r},{stepsize!r},{nback}\n")


def default_initial_point(n: int, k: int, m: int, q: int, Q: int) -> StateSpaceModel:
    """The standard start: identity A, zero B, identity-like kernel."""
    return StateSpaceModel(np.eye(n), np.zeros((n, k)), CausalBandKernel.identity(m, q, Q))


def violina_fit(data: Dataset, spec: ConstraintSpec, cfg: PgdConfig) -> FitReport:
    """Fit the parameter triple to the dataset by projected gradient descent.

    Raises :class:`SolverError` on NaN losses or when backtracking underflows
    (more than ``max_backtracks`` divisions in one outer step, which signals
    an inconsistent projection).
    """
    theta = cfg.theta0
    m = data.m
    band = spec.on_D if isinstance(spec.on_D, CausalBand) else None
    kern = theta.kernel
    # The engine's kernel weights z are the band coefficients minus c_ref,
    # then, with kern_after, the weight of J = Y D_after - Y D0: 0 at theta0
    # and 1 once the first projection has replaced D0.
    if band is not None:
        q, Q = band.q, band.Q
        counts = band_offset_counts(m, q, Q)
        if isinstance(kern, CausalBandKernel) and (kern.m, kern.q, kern.Q) == (m, q, Q):
            c_ref, kern_after = np.array(kern.coeffs), None
        else:
            c_ref = band_diagonal_sums(kern, q, Q) / counts
            kern_after = CausalBandKernel(m, q, Q, tuple(c_ref))
    else:
        q, Q = 0, 1
        kern_fixed = spec.on_D.project(kern)
        kern_after = None if kern_fixed is kern else kern_fixed
    engine = _StartRelativeLoss(data, theta, q, Q, kern_after)

    f = engine.initial_loss
    if not np.isfinite(f):
        raise SolverError("initial loss is not finite")
    A, B = theta.A, theta.B
    z = np.zeros(engine.nz)
    F = engine.residual(A, B, z)

    loss_curve = [f]
    stepsizes = []
    backtracks = []
    t = cfg.t0

    for step in range(cfg.max_steps):
        gA, gB, gz = engine.gradient(F)
        if not (np.all(np.isfinite(gA)) and np.all(np.isfinite(gB))):
            raise SolverError(f"gradient is not finite at step {step}")
        if band is not None:
            kern_sums = band_diagonal_sums(kern, q, Q)

        n_back = 0
        while True:
            A_new = spec.on_A.project(A - t * gA)
            B_new = spec.on_B.project(B - t * gB)
            if band is not None:
                coeffs = (kern_sums - t * gz[: Q - 1]) / counts
                kern_new = CausalBandKernel(m, q, Q, tuple(coeffs))
                z_new = coeffs - c_ref
                if kern_after is not None:
                    z_new = np.append(z_new, 1.0)
            else:
                kern_new = kern_fixed
                z_new = np.ones(engine.nz)
            F_new = engine.residual(A_new, B_new, z_new)
            f_new = float(np.sum(F_new * F_new))
            if not np.isfinite(f_new):
                raise SolverError(f"loss became non-finite at step {step}")

            dA = A_new - A
            dB = B_new - B
            gdot = float(np.sum(dA * gA) + np.sum(dB * gB) + (z_new - z) @ gz)
            dist2 = float(np.sum(dA * dA) + np.sum(dB * dB))
            if kern_new is not kern:
                dist2 += kernel_distance_sq(kern_new, kern)
            surrogate = f + gdot + dist2 / (2.0 * t)

            if f_new <= surrogate + _SURROGATE_SLACK * (1.0 + abs(f)) or not cfg.backtracking:
                break
            t /= cfg.eta
            n_back += 1
            if t < _MIN_STEPSIZE or n_back > cfg.max_backtracks:
                raise SolverError(
                    f"backtracking underflow at step {step} after {n_back} "
                    f"divisions (projection inconsistent with the objective?)"
                )

        f_prev = f
        A, B, kern, z, F, f = A_new, B_new, kern_new, z_new, F_new, f_new
        loss_curve.append(f)
        stepsizes.append(t)
        backtracks.append(n_back)
        if cfg.stop_tol is not None and f_prev - f <= cfg.stop_tol * (1.0 + abs(f_prev)):
            break

    return FitReport(
        theta_final=StateSpaceModel(A, B, kern),
        loss_curve=np.array(loss_curve),
        stepsizes=np.array(stepsizes),
        backtracks=np.array(backtracks, dtype=int),
        initial_stepsize=cfg.t0,
    )

"""Truncated-SVD least-squares baseline (DMDc) with the rank-scan model
selection used in the benchmark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import CausalBandKernel
from .model import StateSpaceModel, build_data_matrices, relative_error
from .objective import Dataset

_RANK_RTOL = 1e-12


def _markovian_stack(data: Dataset, indices=None):
    # the baseline always uses single-step (q = 0) pairing, whatever data.q is
    if indices is None:
        indices = range(data.size)
    Xs, Ys, Us = [], [], []
    for i in indices:
        mat = build_data_matrices(data.trajectories[i], 0, data.m)
        Xs.append(mat.X)
        Ys.append(mat.Y)
        Us.append(mat.U)
    return np.hstack(Xs), np.hstack(Ys), np.hstack(Us)


class _StackSvd:
    """Thin SVD ``W S V^T`` of the stacked ``[X; U]`` and its numerical rank,
    solved for any truncation rank without factorising again."""

    def __init__(self, data: Dataset, indices=None):
        X, self.Y, U = _markovian_stack(data, indices)
        self.n = X.shape[0]
        self.W, self.s, self.Vt = np.linalg.svd(np.vstack([X, U]), full_matrices=False)
        self.rank = int(np.sum(self.s > _RANK_RTOL * self.s[0])) if self.s[0] > 0 else 0

    def solve(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """``(A, B)`` of the rank-``rank`` truncated pseudoinverse."""
        if not 1 <= rank <= self.s.size:
            raise ValueError(f"rank must lie in [1, {self.s.size}], got {rank}")
        if rank > self.rank:
            raise ValueError(
                f"requested rank {rank} exceeds the numerical rank; "
                f"attainable rank is {self.rank}"
            )
        AB = self.Y @ (self.Vt[:rank].T / self.s[:rank]) @ self.W[:, :rank].T
        return AB[:, : self.n], AB[:, self.n :]


def dmdc_fit(data: Dataset, rank: int, indices=None) -> tuple[np.ndarray, np.ndarray]:
    """Identify ``(A, B)`` from the stacked data by a rank-``r`` truncated
    pseudoinverse: ``[A B] = Y V_r S_r^{-1} W_r^T`` with ``[X; U] ~ W S V^T``.

    ``indices`` restricts the stack to a subset of trajectories.  Raises
    ``ValueError`` when ``rank`` exceeds the numerical rank (singular values
    below ``1e-12`` of the largest), naming the attainable rank.
    """
    return _StackSvd(data, indices).solve(rank)


def attainable_rank(data: Dataset, indices=None) -> int:
    """Numerical rank of the stacked ``[X; U]`` matrix."""
    return _StackSvd(data, indices).rank


def as_model(A: np.ndarray, B: np.ndarray, m: int) -> StateSpaceModel:
    """Wrap a DMDc result as a Markovian state-space model."""
    return StateSpaceModel(A, B, CausalBandKernel.identity(m, 0, 1))


@dataclass(frozen=True)
class RankScanResult:
    best_rank: int
    ranks: tuple[int, ...]
    errors: tuple[float, ...]


def dmdc_rank_scan(train: Dataset, fit_index: int | None = 0,
                   pooled: bool = False) -> RankScanResult:
    """Scan every attainable rank for the best mean self-reconstruction error.

    The fit uses trajectory ``fit_index`` (default the first one, which the
    benchmark orders to carry the designated fitting input) or the pooled
    train set when ``pooled`` is true.  Each candidate model re-simulates all
    train trajectories from their own initial value and inputs; ties go to
    the smaller rank.
    """
    svd = _StackSvd(train, None if pooled else [fit_index])
    if svd.rank < 1:
        raise ValueError("fitting data has rank zero")
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
    best = int(np.argmin(errors))
    return RankScanResult(ranks[best], tuple(ranks), tuple(errors))

"""Truncated-SVD least-squares baseline (DMDc) with the rank-scan model
selection used in the benchmark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import CausalBandKernel
from .model import StateSpaceModel, build_data_matrices, relative_error
from .objective import Dataset

_RANK_RTOL = 1e-12


def _markovian_stack(trajectories, m: int):
    # the baseline always uses single-step (q = 0) pairing, whatever the data's q is
    mats = [build_data_matrices(traj, 0, m) for traj in trajectories]
    return (np.hstack([M.X for M in mats]), np.hstack([M.Y for M in mats]),
            np.hstack([M.U for M in mats]))


class _StackSvd:
    """Thin SVD ``W S V^T`` of the stacked ``[X; U]`` of ``trajectories`` and
    its numerical rank, solved for any truncation rank without factorising
    again."""

    def __init__(self, trajectories, m: int):
        X, self.Y, U = _markovian_stack(trajectories, m)
        self.n = X.shape[0]
        self.W, self.s, self.Vt = np.linalg.svd(np.vstack([X, U]), full_matrices=False)
        self.rank = int(np.sum(self.s > _RANK_RTOL * self.s[0])) if self.s[0] > 0 else 0

    def solve(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """``(A, B)`` of the rank-``rank`` truncated pseudoinverse."""
        if not 1 <= rank <= self.rank:
            raise ValueError(f"rank {rank} outside the valid range [1, {self.rank}]: "
                             f"the attainable rank is {self.rank}")
        AB = self.Y @ (self.Vt[:rank].T / self.s[:rank]) @ self.W[:, :rank].T
        return AB[:, : self.n], AB[:, self.n :]


def dmdc_fit(data: Dataset, rank: int, indices=None) -> tuple[np.ndarray, np.ndarray]:
    """Identify ``(A, B)`` from the stacked data by a rank-``r`` truncated
    pseudoinverse: ``[A B] = Y V_r S_r^{-1} W_r^T`` with ``[X; U] ~ W S V^T``.

    ``indices`` restricts the stack to the trajectories at those positions,
    in that order; a position outside ``[0, size)`` raises ``IndexError``.
    ``data.trajectories`` is read once, to its end, and only the stacked
    trajectories are kept, so ``data`` may be a one-pass stream.  Raises
    ``ValueError`` when ``rank`` lies outside ``[1, attainable rank]`` (the
    numerical rank: singular values below ``1e-12`` of the largest do not
    count), naming the attainable rank.
    """
    if indices is None:
        return _StackSvd(data.trajectories, data.m).solve(rank)
    kept = {i: traj for i, traj in enumerate(data.trajectories) if i in indices}
    if missing := set(indices) - kept.keys():
        raise IndexError(f"no trajectory at position {min(missing)}")
    return _StackSvd([kept[i] for i in indices], data.m).solve(rank)


def as_model(A: np.ndarray, B: np.ndarray, m: int) -> StateSpaceModel:
    """Wrap a DMDc result as a Markovian state-space model."""
    return StateSpaceModel(A, B, CausalBandKernel.identity(m, 0, 1))


@dataclass(frozen=True, eq=False)
class RankScanResult:
    """The scanned ranks with their errors, and the best rank's ``(A, B)``."""

    best_rank: int
    ranks: tuple[int, ...]
    errors: tuple[float, ...]
    A: np.ndarray
    B: np.ndarray


def dmdc_rank_scan(train: Dataset, fit_index: int | None = 0,
                   pooled: bool = False) -> RankScanResult:
    """Scan every attainable rank for the best mean self-reconstruction error.

    The fit uses trajectory ``fit_index`` (default the first one, which the
    benchmark orders to carry the designated fitting input) or the pooled
    train set when ``pooled`` is true.  Each candidate model re-simulates all
    train trajectories from their own initial value and inputs; ties go to
    the smaller rank.  The result carries the best rank's ``(A, B)``, solved
    from the same factorisation.

    ``train.trajectories`` is read once, to its end, so ``train`` may be a
    one-pass stream.  The trajectories before the fit one are kept whole;
    from the fit one on, each is reduced as it is read to its ``x_0``, its
    ``u_t^T W_u`` and its states, and its inputs are dropped.  ``pooled``
    keeps every trajectory, since the SVD needs them all.  A ``fit_index``
    outside ``[0, size)`` raises ``IndexError``.

    With ``[X; U] = W S V^T`` and ``P = Y V S^{-1}``, the rank-``r`` model is
    ``A_r = P_r W_{n,r}^T``, ``B_r = P_r W_{u,r}^T``, so its states are
    ``x_t = P_r g_t`` with ``g_t = (W_n^T P)_{rr} g_{t-1} + (W_u^T u_{t-1})_r``
    and ``g_1 = (W_n^T x_0 + W_u^T u_0)_r``: every rank recurses in ``r``
    coordinates, batched over the trajectories.
    """
    m = train.m
    svd = None
    waiting = []  # trajectories read before the SVD exists
    inputs, starts, states = [], [], []  # per trajectory: u_t^T W_u, x_0, states

    def reduce():
        Wu = svd.W[svd.n:, :svd.rank]
        for traj in waiting:
            inputs.append(traj.inputs[:, :m].T @ Wu)
            starts.append(traj.states[:, 0])
            states.append(traj.states)
        waiting.clear()

    for i, traj in enumerate(train.trajectories):
        waiting.append(traj)
        if svd is None and not pooled and i == fit_index:
            svd = _StackSvd(waiting[-1:], m)
        if svd is not None:
            reduce()
    del traj  # the last one's inputs
    if pooled:
        svd = _StackSvd(waiting, m)
        reduce()
    elif svd is None:
        raise IndexError(f"fit_index {fit_index} outside the valid range [0, {len(waiting)})")
    if svd.rank < 1:
        raise ValueError("fitting data has rank zero")
    n, p = svd.n, svd.rank
    P = svd.Y @ (svd.Vt[:p].T / svd.s[:p])
    Wn = svd.W[:n, :p]
    M = Wn.T @ P
    # C[t] holds W_u^T u_t of every trajectory side by side: m x p x N
    C = np.stack(inputs, axis=2)
    g1 = Wn.T @ np.stack(starts, axis=1) + C[0]
    G = np.empty_like(C)
    errors = []
    for r in range(1, p + 1):
        Mr = M[:r, :r]
        G[0, :r] = g1[:r]
        for t in range(1, m):
            np.matmul(Mr, G[t - 1, :r], out=G[t, :r])
            G[t, :r] += C[t, :r]
        total = 0.0
        for i, x in enumerate(states):
            total += relative_error(P[:, :r] @ G[:, :r, i].T, x[:, 1 : m + 1])
        errors.append(total / len(states))
    best = int(np.argmin(errors)) + 1
    return RankScanResult(best, tuple(range(1, p + 1)), tuple(errors), *svd.solve(best))

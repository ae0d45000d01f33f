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
        Z = np.vstack([X, U])
        del X, U  # not held through the factorisation
        self.W, self.s, self.Vt = np.linalg.svd(Z, full_matrices=False)
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


_BUFFER_MULTIPLE = 4  # a rank chunk's state, at most, in one trajectory's scan arrays


class _RankErrors:
    """Running totals of each rank's relative self-reconstruction error, over
    the trajectories added so far, under the rank-``r`` models of one SVD.

    With ``[X; U] = W S V^T`` and ``P = Y V S^{-1}``, the rank-``r`` model is
    ``A_r = P_r W_{n,r}^T``, ``B_r = P_r W_{u,r}^T``, so its states are
    ``x_t = P_r g_t`` with ``g_t = (W_n^T P)_{rr} g_{t-1} + (W_u^T u_{t-1})_r``
    and ``g_1 = (W_n^T x_0 + W_u^T u_0)_r``: every rank recurses in ``r``
    coordinates.
    """

    def __init__(self, svd: _StackSvd, m: int):
        self.m, self.n, self.p = m, svd.n, svd.rank
        self.P = svd.Y @ (svd.Vt[: self.p].T / svd.s[: self.p])
        self.Wn, self.Wu = svd.W[: self.n, : self.p], svd.W[self.n :, : self.p]
        self.M = self.Wn.T @ self.P
        self.totals = [0.0] * self.p
        self.count = 0

    def add(self, trajectories: list):
        """Add the errors of ``trajectories``, a list that is emptied once each
        is reduced to its ``x_0``, its states and its ``u_t^T W_u``.

        The ranks of the batch recurse side by side: rank ``r`` of trajectory
        ``i`` is column ``(r - lo, i)`` of chunk ``lo..hi``'s ``hi``-row
        state, whose rows from ``r`` on stay zero, since each step writes
        only the rows each rank has.  A chunk takes as many ranks as keep its
        ``m x hi x ranks x batch`` state within ``_BUFFER_MULTIPLE`` times
        one trajectory's ``m x (n + p)`` scan arrays (its states and
        ``u_t^T W_u``), and at least one: chunks of one rank are the
        rank-by-rank recursion batched over the trajectories.
        """
        m, n, p = self.m, self.n, self.p
        inputs, starts, states = [], [], []
        for traj in trajectories:
            inputs.append(traj.inputs[:, :m].T @ self.Wu)
            starts.append(traj.states[:, 0])
            states.append(traj.states)
        trajectories.clear()
        # C[t] holds W_u^T u_t of every trajectory side by side: m x p x batch
        C = np.stack(inputs, axis=2)
        del inputs
        batch = len(states)
        g1 = self.Wn.T @ np.stack(starts, axis=1) + C[0]
        width = max(1, _BUFFER_MULTIPLE * (n + p) // max(1, p * batch))  # the m's cancel
        buffer = np.empty(m * p * min(width, p) * batch)
        for lo in range(1, p + 1, width):
            hi = min(lo + width - 1, p)
            G = buffer[: m * hi * (hi - lo + 1) * batch].reshape(m, hi, -1, batch)
            cols = G.reshape(m, hi, -1)
            keep = True  # the rows each column's rank has: all of them in a one-rank chunk
            if hi > lo:
                keep = (np.arange(hi)[:, None] < np.arange(lo, hi + 1))[..., None]
                G[:, lo:] = 0.0  # rank r's rows from r on are never written
            np.copyto(G[0], g1[:hi, None], where=keep)
            Mh, MG = self.M[:hi, :hi], np.empty(G.shape[1:])
            MG_cols = MG.reshape(hi, -1)
            for last, new, c in zip(cols, G[1:], C[1:, :hi, None]):
                np.matmul(Mh, last, out=MG_cols)
                np.add(MG, c, out=new, where=keep)
            for i, x in enumerate(states):
                for r in range(lo, hi + 1):
                    self.totals[r - 1] += relative_error(self.P[:, :r] @ G[:, :r, r - lo, i].T,
                                                         x[:, 1 : m + 1])
        self.count += batch


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
    one-pass stream.  The trajectories before the fit one wait for its SVD;
    from the fit one on, each is scored for every rank as it is read and
    then dropped, its errors summed into running totals in dataset order.
    ``pooled`` keeps every trajectory, since the SVD needs them all, and
    scores them together after it.  A ``fit_index`` outside ``[0, size)``
    raises ``IndexError``.  No full-state model is simulated: each rank
    recurses in its ``r`` SVD coordinates (``_RankErrors``).
    """
    m = train.m
    svd = None
    waiting = []  # trajectories read before the SVD exists
    for i, traj in enumerate(train.trajectories):
        waiting.append(traj)
        if svd is None and not pooled and i == fit_index:
            svd = _StackSvd(waiting[-1:], m)
            scan = _RankErrors(svd, m)
        if svd is not None:
            while waiting:
                scan.add([waiting.pop(0)])
    del traj  # the last one's inputs
    if pooled:
        svd = _StackSvd(waiting, m)
        scan = _RankErrors(svd, m)
        scan.add(waiting)
    elif svd is None:
        raise IndexError(f"fit_index {fit_index} outside the valid range [0, {len(waiting)})")
    if svd.rank < 1:
        raise ValueError("fitting data has rank zero")
    errors = [total / scan.count for total in scan.totals]
    best = int(np.argmin(errors)) + 1
    return RankScanResult(best, tuple(range(1, svd.rank + 1)), tuple(errors),
                          *svd.solve(best))

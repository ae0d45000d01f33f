"""Truncated-SVD least-squares baseline (DMDc) with the rank-scan model
selection used in the benchmark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import CausalBandKernel, check_ints
from .model import Dataset, StateSpaceModel, build_data_matrices, error_ratio

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
    in that order; a position outside ``[0, size)`` raises ``IndexError``,
    a float or ``bool`` position or an empty ``indices`` ``ValueError``.
    ``data.trajectories`` is read once, to its end, and only the stacked
    trajectories are kept, so ``data`` may be a one-pass stream.  Raises
    ``ValueError`` when ``rank`` lies outside ``[1, attainable rank]`` (the
    numerical rank: singular values below ``1e-12`` of the largest do not
    count), naming the attainable rank, and before any trajectory is read
    when ``rank`` is not an integer.
    """
    check_ints(rank=rank)
    if indices is None:
        return _StackSvd(data.trajectories, data.m).solve(rank)
    if not len(indices):
        raise ValueError("no trajectory chosen to fit")
    check_ints(**{f"indices[{j}]": i for j, i in enumerate(indices)})
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


_BLOCKS = 8  # time blocks of a rank's recursion: they bound its buffer and fix each error sum


def _group_size(n: int, k: int, m: int, p: int) -> int:
    """How many reduced trajectories (``_RankErrors.hold``) are scored in one
    batch: as many as fit in the floats of one trajectory's states and
    inputs, and at least one."""
    return max(1, (n * (m + 1) + k * m) // (m * (p + min(n, p)) + n + 2))


class _RankErrors:
    """Running totals of each rank's relative self-reconstruction error, over
    the trajectories scored so far, under the rank-``r`` models of one SVD.

    With ``[X; U] = W S V^T`` and ``P = Y V S^{-1}``, the rank-``r`` model is
    ``A_r = P_r W_{n,r}^T``, ``B_r = P_r W_{u,r}^T``, so its states are
    ``x_t = P_r g_t`` with ``g_t = (W_n^T P)_{rr} g_{t-1} + (W_u^T u_{t-1})_r``
    and ``g_1 = (W_n^T x_0 + W_u^T u_0)_r``: every rank recurses in ``r``
    coordinates.  With the thin QR ``P = Q R``, its error is scored in rank
    space too: ``||P_r G_r^T - x||^2 = ||R_{:,:r} G_r^T - Q^T x||^2 +
    ||x - Q Q^T x||^2``, so a trajectory is kept only as ``x_0``, its
    ``u_t^T W_u``, ``x^T Q`` and the two norms ``||x - Q Q^T x||`` (of the
    formed residual) and ``||x||``.
    """

    def __init__(self, svd: _StackSvd, m: int, group_size: int | None = None):
        self.svd, self.m, self.n, self.p = svd, m, svd.n, svd.rank
        self.P = svd.Y @ (svd.Vt[: self.p].T / svd.s[: self.p])
        self.Wn, self.Wu = svd.W[: self.n, : self.p], svd.W[self.n :, : self.p]
        self.M = self.Wn.T @ self.P
        self.Q, self.R = np.linalg.qr(self.P)
        self.totals = [0.0] * self.p
        self.count = 0
        self.group = []  # reduced trajectories that wait to be scored
        self.group_size = group_size or _group_size(self.n, len(svd.W) - self.n, m, self.p)

    def hold(self, traj):
        """Reduce ``traj`` and keep it in the group; a full group, of
        ``group_size`` (by default ``_group_size``), is scored (``add``), so
        the totals grow in dataset order."""
        m = self.m
        x = traj.states[:, 1 : m + 1]
        xQ = x.T @ self.Q
        self.group.append((traj.inputs[:, :m].T @ self.Wu, traj.states[:, 0].copy(), xQ,
                           np.linalg.norm(x - self.Q @ xQ.T) ** 2, np.linalg.norm(x)))
        if len(self.group) == self.group_size:
            self.add()

    def means(self) -> list[float]:
        """Each rank's mean error over every trajectory held."""
        if self.group:
            self.add()
        return [total / self.count for total in self.totals]

    def add(self):
        """Add the errors of the reduced trajectories in ``group``, which is
        emptied.

        Each rank recurses by itself over the whole group, ``m / _BLOCKS``
        steps at a time in one ``steps x r x batch`` buffer: a block starts
        from the state that ended the block before, and its squared errors
        are summed before the next block overwrites it.
        """
        m, p = self.m, self.p
        inputs, starts, xQ, perps, norms = zip(*self.group)
        self.group.clear()
        # C[t] holds W_u^T u_t of every trajectory side by side: m x p x batch
        C = np.stack(inputs, axis=2)
        del inputs
        xQ = np.stack(xQ)  # batch x m x min(n, p)
        batch = len(starts)
        g1 = self.Wn.T @ np.stack(starts, axis=1) + C[0]
        steps = -(-m // _BLOCKS)
        buffer = np.empty(steps * p * batch)
        for r in range(1, p + 1):
            G = buffer[: steps * r * batch].reshape(steps, r, batch)
            M, square = self.M[:r, :r], np.zeros(batch)
            G[0], first = g1[:r], 1  # step 0 is g_1 itself
            for t0 in range(0, m, steps):  # G[j] is step t0 + j
                t1 = min(t0 + steps, m)
                # at j = 0, G[j - 1] = G[-1] is the last block's end
                for j, c in zip(range(first, t1 - t0), C[t0 + first : t1, :r]):
                    g = G[j]
                    M.dot(G[j - 1], out=g)
                    g += c
                first = 0
                # batch x steps x min(n, p): R_r g_t - Q^T x_t, time-major
                D = np.matmul(G[: t1 - t0].transpose(2, 0, 1), self.R[:, :r].T)
                D -= xQ[:, t0:t1]
                D *= D
                square += D.reshape(batch, -1).sum(axis=1)  # pairwise
            for sq, perp, norm in zip(square, perps, norms):
                self.totals[r - 1] += error_ratio(np.sqrt(sq + perp), norm)
        self.count += batch


def dmdc_rank_scan(train: Dataset, fit_index: int | None = 0) -> RankScanResult:
    """Scan every attainable rank for the best mean self-reconstruction error.

    The fit uses trajectory ``fit_index`` (default the first one, which the
    benchmark orders to carry the designated fitting input), or the pooled
    train set when ``fit_index`` is ``None``.  Each candidate model
    re-simulates all train trajectories from their own initial value and
    inputs; ties go to the smaller rank.  The result carries the best rank's
    ``(A, B)``, solved from the same factorisation.

    ``train.trajectories`` is read once, to its end, so ``train`` may be a
    one-pass stream.  The trajectories before the fit one wait for its SVD;
    from the fit one on, each is reduced to its rank-space form as it is
    read and then dropped, and the reduced ones are scored for every rank a
    group at a time, their errors summed into running totals in dataset
    order.  The pooled fit keeps every trajectory, since the SVD needs them
    all, and reduces them after it into one group.  A ``fit_index`` outside
    ``[0, size)`` raises ``IndexError``, a float or a ``bool``
    ``ValueError``.  No full-state model is simulated nor any state mapped
    back to ``n`` coordinates: each rank recurses, and its error is taken,
    in ``r`` SVD coordinates (``_RankErrors``).
    """
    if fit_index is not None:
        check_ints(fit_index=fit_index)
    m = train.m
    scan, waiting = None, []  # the trajectories read before the SVD exists
    for i, traj in enumerate(train.trajectories):
        waiting.append(traj)
        if i == fit_index:
            scan = _RankErrors(_StackSvd(waiting[-1:], m), m)
        while scan is not None and waiting:
            scan.hold(waiting.pop(0))
    del traj  # the last one's inputs
    if fit_index is None:  # all of them are held for the SVD anyway: one group
        scan = _RankErrors(_StackSvd(waiting, m), m, group_size=len(waiting))
    elif scan is None:
        raise IndexError(f"fit_index {fit_index} outside the valid range [0, {len(waiting)})")
    while waiting:  # every trajectory when pooled
        scan.hold(waiting.pop(0))
    svd = scan.svd
    if svd.rank < 1:
        raise ValueError("fitting data has rank zero")
    errors = scan.means()
    best = int(np.argmin(errors)) + 1
    return RankScanResult(best, tuple(range(1, svd.rank + 1)), tuple(errors),
                          *svd.solve(best))

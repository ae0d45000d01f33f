"""Non-Markovian state-space models and their data: trajectories, the
multi-trajectory ``Dataset``, ARX simulation, the optimization data matrices,
and the pseudoinverse-form initial-value offset."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (CausalBandKernel, band_start, check_ints, json_floats, json_int, json_table,
                     pack_floats)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One observed pair of time series: states ``x_0 .. x_m`` (columns of an
    ``n x (m+1)`` array) and inputs ``u_0 .. u_{m-1}`` (columns of ``k x m``)."""

    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        inputs = np.asarray(self.inputs, dtype=float)
        if states.ndim != 2 or inputs.ndim != 2:
            raise ValueError("states and inputs must be 2-D arrays")
        if states.shape[1] != inputs.shape[1] + 1:
            raise ValueError(
                f"states must hold one more column than inputs, got "
                f"{states.shape[1]} states and {inputs.shape[1]} inputs"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def k(self) -> int:
        return self.inputs.shape[0]

    @property
    def length(self) -> int:
        """Number of transitions (the trajectory holds ``length + 1`` states)."""
        return self.inputs.shape[1]

    def to_dict(self) -> dict:
        """The time-major ``states.T`` and ``inputs.T`` in the packed layout
        (``kernel.pack_floats``)."""
        return {"states": pack_floats(self.states.T), "inputs": pack_floats(self.inputs.T)}

    @classmethod
    def from_dict(cls, d: dict) -> "Trajectory":
        """Parse a trajectory whose arrays are packed or lists of numbers; a
        field ``json_table`` rejects raises ``ValueError``."""
        return cls(json_table(d, "states").T, json_table(d, "inputs").T)


@dataclass(frozen=True, eq=False)
class DataMatrices:
    """The ``X``, ``Y``, ``U`` matrices of the least-squares problem; the
    first ``q`` columns of each are exactly zero."""

    X: np.ndarray
    Y: np.ndarray
    U: np.ndarray


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Parameter triple of the dynamics ``Y D = A X + B U``.

    ``kernel`` is normally a :class:`CausalBandKernel`; a dense square matrix
    is accepted for evaluation-only use (e.g. fixed fractional kernels), but
    such models cannot be simulated through the ARX recursion.
    """

    A: np.ndarray
    B: np.ndarray
    kernel: CausalBandKernel | np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError(f"B must have {A.shape[0]} rows, got shape {B.shape}")
        kernel = self.kernel
        if not isinstance(kernel, CausalBandKernel):
            kernel = np.asarray(kernel, dtype=float)
            if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
                raise ValueError(f"dense kernel must be square, got shape {kernel.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "kernel", kernel)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.B.shape[1]

    def simulate(self, initial_states: np.ndarray, inputs: np.ndarray) -> Trajectory:
        """Run the ARX recursion from ``q + 1`` initial states.

        For ``t`` from ``q + 1`` to ``m``::

            x_t = A x_{t-1} - sum_j c_j x_{t-j} + B u_{t-1}   (j = 1 .. Q-1)

        with states at negative times treated as zero.  ``initial_states``
        must be ``n x (q+1)`` and ``inputs`` ``k x m`` with ``m >= q + 1``.
        The one-trajectory case of ``simulate_many``.
        """
        return self.simulate_many([initial_states], [inputs])[0]

    def simulate_many(self, initial_states, inputs) -> list[Trajectory]:
        """``simulate`` of each pair of ``initial_states`` and ``inputs``, two
        sequences of one length whose input arrays share one ``m``, with the
        recursions run in lockstep.  A pair ``simulate`` refuses, or inputs
        of another length than the first's, raise ``ValueError``, which names
        the pair's index when there are several.  Every trajectory has the
        bits it has alone."""
        initial_states, inputs = list(initial_states), list(inputs)
        if len(initial_states) != len(inputs):
            raise ValueError(f"got {len(initial_states)} initial states "
                             f"and {len(inputs)} inputs")
        starts, arrays = [], []
        for i, (initial, u) in enumerate(zip(initial_states, inputs)):
            try:
                starts.append(self._initial_states(initial, "simulation"))
                arrays.append(self._inputs(u, arrays[0].shape[1] if arrays else None))
            except ValueError as exc:
                if len(inputs) == 1:  # simulate's case, where an index means nothing
                    raise
                raise ValueError(f"trajectory {i}: {exc}") from None
        if not arrays:
            return []
        q = self.kernel.q
        m = arrays[0].shape[1]
        # B u_{t-1} of every step in one product into each trajectory's
        # n x (m+1) states, whose layout the product's bits depend on; the
        # recursion then runs on a time-major copy of all of them, step t
        # one contiguous N x n x 1 block, with no temporaries, and its result
        # is copied back; rows is allocated before the states, since the other
        # order made a paper generate 9 % slower in process, by where the
        # allocator put the arrays
        rows = np.empty((m + 1, len(arrays), self.n, 1))
        states = []
        for i, (initial, u) in enumerate(zip(starts, arrays)):
            x = np.empty((self.n, m + 1))
            x[:, : q + 1] = initial
            np.matmul(self.B, u[:, q:], out=x[:, q + 1 :])
            rows[:, i, :, 0] = x.T
            states.append(x)
        # np.matmul of A and a stack of n x 1 columns makes one matrix-vector
        # product per column, with the bits of np.dot(A, x); the product A X
        # of the N states as one matrix rounds differently
        tmp = np.empty(rows.shape[1:])
        # each c as a 0-d array, which np.multiply takes faster than a float
        memory = [(j, np.array(c)) for j, c in enumerate(self.kernel.coeffs, start=1)
                  if c != 0.0]
        for t in range(q + 1, m + 1):
            row = rows[t]
            np.matmul(self.A, rows[t - 1], out=tmp)
            row += tmp
            for j, c in memory:
                if t - j >= 0:
                    np.multiply(c, rows[t - j], out=tmp)
                    row -= tmp
        for i, x in enumerate(states):
            x[...] = rows[:, i, :, 0].T
        return [Trajectory(x, u) for x, u in zip(states, arrays)]

    def _inputs(self, inputs, m: int | None) -> np.ndarray:
        """``inputs`` as the ``k``-row float array a simulation needs, with
        at least ``q + 1`` columns, and ``m`` of them when ``m`` is given;
        otherwise ``ValueError``."""
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[0] != self.k:
            raise ValueError(f"expected {self.k}-row inputs, got shape {inputs.shape}")
        q = self.kernel.q
        if m is not None and inputs.shape[1] != m:
            raise ValueError(f"{inputs.shape[1]} inputs, but the first trajectory has {m}")
        if inputs.shape[1] < q + 1:
            raise ValueError(f"need at least q+1={q + 1} inputs, got {inputs.shape[1]}")
        return inputs

    def _initial_states(self, initial_states, use: str) -> np.ndarray:
        """``initial_states`` as the ``n x (q + 1)`` float array that ``use``
        of the band kernel with nullity ``q`` needs, a 1-D one as one column.
        A dense kernel raises ``TypeError``, any other shape ``ValueError``."""
        if not isinstance(self.kernel, CausalBandKernel):
            raise TypeError(f"{use} needs a band kernel; this model holds a dense one")
        q = self.kernel.q
        initial = np.asarray(initial_states, dtype=float)
        if initial.ndim == 1:
            initial = initial[:, None]
        if initial.shape != (self.n, q + 1):
            raise ValueError(
                f"expected {self.n}x{q + 1} initial states, got shape {initial.shape}"
            )
        return initial

    def to_dict(self) -> dict:
        d = {"n": self.n, "k": self.k, "A": self.A.tolist(), "B": self.B.tolist()}
        if isinstance(self.kernel, CausalBandKernel):
            d["kernel"] = self.kernel.to_dict()
        else:
            d["kernel_dense"] = self.kernel.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "StateSpaceModel":
        """Parse a model; a field ``json_floats`` or the kernel's reader
        rejects, or an ``n`` or ``k`` other than ``A``'s rows or ``B``'s
        columns, raises ``ValueError``.  Both members may be absent."""
        A, B = json_floats(d, "A", 2), json_floats(d, "B", 2)
        for key, size, axis in (("n", A.shape[0], "A has {} rows"),
                                ("k", B.shape[1], "B has {} columns")):
            if key in d and json_int(d, key) != size:
                raise ValueError(f"{key!r} is {d[key]}, but {axis.format(size)}")
        if "kernel" in d:
            kernel = CausalBandKernel.from_dict(d["kernel"])
        else:
            kernel = json_floats(d, "kernel_dense", 2)
        return cls(A, B, kernel)


def build_data_matrices(traj: Trajectory, q: int, m: int) -> DataMatrices:
    """Assemble the zero-padded data matrices from a trajectory.

    ``X = [0_{n x q}, x_q, ..., x_{m-1}]``, ``Y = [0_{n x q}, x_{q+1}, ..., x_m]``,
    ``U = [0_{k x q}, u_q, ..., u_{m-1}]``: views of the first stack of
    ``Dataset([traj], q, m)``, whose checks raise ``ValueError``.
    """
    return next(_matrices(Dataset([traj], q, m)))


class Dataset:
    """A corpus of trajectories with the shared truncation parameters
    ``0 <= q < m``; ``m`` may not exceed any trajectory length (the columns
    it references must exist).  It holds only the trajectories."""

    def __init__(self, trajectories, q: int, m: int):
        check_ints(q=q, m=m)
        self.trajectories, self.q, self.m = tuple(trajectories), int(q), int(m)
        if not self.trajectories:
            raise ValueError("a dataset needs at least one trajectory")
        if not 0 <= self.q < self.m:
            raise ValueError(f"need 0 <= q < m, got q={self.q}, m={self.m}")
        for i, traj in enumerate(self.trajectories):
            _check_trajectory(i, traj, self.n, self.k, self.m)

    @property
    def matrices(self) -> tuple[DataMatrices, ...]:
        """The zero-padded data matrices per trajectory, built on each access.
        No code in ``src/`` calls it, but the benchmark's ``kernel.apply``
        layer (``perfbench/worker.py::probe_layers``) does."""
        return tuple(build_data_matrices(traj, self.q, self.m) for traj in self.trajectories)

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
        q, m = json_int(d, "q"), json_int(d, "m")
        if not isinstance(d.get("trajectories"), list):
            raise ValueError("'trajectories' must be a list of trajectories")
        trajs = []
        for i, t in enumerate(d["trajectories"]):
            try:
                trajs.append(Trajectory.from_dict(t))
            except ValueError as exc:
                raise ValueError(f"trajectory {i}: {exc}") from exc
        return cls(trajs, q, m)


def _matrices(data: Dataset):
    """The data matrices of each trajectory in dataset order: views of the
    one buffer that :func:`_stacks` rewrites for the next trajectory, so a
    loop over them reads each before it takes the next."""
    for W, Y, _ in _stacks(data, data.q, 1):
        yield DataMatrices(W[: data.n], Y, W[data.n :])


def _stacks(data: Dataset, q: int, Q: int, extra: int = 0, driven: bool = False):
    """Each trajectory's stack ``W = [X; U; S_1 Y; ...; S_{Q-1} Y]``, with
    ``extra`` more rows left to the caller, its ``Y`` and the input rows
    ``r`` that ``W`` holds, in dataset order: the one code that cuts a
    trajectory into its least-squares windows.  All three are written
    straight from the trajectory's state and input windows into buffers
    made once, so the caller reads them before it takes the next
    trajectory.  The band shift ``S_d Y = Y Delta_d``, with ``Delta_d`` one
    on the in-band entries of super-diagonal ``d``, is the ``d``-th term of
    ``kernel.apply_kernel`` for nullity ``q``.  The columns of the stack and
    of ``Y`` that no trajectory fills stay zero, as made: the first
    ``data.q`` of ``X``, ``U`` and ``Y``, and those of each band shift
    before its band starts.

    ``r`` is every input row, unless ``driven``: then it holds only the rows
    that are nonzero (or not finite) inside the window, columns ``data.q ..
    m-1``, written in order after ``X``, so that ``W[:n + len(r)] = [X;
    U_r]``; the rows after it, up to the band, hold nothing to read.  The
    rows left out are zero, so they add exact zeros to every product."""
    n, k, m, p = data.n, data.k, data.m, data.q
    W, Y = np.zeros((n * Q + k + extra, m)), np.zeros((n, m))
    r = np.arange(k)
    for traj in data.trajectories:
        U = traj.inputs[:, p:m]
        if driven:
            r = np.flatnonzero(U.any(axis=1))
            U = U[r]
        W[:n, p:] = traj.states[:, p:m]
        W[n : n + len(r), p:] = U
        Y[:, p:] = traj.states[:, p + 1 : m + 1]
        row = n + k
        for d in range(1, Q):
            j0 = band_start(q, d)
            W[row : row + n, j0:] = Y[:, j0 - d : m - d]
            row += n
        yield W, Y, r


def _check_trajectory(i: int, traj: Trajectory, n: int, k: int, m: int):
    """Raise ``ValueError`` naming trajectory ``i`` unless it has ``n >= 1``
    states, ``k`` inputs and at least ``m + 1`` states in time."""
    if n == 0:
        raise ValueError(f"trajectory {i} has no state variable (n = 0)")
    if (traj.n, traj.k) != (n, k):
        raise ValueError(f"trajectory {i} has shape ({traj.n}, {traj.k}), expected ({n}, {k})")
    if traj.length < m:
        raise ValueError(f"trajectory {i} has {traj.length + 1} states but m={m} needs {m + 1}")


def arx_offset(model: StateSpaceModel, initial_states: np.ndarray, m: int) -> np.ndarray:
    """Initial-value offset sequence of the pseudoinverse ARX-like form.

    Returns an ``n x m`` array ``[lambda(0), ..., lambda(m-1)]`` built from the
    first ``q`` initial states; the stacked sequence annihilates the dense
    kernel: ``lambda @ D == 0``.
    """
    initial = model._initial_states(initial_states, "the ARX-like offset")
    q = model.kernel.q
    if m <= q:
        raise ValueError(f"need m > q, got m={m}, q={q}")
    if q == 0:
        return np.zeros((model.n, m))
    kern = CausalBandKernel(m, q, model.kernel.Q, model.kernel.coeffs)
    R = kern.to_dense()[:q, q:] @ kern.left_pseudoinverse()[q:, q:]
    X0 = initial[:, :q]
    return np.concatenate([-X0, X0 @ R], axis=1)


def relative_error(predicted: np.ndarray, truth: np.ndarray, first: int = 0) -> float:
    """Relative Frobenius error over state columns ``first`` onward."""
    return error_ratio(np.linalg.norm(predicted[:, first:] - truth[:, first:]),
                       np.linalg.norm(truth[:, first:]))


def error_ratio(num: float, den: float) -> float:
    """The relative error ``num / den`` of an error norm ``num`` against a
    truth norm ``den``; a zero truth gives 0 for a zero error and infinity
    otherwise."""
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return float(num / den)

"""Synthetic cylinder-grid diffusion benchmark: weighted graph, ground-truth
models, train/test/energy datasets, and the energy metric.

Everything is generated from a seeded Philox counter-based generator, with a
fixed cell and edge order (row-major cells; the wrap-around right edge is
drawn before the upward edge), so a given seed reproduces the suite bitwise.
"""

from __future__ import annotations

import itertools
import reprlib
import sys
from dataclasses import dataclass, fields

import numpy as np

from .kernel import CausalBandKernel, check_ints, json_floats, json_int
from .model import Dataset, StateSpaceModel, Trajectory


@dataclass(frozen=True, eq=False)
class CylinderGrid:
    """Cylindrical grid with random edge weights.

    Cells are indexed ``i = x + Lx * y``; horizontal neighbors wrap around
    the circumference, vertical ones do not.
    """

    Lx: int
    Ly: int
    w0: float
    w1: float
    seed: int
    adjacency: np.ndarray
    laplacian: np.ndarray

    @property
    def n(self) -> int:
        return self.Lx * self.Ly

    @property
    def neighbor_mask(self) -> np.ndarray:
        """Boolean support of the constraint sets: neighbors plus diagonal."""
        return (self.adjacency > 0) | np.eye(self.n, dtype=bool)

    def to_dict(self) -> dict:
        return {"Lx": self.Lx, "Ly": self.Ly, "w0": self.w0, "w1": self.w1,
                "seed": self.seed}


def build_cylinder_graph(Lx: int, Ly: int, w0: float, w1: float, seed: int) -> CylinderGrid:
    """Draw weights in ``[w0, w1]`` once per undirected edge and assemble the
    adjacency and Laplacian (off-diagonals nonnegative, zero row and column
    sums).  An ``Lx``, ``Ly`` or ``seed`` that is not an integer raises
    ``ValueError`` naming it."""
    check_ints(Lx=Lx, Ly=Ly, seed=seed)
    if Lx < 3:
        raise ValueError(f"circumference must be at least 3 cells, got {Lx}")
    if Ly < 1:
        raise ValueError(f"height must be at least 1 cell, got {Ly}")
    if not 0 < w0 <= w1:
        raise ValueError(f"need 0 < w0 <= w1, got w0={w0}, w1={w1}")
    n = Lx * Ly
    rng = np.random.Generator(np.random.Philox(seed))
    K = np.zeros((n, n))
    for y in range(Ly):
        for x in range(Lx):
            i = x + Lx * y
            j = (x + 1) % Lx + Lx * y
            K[i, j] = K[j, i] = w0 + (w1 - w0) * rng.random()
            if y + 1 < Ly:
                j = x + Lx * (y + 1)
                K[i, j] = K[j, i] = w0 + (w1 - w0) * rng.random()
    L = K - np.diag(K.sum(axis=1))
    return CylinderGrid(Lx, Ly, float(w0), float(w1), int(seed), K, L)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Scale parameters of the benchmark; ``h = 1 / (m - 1)``."""

    Lx: int
    Ly: int
    m: int
    seed: int = 42
    w0: float = 0.5
    w1: float = 1.5
    q: int = 2
    Q: int = 3
    coeffs: tuple[float, ...] = (0.03, -0.01)

    def __post_init__(self):
        check_ints(Lx=self.Lx, Ly=self.Ly, m=self.m, seed=self.seed, q=self.q, Q=self.Q)
        if self.m < 2:
            raise ValueError(f"need m >= 2 time steps for h = 1 / (m - 1), got m={self.m}")
        if self.m - 1 > sys.float_info.max:
            raise ValueError("m is too large for a float, so h = 1 / (m - 1) is undefined")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def h(self) -> float:
        return 1.0 / (self.m - 1)

    # the presets' ``seed=seed`` defaults are the field default above
    @classmethod
    def desk_scale(cls, seed: int = seed) -> "BenchmarkConfig":
        return cls(Lx=10, Ly=3, m=200, seed=seed)

    @classmethod
    def paper_scale(cls, seed: int = seed) -> "BenchmarkConfig":
        return cls(Lx=20, Ly=5, m=1000, seed=seed)

    def to_dict(self) -> dict:
        return {
            "Lx": self.Lx, "Ly": self.Ly, "m": self.m, "seed": self.seed,
            "w0": self.w0, "w1": self.w1, "q": self.q, "Q": self.Q,
            "coeffs": list(self.coeffs),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkConfig":
        """Parse a config, defaulting missing fields; a member that is no
        field, or a field ``json_int`` or ``json_floats`` rejects, raises
        ``ValueError`` naming it."""
        names = [f.name for f in fields(cls)]
        unknown = next((key for key in d if key not in names), None)
        if unknown is not None:
            raise ValueError(f"unknown member {reprlib.repr(unknown)}; "
                             f"a config holds only {', '.join(names)}")
        return cls(
            Lx=json_int(d, "Lx"), Ly=json_int(d, "Ly"), m=json_int(d, "m"),
            seed=json_int(d, "seed", cls.seed),
            w0=float(json_floats(d, "w0", 0, cls.w0)),
            w1=float(json_floats(d, "w1", 0, cls.w1)),
            q=json_int(d, "q", cls.q), Q=json_int(d, "Q", cls.Q),
            coeffs=tuple(json_floats(d, "coeffs", 1, cls.coeffs).tolist()),
        )


def _check_time_step(h: float):
    if not 0 < h < np.inf:
        raise ValueError(f"time step must be positive and finite, got {h}")


def ground_truth_models(grid: CylinderGrid, h: float, m: int, q: int = BenchmarkConfig.q,
                        Q: int = BenchmarkConfig.Q, coeffs=BenchmarkConfig.coeffs):
    """Markovian and non-Markovian ground truths on the grid.

    Both share ``A = I + L h`` and ``B = I h``; the Markovian kernel is the
    plain identity, the non-Markovian one carries the given band
    coefficients (by default the suite's, ``BenchmarkConfig``'s).
    """
    _check_time_step(h)
    A = np.eye(grid.n) + grid.laplacian * h
    B = np.eye(grid.n) * h
    markov = StateSpaceModel(A, B, CausalBandKernel.identity(m, 0, 1))
    nonmarkov = StateSpaceModel(A, B, CausalBandKernel(m, q, Q, tuple(coeffs)))
    return markov, nonmarkov


def make_input(orientation: str, sigma: int, nu: int, xi: int,
               Lx: int, Ly: int, m: int, h: float) -> np.ndarray:
    """Sinusoidal forcing on one grid row or column.

    Cell ``(x, y)`` at time ``t`` receives ``sigma^x * delta(xi, y) *
    sin(2 pi nu t h)`` for the parallel orientation; the perpendicular one
    swaps the roles of ``x`` and ``y``.  A time step ``h`` that is not
    positive and finite raises ``ValueError``, as in ``ground_truth_models``,
    and so does any other argument that is not an integer, naming it.
    """
    check_ints(sigma=sigma, nu=nu, xi=xi, Lx=Lx, Ly=Ly, m=m)
    _check_time_step(h)
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    n = Lx * Ly
    wave = np.sin(2.0 * np.pi * nu * np.arange(m) * h)
    out = np.zeros((n, m))
    if orientation == "parallel":
        if not 0 <= xi < Ly:
            raise ValueError(f"row index xi={xi} outside [0, {Ly})")
        for x in range(Lx):
            out[x + Lx * xi] = (sigma ** x) * wave
    elif orientation == "perp":
        if not 0 <= xi < Lx:
            raise ValueError(f"column index xi={xi} outside [0, {Lx})")
        for y in range(Ly):
            out[xi + Lx * y] = (sigma ** y) * wave
    else:
        raise ValueError(f"orientation must be 'parallel' or 'perp', got {orientation!r}")
    return out


KINDS = ("train", "test", "energy")

# the most inputs of a set each ground truth simulates in one simulate_many
# call; memory, not speed, sets it: a chunk's trajectories and the time-major
# copy of their states (0.8 MB per trajectory and array at paper scale) are
# held until the chunk is written, so the peak of generate grows with it
_LOCKSTEP = 4


def simulate_trajectories(models, grid: CylinderGrid, m: int, h: float):
    """Simulate the train, test and energy sets of every ground truth in
    ``models`` and yield them one input at a time: ``(kind, trajectories)``
    with ``kind`` in ``KINDS`` and one trajectory per model, in the order of
    ``models``, all driven by the one input array built for them.  Each set
    is complete before the next begins.  Each model simulates up to
    ``_LOCKSTEP`` inputs of a set together (``simulate_many``), and a chunk's
    trajectories leave this generator as they are yielded, before the next
    chunk is made.

    Train: parallel inputs over sigma = +-1, nu in {3, 6}, every row xi, all
    from zero initial values.  The first train trajectory is the designated
    DMDc fitting one (sigma=+1, nu=3, xi=0).  Test: perpendicular inputs,
    sigma=+1, xi=0, nu = 1..8.  Energy: zero input from all-ones initial
    values.
    """
    n = grid.n
    train = (make_input("parallel", sigma, nu, xi, grid.Lx, grid.Ly, m, h)
             for sigma in (1, -1) for nu in (3, 6) for xi in range(grid.Ly))
    test = (make_input("perp", 1, nu, 0, grid.Lx, grid.Ly, m, h) for nu in range(1, 9))
    energy = (np.zeros((n, m)) for _ in range(1))  # made when its set begins
    for kind, x0, inputs in (("train", 0.0, train), ("test", 0.0, test),
                             ("energy", 1.0, energy)):
        while chunk := list(itertools.islice(inputs, _LOCKSTEP)):
            runs = [model.simulate_many([np.full((n, model.kernel.q + 1), x0)] * len(chunk),
                                        chunk) for model in models]
            chunk.clear()
            while runs[0]:
                yield kind, tuple(run.pop(0) for run in runs)


def make_datasets(model: StateSpaceModel, grid: CylinderGrid, m: int, h: float):
    """The train, test and energy datasets of ``model``, from
    ``simulate_trajectories`` with that one model."""
    sets = {kind: [] for kind in KINDS}
    for kind, (traj,) in simulate_trajectories((model,), grid, m, h):
        sets[kind].append(traj)
    return tuple(Dataset(sets[kind], model.kernel.q, m) for kind in KINDS)


@dataclass(frozen=True, eq=False)
class SystemBenchmark:
    """One ground truth with its simulated train/test/energy datasets."""

    model: StateSpaceModel
    train: Dataset
    test: Dataset
    energy: Dataset


@dataclass(frozen=True, eq=False)
class BenchmarkSuite:
    grid: CylinderGrid
    config: BenchmarkConfig
    markov: SystemBenchmark
    nonmarkov: SystemBenchmark

    @property
    def h(self) -> float:
        return self.config.h


def suite_models(config: BenchmarkConfig):
    """The grid and the Markovian and non-Markovian ground truths of
    ``config``; an invalid config raises ``ValueError``."""
    grid = build_cylinder_graph(config.Lx, config.Ly, config.w0, config.w1, config.seed)
    return (grid, *ground_truth_models(
        grid, config.h, config.m, config.q, config.Q, config.coeffs))


def build_benchmark_suite(config: BenchmarkConfig) -> BenchmarkSuite:
    """Generate the full suite for both ground truths from one seed."""
    grid, *models = suite_models(config)
    systems = [SystemBenchmark(model, *make_datasets(model, grid, config.m, config.h))
               for model in models]
    return BenchmarkSuite(grid, config, *systems)


def energy(traj: Trajectory) -> np.ndarray:
    """Total state sum ``E(t)`` at every time point."""
    return traj.states.sum(axis=0)


def energy_deviation(predicted: Trajectory, truth: Trajectory) -> np.ndarray:
    """Energy difference ``E_pred(t) - E_true(t)``; lengths must agree."""
    if predicted.states.shape[1] != truth.states.shape[1]:
        raise ValueError(
            f"trajectory lengths differ: {predicted.states.shape[1]} vs "
            f"{truth.states.shape[1]}"
        )
    return energy(predicted) - energy(truth)

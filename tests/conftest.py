import binascii
import re

import numpy as np
import pytest

from violina import (
    CausalBandKernel,
    Dataset,
    Fixed,
    FullSpace,
    NonnegativeDiagonal,
    StateSpaceModel,
    SymmetricMaskedNonneg,
    Trajectory,
)
from violina.constraints import _scatter
from oracles import lift


def random_dataset(rng, n=3, k=2, m=8, q=1, N=2):
    """Dataset of arbitrary (non-simulated) trajectories."""
    trajs = [
        Trajectory(rng.normal(size=(n, m + 1)), rng.normal(size=(k, m)))
        for _ in range(N)
    ]
    return Dataset(trajs, q, m)


def random_theta(rng, n=3, k=2, m=8, q=1, Q=2):
    coeffs = tuple(rng.normal(scale=0.3, size=Q - 1))
    return StateSpaceModel(
        rng.normal(size=(n, n)), rng.normal(size=(n, k)),
        CausalBandKernel(m, q, Q, coeffs),
    )


def random_stable_model(rng, n=3, k=2, m=8, q=1, Q=2, coeff_scale=0.05):
    A = rng.normal(scale=0.3 / np.sqrt(n), size=(n, n))
    B = rng.normal(size=(n, k))
    coeffs = tuple(rng.normal(scale=coeff_scale, size=Q - 1))
    return StateSpaceModel(A, B, CausalBandKernel(m, q, Q, coeffs))


def simulated_dataset(rng, model, m, N=2, zero_initial=True):
    """Trajectories simulated from the model (zero initial values by default,
    which makes the matrix identity hold exactly on the data matrices)."""
    q = model.kernel.q
    trajs = []
    for _ in range(N):
        if zero_initial:
            init = np.zeros((model.n, q + 1))
        else:
            init = rng.normal(size=(model.n, q + 1))
        trajs.append(model.simulate(init, rng.normal(size=(model.k, m))))
    return Dataset(trajs, q, m)


def lenient_b64decode(s, altchars=None, validate=False):
    """``base64.b64decode`` as Python 3.10 has it, before ``a2b_base64``
    gained its strict mode: with ``validate``, only a pattern check of the
    text, then a decode that takes padding after the last group."""
    s = s.encode("ascii") if isinstance(s, str) else bytes(s)
    if validate and not re.fullmatch(b"[A-Za-z0-9+/]*={0,2}", s):
        raise binascii.Error("Non-base64 digit found")
    return binascii.a2b_base64(s)


def assert_lifted_point_is_fixed(cset, shape, rng):
    """``offset + sum x_c d_c`` with every ``x_c`` at or above its bound, some
    bounded ones exactly 0, is a member of ``cset``, so the projection
    returns it: bit for bit where the projection is separable, and within
    rounding where it re-sums a Laplacian's diagonal."""
    hull = cset.hull(shape)
    lower = hull[3]
    x = np.where(lower == 0.0, np.abs(rng.normal(size=len(lower))), rng.normal(size=len(lower)))
    x[(lower == 0.0) & (rng.random(len(lower)) < 0.3)] = 0.0
    member = lift(hull, x)
    projected = cset.project(member) if hasattr(cset, "project") else _scatter(cset, member)
    if isinstance(cset, (FullSpace, Fixed, NonnegativeDiagonal, SymmetricMaskedNonneg)):
        assert projected.tobytes() == member.tobytes(), cset
    else:
        np.testing.assert_allclose(projected, member, rtol=0.0,
                                   atol=1e-14 * (1.0 + np.abs(member).max()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

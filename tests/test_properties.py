"""Property-based checks of the projections and of the banded kernel product.

Examples are derandomized and capped so the suite stays deterministic and
fast: every run draws the same inputs.
"""

import base64

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from violina import (
    CausalBand,
    CausalBandKernel,
    Fixed,
    FullSpace,
    NonnegativeDiagonal,
    ShiftedGraphLaplacian,
    SymmetricMaskedNonneg,
    apply_kernel,
    project_nonneg_diagonal,
    project_shifted_laplacian,
    project_symmetric_masked_nonneg,
)
from violina.constraints import coordinates
from violina.kernel import _pair_floats, json_table
from conftest import assert_lifted_point_is_fixed
from oracles import (
    literal_nonneg_diagonal,
    literal_support,
    percall_shifted_laplacian,
    percall_symmetric_masked_nonneg,
)

PROPERTY = settings(max_examples=50, derandomize=True, deadline=None, database=None)

values = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


def projections(mask, value, q, Q):
    """Every constraint set's projection, keyed by name, as matrix maps."""
    band = CausalBand(q, Q)
    return {
        "full": FullSpace().project,
        "fixed": Fixed(value).project,
        "symmetric-masked": SymmetricMaskedNonneg(mask).project,
        "nonneg-diagonal": NonnegativeDiagonal().project,
        "laplacian-identity": ShiftedGraphLaplacian(mask).project,
        "laplacian-zero": ShiftedGraphLaplacian(mask, shift="zero").project,
        "laplacian-rows": ShiftedGraphLaplacian(mask, column_sums=False).project,
        "causal-band": lambda M: band.project(M).to_dense(),
    }


NAMES = sorted(projections(np.ones((1, 1), dtype=bool), np.zeros((1, 1)), 0, 1))


@st.composite
def problems(draw):
    """A neighbour mask, a band shape and three square matrices of one size."""
    n = draw(st.integers(1, 6))
    mask = draw(hnp.arrays(bool, (n, n)))
    mask = mask | mask.T
    np.fill_diagonal(mask, True)
    q = draw(st.integers(0, n - 1))
    Q = draw(st.integers(max(q, 1), n))
    M, Z0, value = (draw(hnp.arrays(float, (n, n), elements=values)) for _ in range(3))
    return mask, q, Q, M, Z0, value


@pytest.mark.parametrize("name", NAMES)
@PROPERTY
@given(problems())
def test_projection_is_idempotent(name, problem):
    mask, q, Q, M, _, value = problem
    P = projections(mask, value, q, Q)[name]
    PM = P(M)
    np.testing.assert_allclose(P(PM), PM, rtol=0.0,
                               atol=1e-12 * (1.0 + np.linalg.norm(M)))


@pytest.mark.parametrize("name", NAMES)
@PROPERTY
@given(problems())
def test_projection_variational_inequality(name, problem):
    # P(M) is the nearest point of a convex set exactly when
    # <M - P(M), Z - P(M)> <= 0 for every feasible Z; P(Z0) is feasible.
    mask, q, Q, M, Z0, value = problem
    P = projections(mask, value, q, Q)[name]
    PM = P(M)
    Z = P(Z0)
    assert np.sum((M - PM) * (Z - PM)) <= 1e-10 * (1.0 + np.linalg.norm(M) ** 2)


@PROPERTY
@given(problems())
def test_projections_match_percall_references_bitwise(problem):
    # validating once and keeping the invariants changes no bit of any
    # projection, through the constraint sets or the module functions
    mask, _, _, M, _, shift = problem
    n = M.shape[0]
    sym = percall_symmetric_masked_nonneg(M, mask)
    pairs = [
        (SymmetricMaskedNonneg(mask).project(M), sym),
        (project_symmetric_masked_nonneg(M, mask), sym),
    ]
    for name, arg, matrix in [("identity", None, np.eye(n)),
                              ("zero", np.zeros((n, n)), np.zeros((n, n))),
                              (shift, shift, shift)]:
        for column_sums in (True, False):
            ref = percall_shifted_laplacian(M, mask, matrix, column_sums)
            pairs.append((ShiftedGraphLaplacian(mask, name, column_sums).project(M), ref))
            pairs.append((project_shifted_laplacian(M, mask, arg, column_sums), ref))
    for got, ref in pairs:
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def support_sets(mask, value):
    """Every constraint set for ``A`` or ``B``, with the dense reference of
    its projection where the tests keep one, keyed by name."""
    n = mask.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    return {
        "full": (FullSpace(), lambda M: M),
        "fixed": (Fixed(value), lambda M: value),
        "symmetric-masked": (SymmetricMaskedNonneg(mask),
                             lambda M: percall_symmetric_masked_nonneg(M, mask)),
        "nonneg-diagonal": (NonnegativeDiagonal(), literal_nonneg_diagonal),
        "laplacian-identity": (ShiftedGraphLaplacian(mask),
                               lambda M: percall_shifted_laplacian(M, mask, eye)),
        "laplacian-zero": (ShiftedGraphLaplacian(mask, shift="zero"),
                           lambda M: percall_shifted_laplacian(M, mask, zero)),
        "laplacian-explicit-rows": (
            ShiftedGraphLaplacian(mask, shift=value, column_sums=False),
            lambda M: percall_shifted_laplacian(M, mask, value, column_sums=False)),
    }


SUPPORT_NAMES = sorted(support_sets(np.ones((1, 1), dtype=bool), np.zeros((1, 1))))


@pytest.mark.parametrize("name", SUPPORT_NAMES)
@PROPERTY
@given(problems())
def test_support_projection_scattered_is_project_bitwise(name, problem):
    # the solver steps only the support: the support projection written into
    # the constant off it gives the bytes of project(M) and of the dense
    # reference, and no entry off the support reaches it
    mask, _, _, M, Z0, value = problem
    cset, reference = support_sets(mask, value)[name]
    index, base, project = coordinates(cset, M.shape)
    assert base.shape == M.shape and base.dtype == np.float64
    scattered = base.copy()
    scattered.flat[index] = project(M.ravel()[index])
    for ref in (cset.project(M), reference(M)):
        ref = np.asarray(ref, dtype=float)
        assert ref.shape == scattered.shape and ref.tobytes() == scattered.tobytes()
    moved = Z0.copy()
    moved.flat[index] = M.ravel()[index]
    assert np.asarray(cset.project(moved)).tobytes() == scattered.tobytes()


def hull_sets(mask, value):
    """Every set with a hull on ``mask``."""
    return [cset for cset, _ in support_sets(mask, value).values()]


@PROPERTY
@given(problems())
def test_support_derived_from_hull_is_the_literal_rule(problem):
    # the drawn masks have isolated cells, whose diagonal no Laplacian
    # coordinate touches; the support keeps it, as the literal rule does
    mask, _, _, M, _, value = problem
    for cset in hull_sets(mask, value):
        index, base, _ = coordinates(cset, M.shape)
        literal_index, literal_base = literal_support(cset, M.shape)
        assert np.array_equal(index, literal_index) and base.tobytes() == literal_base.tobytes()


@PROPERTY
@given(problems(), st.integers(0, 2**32 - 1))
def test_lifted_hull_points_are_fixed_points(problem, seed):
    mask, _, _, M, _, value = problem
    for cset in hull_sets(mask, value):
        assert_lifted_point_is_fixed(cset, M.shape, np.random.default_rng(seed))


@st.composite
def rectangular_matrices(draw):
    """A square, tall, wide or single-row matrix of any float64 entries
    (signed zeros, infinities and NaNs included), C- or F-ordered."""
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows, cols = draw(st.sampled_from([(a, a), (a + b, a), (a, a + b), (1, b)]))
    transposed = draw(st.booleans())
    M = draw(hnp.arrays(np.float64, (cols, rows) if transposed else (rows, cols)))
    return M.T if transposed else M


@pytest.mark.parametrize("cset", [FullSpace(), NonnegativeDiagonal()], ids=["full", "nonneg-diagonal"])
@PROPERTY
@given(rectangular_matrices())
def test_rectangular_support_projection_scattered_is_project_bitwise(cset, M):
    index, scattered, project = coordinates(cset, M.shape)
    scattered.flat[index] = project(M.ravel()[index])
    assert scattered.tobytes() == cset.project(M).tobytes()


@PROPERTY
@given(rectangular_matrices())
def test_nonneg_diagonal_matches_literal_bitwise(M):
    # the strided diagonal write gives the bytes of the index gather/scatter
    got, ref = project_nonneg_diagonal(M), literal_nonneg_diagonal(M)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@st.composite
def kernel_products(draw):
    m = draw(st.integers(1, 8))
    q = draw(st.integers(0, m - 1))
    Q = draw(st.integers(max(q, 1), m))
    coeffs = draw(st.lists(values, min_size=Q - 1, max_size=Q - 1))
    Y = draw(hnp.arrays(float, (draw(st.integers(1, 4)), m), elements=values))
    return Y, CausalBandKernel(m, q, Q, tuple(coeffs))


@PROPERTY
@given(kernel_products())
def test_apply_kernel_matches_dense_product(case):
    Y, K = case
    scale = 1.0 + np.abs(Y).max() * (1.0 + np.abs(K.coeffs).sum())
    np.testing.assert_allclose(apply_kernel(Y, K), Y @ K.to_dense(),
                               rtol=0.0, atol=1e-13 * scale)


# signed zeros, subnormals, the smallest normal and the largest finite values
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
               1.797e308, -1.797e308, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def packed_tables(draw, padding):
    """A packed array whose text ends in ``padding`` ``=``: finite float64
    values of every bit pattern, the edge values among them, in ``rows x
    width`` stored columns (some shapes span several decoder blocks), at
    times with the bits set that the last character holds beyond the last
    byte, and the array as ``json_table`` takes it, whole or with its
    stored columns listed among more."""
    rows = draw(st.integers(0, 40) | st.sampled_from([1535, 1536, 1537, 3071, 3072, 3073]))
    width = draw(st.integers(0, 5))
    assume(rows * width % 3 == padding)  # 8 n bytes leave n % 3 "=" in the base64
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.integers(0, 2**64, size=(rows, width), dtype=np.uint64).view(np.float64)
    block[~np.isfinite(block)] = 1.0
    edge = rng.random(block.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    block[edge] = rng.choice(EDGE_FLOATS, size=int(edge.sum()))
    text = base64.b64encode(block.tobytes()).decode()
    assert text.count("=") == padding
    if padding and draw(st.booleans()):  # set the bits of the last character no byte holds
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
        last = alphabet[alphabet.index(text[-padding - 1]) | (1 << 2 * padding) - 1]
        text = text[:-padding - 1] + last + "=" * padding
    if not draw(st.booleans()):
        return text, rows, width, [rows, width, text]
    cols = width + draw(st.integers(0, 3))
    columns = sorted(rng.choice(cols, size=width, replace=False).tolist())
    return text, rows, width, [rows, cols, text, columns]


@pytest.mark.parametrize("padding", [0, 1, 2])
@PROPERTY
@given(st.data())
def test_pair_table_decodes_the_bits_of_b64decode(padding, data):
    """``json_table`` reads a packed array through the pair table to
    ``np.frombuffer(base64.b64decode(text, validate=True), "<f8")`` bit for
    bit, in stored columns among ``+0.0`` ones when a list names them, in a
    fresh C-ordered float array of the packed shape."""
    text, rows, width, value = data.draw(packed_tables(padding))
    expected = np.frombuffer(base64.b64decode(text, validate=True), "<f8").reshape(rows, width)
    table = _pair_floats(text, rows, width)
    assert table is not None and table.tobytes() == expected.tobytes()
    read = json_table({"x": value}, "x")
    assert read.dtype == np.float64 and read.shape == (rows, value[1])
    assert read.flags.c_contiguous and read.flags.owndata
    columns = value[3] if len(value) == 4 else list(range(width))
    assert read[:, columns].tobytes() == expected.tobytes()
    assert not np.delete(read, columns, axis=1).view(np.uint64).any()

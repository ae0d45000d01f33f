import re

import numpy as np
import pytest

from violina import (
    CausalBand,
    CausalBandKernel,
    ConstraintSpec,
    Fixed,
    FullSpace,
    NonnegativeDiagonal,
    ShiftedGraphLaplacian,
    StateSpaceModel,
    SymmetricMaskedNonneg,
    project_nonneg_diagonal,
    project_shifted_laplacian,
    project_symmetric_masked_nonneg,
)
from violina.synth import BenchmarkConfig, build_cylinder_graph
from violina.constraints import (
    _check_mask,
    _GraphLaplacian,
    nearest_graph_laplacian,
)
from conftest import assert_lifted_point_is_fixed
from oracles import (
    laplacian_kkt_residual,
    literal_support,
    project_params,
    qp_graph_laplacian,
    qp_nonneg_diagonal,
    qp_symmetric_masked_nonneg,
)


def random_mask(rng, n):
    mask = rng.random((n, n)) < 0.7
    mask = mask | mask.T
    np.fill_diagonal(mask, True)
    return mask


def test_symmetric_masked_examples():
    full = np.ones((2, 2), dtype=bool)
    out = project_symmetric_masked_nonneg(np.array([[1.0, -2.0], [4.0, 1.0]]), full)
    np.testing.assert_array_equal(out, [[1.0, 1.0], [1.0, 1.0]])
    out = project_symmetric_masked_nonneg(np.array([[1.0, -3.0], [-1.0, 1.0]]), full)
    np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])


def test_symmetric_masked_keeps_feasible_points(rng):
    mask = random_mask(rng, 4)
    M = rng.random((4, 4))
    M = 0.5 * (M + M.T)
    M[~mask] = 0.0
    np.testing.assert_allclose(project_symmetric_masked_nonneg(M, mask), M, atol=1e-15)


def test_symmetric_masked_diagonal_unconstrained(rng):
    mask = np.ones((3, 3), dtype=bool)
    M = -np.eye(3) * 5.0
    out = project_symmetric_masked_nonneg(M, mask)
    np.testing.assert_array_equal(np.diag(out), [-5.0, -5.0, -5.0])


def test_symmetric_masked_rejects_asymmetric_mask():
    mask = np.array([[True, True], [False, True]])
    with pytest.raises(ValueError):
        project_symmetric_masked_nonneg(np.eye(2), mask)


def test_symmetric_masked_matches_qp_oracle(rng):
    for _ in range(8):
        n = int(rng.integers(2, 4))
        mask = random_mask(rng, n)
        M = rng.normal(size=(n, n))
        np.testing.assert_allclose(
            project_symmetric_masked_nonneg(M, mask),
            qp_symmetric_masked_nonneg(M, mask), atol=1e-6)


def test_nonneg_diagonal_examples():
    np.testing.assert_array_equal(
        project_nonneg_diagonal(np.diag([1.0, 2.0])), np.diag([1.0, 2.0]))
    np.testing.assert_array_equal(
        project_nonneg_diagonal(np.array([[-1.0, 5.0], [3.0, 2.0]])),
        np.array([[0.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_array_equal(project_nonneg_diagonal(np.zeros((2, 3))), np.zeros((2, 3)))


def test_nonneg_diagonal_matches_qp_oracle(rng):
    for shape in ((2, 2), (3, 2), (2, 3)):
        M = rng.normal(size=shape)
        np.testing.assert_allclose(
            project_nonneg_diagonal(M), qp_nonneg_diagonal(M), atol=1e-8)


def test_laplacian_fixed_point(rng):
    mask = random_mask(rng, 4)
    L = np.where(mask, rng.random((4, 4)), 0.0)
    np.fill_diagonal(L, 0.0)
    L -= np.diag(L.sum(axis=0))  # columns sum to zero, off-diagonal >= 0
    shift = np.eye(4)
    out = project_shifted_laplacian(shift + L, mask, shift)
    np.testing.assert_allclose(out, shift + L, atol=1e-10)


def test_laplacian_hand_case_two_cells():
    # QP oracle gives [[-1/2, 1/2], [1/2, -1/2]] for the off-diagonal ones
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    mask = np.ones((2, 2), dtype=bool)
    out = project_shifted_laplacian(M, mask, np.zeros((2, 2)))
    np.testing.assert_allclose(out, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-10)
    np.testing.assert_allclose(out, qp_graph_laplacian(M, mask), atol=1e-10)


def test_laplacian_matches_qp_oracle(rng):
    for _ in range(6):
        n = int(rng.integers(2, 4))
        mask = random_mask(rng, n)
        M = rng.normal(size=(n, n))
        out = nearest_graph_laplacian(M, mask)
        np.testing.assert_allclose(out, qp_graph_laplacian(M, mask), atol=1e-10)
    one = np.ones((1, 1), dtype=bool)
    np.testing.assert_allclose(nearest_graph_laplacian(np.array([[2.5]]), one),
                               qp_graph_laplacian(np.array([[2.5]]), one), atol=1e-10)


def test_laplacian_feasibility_and_idempotence(rng):
    mask = random_mask(rng, 5)
    M = rng.normal(size=(5, 5))
    out = nearest_graph_laplacian(M, mask)
    assert np.max(np.abs(out.sum(axis=0))) <= 1e-10
    off = out - np.diag(np.diag(out))
    assert off.min() >= -1e-10
    assert np.all(out[~mask] == 0.0)
    again = nearest_graph_laplacian(out, mask)
    np.testing.assert_allclose(again, out, atol=1e-10)


def test_laplacian_nonexpansive(rng):
    mask = random_mask(rng, 4)
    M1, M2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    P1 = nearest_graph_laplacian(M1, mask)
    P2 = nearest_graph_laplacian(M2, mask)
    assert np.linalg.norm(P1 - P2) <= np.linalg.norm(M1 - M2) + 1e-10


def test_laplacian_shift_variants(rng):
    mask = np.ones((3, 3), dtype=bool)
    M = rng.normal(size=(3, 3))
    ident = ShiftedGraphLaplacian(mask, shift="identity").project(M)
    zero = ShiftedGraphLaplacian(mask, shift="zero").project(M)
    assert np.max(np.abs((ident - np.eye(3)).sum(axis=0))) <= 1e-10
    assert np.max(np.abs(zero.sum(axis=0))) <= 1e-10
    # row-sum variant is the transpose construction
    rows = ShiftedGraphLaplacian(mask, shift="zero", column_sums=False).project(M)
    np.testing.assert_allclose(
        rows, ShiftedGraphLaplacian(mask, shift="zero").project(M.T).T, atol=1e-10)


def grid_mask(cfg):
    return build_cylinder_graph(cfg.Lx, cfg.Ly, cfg.w0, cfg.w1, cfg.seed).neighbor_mask


@pytest.mark.parametrize("mask", [
    grid_mask(BenchmarkConfig.desk_scale()),
    grid_mask(BenchmarkConfig.paper_scale()),
    np.array([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=bool),
], ids=["desk", "paper", "isolated-cell"])
def test_laplacian_kkt_on_cylinder_masks(rng, mask):
    n = mask.shape[0]
    for scale in (0.01, 1.0, 100.0):
        # a diffusion-like A - I plus noise, so active and inactive entries both occur
        M = 0.1 * np.where(mask, rng.random((n, n)), 0.0) - np.eye(n) \
            + scale * rng.normal(size=(n, n))
        P = nearest_graph_laplacian(M, mask)
        assert laplacian_kkt_residual(M, P, mask) <= 1e-12 * (1 + np.linalg.norm(M))
    # the residual is not blind: shifting mass from the diagonal to a positive
    # entry keeps P feasible but breaks stationarity
    i, j = np.argwhere((P > 0) & ~np.eye(n, dtype=bool))[0]
    P[i, j] += 1e-6
    P[j, j] -= 1e-6
    assert laplacian_kkt_residual(M, P, mask) >= 1e-6


def test_causal_band_constraint_projection(rng):
    con = CausalBand(1, 3)
    kern = CausalBandKernel(6, 1, 3, (0.3, -0.2))
    assert con.project(kern) is kern
    dense = rng.normal(size=(6, 6))
    proj = con.project(dense)
    assert isinstance(proj, CausalBandKernel)
    assert (proj.q, proj.Q) == (1, 3)
    other = CausalBandKernel(6, 0, 2, (0.4,))
    reproj = con.project(other)
    assert (reproj.q, reproj.Q) == (1, 3)


def test_project_params_identity_and_fixed(rng):
    theta = StateSpaceModel(rng.normal(size=(2, 2)), rng.normal(size=(2, 1)),
                            CausalBandKernel(5, 1, 2, (0.2,)))
    spec = ConstraintSpec(FullSpace(), FullSpace(), CausalBand(1, 2))
    out = project_params(theta, spec)
    np.testing.assert_array_equal(out.A, theta.A)
    np.testing.assert_array_equal(out.B, theta.B)
    assert out.kernel == theta.kernel

    fixed_A = rng.normal(size=(2, 2))
    spec = ConstraintSpec(Fixed(fixed_A), FullSpace(), Fixed(theta.kernel))
    out = project_params(theta, spec)
    assert out.A is fixed_A


def test_project_params_composite_invariants(rng):
    n = 4
    mask = random_mask(rng, n)
    theta = StateSpaceModel(rng.normal(size=(n, n)), rng.normal(size=(n, n)),
                            rng.normal(size=(7, 7)))
    spec = ConstraintSpec(SymmetricMaskedNonneg(mask), NonnegativeDiagonal(),
                          CausalBand(2, 3))
    out = project_params(theta, spec)
    assert np.array_equal(out.A, out.A.T)
    assert np.all(out.A[~mask] == 0.0)
    off = out.A - np.diag(np.diag(out.A))
    assert off.min() >= 0.0
    assert np.array_equal(out.B, np.diag(np.maximum(np.diag(theta.B), 0.0)))
    assert isinstance(out.kernel, CausalBandKernel)


def test_constraint_spec_rejects_bad_d_factor():
    with pytest.raises(ValueError):
        ConstraintSpec(FullSpace(), FullSpace(), FullSpace())


def test_fixed_shape_mismatch():
    con = Fixed(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        con.project(np.zeros((3, 3)))


def test_all_projections_idempotent_and_nonexpansive(rng):
    mask = random_mask(rng, 3)
    cons = [
        SymmetricMaskedNonneg(mask),
        NonnegativeDiagonal(),
        ShiftedGraphLaplacian(mask, shift="identity"),
    ]
    for con in cons:
        M1, M2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        P1, P2 = con.project(M1), con.project(M2)
        np.testing.assert_allclose(con.project(P1), P1, atol=1e-10)
        assert np.linalg.norm(P1 - P2) <= np.linalg.norm(M1 - M2) + 1e-10


@pytest.mark.parametrize("make", [SymmetricMaskedNonneg, ShiftedGraphLaplacian])
def test_constraint_set_keeps_a_read_only_mask_copy(rng, make):
    mask = random_mask(rng, 4)
    mask[0, 1] = mask[1, 0] = True
    M = rng.normal(size=(4, 4))
    spec = ConstraintSpec(make(mask), NonnegativeDiagonal(), CausalBand(0, 1))
    before = spec.on_A.project(M)
    with pytest.raises(ValueError, match="read-only"):
        spec.on_A.mask[0, 1] = False
    # the caller's mask stays writable and no longer reaches the set
    mask[0, 1] = mask[1, 0] = False
    assert spec.on_A.mask[0, 1]
    np.testing.assert_array_equal(spec.on_A.project(M), before)


@pytest.mark.parametrize("shift, message", [
    (np.eye(3)[:, :2], r"shift must be square, got shape \(3, 2\)"),
    (np.eye(4), r"shift shape \(4, 4\) does not match mask \(3, 3\)"),
    (np.where(np.eye(3) > 0, np.nan, 0.0), "shift holds non-finite values"),
    ("half", "shift must be 'identity', 'zero' or a matrix"),
])
def test_explicit_shift_checked_at_construction(shift, message):
    with pytest.raises(ValueError, match=message):
        ShiftedGraphLaplacian(np.ones((3, 3), dtype=bool), shift=shift)


DESK_MASK = grid_mask(BenchmarkConfig.desk_scale(1))
PAPER_MASK = grid_mask(BenchmarkConfig.paper_scale(1))
ISOLATED_MASK = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=bool)


def masked_sets(mask, rng):
    """Every masked set for ``A`` on ``mask``, keyed by name: both sums, the
    identity, zero and an explicit shift with some ``-0.0`` entries."""
    n = mask.shape[0]
    shift = np.where(rng.random((n, n)) < 0.3, -0.0, rng.normal(size=(n, n)))
    sets = {"symmetric-masked": SymmetricMaskedNonneg(mask)}
    for column_sums, sums in ((True, "columns"), (False, "rows")):
        for name, arg in (("identity", "identity"), ("zero", "zero"), ("explicit", shift)):
            sets[f"laplacian-{name}-{sums}"] = ShiftedGraphLaplacian(mask, arg, column_sums)
        sets[f"graph-laplacian-{sums}"] = _GraphLaplacian(_check_mask(mask), column_sums)
    return sets


def shaped_sets(rng):
    """``(set, shape)`` pairs of the sets free of a mask, on square and
    rectangular shapes."""
    value = np.where(rng.random((3, 5)) < 0.3, -0.0, rng.normal(size=(3, 5)))
    shapes = [(30, 30), (100, 100), (3, 5), (5, 3), (1, 4), (4, 1)]
    return ([(FullSpace(), s) for s in shapes] + [(NonnegativeDiagonal(), s) for s in shapes]
            + [(Fixed(value), (3, 5))])


def every_set(mask, rng):
    return [(cset, mask.shape) for cset in masked_sets(mask, rng).values()] + shaped_sets(rng)


@pytest.mark.parametrize("mask", [DESK_MASK, PAPER_MASK, ISOLATED_MASK],
                         ids=["desk", "paper", "isolated-cell"])
def test_support_derived_from_hull_is_the_literal_rule(rng, mask):
    for cset, shape in every_set(mask, rng):
        for _ in range(2):  # derived once, then kept
            index, base = cset.support(shape)
            literal_index, literal_base = literal_support(cset, shape)
            assert index.dtype == np.intp and np.array_equal(index, literal_index), cset
            assert base.shape == shape and base.tobytes() == literal_base.tobytes(), cset
        assert cset.support(shape)[1] is not base  # the base is a new matrix


@pytest.mark.parametrize("mask", [DESK_MASK, PAPER_MASK, ISOLATED_MASK],
                         ids=["desk", "paper", "isolated-cell"])
def test_hull_arrays_are_well_formed(rng, mask):
    for cset, shape in every_set(mask, rng):
        entries, coords, values, lower, offset = cset.hull(shape)
        assert len(entries) == len(coords) == len(values)
        assert entries.dtype == coords.dtype == np.intp
        assert values.dtype == lower.dtype == np.float64 and offset.shape == shape
        assert np.all((lower == 0.0) | (lower == -np.inf))
        # every coordinate touches an entry, inside the matrix, once
        assert np.array_equal(np.unique(coords), np.arange(len(lower)))
        assert np.all((0 <= entries) & (entries < offset.size))
        assert len(set(zip(entries.tolist(), coords.tolist()))) == len(entries)
        assert cset.hull(shape)[4] is not offset


@pytest.mark.parametrize("mask, counts", [
    (DESK_MASK, (80, 100, 30)),
    (PAPER_MASK, (280, 360, 100)),
], ids=["desk", "paper"])
def test_hull_coordinate_counts(mask, counts):
    n = mask.shape[0]
    sets = (SymmetricMaskedNonneg(mask), ShiftedGraphLaplacian(mask), NonnegativeDiagonal())
    assert tuple(len(cset.hull((n, n))[3]) for cset in sets) == counts


@pytest.mark.parametrize("mask", [DESK_MASK, PAPER_MASK, ISOLATED_MASK],
                         ids=["desk", "paper", "isolated-cell"])
def test_lifted_hull_points_are_fixed_points(rng, mask):
    for cset, shape in every_set(mask, rng):
        assert_lifted_point_is_fixed(cset, shape, rng)


@pytest.mark.parametrize("M", [np.float64(2.0), np.ones(3), np.ones((2, 2, 2))],
                         ids=["0-D", "1-D", "3-D"])
def test_nonneg_diagonal_needs_a_matrix(M):
    message = rf"expected a 2-D matrix, got shape {re.escape(str(np.shape(M)))}"
    for project in (NonnegativeDiagonal().project, project_nonneg_diagonal):
        with pytest.raises(ValueError, match=message):
            project(M)


@pytest.mark.parametrize("q, Q", [(0, 0), (3, 2), (-1, 1)])
def test_causal_band_refuses_impossible_bands(q, Q):
    with pytest.raises(ValueError, match=rf"0 <= q <= Q with Q >= 1, got q={q}, Q={Q}"):
        CausalBand(q, Q)

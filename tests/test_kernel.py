import warnings

import numpy as np
import pytest

from violina import (
    CausalBandKernel,
    apply_kernel,
    fractional_kernel,
    fractional_toeplitz,
    partial_identity,
    project_to_band,
)
from conftest import lenient_b64decode
from oracles import literal_fractional_toeplitz, lstsq_band_projection, stdlib_packed_block


def test_dense_identity_when_no_band():
    k = CausalBandKernel(4, 0, 1)
    assert np.array_equal(k.to_dense(), np.eye(4))


def test_dense_matches_displayed_benchmark_kernel():
    k = CausalBandKernel(5, 2, 3, (0.03, -0.01))
    D = k.to_dense()
    assert np.array_equal(D[:, :2], np.zeros((5, 2)))
    np.testing.assert_array_equal(D[:, 2], [-0.01, 0.03, 1.0, 0.0, 0.0])
    assert np.array_equal(np.tril(D, -1), np.zeros((5, 5)))


def test_dense_small_case_by_hand():
    k = CausalBandKernel(3, 1, 2, (0.5,))
    expected = np.array([[0, 0.5, 0], [0, 1, 0.5], [0, 0, 1]], dtype=float)
    assert np.array_equal(k.to_dense(), expected)


@pytest.mark.parametrize("m,q,Q", [(5, 2, 3), (4, 0, 1), (8, 1, 4), (6, 3, 3), (50, 2, 5)])
def test_round_trip_is_exact(rng, m, q, Q):
    coeffs = tuple(rng.normal(scale=0.5, size=Q - 1))
    k = CausalBandKernel(m, q, Q, coeffs)
    assert project_to_band(k.to_dense(), q, Q) == k


def test_round_trip_exact_for_awkward_floats():
    # 0.1 repeated over an odd count rounds under naive mean/divide
    k = CausalBandKernel(4, 0, 2, (0.1,))
    assert project_to_band(k.to_dense(), 0, 2) == k


def test_projection_of_zero_matrix_forces_unit_diagonal():
    k = project_to_band(np.zeros((4, 4)), 0, 2)
    assert k.coeffs == (0.0,)
    assert np.array_equal(np.diag(k.to_dense()), np.ones(4))


@pytest.mark.parametrize("q, Q", [(0, 5), (2, 4), (3, 3)])
def test_projection_refuses_a_band_the_matrix_cannot_hold(q, Q):
    """A band wider than the matrix, or one with no unit-diagonal column,
    raises the kernel's ``ValueError`` before any diagonal is averaged, so
    no numpy warning about an empty mean comes first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="kernel shape must satisfy|leaves no unit-diagonal"):
            project_to_band(np.eye(3), q, Q)


def test_projection_matches_least_squares_oracle(rng):
    for _ in range(10):
        m = int(rng.integers(5, 9))
        q = int(rng.integers(0, 3))
        Q = int(rng.integers(max(q, 1), min(m, q + 3) + 1))
        M = rng.normal(size=(m, m))
        dense = project_to_band(M, q, Q).to_dense()
        oracle = lstsq_band_projection(M, q, Q)
        np.testing.assert_allclose(dense, oracle, atol=1e-10)


def test_projection_beats_random_parameter_sweep(rng):
    m, q, Q = 6, 1, 3
    M = rng.normal(size=(m, m))
    best = project_to_band(M, q, Q)
    best_dist = np.linalg.norm(best.to_dense() - M)
    for _ in range(200):
        cand = CausalBandKernel(m, q, Q, tuple(rng.normal(scale=1.0, size=Q - 1)))
        assert best_dist <= np.linalg.norm(cand.to_dense() - M) + 1e-10


def test_projection_idempotent_and_linear_part_nonexpansive(rng):
    m, q, Q = 7, 2, 3
    M1 = rng.normal(size=(m, m))
    M2 = rng.normal(size=(m, m))
    P1 = project_to_band(M1, q, Q).to_dense()
    P2 = project_to_band(M2, q, Q).to_dense()
    assert project_to_band(P1, q, Q).to_dense() == pytest.approx(P1, abs=1e-12)
    # affine map: differences see only the linear (averaging) part
    assert np.linalg.norm(P1 - P2) <= np.linalg.norm(M1 - M2) + 1e-10


def test_left_pseudoinverse_identity_kernel():
    k = CausalBandKernel(3, 0, 1)
    assert np.allclose(k.left_pseudoinverse(), np.eye(3))


def test_left_pseudoinverse_bidiagonal_closed_form():
    a = 0.37
    k = CausalBandKernel(4, 1, 2, (a,))
    block = k.left_pseudoinverse()[1:, 1:]
    expected = np.array([[(-a) ** (j - i) if j >= i else 0.0 for j in range(3)]
                         for i in range(3)])
    np.testing.assert_allclose(block, expected, atol=1e-14)


def test_left_pseudoinverse_cancels_kernel(rng):
    for _ in range(50):
        m = int(rng.integers(2, 51))
        q = int(rng.integers(0, min(4, m - 1) + 1))
        if q >= m:
            q = m - 1
        Q = int(rng.integers(max(q, 1), min(m, q + 4) + 1))
        k = CausalBandKernel(m, q, Q, tuple(rng.normal(scale=0.4, size=Q - 1)))
        err = k.left_pseudoinverse() @ k.to_dense() - partial_identity(m, q)
        assert np.max(np.abs(err)) <= 1e-12


def test_right_product_matches_block_structure():
    # C C+ keeps the trailing identity but mixes the top-right block
    k = CausalBandKernel(5, 2, 3, (0.3, -0.2))
    C = k.to_dense()
    P = k.left_pseudoinverse()
    CP = C @ P
    q = 2
    assert np.allclose(CP[:, :q], 0.0)
    assert np.allclose(CP[q:, q:], np.eye(3))
    np.testing.assert_allclose(CP[:q, q:], C[:q, q:] @ np.linalg.inv(C[q:, q:]), atol=1e-13)


def test_apply_kernel_matches_dense_product(rng):
    for _ in range(10):
        m = int(rng.integers(4, 12))
        q = int(rng.integers(0, 3))
        Q = int(rng.integers(max(q, 1), min(m, q + 3) + 1))
        k = CausalBandKernel(m, q, Q, tuple(rng.normal(size=Q - 1)))
        Y = rng.normal(size=(3, m))
        np.testing.assert_allclose(apply_kernel(Y, k), Y @ k.to_dense(), atol=1e-13)
    M = rng.normal(size=(6, 6))
    Y = rng.normal(size=(2, 6))
    np.testing.assert_allclose(apply_kernel(Y, M), Y @ M)


def test_fractional_zero_order_is_identity():
    assert np.array_equal(fractional_kernel(0.0, 4), np.eye(4))


def test_fractional_first_order_is_backward_difference():
    D = fractional_kernel(1.0, 4)
    assert np.allclose(D[:, 0], 0.0)
    rows = np.arange(3)
    assert np.allclose(D[rows, rows + 1], -1.0)
    assert np.allclose(np.diag(D)[1:], 1.0)
    # nullity is exactly one column
    assert not np.allclose(D[:, 1], 0.0)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.3, 0.7), (1.0, 1.0), (1.3, 0.9)])
def test_fractional_toeplitz_semigroup(a, b):
    m = 32
    err = fractional_toeplitz(a, m) @ fractional_toeplitz(b, m) - fractional_toeplitz(a + b, m)
    assert np.max(np.abs(err)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 5, 32])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 1.7, 2.5])
def test_fractional_toeplitz_matches_literal_recurrence(alpha, m):
    T = fractional_toeplitz(alpha, m)
    assert T.dtype == np.float64 and T.shape == (m, m)
    assert T.tobytes() == literal_fractional_toeplitz(alpha, m).tobytes()


@pytest.mark.parametrize("a", [1, 2, 3])
def test_fractional_polynomial_annihilation_integer_orders(a):
    m = 16
    D = fractional_kernel(float(a), m)
    t = np.arange(m, dtype=float)
    for b in range(a):
        residual = (t ** b) @ D
        # the zeroed leading columns make this hold on every column
        assert np.max(np.abs(residual[a:])) <= 1e-9
        assert np.allclose(residual[:a], 0.0)


def test_fractional_rejects_negative_order():
    with pytest.raises(ValueError):
        fractional_kernel(-0.5, 4)


@pytest.mark.parametrize("m,q,Q", [(3, 2, 4), (3, 3, 3), (4, 2, 1), (0, 0, 1), (5, -1, 2)])
def test_kernel_shape_validation(m, q, Q):
    with pytest.raises(ValueError):
        CausalBandKernel(m, q, Q, (0.0,) * max(Q - 1, 0))


@pytest.mark.parametrize("field, m, q, Q", [("m", 6.0, 0, 1), ("q", 6, 0.0, 1), ("Q", 6, 0, 1.0),
                                           ("m", True, 0, 1), ("q", 6, False, 1),
                                           ("Q", 6, 1, np.float64(1.0))])
def test_kernel_refuses_a_shape_that_is_not_an_integer(field, m, q, Q):
    """A float or a bool ``m``, ``q`` or ``Q`` is refused at construction,
    naming the field, not by ``to_dense`` later; numpy integers count."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        CausalBandKernel(m, q, Q)
    kernel = CausalBandKernel(np.int64(6), np.int32(1), np.int64(3), (0.2, -0.1))
    assert np.array_equal(kernel.to_dense(), CausalBandKernel(6, 1, 3, (0.2, -0.1)).to_dense())


def test_kernel_coefficient_count_validation():
    with pytest.raises(ValueError):
        CausalBandKernel(5, 1, 3, (0.1,))


def test_kernel_json_round_trip():
    k = CausalBandKernel(6, 1, 3, (0.2, -0.1))
    assert CausalBandKernel.from_dict(k.to_dict()) == k


def _foreign(group: str, position: int):
    """The fault that puts ``*`` at ``position`` (0 to 3) of the ``first``,
    a ``middle`` or the ``last`` 4-character group of a text."""
    def fault(t):
        i = 4 * {"first": 0, "middle": len(t) // 8, "last": len(t) // 4 - 1}[group] + position
        return t[:i] + "*" + t[i + 1:]
    return fault


_TEXT_FAULTS = {
    "alphabet": lambda t: t[:4] + "*" + t[4:],
    "line-break": lambda t: t[:8] + "\n" + t[8:],
    "blank": lambda t: t + " ",
    "padding-extra": lambda t: t + "=",
    "padding-group": lambda t: t + "====",
    "padding-inside": lambda t: t[:2] + "=" + t[3:],
    "padding-missing": lambda t: t.rstrip("=") if t.endswith("=") else t[:-1],
    "group-missing": lambda t: t[:-4],
    "not-ascii": lambda t: "é" + t[1:],
    **{f"foreign-{group}-{position}": _foreign(group, position)
       for group in ("first", "middle", "last") for position in range(4)},
}


@pytest.mark.parametrize("lenient", [False, True], ids=["stdlib", "py310-decoder"])
@pytest.mark.parametrize("rows", [1, 2, 3])  # one, two and no padding characters
def test_json_table_refuses_bad_base64_on_either_decoder(monkeypatch, rows, lenient):
    """A packed array is read the same, and every malformed text refused,
    whether ``base64.b64decode`` checks strictly itself (Python 3.11+) or
    only the alphabet (3.10): the text- and byte-length checks of
    ``json_table`` hold the rest.  Each text the pair table declines, a
    foreign character in any place of the first, a middle or the last group
    too, is refused with the message of the ``base64.b64decode`` path."""
    import base64

    from violina.kernel import json_table, pack_floats

    if lenient:
        monkeypatch.setattr(base64, "b64decode", lenient_b64decode)
    a = np.arange(1.0, 2.0 * rows + 1).reshape(rows, 2) / 7
    good = pack_floats(a)
    assert good[2].count("=") == (0, 2, 1)[16 * rows % 3]
    read = json_table({"x": good}, "x")
    assert read.tobytes() == a.tobytes() and read.flags.owndata
    for label, fault in _TEXT_FAULTS.items():
        text = fault(good[2])
        assert text != good[2], label
        with pytest.raises(ValueError, match="^'x'") as stdlib:
            stdlib_packed_block("'x'", text, rows, 2)
        with pytest.raises(ValueError, match="^'x'") as refused:
            json_table({"x": [rows, 2, text]}, "x")
        assert str(refused.value) == str(stdlib.value), label


def test_packed_needs_a_shape_not_rows():
    from violina.kernel import packed

    assert packed([3, 1, "AAAA"]) and packed([True, -1, ""])
    assert not packed([[0.0], [1.0], "1.5"]) and not packed([0.0, [1.0], "1.5"])
    assert not packed([[0.0], [1.0], [1.5]]) and not packed([1, 1, "A", "B"])
    assert packed([3, 2, "AAAA", [1]]) and packed([0, 2, "", []])
    assert not packed([1, 1, "A", 0]) and not packed([[0.0], [1.0], "1.5", [2.0]])
    assert not packed([1, 1, "A", [0], []])


def test_packed_columns_round_trip_bit_exact():
    """Columns whose bits are all zero (``+0.0``) are left out and every
    other one, ``-0.0`` and ``5e-324`` columns too, is stored; with none
    left out the form is the three-item one.  ``pack_json`` gives the bytes
    ``json.dumps`` gives for ``pack_floats``, and ``json_table`` gives back
    every bit, C-ordered, in an array that owns its data."""
    import json

    from violina.kernel import json_table, pack_floats, pack_json

    a = np.array([[0.0, -0.0, 5e-324, 0.0, 1.5], [0.0, 0.0, 0.0, 0.0, -5e-324]])
    cases = {"mixed": (a, [1, 2, 4]), "fortran": (np.asfortranarray(a), [1, 2, 4]),
             "stored": (a[:, 1:3], None), "negative-zero": (np.full((2, 2), -0.0), None),
             "zero": (np.zeros((3, 2)), []), "no-rows": (np.zeros((0, 2)), []),
             "no-columns": (a[:, :0], None)}
    for label, (b, columns) in cases.items():
        value = pack_floats(b)
        assert (value[3] if len(value) == 4 else None) == columns, label
        assert pack_json(b) == json.dumps(value, separators=(",", ":")).encode(), label
        read = json_table(json.loads(json.dumps({"x": value})), "x")
        assert read.tobytes() == np.ascontiguousarray(b).tobytes() and read.shape == b.shape
        assert read.flags.c_contiguous and read.flags.owndata, label
    assert pack_floats(a[:, [1, 2, 4]])[2] == pack_floats(a)[2]


@pytest.mark.parametrize("lenient", [False, True], ids=["stdlib", "py310-decoder"])
def test_json_table_checks_the_stored_columns(monkeypatch, lenient):
    """The list of stored columns must be strictly increasing JSON integers
    in ``[0, cols)``, and it sets the byte count; the text checks hold as
    in the three-item form, on either decoder."""
    import base64

    from violina.kernel import json_table, pack_floats

    if lenient:
        monkeypatch.setattr(base64, "b64decode", lenient_b64decode)
    a = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0]]) / 7
    good = pack_floats(a)
    assert good[::3] == [2, [0, 2]] and good[2].count("=") == 1
    assert json_table({"x": good}, "x").tobytes() == a.tobytes()
    wrong = r"^'x': the stored columns must be increasing integers in \[0, 3\), got "
    for columns, message in [
            ([0.0, 2], wrong), ([True, 2], wrong), ([0, "2"], wrong), ([-1, 2], wrong),
            ([0, 3], wrong), ([2, 2], wrong), ([2, 0], wrong), ([0, [2]], wrong),
            ([0, 1, 2], r"^'x': 32 bytes, but 2 x 3 floats take 48$"),
            ([0], r"^'x': 32 bytes, but 2 x 1 floats take 16$"),
            ([], r"^'x': 32 bytes, but 2 x 0 floats take 0$")]:
        with pytest.raises(ValueError, match=message):
            json_table({"x": [*good[:3], columns]}, "x")
    with pytest.raises(ValueError, match="^'x': a string is not a number$"):
        json_table({"x": [*good[:3], "0,2"]}, "x")
    for rows, cols in ((2, 10 ** 15), (10 ** 10, 10 ** 10)):  # too large to allocate or to index
        with pytest.raises(ValueError, match=f"^'x': {rows} x {cols} floats do not fit in memory$"):
            json_table({"x": [rows, cols, "", []]}, "x")
    for label, fault in _TEXT_FAULTS.items():
        with pytest.raises(ValueError, match="^'x'"):
            json_table({"x": [2, 3, fault(good[2]), [0, 2]]}, "x")


def test_kernel_refuses_non_finite_coefficients():
    with pytest.raises(ValueError, match="^kernel coefficients must be finite$"):
        CausalBandKernel(5, 1, 3, (np.nan, 0.0))


def test_band_projection_needs_a_square_matrix():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        project_to_band(np.zeros((2, 3)), 0, 1)


def test_apply_kernel_checks_the_left_factor():
    with pytest.raises(ValueError, match=r"^expected 2x5 left factor, got shape \(2, 4\)$"):
        apply_kernel(np.zeros((2, 4)), CausalBandKernel.identity(5, 0, 1))


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_fractional_refuses_an_order_that_is_not_finite(alpha):
    """A NaN order is refused, not turned into a matrix of NaN, and an
    infinite one is refused before its ceiling is taken."""
    for factory in (fractional_toeplitz, fractional_kernel):
        with pytest.raises(ValueError, match="^fractional order alpha must be finite and "
                                             f"nonnegative, got {alpha}$"):
            factory(alpha, 5)


@pytest.mark.parametrize("m", [5.0, True, np.float64(5.0)])
def test_fractional_refuses_a_dimension_that_is_not_an_integer(m):
    for factory in (fractional_toeplitz, fractional_kernel):
        with pytest.raises(ValueError, match="^m must be an integer"):
            factory(0.5, m)
    assert np.array_equal(fractional_kernel(0.5, np.int64(5)), fractional_kernel(0.5, 5))


@pytest.mark.parametrize("m, q, message", [(5, 6, r"^q must lie in \[0, m\] = \[0, 5\], got 6$"),
                                           (5, -1, r"^q must lie in \[0, m\] = \[0, 5\], got -1$"),
                                           (5.0, 1, "^m must be an integer"),
                                           (5, 1.0, "^q must be an integer"),
                                           (5, True, "^q must be an integer")])
def test_partial_identity_refuses_a_q_it_cannot_zero(m, q, message):
    """``q`` must be an integer in ``[0, m]``: past ``m`` it would give the
    zero matrix, and below 0 the identity."""
    with pytest.raises(ValueError, match=message):
        partial_identity(m, q)
    assert np.array_equal(partial_identity(5, 0), np.eye(5))
    assert np.array_equal(partial_identity(5, 5), np.zeros((5, 5)))
    assert np.array_equal(partial_identity(np.int64(5), np.int32(2)), np.diag([0, 0, 1, 1, 1.0]))


def test_fractional_toeplitz_needs_a_positive_dimension():
    with pytest.raises(ValueError, match="^matrix dimension must be positive, got 0$"):
        fractional_toeplitz(0.5, 0)


@pytest.mark.parametrize("field, q, Q", [("Q", 1, 2.0), ("q", 1.0, 2), ("q", True, 2),
                                         ("Q", 1, np.float64(3.0))])
def test_project_to_band_refuses_a_width_that_is_not_an_integer(field, q, Q):
    """A float or a bool ``q`` or ``Q`` is refused naming the field, not by
    a ``TypeError`` from the coefficients; numpy integers count."""
    M = np.eye(4)
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        project_to_band(M, q, Q)
    assert project_to_band(M, np.int64(1), np.int32(2)) == project_to_band(M, 1, 2)

"""Quaternion algebra and the left/right structure matrices."""

import random
from fractions import Fraction

import pytest

from hkt4.quaternions import (
    IDENTITY,
    AxisTriple,
    HypercomplexFrame,
    Quaternion,
    mat,
    independence_rank,
    mat_mul,
    mat_neg,
    structure_matrix,
)

I1 = Quaternion.unit("1")
Ii = Quaternion.unit("i")
Ij = Quaternion.unit("j")
Ik = Quaternion.unit("k")


def norm_sq(p):
    return sum(c * c for c in p.coords())


def rand_quat(rng):
    return Quaternion(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(4)))


def test_multiplication_table():
    assert Ii * Ij == Ik
    assert Ij * Ii == -Ik
    assert Ij * Ik == Ii
    assert Ik * Ii == Ij
    assert Ii * Ii == -I1
    q = Quaternion(2, -3, Fraction(1, 2), 5)
    assert I1 * q == q and q * I1 == q


def test_norm_multiplicativity_and_associativity():
    rng = random.Random(11)
    for _ in range(40):
        p, q, r = rand_quat(rng), rand_quat(rng), rand_quat(rng)
        assert norm_sq(p * q) == norm_sq(p) * norm_sq(q)
        assert (p * q) * r == p * (q * r)


def test_axis_triple_validation():
    AxisTriple(1, 0, 0)
    AxisTriple(Fraction(3, 5), Fraction(4, 5), 0)
    with pytest.raises(ValueError):
        AxisTriple(1, 1, 0)


# Oracle: expand u*x and x*u coordinatewise with the multiplication table and
# freeze the resulting matrices.
LEFT_I = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
RIGHT_I = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))


def _as_int_matrix(m):
    return tuple(tuple(int(v) for v in row) for row in m)


def test_structure_matrix_frozen_examples():
    assert _as_int_matrix(structure_matrix("left", (1, 0, 0))) == LEFT_I
    assert _as_int_matrix(structure_matrix("right", (1, 0, 0))) == RIGHT_I
    # the left-I action sends (x0,x1,x2,x3) to (-x1,x0,-x3,x2)
    image = _dense_apply(structure_matrix("left", (1, 0, 0)), (1, 2, 3, 4))
    assert image == (-2, 1, -4, 3)
    image = _dense_apply(structure_matrix("right", (1, 0, 0)), (1, 2, 3, 4))
    assert image == (-2, 1, 4, -3)


def test_structure_matrix_images_all_axes():
    # coordinate images of x = (x0,x1,x2,x3), expanded by hand from the table
    x = (1, 2, 3, 4)
    cases = {
        ("left", (0, 1, 0)): (-3, 4, 1, -2),    # j*x
        ("left", (0, 0, 1)): (-4, -3, 2, 1),    # k*x
        ("right", (0, 1, 0)): (-3, -4, 1, 2),   # x*j
        ("right", (0, 0, 1)): (-4, 3, -2, 1),   # x*k
    }
    for (side, axis), expected in cases.items():
        assert _dense_apply(structure_matrix(side, axis), x) == expected
    # the quaternion product is the ground truth for the same images
    q = Quaternion(*x)
    assert (Quaternion.unit("j") * q).coords() == cases[("left", (0, 1, 0))]
    assert (q * Quaternion.unit("k")).coords() == cases[("right", (0, 0, 1))]


def test_structure_matrix_squares_to_minus_id():
    rng = random.Random(23)
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
            (Fraction(3, 5), Fraction(4, 5), 0),
            (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3)),
            (Fraction(12, 13), Fraction(3, 13), Fraction(4, 13))]
    for axis in axes:
        for side in ("left", "right"):
            m = structure_matrix(side, axis)
            assert mat_mul(m, m) == mat_neg(IDENTITY)


def test_structure_matrix_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        structure_matrix("left", (2, 0, 0))
    with pytest.raises(ValueError):
        structure_matrix("middle", (1, 0, 0))


def test_structure_matrix_linear_in_axis():
    # before normalization the map is linear: check on an exact S^2 point
    a, b = Fraction(3, 5), Fraction(4, 5)
    lhs = structure_matrix("left", (a, b, 0))
    scaled = [tuple(tuple(c * v for v in row) for row in structure_matrix("left", axis))
              for c, axis in ((a, (1, 0, 0)), (b, (0, 1, 0)))]
    rhs = tuple(tuple(x + y for x, y in zip(*rows)) for rows in zip(*scaled))
    assert lhs == rhs


def _dense_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
                 for i in range(4))


def _dense_apply(a, v):
    return tuple(sum(a[i][j] * v[j] for j in range(4)) for i in range(4))


def _rand_sparse(rng, density):
    """Random rational 4x4 matrix, each entry nonzero with probability
    density; some rows are left all zero."""
    zero_rows = {i for i in range(4) if rng.random() < 0.2}
    return mat([[Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                 if i not in zero_rows and rng.random() < density else 0
                 for _ in range(4)] for i in range(4)])


def test_sparse_products_match_dense_formula():
    rng = random.Random(811)
    frame = HypercomplexFrame.left()
    axis = frame.span_structure((Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)))
    fixed = [IDENTITY, mat_neg(IDENTITY), frame.I, frame.K, axis,
             mat([[0] * 4] * 4), HypercomplexFrame.right().J]
    randoms = [_rand_sparse(rng, d) for d in (0.1, 0.25, 0.5, 0.75, 1.0) for _ in range(6)]
    pool = fixed + randoms
    for a in pool:
        for b in pool:
            assert mat_mul(a, b) == _dense_mul(a, b)
    # products whose terms cancel to exact zero, with Fraction entries
    n = mat([[1, 1, 0, 0], [0, 0, 0, 0], [2, 2, 0, 0], [0, 0, 0, 0]])
    m = mat([[1, 0, 3, 0], [-1, 0, -3, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    zero = mat_mul(n, m)
    assert zero == _dense_mul(n, m) == mat([[0] * 4] * 4)
    assert all(type(v) is Fraction for row in zero for v in row)
    assert mat_mul(axis, axis) == _dense_mul(axis, axis) == mat_neg(IDENTITY)


def test_left_and_right_actions_commute():
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (Fraction(3, 5), 0, Fraction(4, 5))]
    for u in axes:
        for v in axes:
            L = structure_matrix("left", u)
            R = structure_matrix("right", v)
            assert mat_mul(L, R) == mat_mul(R, L)


def test_verify_frame():
    left = HypercomplexFrame.left()
    right = HypercomplexFrame.right()
    assert left.failures == right.failures == ()
    broken = HypercomplexFrame("left", left.I, left.J, mat_neg(left.K))
    assert broken.failures == ("IJ = K", "JI = -K")


def test_frame_span_structure():
    left = HypercomplexFrame.left()
    m = left.span_structure((Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)))
    assert mat_mul(m, m) == mat_neg(IDENTITY)


def test_independence_rank():
    left = HypercomplexFrame.left()
    right = HypercomplexFrame.right()
    assert independence_rank(left, right) == 6
    assert independence_rank(left, left) == 3
    # forcing I- := I+ introduces a linear dependence; the tampered frame no
    # longer verifies, so check the rank drop on the raw span
    from hkt4.quaternions import _exact_rank
    rows = []
    for m in (*left.matrices(), left.I, right.J, right.K):
        rows.append([m[i][j] for i in range(4) for j in range(4)])
    assert _exact_rank(rows) <= 5


def test_independence_rank_requires_verified_frames():
    left = HypercomplexFrame.left()
    broken = HypercomplexFrame("right", left.I, left.J, mat_neg(left.K))
    with pytest.raises(ValueError):
        independence_rank(left, broken)


def test_frames_are_shared_and_verified_once(monkeypatch):
    import dataclasses

    from hkt4 import quaternions

    left, right = HypercomplexFrame.left(), HypercomplexFrame.right()
    assert left is HypercomplexFrame.left() and right is HypercomplexFrame.right()
    assert independence_rank(left, right) == 6
    calls = []
    monkeypatch.setattr(quaternions, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    assert independence_rank(left, right) == 6 and left.failures == ()
    assert not calls
    # a tampered copy of a verified frame is checked afresh, and fails
    minus_k = dataclasses.replace(right, K=mat_neg(right.K))
    with pytest.raises(ValueError, match="right frame fails identities"):
        independence_rank(left, minus_k)
    assert calls


def test_independence_rank_is_computed_once_per_pair(monkeypatch):
    from hkt4 import quaternions

    left, right = HypercomplexFrame.left(), HypercomplexFrame.right()
    quaternions._span_rank.cache_clear()
    calls = []
    exact_rank = quaternions._exact_rank
    monkeypatch.setattr(quaternions, "_exact_rank", lambda rows: calls.append(1) or exact_rank(rows))
    assert independence_rank(left, right) == 6
    assert independence_rank(left, right) == 6
    assert len(calls) == 1

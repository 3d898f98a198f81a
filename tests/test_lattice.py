"""Lattice fields: su(n) projection, spectral derivatives, constant operator
matrices, inner products, serialization."""

import numpy as np
import pytest

import json
import struct

from hkt4.lattice import (
    LatticeField,
    TUPLES,
    action_matrix,
    apply_components,
    d_adjoint,
    d_raw,
    dc_raw,
    deriv,
    l2_inner,
    lambda_row,
    project_su,
    sd_projector,
    sq_norm,
    star_matrix,
    su_basis,
)
from hkt4.quaternions import HypercomplexFrame

LEFT = HypercomplexFrame.left()


def cartan_connection(N, n, charge):
    """charge * diag(i, -i, 0, ...) dx0 as a connection array."""
    A = np.zeros((4, N, N, N, N, n, n), dtype=complex)
    A[0, ..., 0, 0], A[0, ..., 1, 1] = 1j * charge, -1j * charge
    return A


def test_su_basis_orthonormal():
    for n in (1, 2, 3):
        basis = su_basis(n)
        dim = max(1, n * n - 1)
        assert basis.shape == (dim, n, n)
        for a in basis:
            assert np.allclose(a + np.conj(a.T), 0)
            if n >= 2:
                assert abs(np.trace(a)) < 1e-14
        gram = np.einsum("aij,bij->ab", basis, np.conj(basis)).real
        assert np.allclose(gram, np.eye(dim))


def test_project_su():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = project_su(x, 3)
    assert np.allclose(p + np.conj(p.T), 0)
    assert abs(np.trace(p)) < 1e-14
    # idempotent
    assert np.allclose(project_su(p, 3), p)


def test_field_projection_on_write():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((3, 3, 3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 3, 3, 2, 2))
    f = LatticeField(0, 3, 2, {(): raw})
    assert f.max_defect_from_su() < 1e-14


def test_spectral_derivative_exact_on_modes():
    N = 5
    x = np.arange(N) / N
    grid = np.zeros((N, N, N, N, 1, 1), dtype=complex)
    grid[..., 0, 0] = np.exp(2j * np.pi * x)[:, None, None, None]
    d0 = deriv(grid, 0, N)
    assert np.allclose(d0, 2j * np.pi * grid)
    assert np.allclose(deriv(grid, 1, N), 0)


def test_derivative_constant_is_exactly_zero():
    N = 4
    arr = np.ones((N, N, N, N, 2, 2), dtype=complex)
    for mu in range(4):
        assert np.all(deriv(arr, mu, N) == 0)


def test_d_squared_zero_on_lattice():
    rng = np.random.default_rng(3)
    N = 4
    a = LatticeField.random(1, N, 2, rng)
    dd = d_raw(d_raw(a.data, 1, N), 2, N)
    assert np.sqrt(sq_norm(dd)) < 1e-12


def test_d_star_adjointness():
    rng = np.random.default_rng(4)
    N = 4
    a = LatticeField.random(1, N, 2, rng)
    s = LatticeField.random(0, N, 2, rng)
    ds = LatticeField(1, N, 2, d_raw(s.data, 0, N), project=False)
    lhs = l2_inner(ds, a)
    dstar = d_adjoint(a.data, 1, N)
    prod = np.einsum("...ij,...ji->...", s.data, dstar)
    rhs = -float(np.real(np.sum(prod))) / N ** 4
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("charge", [0.0, 0.37])
def test_d_adjoint_is_l2_adjoint_of_d_raw(degree, charge):
    # <d_A s, a> = <s, d_A^* a> for s of degree - 1 and a of degree, at the
    # flat connection and at a constant Cartan connection
    rng = np.random.default_rng(12)
    N, n = 3, 2
    A = cartan_connection(N, n, charge) if charge else None
    s = LatticeField.random(degree - 1, N, n, rng)
    a = LatticeField.random(degree, N, n, rng)
    ds = LatticeField(degree, N, n, d_raw(s.data, degree - 1, N, A=A), project=False)
    dstar_a = LatticeField(degree - 1, N, n, d_adjoint(a.data, degree, N, A=A),
                           project=False)
    lhs = l2_inner(ds, a)
    assert abs(lhs) > 1e-3
    assert abs(lhs - l2_inner(s, dstar_a)) < 1e-12 * max(1.0, abs(lhs))


def test_action_matrix_consistency_with_symbolic():
    m1 = action_matrix(LEFT.I, 1)
    # I(dx0) = -dx1, I(dx1) = dx0, I(dx2) = -dx3, I(dx3) = dx2
    expected = np.array([[0, 1, 0, 0], [-1, 0, 0, 0],
                         [0, 0, 0, 1], [0, 0, -1, 0]], dtype=complex)
    assert np.allclose(m1, expected)
    m2 = action_matrix(LEFT.I, 2)
    assert np.allclose(m2 @ m2, np.eye(6))


def test_star_and_sd_projector():
    s2 = star_matrix(2)
    assert np.allclose(s2 @ s2, np.eye(6))
    p = sd_projector()
    assert np.allclose(p @ p, p)
    assert np.isclose(np.trace(p).real, 3.0)
    # the flat Hermitian forms are self-dual
    from hkt4.lattice import hermitian_form_vector
    for L in LEFT.matrices():
        v = hermitian_form_vector(L)
        assert np.allclose(p @ v, v)


def test_lambda_row():
    row = lambda_row(LEFT.I)
    # Lambda of omega_I itself is 2
    from hkt4.lattice import hermitian_form_vector
    v = hermitian_form_vector(LEFT.I)
    assert np.isclose((row @ v).real, 2.0)
    # Lambda of any anti-self-dual component combination vanishes
    asd = np.eye(6) - sd_projector()
    assert np.allclose(row @ asd, 0)


def test_dc_on_lattice_matches_symbol():
    # d^c of a single mode equals the symbolic composition L d L
    N = 4
    rng = np.random.default_rng(5)
    a = LatticeField.random(1, N, 2, rng)
    dc = dc_raw(LEFT.I, a.data, 1, N)
    lam = apply_components(lambda_row(LEFT.I)[None], dc)
    dstar = d_adjoint(a.data, 1, N)
    assert float(np.max(np.abs(lam - dstar))) < 1e-12


def test_l2_inner_definite_and_parseval():
    rng = np.random.default_rng(6)
    N = 4
    a = LatticeField.random(1, N, 2, rng)
    assert l2_inner(a, a) > 0
    # distinct Fourier modes are orthogonal
    x = np.arange(N) / N
    basis = su_basis(2)[0]
    c1 = np.zeros((N, N, N, N, 2, 2), dtype=complex)
    c1[..., :, :] = np.cos(2 * np.pi * x)[:, None, None, None, None, None] * basis
    c2 = np.zeros((N, N, N, N, 2, 2), dtype=complex)
    c2[..., :, :] = np.cos(4 * np.pi * x)[:, None, None, None, None, None] * basis
    f1 = LatticeField(1, N, 2, {(0,): c1}, project=False)
    f2 = LatticeField(1, N, 2, {(0,): c2}, project=False)
    assert abs(l2_inner(f1, f2)) < 1e-14
    assert l2_inner(f1, f1) > 0


def test_field_arithmetic_and_norm():
    rng = np.random.default_rng(7)
    a = LatticeField.random(1, 3, 2, rng)
    b = LatticeField.random(1, 3, 2, rng)
    s = a + b - b
    assert (s - a).norm() < 1e-14
    assert np.isclose((2.0 * a).norm(), 2 * a.norm())
    with pytest.raises(ValueError):
        a + LatticeField.random(1, 4, 2, rng)


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    a = LatticeField.random(2, 3, 3, rng)
    path = tmp_path / "field.latf"
    a.save(path)
    b = LatticeField.load(path)
    assert b.degree == 2 and b.N == 3 and b.n == 3
    assert (a - b).norm() == 0.0
    # header is inspectable json after the magic and length prefix
    blob = path.read_bytes()
    assert blob.startswith(b"LATF1\n")


def test_serialization_layout_pinned(tmp_path):
    # the file is magic, <Q header length, JSON header, then one <c16 block
    # per component in TUPLES order, each in row-major grid and matrix order
    rng = np.random.default_rng(13)
    N, n, degree = 3, 2, 2
    comps = {t: rng.standard_normal((N, N, N, N, n, n))
             + 1j * rng.standard_normal((N, N, N, N, n, n)) for t in TUPLES[degree]}
    path = tmp_path / "field.latf"
    LatticeField(degree, N, n, comps, project=False).save(path)
    header = json.dumps({
        "format": "lattice-field-v1", "N": N, "n": n, "degree": degree,
        "endianness": "little", "dtype": "complex128", "order": "C",
        "components": [list(t) for t in TUPLES[degree]],
    }).encode()
    want = b"LATF1\n" + struct.pack("<Q", len(header)) + header
    for t in TUPLES[degree]:
        for z in comps[t].ravel():
            want += struct.pack("<dd", z.real, z.imag)
    assert path.read_bytes() == want


def test_serialization_rejects_truncated_payload(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "field.latf"
    LatticeField.random(1, 3, 2, rng).save(path)
    blob = path.read_bytes()
    for cut in (5, 16 * 7):
        path.write_bytes(blob[:-cut])
        with pytest.raises(ValueError, match="truncated"):
            LatticeField.load(path)


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "junk.latf"
    path.write_bytes(b"not a field")
    with pytest.raises(ValueError):
        LatticeField.load(path)

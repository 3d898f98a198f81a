"""Lattice fields: su(n) projection, spectral derivatives, constant operator
matrices, inner products, serialization."""

import numpy as np
import pytest

import json
import os
import random
import struct
import subprocess
import sys

import hkt4

from hkt4.lattice import (
    LatticeField,
    TUPLES,
    action_matrix,
    apply_components,
    commutator,
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
    _diff_matrix,
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


def test_field_stores_the_array_it_is_given():
    # an array is stored as given, neither copied nor projected; a dict is
    # written into a fresh array, and copy() copies
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((1, 3, 3, 3, 3, 2, 2)) + 1j * rng.standard_normal((1, 3, 3, 3, 3, 2, 2))
    f = LatticeField(0, 3, 2, raw)
    assert np.shares_memory(f.data, raw)
    assert f.data.tobytes() == raw.tobytes()
    g = LatticeField(0, 3, 2, {(): raw[0]})
    assert not np.shares_memory(g.data, raw)
    assert g.data.tobytes() == raw.tobytes()
    h = f.copy()
    assert not np.shares_memory(h.data, raw)
    assert h.data.tobytes() == raw.tobytes()


def test_dense_bench_connection_is_its_own_projection():
    # the benchmark's dense connection charge * diag(i, -i) dx_mu is exactly
    # anti-Hermitian and traceless, so storing it unprojected changes no bit
    from bench.workloads import DENSE_CHARGES, Dense

    dense, charges = Dense(), set()
    for seed in range(40):
        (req,) = dense.unit(random.Random(seed))
        A = req.params["A"].A.data
        assert project_su(A, 2).tobytes() == A.tobytes()
        charges.add(req.params["charge"])
    assert charges == set(DENSE_CHARGES)


def test_field_rejects_keys_that_are_not_components():
    arr = np.zeros((3, 3, 3, 3, 2, 2), dtype=complex)
    arr[...] = su_basis(2)[0]
    # a 2-form component given to a 1-form, and an unsorted 2-form index pair
    with pytest.raises(ValueError, match=r"\(0, 1\) is not a component of a degree-1"):
        LatticeField(1, 3, 2, {(0, 1): arr})
    with pytest.raises(ValueError, match=r"\(1, 0\) is not a component of a degree-2"):
        LatticeField(2, 3, 2, {(0, 1): arr, (1, 0): arr})


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


def fft_deriv(arr, mu, N):
    """Reference spectral derivative: an FFT along the lattice axis, the
    symbol i k with the signed frequencies (Nyquist at -N/2), inverse FFT."""
    axis = (-6, -5, -4, -3)[mu]
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=1.0 / N)
    shape = [1] * arr.ndim
    shape[axis] = N
    return np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(arr, axis=axis), axis=axis)


@pytest.mark.parametrize("N", [3, 4, 5, 8])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_deriv_matches_fft_reference(N, n):
    rng = np.random.default_rng(100 * N + n)
    # two leading batch axes and a component axis
    shape = (2, 1, 3) + (N,) * 4 + (n, n)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for mu in range(4):
        ref = fft_deriv(arr, mu, N)
        got = deriv(arr, mu, N)
        assert got.shape == arr.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def broadcast_matmul(a, b):
    """Reference small-matrix product: n broadcast multiply-adds of whole
    arrays, whose inner loops run over one matrix row."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def broadcast_project_su(arr, n):
    """Reference su(n) projection on whole arrays."""
    ah = 0.5 * (arr - np.conj(np.swapaxes(arr, -1, -2)))
    if n >= 2:
        tr = np.trace(ah, axis1=-1, axis2=-2) / n
        ah = ah - tr[..., None, None] * np.eye(n)
    return ah


@pytest.mark.parametrize("n", [1, 2, 3])
def test_entry_plane_kernels_match_broadcast_formulas(n):
    rng = np.random.default_rng(20 + n)

    def rand(*shape):
        return rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))

    def close(got, ref):
        return got.shape == ref.shape and \
            np.abs(got - ref).max() <= 1e-15 * max(1.0, np.abs(ref).max())

    for sa, sx in [((), ()), ((5,), (5,)), ((3, 1, 4), (2, 4)), ((4,), (2, 3, 4)),
                   ((2, 3), ())]:
        a, x = rand(*sa), rand(*sx)
        assert close(commutator(a, x), broadcast_matmul(a, x) - broadcast_matmul(x, a))
        assert close(project_su(x, n), broadcast_project_su(x, n))
    x = rand(2, 3, 4)
    p = project_su(x, n)
    assert np.abs(p + np.conj(np.swapaxes(p, -1, -2))).max() == 0.0
    trace = np.trace(p, axis1=-1, axis2=-2)
    if n == 1:
        # u(1) keeps its trace: the imaginary part of the scalar
        assert np.array_equal(p[..., 0, 0], 1j * x[..., 0, 0].imag)
        assert np.abs(trace).min() > 0
    else:
        assert np.abs(trace).max() < 1e-15 * n


def trace_project_su(arr, n):
    """project_su with the trace taken by np.trace."""
    out = np.empty(arr.shape, dtype=complex)
    for i, j in np.ndindex(n, n):
        np.subtract(arr[..., i, j], np.conj(arr[..., j, i]), out=out[..., i, j])
    out *= 0.5
    if n >= 2:
        tr = np.trace(out, axis1=-2, axis2=-1) / n
        for i in range(n):
            out[..., i, i] -= tr
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_project_su_trace_rounds_as_np_trace(n):
    # the diagonal planes added in order give np.trace bit for bit, signed
    # zeros included, on contiguous and strided stacks
    rng = np.random.default_rng(30 + n)
    x = rng.standard_normal((3, 4, 4, 4, 4, n, n)) + 1j * rng.standard_normal((3, 4, 4, 4, 4, n, n))
    x[0, ..., 0, :] = -0.0
    x.imag[1, ..., 0, 0] = -0.0
    for arr in (x, x[:, ::2], np.zeros_like(x), -np.zeros_like(x)):
        assert project_su(arr, n).tobytes() == trace_project_su(arr, n).tobytes()


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_random_draw_is_the_complex_contraction_bit_for_bit(degree):
    # two real contractions into one complex array round exactly as the
    # complex one, signs of zero included, so seeded fields do not move
    for N in (3, 4, 5, 8):
        for n in (1, 2, 3, 4):
            for scale in (1.0, 1e-2, 0.3):
                seed = 1000 * degree + 100 * N + 10 * n
                got = LatticeField.random(degree, N, n, np.random.default_rng(seed), scale)
                basis = su_basis(n)
                coeff = np.random.default_rng(seed).standard_normal(
                    (len(TUPLES[degree]), N, N, N, N, len(basis)))
                want = scale * np.einsum("...a,aij->...ij", coeff, basis)
                assert np.array_equal(got.data.view(np.uint64), want.view(np.uint64))


def test_even_grid_nyquist_takes_d_out_of_su():
    # on an even grid the Nyquist symbol i 2 pi (-N/2) is not a real
    # derivative, so d of an su(2) 1-form has a Hermitian part; an odd grid
    # has no Nyquist mode and its differentiation matrix is exactly real
    def hermitian_part(N):
        a = LatticeField.random(1, N, 2, np.random.default_rng(15))
        da = d_raw(a.data, 1, N)
        return np.sqrt(sq_norm(0.5 * (da + np.conj(np.swapaxes(da, -1, -2)))))

    assert hermitian_part(4) > 1.0
    assert hermitian_part(5) == 0.0


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
    ds = LatticeField(1, N, 2, d_raw(s.data, 0, N))
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
    ds = LatticeField(degree, N, n, d_raw(s.data, degree - 1, N, A=A))
    dstar_a = LatticeField(degree - 1, N, n, d_adjoint(a.data, degree, N, A=A))
    lhs = l2_inner(ds, a)
    assert abs(lhs) > 1e-3
    assert abs(lhs - l2_inner(s, dstar_a)) < 1e-12 * max(1.0, abs(lhs))


def _gather_scatter_d(data, degree, N, A, adjoint):
    """Reference d_raw (or d_adjoint, from degree + 1) in the gather/scatter
    form: per direction, one advanced-index gather of the components it
    reads, one signed copy, and one scatter into the components it writes."""
    from hkt4.forms import _MERGE
    from hkt4.lattice import _covariant

    grid = (slice(None),) * 6
    C_out = len(TUPLES[degree if adjoint else degree + 1])
    out = np.zeros(data.shape[:-7] + (C_out,) + data.shape[-6:], dtype=complex)
    for mu in range(4):
        src, dst, sign = [], [], []
        for j, t in enumerate(TUPLES[degree]):
            merged, sg = _MERGE.get(((mu,), t), (None, 0))
            if sg:
                src.append(j)
                dst.append(TUPLES[degree + 1].index(merged))
                sign.append(float(sg))
        src, dst = np.array(src), np.array(dst)
        sign = np.array(sign).reshape(-1, 1, 1, 1, 1, 1, 1)
        if adjoint:
            out[(..., src) + grid] -= sign * _covariant(data[(..., dst) + grid], mu, N, A)
        else:
            out[(..., dst) + grid] += sign * _covariant(data[(..., src) + grid], mu, N, A)
    return out


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("charged", [False, True])
def test_d_raw_and_d_adjoint_match_gather_scatter(degree, charged):
    # the in-place update per incidence entry is bit-identical to the
    # gather/scatter form, on a stack of fields, without and with a connection
    rng = np.random.default_rng(14 + degree)
    N, n = 3, 2
    A = LatticeField.random(1, N, n, rng).data if charged else None
    x = np.stack([LatticeField.random(degree, N, n, rng).data for _ in range(2)])
    y = np.stack([LatticeField.random(degree + 1, N, n, rng).data for _ in range(2)])
    assert np.array_equal(d_raw(x, degree, N, A=A),
                          _gather_scatter_d(x, degree, N, A, adjoint=False))
    assert np.array_equal(d_adjoint(y, degree + 1, N, A=A),
                          _gather_scatter_d(y, degree, N, A, adjoint=True))


def _per_entry_d(data, degree, N, A, adjoint):
    """Reference d_raw (or d_adjoint, from degree + 1) with one D_mu per
    incidence entry, added in place in the order of the entries."""
    from hkt4.forms import _MERGE
    from hkt4.lattice import _covariant

    grid = (slice(None),) * 6
    C_out = len(TUPLES[degree if adjoint else degree + 1])
    out = np.zeros(data.shape[:-7] + (C_out,) + data.shape[-6:], dtype=complex)
    for mu in range(4):
        for src, t in enumerate(TUPLES[degree]):
            merged, sign = _MERGE.get(((mu,), t), (None, 0))
            if not sign:
                continue
            dst = TUPLES[degree + 1].index(merged)
            read, write = (dst, src) if adjoint else (src, dst)
            term = _covariant(data[(..., read) + grid], mu, N, A)
            target = out[(..., write) + grid]
            (np.add if (sign > 0) != adjoint else np.subtract)(target, term, out=target)
    return out


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("charged", [False, True])
def test_d_raw_and_d_adjoint_match_the_per_entry_loop(N, n, charged):
    # one D_mu per direction on the components it reads is bit-identical to
    # one D_mu per incidence entry, on a single field and on a stack
    rng = np.random.default_rng(30 + 9 * N + 3 * n + charged)
    A = LatticeField.random(1, N, n, rng).data if charged else None
    for degree in range(4):
        for lead in [(), (2,)]:
            x = LatticeField.random(degree, N, n, rng).data
            y = LatticeField.random(degree + 1, N, n, rng).data
            if lead:
                x = np.stack([x, LatticeField.random(degree, N, n, rng).data])
                y = np.stack([y, LatticeField.random(degree + 1, N, n, rng).data])
            assert np.array_equal(d_raw(x, degree, N, A=A),
                                  _per_entry_d(x, degree, N, A, adjoint=False))
            assert np.array_equal(d_adjoint(y, degree + 1, N, A=A),
                                  _per_entry_d(y, degree, N, A, adjoint=True))


@pytest.mark.parametrize("N", [3, 4, 8, 16])
@pytest.mark.parametrize("n", [2, 3])
def test_deriv_matches_the_batched_product_on_every_axis(N, n):
    # the one product with kron(D_N^T, I) along the last axis (small N n^2)
    # and the batched (before, N, after) product elsewhere agree with the
    # batched product, on a field and on a stack of fields
    rng = np.random.default_rng(40 + N + n)
    for shape in [(1,), (2, 3)] if N < 16 else [(1,), (2, 1)]:
        shape = shape + (N,) * 4 + (n, n)
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for mu in range(4):
            axis = arr.ndim - 6 + mu
            view = arr.reshape(int(np.prod(shape[:axis])), N, -1)
            ref = (_diff_matrix(N) @ view).reshape(shape)
            got = deriv(arr, mu, N)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(arr).max()


def test_sq_norm_rounds_the_same_on_one_and_two_blas_threads():
    # a 1-form at N = 8, n = 2 has 65,536 reals, above the size at which
    # OpenBLAS splits a dot product across threads
    code = ("import numpy as np; from hkt4.lattice import LatticeField, sq_norm; "
            "rng = np.random.default_rng(0); "
            "fs = np.stack([LatticeField.random(1, 8, 2, rng).data for _ in range(4)]); "
            "print(repr(sq_norm(fs).tolist()), repr([sq_norm(f).tolist() for f in fs]))")
    src = os.path.dirname(os.path.dirname(hkt4.__file__))
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": src,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1]


def test_sq_norm_of_each_field_whatever_the_stack_and_dtype():
    # bit for bit the same in any stack, which the chunked residuals rely on
    rng = np.random.default_rng(9)
    fs = np.stack([LatticeField.random(2, 8, 2, rng).data for _ in range(5)])
    norms = sq_norm(fs)
    assert np.array_equal(norms, np.concatenate([sq_norm(fs[:2]), sq_norm(fs[2:])]))
    assert np.array_equal(norms, [sq_norm(f) for f in fs])
    a = np.arange(2 * 4 * 3 ** 4 * 4, dtype=float).reshape((2, 4) + (3,) * 4 + (2, 2))
    want = (a ** 2).reshape(2, -1).sum(axis=1) / 3 ** 4
    assert np.allclose(sq_norm(a), want, rtol=1e-15)
    assert np.allclose(sq_norm(a + 1j * a), 2 * want, rtol=1e-15)


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
    f1 = LatticeField(1, N, 2, {(0,): c1})
    f2 = LatticeField(1, N, 2, {(0,): c2})
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
    assert b.data.flags.writeable
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
    LatticeField(degree, N, n, comps).save(path)
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

"""Lattice fields: su(n) coordinates and their bracket, spectral
derivatives, constant operator matrices, inner products, serialization."""

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
    bracket,
    covariant_gradient,
    d_adjoint,
    d_raw,
    dc_raw,
    deriv,
    fourier_basis,
    l2_inner,
    lambda_row,
    pq_matrix,
    sd_projector,
    slice_matrix,
    sq_norm,
    star_matrix,
    su_basis,
    wedge_pairing,
    _diff_matrix,
)
from hkt4.quaternions import HypercomplexFrame

LEFT = HypercomplexFrame.left()


def cartan_connection(N, n, charge):
    """charge * diag(i, -i, 0, ...) dx0 as a connection array."""
    comp = np.zeros((N, N, N, N, n, n), dtype=complex)
    comp[..., 0, 0], comp[..., 1, 1] = 1j * charge, -1j * charge
    return LatticeField(1, N, n, {(0,): comp}).data


def expand(x, n):
    """The matrices sum_a x_a B_a of coordinates x (axis -5, grid after),
    the matrix axes last."""
    return np.einsum("...a,aij->...ij", np.moveaxis(x, -5, -1), su_basis(n))


def contract(X, n):
    """The coordinates tr(X B_a^dagger) of matrices X (matrix axes last), on
    axis -5."""
    return np.moveaxis(np.einsum("...ij,aij->...a", X, su_basis(n).conj()), -1, -5)


def random_coordinates(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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


def test_real_part_is_the_anti_hermitian_traceless_part():
    # the real part of complex coordinates expands to the anti-Hermitian
    # traceless part of their expansion (u(1) keeps its trace), and the
    # constructor's contraction of a traceless matrix gives its coordinates
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4):
        x = random_coordinates(rng, (2, 3, max(1, n * n - 1)) + (3,) * 4)
        X = expand(x, n)
        ah = 0.5 * (X - np.conj(np.swapaxes(X, -1, -2)))
        if n >= 2:
            ah -= np.trace(ah, axis1=-2, axis2=-1)[..., None, None] * np.eye(n) / n
        assert np.abs(expand(x.real, n) - ah).max() <= 1e-15 * np.abs(X).max()
        if n >= 2:
            assert np.abs(np.trace(X, axis1=-2, axis2=-1)).max() < 1e-14 * np.abs(X).max()
        f = LatticeField(1, 3, n, {(t,): X[0, t] for t in range(3)})
        assert np.abs(f.data[:3] - x[0]).max() <= 1e-15 * np.abs(x).max()


def test_field_stores_the_array_it_is_given():
    # an array of coordinates is stored as given, neither copied nor
    # projected; a dict of matrices is contracted into a fresh array, and
    rng = np.random.default_rng(2)
    raw = random_coordinates(rng, (1, 3, 3, 3, 3, 3))
    f = LatticeField(0, 3, 2, raw)
    assert np.shares_memory(f.data, raw)
    assert f.data.tobytes() == raw.tobytes()
    g = LatticeField(0, 3, 2, {(): expand(raw, 2)[0]})
    assert not np.shares_memory(g.data, raw)
    assert np.abs(g.data - raw).max() <= 1e-15 * np.abs(raw).max()
    with pytest.raises(ValueError, match="field array has shape"):
        LatticeField(0, 3, 2, expand(raw, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dict_constructor_rejects_a_traced_component(n):
    rng = np.random.default_rng(3 + n)
    X = expand(random_coordinates(rng, (n * n - 1,) + (3,) * 4), n)
    LatticeField(0, 3, n, {(): X})
    X[1, 2, 0, 1] += 1e-3 * np.eye(n)
    with pytest.raises(ValueError, match="traceless"):
        LatticeField(0, 3, n, {(): X})


def test_u1_coordinate_is_minus_i_times_the_scalar_bit_for_bit():
    # so the degree of a u(1) field, and ``hkt4 degree``, do not move
    rng = np.random.default_rng(4)
    X = random_coordinates(rng, (3, 3, 3, 3, 1, 1))
    c = LatticeField(0, 3, 1, {(): X}).data[0, 0]
    assert np.array_equal(c.real.view(np.uint64), X[..., 0, 0].imag.view(np.uint64))
    assert np.array_equal(c.imag.view(np.uint64), (-X[..., 0, 0].real).view(np.uint64))


def test_dense_bench_connection_is_its_own_projection():
    # the benchmark's dense connection charge * diag(i, -i) dx_mu, given as
    # a dict of 2 x 2 matrices, has real coordinates, which the real part
    # keeps, constant and only on the Cartan generator, the last of su(2)
    from bench.workloads import DENSE_CHARGES, Dense

    dense, charges = Dense(), set()
    assert np.array_equal(su_basis(2)[2], np.diag([1j, -1j]) / np.sqrt(2))
    for seed in range(40):
        (req,) = dense.unit(random.Random(seed))
        A = req.params["A"].A.data
        charge, mu = req.params["charge"], req.params["mu"]
        assert not np.any(A.imag) and not np.any(A[:, :2])
        assert not np.any(A[np.arange(4) != mu]) and np.all(A[mu, 2] == A[mu, 2, 0, 0, 0, 0])
        assert A[mu, 2, 0, 0, 0, 0] == pytest.approx(np.sqrt(2) * charge, rel=1e-15)
        charges.add(charge)
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
    grid = np.zeros((1, N, N, N, N), dtype=complex)
    grid[0] = np.exp(2j * np.pi * x)[:, None, None, None]
    d0 = deriv(grid, 0, N)
    assert np.allclose(d0, 2j * np.pi * grid)
    assert np.allclose(deriv(grid, 1, N), 0)


def test_derivative_constant_is_exactly_zero():
    # the negative sum trick on grid-rounded entries: every row of D_N sums
    # to exactly 0 in any order, so d of a constant +-2^k (real, or complex
    # with such parts) is exactly 0 on every axis, for the batched and the
    # kron products alike
    for N in range(3, 9):
        assert not np.any(_diff_matrix(N) @ np.ones(N))
        assert not np.any(_diff_matrix(N, 0, True) @ np.ones(N))
        for dtype, values in [(float, (1.0, -1.0, 0.125, 32.0)),
                              (complex, (1.0, 1 + 1j, -2 + 0.5j, -4j))]:
            for shape in [(3,), (4, 3), (2, 6, 8)]:
                for c in values:
                    arr = np.full(shape + (N,) * 4, c, dtype=dtype)
                    for mu in range(4):
                        got = deriv(arr, mu, N)
                        assert got.dtype == arr.dtype and not np.any(got)


def fft_deriv(arr, mu, N):
    """Reference spectral derivative: an FFT along the lattice axis, the
    symbol i k with the signed frequencies (Nyquist at -N/2), inverse FFT."""
    axis = (-4, -3, -2, -1)[mu]
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=1.0 / N)
    shape = [1] * arr.ndim
    shape[axis] = N
    return np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(arr, axis=axis), axis=axis)


@pytest.mark.parametrize("N", [3, 4, 5, 8])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_deriv_matches_fft_reference(N, n):
    rng = np.random.default_rng(100 * N + n)
    # two leading batch axes, a component and a coordinate axis
    shape = (2, 1, 3, max(1, n * n - 1)) + (N,) * 4
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for mu in range(4):
        ref = fft_deriv(arr, mu, N)
        got = deriv(arr, mu, N)
        assert got.shape == arr.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bracket_matches_the_matrix_commutator(n):
    # the structure-constant bracket of complex coordinates, added into an
    # array, is the coordinates of the commutator of their expansions, on
    # broadcast stacks
    rng = np.random.default_rng(20 + n)
    m = max(1, n * n - 1)
    for sa, sx in [((), ()), ((5,), (5,)), ((3, 1, 4), (2, 4)), ((4,), (2, 3, 4)),
                   ((2, 3), ())]:
        a = random_coordinates(rng, sa + (m, 3, 1, 2, 1))
        x = random_coordinates(rng, sx + (m, 1, 2, 2, 3))
        A, X = expand(a, n), expand(x, n)
        ref = contract(A @ X - X @ A, n)
        base = random_coordinates(rng, ref.shape)
        got = base.copy()
        bracket(a, x, got)
        assert np.abs(got - base - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


def _moveaxis_bracket(x, y, out):
    """The bracket with the coordinate axis moved to the front of each
    operand: the reference for the in-place indexing of ``bracket``."""
    from hkt4.lattice import _bracket_terms

    xs, ys, outs = (np.moveaxis(v, -5, 0) for v in (x, y, out))
    for a, b, cs, fs in _bracket_terms(len(xs)):
        w = xs[a] * ys[b]
        w -= xs[b] * ys[a]
        for c, f in zip(cs, fs):
            outs[c] += f * w


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("charged", [False, True])
def test_covariant_gradient_and_bracket_match_their_references_bit_for_bit(N, n, charged):
    # the gradient is D_mu per direction, D_mu = d_mu + [A_mu, .] by the
    # moveaxis bracket, on a single field and on a stack; the broadcast
    # bracket of a single field with a stack, either way round, is the
    # moveaxis bracket
    rng = np.random.default_rng(70 + 9 * N + 3 * n + charged)
    A = LatticeField.random(1, N, n, rng).data if charged else None
    b = LatticeField.random(1, N, n, rng).data[1]
    for degree in (1, 2):
        for lead in [(), (2,)]:
            x = random_coordinates(rng, lead + (len(TUPLES[degree]),) + b.shape)
            want = []
            for mu in range(4):
                term = deriv(x, mu, N)
                if A is not None:
                    _moveaxis_bracket(A[mu], x, term)
                want.append(term)
            assert np.array_equal(covariant_gradient(x, N, A), np.concatenate(want, axis=-6))
            for left, right in [(b, x), (x, b)]:
                base = random_coordinates(rng, x.shape)
                got, ref = base.copy(), base.copy()
                bracket(left, right, got)
                _moveaxis_bracket(left, right, ref)
                assert np.array_equal(got, ref)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_random_draw_is_the_complex_contraction_bit_for_bit(degree):
    # the coordinates of the contraction sum_a coeff_a B_a of the normal
    # draws (coordinate last in the stream) are the scaled draws themselves,
    # bit for bit with real part only, so seeded fields stay the seeded
    # su(n) fields; their expansion is the complex contraction
    for N in (3, 4, 5, 8):
        for n in (1, 2, 3, 4):
            for scale in (1.0, 1e-2, 0.3):
                seed = 1000 * degree + 100 * N + 10 * n
                got = LatticeField.random(degree, N, n, np.random.default_rng(seed), scale)
                basis = su_basis(n)
                coeff = np.random.default_rng(seed).standard_normal(
                    (len(TUPLES[degree]), N, N, N, N, len(basis)))
                want = np.moveaxis(scale * coeff, -1, 1)
                assert np.array_equal(got.data.real.view(np.uint64), want.view(np.uint64))
                assert np.array_equal(got.data.imag.view(np.uint64),
                                      np.zeros_like(want).view(np.uint64))
                contraction = scale * np.einsum("...a,aij->...ij", coeff, basis)
                assert np.abs(expand(got.data, n) - contraction).max() \
                    <= 1e-15 * np.abs(contraction).max()


def test_even_grid_nyquist_takes_d_out_of_su():
    # on an even grid the Nyquist symbol i 2 pi (-N/2) is not a real
    # derivative, so D_N, the d of complex arrays, gives an su(2) 1-form
    # given as complex coordinates a Hermitian part, the imaginary part of
    # its coordinates; an odd grid has no Nyquist mode and its
    # differentiation matrix is exactly real
    def hermitian_part(N):
        a = LatticeField.random(1, N, 2, np.random.default_rng(15))
        return np.sqrt(sq_norm(d_raw(a.data.astype(complex), 1, N).imag))

    assert hermitian_part(4) > 1.0
    assert hermitian_part(5) == 0.0


@pytest.mark.parametrize("N", [4, 5, 6, 8])
def test_real_fields_take_the_real_part_of_d(N):
    # d of a real array is Re(D_N), the su(n) part of the complex d: the
    # real part of the complex result, bit for bit, and a real array
    a = LatticeField.random(1, N, 2, np.random.default_rng(16))
    got = d_raw(a.data, 1, N)
    assert got.dtype == np.float64
    assert np.array_equal(got, d_raw(a.data.astype(complex), 1, N).real)
    for after in (0, 1, N):
        real = _diff_matrix(N, after, True)
        assert not real.flags.writeable and np.isrealobj(real)
        assert np.array_equal(real, _diff_matrix(N, after).real)


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8, 16])
def test_fourier_basis_is_orthonormal_read_only_and_indexed(N):
    # each row is the unit cos or sin of its recorded FFT index k, and each
    # |k| of the FFT order is recorded once per row it spans
    F, k = fourier_basis(N)
    assert fourier_basis(N)[0] is F
    assert F.shape == (N, N) and not F.flags.writeable and not k.flags.writeable
    assert np.abs(F @ F.T - np.eye(N)).max() <= 1e-15
    j = np.arange(N)
    assert np.array_equal(np.sort(k), np.sort(np.minimum(j, N - j)))
    for row, kk in zip(F, k):
        angle = 2 * np.pi * kk * j / N
        waves = [w / np.linalg.norm(w) for w in (np.cos(angle), np.sin(angle))
                 if np.linalg.norm(w) > 0.5]
        assert min(np.abs(row - w).max() for w in waves) <= 1e-15


def test_lattice_fields_are_real_and_keep_their_dtype():
    # su(n) fields are float64; an array is stored in the nearer of float64
    # and complex128, a dict of matrices contracted into complex128
    rng = np.random.default_rng(17)
    assert LatticeField.random(1, 3, 2, rng).data.dtype == np.float64
    assert LatticeField.zeros(2, 3, 3).data.dtype == np.float64
    assert LatticeField(0, 3, 2, np.ones((1, 3) + (3,) * 4, dtype=int)).data.dtype == np.float64
    assert LatticeField(0, 3, 2, np.ones((1, 3) + (3,) * 4, dtype=np.complex64)).data.dtype \
        == np.complex128
    arr = np.zeros((3, 3, 3, 3, 2, 2), dtype=complex)
    arr[...] = su_basis(2)[0]
    assert LatticeField(1, 3, 2, {(0,): arr}).data.dtype == np.complex128


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [2, 3])
def test_complex_connection_makes_d_of_a_real_field_complex(N, n):
    # a real field next to a complex constant connection, or a complex field
    # next to a real connection: d_A, its adjoint and the covariant gradient
    # are complex and bit for bit those of the all-complex computation
    rng = np.random.default_rng(30 + 10 * N + n)
    theta = [0.37, -0.37] + [0.0] * (n - 2)
    comp = np.zeros((N, N, N, N, n, n), dtype=complex)
    comp[...] = np.diag(1j * np.asarray(theta))
    A = LatticeField(1, N, n, {(1,): comp}).data
    assert A.dtype == np.complex128 and not np.any(A.imag)
    A_real = LatticeField.random(1, N, n, rng, scale=0.3).data
    for degree in (0, 1, 2):
        a = LatticeField.random(degree, N, n, rng).data
        for conn, field in [(A, a), (A_real, a.astype(complex))]:
            ops = [lambda x, c: covariant_gradient(x, N, c),
                   lambda x, c: d_raw(x, degree, N, A=c)]
            if degree:
                ops.append(lambda x, c: d_adjoint(x, degree, N, A=c))
            for op in ops:
                got = op(field, conn)
                assert got.dtype == np.complex128
                assert np.array_equal(got, op(field.astype(complex), conn.astype(complex)))


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
    rhs = float(np.real(np.sum(s.data * dstar))) / N ** 4
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

    grid = (slice(None),) * 5
    C_out = len(TUPLES[degree if adjoint else degree + 1])
    out = np.zeros(data.shape[:-6] + (C_out,) + data.shape[-5:], dtype=complex)
    for mu in range(4):
        src, dst, sign = [], [], []
        for j, t in enumerate(TUPLES[degree]):
            merged, sg = _MERGE.get(((mu,), t), (None, 0))
            if sg:
                src.append(j)
                dst.append(TUPLES[degree + 1].index(merged))
                sign.append(float(sg))
        src, dst = np.array(src), np.array(dst)
        sign = np.array(sign).reshape(-1, 1, 1, 1, 1, 1)
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

    grid = (slice(None),) * 5
    C_out = len(TUPLES[degree if adjoint else degree + 1])
    out = np.zeros(data.shape[:-6] + (C_out,) + data.shape[-5:], dtype=complex)
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
    # the one product with kron(D_N^T, I) along the last two axes (small
    # N after) and the batched (before, N, after) product elsewhere agree
    # with the batched product, on a field and on a stack of fields
    rng = np.random.default_rng(40 + N + n)
    for shape in [(1,), (2, 3)] if N < 16 else [(1,), (2, 1)]:
        shape = shape + (n * n - 1,) + (N,) * 4
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for mu in range(4):
            axis = arr.ndim - 4 + mu
            view = arr.reshape(int(np.prod(shape[:axis])), N, -1)
            ref = (_diff_matrix(N) @ view).reshape(shape)
            got = deriv(arr, mu, N)
            assert np.abs(got - ref).max() <= 2e-15 * np.abs(ref).max()


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
    a = np.arange(2 * 4 * 3 ** 4 * 4, dtype=float).reshape((2, 4, 4) + (3,) * 4)
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


def test_real_valued_constant_matrices_are_stored_real():
    assert star_matrix(2).dtype == sd_projector().dtype == np.float64
    from hkt4.lattice import hermitian_form_vector
    for L in LEFT.matrices() + HypercomplexFrame.right().matrices():
        assert lambda_row(L).dtype == slice_matrix(L).dtype == np.float64
        assert action_matrix(L, 1).dtype == hermitian_form_vector(L).dtype == np.float64
    assert np.iscomplexobj(pq_matrix(LEFT.I, 1, 0, 1))


def test_slice_matrix_is_bit_identical_for_the_six_frame_structures():
    # Lambda d^c_L is d^* on flat 1-forms for every structure, so the slice
    # operator does not depend on L: the J and K cuts of
    # moduli.slice-same-for-IJK repeat I's
    structures = LEFT.matrices() + HypercomplexFrame.right().matrices()
    assert len(set(structures)) == 6
    for L in structures[1:]:
        assert np.array_equal(slice_matrix(L), slice_matrix(structures[0]))


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_real_matrix_product_is_bit_identical_to_the_complex_one(N, n):
    # the real path multiplies the (re, im) float view; on finite data it
    # must give the complex product's numbers exactly
    rng = np.random.default_rng(10 * N + n)
    m = n * n - 1
    for mat in (sd_projector(), star_matrix(1), wedge_pairing(3).T,
                slice_matrix(LEFT.J)):
        data = random_coordinates(rng, (3, mat.shape[1], m) + (N,) * 3 + (2 * N,))
        # a contiguous stack and one strided along the last lattice axis
        for d in (data[..., :N].copy(), data[..., ::2]):
            real = apply_components(mat, d)
            assert np.array_equal(real, apply_components(mat.astype(complex), d))
            assert real.dtype == complex and real.shape == (3, len(mat), m) + (N,) * 4


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
    # the file holds matrices and memory coordinates: for u(1), -i and i are
    # exact, so the round trip is; for n >= 2 it is within a few ulps
    rng = np.random.default_rng(9)
    path = tmp_path / "field.latf"
    for n in (1, 2, 3):
        re = LatticeField.random(2, 3, n, rng).data
        a = LatticeField(2, 3, n, re + 1j * rng.standard_normal(re.shape))
        a.save(path)
        b = LatticeField.load(path)
        assert b.degree == 2 and b.N == 3 and b.n == n
        if n == 1:
            assert (a - b).norm() == 0.0
        else:
            assert 0 < (a - b).norm() <= 4 * np.finfo(float).eps * a.norm()
        assert b.data.flags.writeable
    # header is inspectable json after the magic and length prefix
    blob = path.read_bytes()
    assert blob.startswith(b"LATF1\n")


def test_serialization_layout_pinned(tmp_path):
    # the file is magic, <Q header length, JSON header, then one <c16 block
    # per component in TUPLES order, each in row-major grid and matrix order,
    # of the matrices sum_a x_a B_a of the traceless field's coordinates x.
    # With coordinates +-2^k each product x_a B_a,jk is exact, and each entry
    # sums at most two of them (n = 2), so the expansion rounds one way
    rng = np.random.default_rng(13)
    N, n, degree = 3, 2, 2
    shape = (len(TUPLES[degree]), 3) + (N,) * 4
    powers = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
    x = rng.choice(powers, shape) + 1j * rng.choice(powers, shape)
    mats = expand(x, n)
    comps = dict(zip(TUPLES[degree], mats))
    path = tmp_path / "field.latf"
    LatticeField(degree, N, n, x).save(path)
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

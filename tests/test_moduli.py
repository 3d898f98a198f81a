"""Moduli tangent space on the flat torus: curvature, ASD residual, flow,
horizontal slice, induced quaternionic structures, L^2 metric."""

import numpy as np
import pytest

from hkt4.lattice import (
    LatticeField,
    action_matrix,
    apply_components,
    l2_gram,
    l2_inner,
    su_basis,
)
from hkt4.moduli import (
    Connection,
    FlowDiverged,
    TorusSpec,
    asd_residual,
    coulomb_identity_defect,
    curvature,
    gauge_direction,
    gauge_kernel_dim,
    he_residual,
    horizontal_slice,
    induced_structure,
    moduli_hermitian_form,
    subspace_distance,
    verify_moduli_structure,
    ym_flow,
    _dense_slice_basis,
)
from hkt4.quaternions import HypercomplexFrame

FRAME = HypercomplexFrame.left()


def constant_connection(N, n, values):
    """values: list of (mu, n x n anti-hermitian array)."""
    comps = {}
    for mu, v in values:
        arr = np.zeros((N, N, N, N, n, n), dtype=complex)
        arr[...] = v
        comps[(mu,)] = arr
    return Connection(LatticeField(1, N, n, comps))


def pauli_su2():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return 1j * s1, 1j * s2, 1j * s3


def test_torus_spec_validation():
    TorusSpec(3, 2)
    with pytest.raises(ValueError):
        TorusSpec(2, 2)
    with pytest.raises(ValueError):
        TorusSpec(4, 1)


def test_curvature_zero_for_flat():
    A = Connection.flat(3, 2)
    assert curvature(A).norm() == 0.0


def test_curvature_zero_for_constant_commuting():
    # both components along the same Cartan direction
    _, _, t3 = pauli_su2()
    A = constant_connection(3, 2, [(0, 0.3 * t3), (1, -0.7 * t3)])
    assert curvature(A).norm() < 1e-15


def test_curvature_constant_noncommuting():
    t1, t2, _ = pauli_su2()
    a, b = 0.5, 0.25
    A = constant_connection(3, 2, [(0, a * t1), (1, b * t2)])
    F = curvature(A)
    expected = a * b * (t1 @ t2 - t2 @ t1)
    assert np.allclose(F.data[0][0, 0, 0, 0], expected)
    # every other component: (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    assert np.max(np.abs(F.data[1:])) < 1e-15


def test_asd_residual_on_basis_forms():
    N, n = 3, 2
    t1 = pauli_su2()[0]
    ones = np.zeros((N, N, N, N, n, n), dtype=complex)
    ones[...] = t1

    def two_form(entries):
        return LatticeField(2, N, n, {t: c * ones for t, c in entries.items()},
                            project=False)

    asd = two_form({(0, 1): 1.0, (2, 3): -1.0})
    plus, norm = asd_residual(asd)
    assert norm < 1e-15

    sd = two_form({(0, 1): 1.0, (2, 3): 1.0})  # omega_I x t1, self-dual
    plus, norm = asd_residual(sd)
    assert (plus - sd).norm() < 1e-15
    assert np.isclose(norm, sd.norm())


def test_asd_residual_cross_checked_against_dense_projector():
    # independent oracle: per-site 6x6 projector built from the star matrix
    rng = np.random.default_rng(11)
    N, n = 3, 2
    F = LatticeField.random(2, N, n, rng)
    from hkt4.lattice import star_matrix
    P = 0.5 * (np.eye(6) + star_matrix(2))
    proj = np.einsum("st,t...->s...", P, F.data)
    _, norm = asd_residual(F)
    oracle = float(np.sqrt(np.sum(np.abs(proj) ** 2) / N ** 4))
    assert np.isclose(norm, oracle)


def test_he_residual_asd_gives_zero():
    N, n = 3, 2
    t1 = pauli_su2()[0]
    ones = np.zeros((N, N, N, N, n, n), dtype=complex)
    ones[...] = t1
    F = LatticeField(2, N, n, {(0, 1): ones, (2, 3): -ones}, project=False)
    rep = he_residual(F, FRAME.I)
    assert abs(rep.gamma) < 1e-14
    assert rep.residual_norm < 1e-14
    assert rep.integrable


def test_he_residual_omega_times_su_element():
    N, n = 3, 2
    xi = pauli_su2()[2] * 0.5  # i sigma3 / 2: anti-hermitian diag traceless
    ones = np.zeros((N, N, N, N, n, n), dtype=complex)
    ones[...] = xi
    F = LatticeField(2, N, n, {(0, 1): ones, (2, 3): ones}, project=False)
    rep = he_residual(F, FRAME.I)
    # i Lambda F = 2 i xi is constant: residual zero, gamma = tr/n = 0
    assert rep.residual_norm < 1e-14
    assert abs(rep.gamma) < 1e-14
    assert rep.integrable  # omega_I is (1,1) for I


def test_he_residual_flags_20_part():
    N, n = 3, 2
    t1 = pauli_su2()[0]
    ones = np.zeros((N, N, N, N, n, n), dtype=complex)
    ones[...] = t1
    # dz1 ^ dz2 has no (1,1) part; its real part has pure (2,0)+(0,2) content
    F = LatticeField(2, N, n, {(0, 2): ones, (1, 3): -ones}, project=False)
    rep = he_residual(F, FRAME.I)
    assert rep.type_defect > 0.1
    assert not rep.integrable


def test_he_residual_gamma_for_u1_identity_direction():
    # line-bundle style curvature: F = omega_I x (i c), scalar rank 1
    N, n, c = 3, 1, 0.25
    ones = np.full((N, N, N, N, 1, 1), 1j * c, dtype=complex)
    F = LatticeField(2, N, 1, {(0, 1): ones, (2, 3): ones}, project=False)
    rep = he_residual(F, FRAME.I)
    # i Lambda F = i * 2 * (i c) = -2c: gamma = -2c
    assert np.isclose(rep.gamma, -2 * c)
    assert rep.residual_norm < 1e-14


def test_ym_flow_flat_returns_immediately():
    A = Connection.flat(3, 2)
    res = ym_flow(A, step=1e-3, max_iters=100, target=1e-20)
    assert res.iterations == 0
    assert res.final == 0.0


def test_ym_flow_rejects_bad_step():
    A = Connection.flat(3, 2)
    with pytest.raises(ValueError):
        ym_flow(A, step=0.0, max_iters=10, target=1e-10)


def test_ym_flow_aborts_on_non_finite_input():
    arr = np.full((3, 3, 3, 3, 2, 2), np.nan, dtype=complex)
    bad = Connection(LatticeField(1, 3, 2, {(0,): arr}))
    with pytest.raises(FlowDiverged):
        ym_flow(bad, step=1e-3, max_iters=10, target=1e-10)


def test_ym_flow_reduces_residual():
    rng = np.random.default_rng(21)
    N, n = 3, 2
    pert = LatticeField.random(1, N, n, rng, scale=1e-2)
    A0 = Connection(pert)
    _, r0 = asd_residual(curvature(A0))
    res = ym_flow(A0, step=1e-3, max_iters=2000, target=r0 ** 2 * 1e-8)
    assert res.converged
    assert all(res.history[i + 1] <= res.history[i]
               for i in range(len(res.history) - 1))
    assert res.initial / res.final > 1e6


def test_horizontal_slice_dimension_n2():
    # dimension must not depend on the grid (no spurious discrete kernel,
    # even grids with their Nyquist modes included)
    for N in (3, 4, 5):
        tb = horizontal_slice(Connection.flat(N, 2), FRAME.I, 1e-10, frame=FRAME)
        assert tb.dimension == 12
        assert tb.gap_ok
        assert np.allclose(tb.gram, np.eye(12))


def test_horizontal_slice_dimension_n3():
    tb = horizontal_slice(Connection.flat(3, 3), FRAME.I, 1e-10, frame=FRAME)
    assert tb.dimension == 32


def test_horizontal_slice_requires_asd_base():
    rng = np.random.default_rng(31)
    A = Connection(LatticeField.random(1, 3, 2, rng, scale=0.5))
    with pytest.raises(ValueError):
        horizontal_slice(A, FRAME.I, 1e-10)


def test_slice_elements_satisfy_equations():
    tb = horizontal_slice(Connection.flat(4, 2), FRAME.I, 1e-10, frame=FRAME)
    assert tb.residual(tb.basis).max() < 1e-13


def test_dense_oracle_matches_mode_kernel_n2():
    # brute-force null space of the materialized operator
    A = Connection.flat(3, 2)
    basis, min_sv, gap = _dense_slice_basis(A, FRAME.I, 1e-8, max_dense_dim=4000)
    assert len(basis) == 12
    assert gap > 1e3
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    assert subspace_distance(tb.basis, basis) < 1e-6


def test_dense_oracle_matches_mode_kernel_n3():
    A = Connection.flat(3, 3)
    basis, _, gap = _dense_slice_basis(A, FRAME.I, 1e-8, max_dense_dim=4000)
    assert len(basis) == 32
    assert gap > 1e3
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    assert subspace_distance(tb.basis, basis) < 1e-6


def test_dense_guard():
    with pytest.raises(ValueError):
        _dense_slice_basis(Connection.flat(4, 3), FRAME.I, 1e-8, max_dense_dim=100)


def test_coulomb_identity_random_fields():
    rng = np.random.default_rng(41)
    for N in (3, 4):
        for _ in range(3):
            a = LatticeField.random(1, N, 2, rng)
            for L in FRAME.matrices():
                assert coulomb_identity_defect(a, L) < 1e-10


def test_gauge_orthogonality_of_slice():
    rng = np.random.default_rng(43)
    A = Connection.flat(4, 2)
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    for _ in range(5):
        xi = LatticeField.random(0, 4, 2, rng)
        v = gauge_direction(xi, A)
        assert np.abs(l2_gram(tb.basis, v.data[None])).max() < 1e-12


def test_induced_structure_examples():
    N, n = 3, 2
    g = su_basis(2)[1]
    arr = np.zeros((N, N, N, N, n, n), dtype=complex)
    arr[...] = g
    a = LatticeField(1, N, n, {(0,): arr}, project=False)
    ia = induced_structure(FRAME.I, a)
    # I~(dx0 x g) = -I(dx0) x g = +dx1 x g under the ledger sign
    assert np.allclose(ia.data[1], arr)
    assert np.max(np.abs(ia.data[[0, 2, 3]])) < 1e-15
    # involution and realness
    rng = np.random.default_rng(51)
    b = LatticeField.random(1, N, n, rng)
    ib = induced_structure(FRAME.J, b)
    assert ib.max_defect_from_su() < 1e-12
    assert (induced_structure(FRAME.J, ib) + b).norm() < 1e-12


def test_induced_structure_matches_coordinate_formula():
    # the (p,q) definition sqrt(-1)(a^{0,1} - a^{1,0}) equals -L(a)
    rng = np.random.default_rng(53)
    for N in (3, 4):
        a = LatticeField.random(1, N, 2, rng)
        for L in FRAME.matrices():
            got = induced_structure(L, a)
            want = apply_components(-action_matrix(L, 1), a.data)
            assert np.max(np.abs(got.data - want)) < 1e-12


def test_verify_moduli_structure_passes():
    tb = horizontal_slice(Connection.flat(4, 2), FRAME.I, 1e-10, frame=FRAME)
    rep = verify_moduli_structure(tb, FRAME)
    assert rep.passed
    assert rep.kernel_dims == {"I": 12, "J": 12, "K": 12}
    assert max(rep.identity_defects.values()) < 1e-12
    assert max(rep.metric_defects.values()) < 1e-12


def test_verify_moduli_structure_at_cartan_connection():
    # a flat connection with non-central holonomy: the stabiliser is the
    # Cartan line, so the slice is 4-dimensional, not 4 (n^2 - 1)
    _, _, t3 = pauli_su2()
    A = constant_connection(3, 2, [(0, 0.37 * t3)])
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    rep = verify_moduli_structure(tb, FRAME)
    assert rep.expected_dim == 4
    assert rep.kernel_dims == {"I": 4, "J": 4, "K": 4}
    assert rep.passed


def test_gauge_kernel_dim():
    _, _, t3 = pauli_su2()
    assert gauge_kernel_dim(Connection.flat(3, 2), 1e-10) == 3
    assert gauge_kernel_dim(Connection.flat(3, 3), 1e-10) == 8
    # holonomy exp(pi i sigma3) = -1 is central: the whole of su(2) is fixed
    A = constant_connection(3, 2, [(0, np.pi * t3)])
    assert gauge_kernel_dim(A, 1e-10) == 3


def test_verify_moduli_structure_detects_sign_flip():
    tb = horizontal_slice(Connection.flat(3, 2), FRAME.I, 1e-10, frame=FRAME)
    tb.ops["K"] = -tb.ops["K"]
    rep = verify_moduli_structure(tb, FRAME)
    d = rep.identity_defects
    assert d["IJ = K"] > 1.0
    assert d["K^2 = -Id"] < 1e-12 and d["IJ = -JI"] < 1e-12
    assert not rep.passed


def test_l2_metric_invariant_under_induced_structures():
    rng = np.random.default_rng(61)
    a = LatticeField.random(1, 4, 2, rng)
    b = LatticeField.random(1, 4, 2, rng)
    for L in FRAME.matrices():
        la, lb = induced_structure(L, a), induced_structure(L, b)
        assert abs(l2_inner(la, lb) - l2_inner(a, b)) < 1e-12


def test_moduli_hermitian_form_antisymmetric_and_sign():
    tb = horizontal_slice(Connection.flat(4, 2), FRAME.I, 1e-10, frame=FRAME)
    rng = np.random.default_rng(71)
    for _ in range(10):
        a1 = tb.element(rng.standard_normal(tb.dimension))
        a2 = tb.element(rng.standard_normal(tb.dimension))
        w12 = moduli_hermitian_form(tb, a1, a2)
        w21 = moduli_hermitian_form(tb, a2, a1)
        assert abs(w12 + w21) < 1e-10
        assert abs(moduli_hermitian_form(tb, a1, a1)) < 1e-10
        # fixed ledger sign: omega~ = -g(I~ a1, a2)
        g = l2_inner(induced_structure(tb.structure, a1), a2)
        assert abs(w12 + g) < 1e-9 * max(1.0, abs(g))


def test_moduli_hermitian_form_rejects_non_slice_input():
    tb = horizontal_slice(Connection.flat(3, 2), FRAME.I, 1e-10, frame=FRAME)
    rng = np.random.default_rng(81)
    a = LatticeField.random(1, 3, 2, rng)  # generic field is not in the slice
    with pytest.raises(ValueError):
        moduli_hermitian_form(tb, a, tb.element(np.eye(tb.dimension)[0]))


def test_moduli_hermitian_form_zero_mode_closed_form():
    # independent oracle: the symbolic wedge on constant forms
    from fractions import Fraction
    from hkt4.exact import QI, ScalarField
    from hkt4.forms import RationalForm, wedge
    from hkt4.hermitian import hermitian_form
    from hkt4.forms import ConstantMetric

    tb = horizontal_slice(Connection.flat(3, 2), FRAME.I, 1e-10, frame=FRAME)
    rng = np.random.default_rng(91)
    gens = su_basis(2)
    # constant slice elements alpha x g with rational covector components
    alphas = [[Fraction(rng.integers(-3, 4)) for _ in range(4)] for _ in range(2)]
    gsel = [gens[0], gens[1]]
    omega_sym = hermitian_form(ConstantMetric.euclidean(), FRAME.I)

    def as_field(alpha, g):
        comps = {}
        for mu in range(4):
            arr = np.zeros((3, 3, 3, 3, 2, 2), dtype=complex)
            arr[...] = float(alpha[mu]) * g
            comps[(mu,)] = arr
        return LatticeField(1, 3, 2, comps, project=False)

    a1 = as_field(alphas[0], gsel[0])
    a2 = as_field(alphas[1], gsel[1])
    value = moduli_hermitian_form(tb, a1, a2)

    # oracle: integral = omega ^ (alpha1 ^ alpha2) tr(g1 g2), unit volume
    one_forms = []
    for alpha in alphas:
        f = RationalForm(1, {(mu,): ScalarField.const(QI(alpha[mu]))
                             for mu in range(4) if alpha[mu] != 0})
        one_forms.append(f)
    top = wedge(omega_sym, wedge(one_forms[0], one_forms[1]))
    coeff = top.coeffs.get((0, 1, 2, 3))
    scalar = complex(coeff.num.constant_value()) if coeff is not None else 0.0
    trace = complex(np.einsum("ij,ji->", gsel[0], gsel[1]))
    expected = (scalar * trace).real
    assert abs(value - expected) < 1e-12


def test_flow_diverges_with_huge_step_is_caught_or_monotone():
    rng = np.random.default_rng(101)
    pert = LatticeField.random(1, 3, 2, rng, scale=1e-2)
    A0 = Connection(pert)
    # an absurd step is tamed by halving: monotonicity still holds
    res = ym_flow(A0, step=100.0, max_iters=50, target=0.0)
    assert all(res.history[i + 1] <= res.history[i]
               for i in range(len(res.history) - 1))

"""Moduli tangent space on the flat torus: curvature, ASD residual, flow,
horizontal slice, induced quaternionic structures, L^2 metric."""

import dataclasses
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hkt4 import lattice, moduli, suites
from hkt4.exact import QI
from hkt4.forms import ConstantMetric, RationalForm, hodge_star, pq_project, structure_action
from hkt4.hermitian import hermitian_form
from hkt4.lattice import (
    LatticeField,
    action_matrix,
    apply_components,
    covariant_gradient,
    d_adjoint,
    d_raw,
    dc_raw,
    frequencies,
    hermitian_form_vector,
    l2_gram,
    l2_inner,
    lambda_row,
    sd_projector,
    slice_matrix,
    sq_norm,
    su_basis,
    TUPLES,
)
from hkt4.moduli import (
    Connection,
    FlowDiverged,
    asd_residual,
    coulomb_identity_defect,
    curvature,
    gauge_kernel_dim,
    hermitian_form_matrix,
    hermitian_sign_defect,
    horizontal_slice,
    induced_structure,
    moduli_hermitian_form,
    subspace_distance,
    verify_moduli_structure,
    ym_flow,
    _dense_slice_basis,
    _real_matrix,
    _unit_fields,
)
from hkt4.quaternions import HypercomplexFrame, structure_matrix

FRAME = HypercomplexFrame.left()


def _mode_symbol(L, xi):
    """Oracle: the stacked 7x4 symbols of the slice operator at the
    frequencies xi, (..., 4) -> (..., 7, 4), built from the symbol of d on
    1-forms, the self-dual projector and Lambda d^c_L."""
    dsym = np.zeros(xi.shape[:-1] + (6, 4), dtype=complex)
    for r, (a, b) in enumerate(TUPLES[2]):
        dsym[..., r, b] += 1j * xi[..., a]
        dsym[..., r, a] -= 1j * xi[..., b]
    l1 = action_matrix(L, 1)
    l2 = action_matrix(L, 2)
    top = sd_projector() @ dsym
    # twisted differential on 1-forms carries overall sign +1 (ledger)
    bottom = lambda_row(L) @ l2 @ dsym @ l1
    return np.concatenate([top, bottom[..., None, :]], axis=-2)


def mode_table(N):
    f = frequencies(N)
    return np.stack(np.meshgrid(f, f, f, f, indexing="ij"), axis=-1).reshape(-1, 4)


def svd_mode_slice_basis(N, L, tol, shifts):
    """Oracle for the per-mode slice at a constant Cartan connection: one
    batched SVD of the symbol at every mode and distinct shift. A block is in
    the kernel when all four singular values are below tol; a block with
    some but not all below tol raises. The gap is the least non-kernel
    singular value over the larger of the largest kernel one and tol."""
    alpha, channel = np.unique(shifts.reshape(-1, 4), axis=0, return_inverse=True)
    sv = np.linalg.svd(_mode_symbol(L, mode_table(N) + alpha[:, None]), compute_uv=False)
    small = (sv < tol).sum(axis=-1)
    bad = np.argwhere((small > 0) & (small < 4))
    if len(bad):
        k = tuple(int(i) for i in np.unravel_index(bad[0, 1], (N,) * 4))
        raise RuntimeError(f"unexpected slice kernel at mode {k}")
    vanish = small == 4
    min_sv = float(sv[..., -1][~vanish].min())
    max_kernel_sv = float(sv[..., 0][vanish].max())
    gap = min_sv / max(max_kernel_sv, tol)
    vanish = vanish[channel.reshape(shifts.shape[:2])]
    gens = su_basis(len(vanish))
    stabiliser = np.all(vanish.any(axis=-1) | (gens == 0), axis=(-2, -1))
    # dx_mu x (coordinate unit vector of each stabiliser generator) at x = 0
    units = np.eye(len(gens))[stabiliser]
    coeffs = np.einsum("mt,ga->mgta", np.eye(4), units)
    coeffs = coeffs.reshape((-1, 4, len(gens)) + (1,) * 4)
    xi = mode_table(N)[vanish.argmax(axis=-1)]
    phase = np.exp(1j * np.einsum("jkm,m...->jk...", xi, np.indices((N,) * 4) / N))
    phase[np.eye(len(vanish), dtype=bool)] = 1.0
    return coeffs, phase, min_sv, float(gap)


def constant_connection(N, n, values):
    """values: list of (mu, n x n anti-hermitian array)."""
    comps = {}
    for mu, v in values:
        arr = np.zeros((N, N, N, N, n, n), dtype=complex)
        arr[...] = v
        comps[(mu,)] = arr
    return Connection(LatticeField(1, N, n, comps))


# the names of verify_moduli_structure's checks, in report order
SLICE_CHECKS = [
    "moduli.kernel-dimension", "moduli.kernel-gap", "moduli.slice-equations",
    "moduli.slice-same-for-IJK",
    *(f"moduli.structure.{s}" for s in ("I^2=-Id", "J^2=-Id", "K^2=-Id", "IJ=K", "IJ=-JI")),
    *(f"moduli.slice-invariance.{s}" for s in "IJK"),
    *(f"moduli.metric-invariance.{s}" for s in "IJK"),
    "moduli.hermitian-form-sign",
]


def structure_holds(checks):
    """Each cut has the expected dimension and one span, and the structure,
    slice-invariance and metric-invariance checks among ``checks`` pass."""
    scope = ("moduli.slice-same-for-IJK", "moduli.structure.", "moduli.slice-invariance.",
             "moduli.metric-invariance.")
    return all(c.status == "pass" for c in checks if c.name.startswith(scope))


def defects(checks, prefix):
    """The defects of the checks named ``prefix``..., by name."""
    return {c.name[len(prefix):]: c.defect for c in checks if c.name.startswith(prefix)}


def pauli_su2():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return 1j * s1, 1j * s2, 1j * s3


def test_torus_spec_validation():
    with pytest.raises(ValueError, match="grid size must be >= 3"):
        suites.moduli_suite(2, 2, 1e-10)
    with pytest.raises(ValueError, match="bundle rank must be >= 2"):
        suites.moduli_suite(4, 1, 1e-10)


@pytest.mark.parametrize("eps", [0.0, -0.0, np.inf, -np.inf, np.nan])
def test_suites_refuse_a_flow_eps_outside_the_cli_domain(eps):
    # the domain of the CLI's --flow: at 0 no flow ran and flow-reduction
    # read a pass with defect 0.0; at inf the flow diverged
    with pytest.raises(ValueError, match="flow eps must be finite and nonzero"):
        suites.moduli_suite(4, 2, 1e-10, flow_eps=eps)
    with pytest.raises(ValueError, match="flow eps must be finite and nonzero"):
        suites.full_report(flow_eps=eps)


@pytest.mark.parametrize("kwargs", [{"rank": 1}, {"flow_eps": 0.0}, {"grid": 2}, {"tol": 0.0}],
                         ids=["rank", "flow_eps", "grid", "tol"])
def test_full_report_refuses_bad_moduli_input_before_the_exact_suites(kwargs, monkeypatch):
    # the moduli part is built first, so a bad input costs no exact work
    def hopf_suite(*args, **kwargs):
        raise AssertionError("hopf_suite ran before the moduli input was refused")

    monkeypatch.setattr(suites, "hopf_suite", hopf_suite)
    with pytest.raises(ValueError):
        suites.full_report(**kwargs)


def test_curvature_zero_for_flat():
    A = Connection.flat(3, 2)
    assert curvature(A).norm() == 0.0


def test_flat_curvature_is_d_without_the_commutator():
    A = Connection.flat(3, 2)
    assert np.array_equal(curvature(A).data, d_raw(A.A.data, 1, 3))
    A = Connection.flat(16, 2)
    tracemalloc.start()
    try:
        curvature(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 6-pair commutator of the zero array alone took 168 MB
    assert peak < 100e6


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
    coords = np.einsum("ij,aij->a", expected, su_basis(2).conj())
    assert np.allclose(F.data[0][:, 0, 0, 0, 0], coords)
    # every other component: (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    assert np.max(np.abs(F.data[1:])) < 1e-15


def test_asd_residual_on_basis_forms():
    N, n = 3, 2
    t1 = pauli_su2()[0]
    ones = np.zeros((N, N, N, N, n, n), dtype=complex)
    ones[...] = t1

    def two_form(entries):
        return LatticeField(2, N, n, {t: c * ones for t, c in entries.items()})

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


def test_ym_flow_flat_returns_immediately():
    A = Connection.flat(3, 2)
    res = ym_flow(A, step=1e-3, max_iters=100, reduction=1e-20)
    assert res.iterations == 0
    assert res.final == 0.0


def test_ym_flow_rejects_bad_step():
    A = Connection.flat(3, 2)
    with pytest.raises(ValueError):
        ym_flow(A, step=0.0, max_iters=10, reduction=1e-10)


def test_ym_flow_aborts_on_non_finite_input():
    arr = np.full((3, 3, 3, 3, 2, 2), np.nan, dtype=complex)
    bad = Connection(LatticeField(1, 3, 2, {(0,): arr}))
    with pytest.raises(FlowDiverged):
        ym_flow(bad, step=1e-3, max_iters=10, reduction=1e-10)


def test_ym_flow_reduces_residual():
    rng = np.random.default_rng(21)
    N, n = 3, 2
    pert = LatticeField.random(1, N, n, rng, scale=1e-2)
    A0 = Connection(pert)
    res = ym_flow(A0, step=1e-3, max_iters=2000, reduction=1e-8)
    assert res.converged
    assert all(res.history[i + 1] <= res.history[i]
               for i in range(len(res.history) - 1))
    assert res.initial / res.final > 1e6


def residual_sq(a):
    """|F+|^2 and F+ of the connection form ``a``."""
    plus = apply_components(sd_projector(), curvature(Connection(a)).data)
    return float(sq_norm(plus)), plus


def complex_gradient(A, plus, N):
    """2 d_A^* F+ through D_N itself, on complex copies of the real arrays:
    the flow's gradient before its real part is taken."""
    return 2.0 * d_adjoint(plus.astype(complex), 2, N, A.data.astype(complex))


def fixed_growth_flow(A0, step, max_iters, target):
    """Reference descent on |F+|^2 with the step grown 1.25x per accepted
    move up to 64 times the first one, halved on a rejected one; the trial
    step is the real part of the complex one."""
    N, n = A0.N, A0.n
    A, max_step = LatticeField(1, A0.N, A0.n, A0.A.data.copy()), step * 64
    s2, plus = residual_sq(A)
    history = [s2]
    while len(history) <= max_iters and s2 > target:
        grad = complex_gradient(A, plus, N)
        for _ in range(60):
            trial = LatticeField(1, N, n, (A.data - step * grad).real)
            s2_new, plus_new = residual_sq(trial)
            if s2_new <= s2:
                A, s2, plus = trial, s2_new, plus_new
                step = min(step * 1.25, max_step)
                break
            step *= 0.5
        history.append(s2)
    return history


def suite_flow_start(N, n, seed, eps):
    """The perturbation ``moduli_suite`` flows from: one draw from its seed."""
    return Connection(LatticeField.random(1, N, n, np.random.default_rng(seed), scale=eps))


def test_barzilai_borwein_flow_takes_no_more_iterations_than_fixed_growth():
    # the fixed-growth step as the reference: from the same start both
    # reach the target monotonically, the preconditioned BB step in no more
    # iterations (5 against 19 here; 9 against 6,423 from the (4, 3) start
    # at seed 0)
    A0 = suite_flow_start(4, 2, 0, 1e-2)
    _, r0 = asd_residual(curvature(A0))
    target = r0 ** 2 * 1e-7
    reference = fixed_growth_flow(A0, 1e-3, 10_000, target)
    res = ym_flow(A0, step=1e-3, max_iters=10_000, reduction=1e-7)
    assert reference[-1] <= target and res.converged
    assert res.iterations <= len(reference) - 1
    for history in (reference, res.history):
        assert all(b <= a for a, b in zip(history, history[1:]))


def plain_bb_flow(A0, step, max_iters, target):
    """Reference descent on |F+|^2 along -2 d_A^* F+ with the plain
    Barzilai-Borwein step s^T s / s^T y, kept if s^T y <= 0, halved on a
    rejected move; the trial step is the real part of the complex one."""
    N, n = A0.N, A0.n
    A, last = LatticeField(1, A0.N, A0.n, A0.A.data.copy()), None
    s2, plus = residual_sq(A)
    history = [s2]
    while len(history) <= max_iters and s2 > target:
        grad = complex_gradient(A, plus, N)
        if last is not None:
            s, y = A.data - last[0], grad - last[1]
            sty = np.vdot(s, y).real
            step = np.vdot(s, s).real / sty if sty > 0 else step
        for _ in range(60):
            trial = LatticeField(1, N, n, (A.data - step * grad).real)
            s2_new, plus_new = residual_sq(trial)
            if s2_new <= s2:
                last = (A.data, grad)
                A, s2, plus = trial, s2_new, plus_new
                break
            step *= 0.5
        history.append(s2)
    return history


@pytest.mark.parametrize("N, n, seed", [(4, 2, 0), (4, 3, 0), (5, 2, 0), (5, 3, 0)])
def test_preconditioned_flow_takes_no_more_iterations_than_plain_bb(N, n, seed):
    # 5 against 16 at (4, 2), 9 against 286 at (4, 3), 4 against 23 at
    # (5, 2) and 4 against 23 at (5, 3)
    A0 = suite_flow_start(N, n, seed, 1e-2)
    _, r0 = asd_residual(curvature(A0))
    target = r0 ** 2 * 1e-7
    reference = plain_bb_flow(A0, 1e-3, 10_000, target)
    res = ym_flow(A0, step=1e-3, max_iters=10_000, reduction=1e-7)
    assert reference[-1] <= target and res.converged
    assert res.iterations <= len(reference) - 1
    assert all(b <= a for a, b in zip(res.history, res.history[1:]))


def difference_bb_flow(A0, step, max_iters, target):
    """Reference descent on |F+|^2 along -P g with the Barzilai-Borwein step
    in the metric of P^-1 from the difference arrays s = A - A_prev and
    y = g - g_prev, -a s^T g_prev / s^T y, kept if s^T y <= 0, halved on a
    rejected move: the step ``ym_flow`` reads off the scalars p and q."""
    N, n = A0.N, A0.n
    A, last = A0.A.data.copy(), None
    s2, plus = residual_sq(LatticeField(1, N, n, A))
    history = [s2]
    while len(history) <= max_iters and s2 > target:
        grad = moduli._flow_gradient(A, plus, N)
        if last is not None:
            s, y = A - last[0], grad - last[1]
            sty = np.vdot(s, y).real
            step = -step * np.vdot(s, last[1]).real / sty if sty > 0 else step
        direction = moduli._precondition(grad, N)
        for _ in range(60):
            trial = A - step * direction
            s2_new, plus_new = residual_sq(LatticeField(1, N, n, trial))
            if s2_new <= s2:
                last = (A, grad)
                A, s2, plus = trial, s2_new, plus_new
                break
            step *= 0.5
        history.append(s2)
    return history


@pytest.mark.parametrize("N, n, seed, iterations", [
    (4, 2, 314159, 5), (4, 3, 8, 5), (5, 2, 314159, 4), (6, 2, 3, 4), (8, 2, 0, 4), (8, 3, 0, 4)])
def test_flow_steps_from_two_scalars_as_from_the_difference_arrays(N, n, seed, iterations):
    # s.y = a (p - q) and s.g_prev = -a p in exact arithmetic; the two
    # round differently, and the BB trajectory grows that to at most 6e-13
    # relative on these starts
    A0 = suite_flow_start(N, n, seed, 1e-2)
    _, r0 = asd_residual(curvature(A0))
    target = r0 ** 2 * 1e-7
    reference = difference_bb_flow(A0, 1e-3, 10_000, target)
    res = ym_flow(A0, step=1e-3, max_iters=10_000, reduction=1e-7)
    assert res.converged and res.iterations == len(reference) - 1 == iterations
    assert np.allclose(res.history, reference, rtol=1e-9, atol=0.0)


def test_flow_peaks_at_most_eleven_real_one_forms():
    # the state, its F+ and the last P g between steps, a trial and its
    # curvature on top: 10.0 1-forms; keeping s, y and the last (A, g) pair
    # as well took 15.0
    A0 = suite_flow_start(8, 2, 0, 1e-2)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        ym_flow(A0, step=1e-3, max_iters=10_000, reduction=1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 11 * A0.A.data.nbytes


def test_a_rejected_trial_is_freed_before_the_next_one_is_built():
    # a first step of 100 is halved before a move is accepted; with each
    # rejected trial and its F+ alive through the next trial's curvature
    # the flow peaked at 11.5 real 1-forms, against 10.0 from a first step
    # of 1e-3 that it accepts
    A0 = suite_flow_start(8, 2, 0, 1e-2)
    ym_flow(A0, step=1e-3, max_iters=3, reduction=0.0)  # fills the caches at N = 8
    peaks = []
    for step in (100.0, 1e-3):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            ym_flow(A0, step=step, max_iters=3, reduction=0.0)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + 0.25 * A0.A.data.nbytes


def test_flow_from_the_rank_3_suite_start_at_seed_0_takes_at_most_60_steps():
    # the hard rank-3 start: the flow takes 9 steps here, the plain BB step
    # 286 (test_preconditioned_flow_takes_no_more_iterations_than_plain_bb
    # compares the two) and the fixed-growth step 6,423; the suite flows
    # from the same start and passes its flow checks
    A0 = suite_flow_start(4, 3, 0, 1e-2)
    res = ym_flow(A0, step=1e-3, max_iters=10_000, reduction=1e-7)
    assert res.converged and res.iterations <= 60
    assert all(b <= a for a, b in zip(res.history, res.history[1:]))
    checks = suites.moduli_suite(4, 3, 1e-10, seed=0, flow_eps=1e-2)
    flow = [c.status for c in checks if c.name.startswith("moduli.flow-")]
    assert flow == ["pass", "pass"]


def test_flow_from_the_rank_3_suite_start_at_seed_8_converges():
    # the fixed-growth and the plain BB step take 17 steps from this start,
    # the flow 5
    A0 = suite_flow_start(4, 3, 8, 1e-2)
    res = ym_flow(A0, step=1e-3, max_iters=10_000, reduction=1e-7)
    assert res.converged and res.iterations <= 60
    assert all(b <= a for a, b in zip(res.history, res.history[1:]))


def fft_weights(N):
    """Oracle: the flow's preconditioner weights c / (c + sum_mu kappa_mu^2)
    at the N^4 modes in FFT order, the Nyquist frequency of an even grid
    counted as 0."""
    kappa = frequencies(N).copy()
    if N % 2 == 0:
        kappa[N // 2] = 0.0
    k2 = kappa ** 2
    return moduli.FLOW_SHIFT / (moduli.FLOW_SHIFT + k2[:, None, None, None]
                                + k2[:, None, None] + k2[:, None] + k2)


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8, 16])
def test_flow_weights_are_a_symmetric_contraction(N):
    w = moduli._basis_weights(N)
    assert w.shape == (N,) * 4 and not w.flags.writeable
    assert moduli._basis_weights(N) is w
    assert np.all(w > 0) and np.all(w <= 1) and w[0, 0, 0, 0] == 1.0
    # the cos and sin rows of each k weigh as one: w(k) = w(-k)
    k = lattice.fourier_basis(N)[1]
    for axis in range(4):
        for row in range(1, N - 1, 2):
            assert k[row] == k[row + 1]
            assert np.array_equal(np.take(w, row, axis=axis), np.take(w, row + 1, axis=axis))
    if N % 2 == 0:
        # the Nyquist row counts as k = 0 on every axis
        assert k[-1] == N // 2
        for axis in range(4):
            assert np.array_equal(np.take(w, N - 1, axis=axis), np.take(w, 0, axis=axis))
    assert np.isclose(w[1, 0, 0, 0], moduli.FLOW_SHIFT / (moduli.FLOW_SHIFT + (2 * np.pi) ** 2))
    # the FFT-order weights at each row's mode, bit for bit
    assert np.array_equal(w, fft_weights(N)[np.ix_(k, k, k, k)])


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_preconditioner_maps_real_fields_to_real_fields_and_fixes_constants(N):
    # the real FFT pair against the complex multiplier on the full spectrum
    rng = np.random.default_rng(40 + N)
    grad = LatticeField.random(1, N, 2, rng).data
    got = moduli._precondition(grad, N)
    axes = (-4, -3, -2, -1)
    full = np.fft.ifftn(fft_weights(N) * np.fft.fftn(grad, axes=axes), axes=axes)
    assert np.isrealobj(got)
    assert np.abs(full.imag).max() <= 1e-15 * np.abs(grad).max()
    assert np.abs(got - full.real).max() <= 1e-13 * np.abs(grad).max()
    const = np.ones_like(grad) * grad[..., :1, :1, :1, :1]
    assert np.abs(moduli._precondition(const, N) - const).max() <= 1e-13 * np.abs(const).max()


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("n", [2, 3])
def test_preconditioner_is_the_complex_fft_multiplier(N, n):
    # the real basis products against the multiplier on the full spectrum
    rng = np.random.default_rng(60 + N + n)
    grad = LatticeField.random(1, N, n, rng).data
    axes = (-4, -3, -2, -1)
    full = np.fft.ifftn(fft_weights(N) * np.fft.fftn(grad, axes=axes), axes=axes)
    got = moduli._precondition(grad, N)
    assert got.dtype == np.float64
    assert np.abs(got - full.real).max() <= 1e-13 * np.abs(full.real).max()


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("n", [2, 3])
def test_preconditioner_buffers_round_as_eight_allocations(N, n):
    # the BB flow amplifies round-off about 1e4-fold, so the two reused
    # buffers must give the eight fresh products bit for bit; grad is kept
    rng = np.random.default_rng(70 + N + n)
    grad = LatticeField.random(1, N, n, rng).data
    kept = grad.copy()
    want = grad
    for mu in range(4):
        want = lattice._along_axis(want, mu, N, lattice._fourier_matrix, False)
    want = want * moduli._basis_weights(N)
    for mu in range(4):
        want = lattice._along_axis(want, mu, N, lattice._fourier_matrix, True)
    assert np.array_equal(moduli._precondition(grad, N), want)
    assert np.array_equal(grad, kept)


def test_flow_calls_no_fft(monkeypatch):
    # np.fft builds the cached constants (frequencies, D_N) once per N; the
    # flow's steps, the preconditioner among them, call none of it
    A0 = suite_flow_start(5, 2, 0, 1e-2)
    want = ym_flow(A0, step=1e-3, max_iters=10_000, reduction=1e-7)

    def refuse(*args, **kwargs):
        raise AssertionError("np.fft called on the flow path")

    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, refuse)
    got = ym_flow(A0, step=1e-3, max_iters=10_000, reduction=1e-7)
    assert got.converged and got.history == want.history


def test_preconditioner_rounds_the_same_on_one_and_two_blas_threads():
    code = ("import hashlib; import numpy as np; from hkt4.lattice import LatticeField; "
            "from hkt4.moduli import _precondition; "
            "rng = np.random.default_rng(0); "
            "print([hashlib.sha256(_precondition(LatticeField.random(1, N, 2, rng).data, N)"
            ".tobytes()).hexdigest() for N in (4, 8, 16)])")
    src = os.path.dirname(os.path.dirname(lattice.__file__))
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": src,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("N, n", [(4, 2), (4, 3), (5, 3)])
def test_suite_flows_from_one_draw_of_its_seed(N, n, monkeypatch):
    # the flow's start is the suite's one draw of normals: a flowing suite
    # calls standard_normal once, a suite without the flow never
    starts, draws = [], []

    def recorded(A0, **kwargs):
        starts.append(A0)
        return ym_flow(A0, **kwargs)

    class CountingGenerator(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            draws.append(args)
            return super().standard_normal(*args, **kwargs)

    monkeypatch.setattr(suites, "ym_flow", recorded)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: CountingGenerator(np.random.PCG64(seed)))
    suites.moduli_suite(N, n, 1e-10, seed=7)
    assert starts == draws == []
    suites.moduli_suite(N, n, 1e-10, seed=7, flow_eps=1e-2)
    (A0,) = starts
    assert len(draws) == 1
    monkeypatch.undo()
    want = suite_flow_start(N, n, 7, 1e-2).A.data
    assert A0.A.data.dtype == want.dtype and np.array_equal(A0.A.data, want)


@pytest.mark.parametrize("N", [4, 5])
def test_flow_gradient_is_the_gradient_of_the_functional_it_decreases(N):
    # d/dt |F+(A + t delta)|^2 at t = 0 against <g, delta> for real delta,
    # by a central difference; the gradient is real (su(n)) at every N
    rng = np.random.default_rng(50 + N)
    a = LatticeField.random(1, N, 2, rng, scale=0.3)

    def f(field):
        _, r = asd_residual(curvature(Connection(field)))
        return r * r

    plus, _ = asd_residual(curvature(Connection(a)))
    g = moduli._flow_gradient(a.data, plus.data, N)
    assert not np.any(g.imag)
    for _ in range(3):
        delta = LatticeField.random(1, N, 2, rng)
        t = 1e-5
        slope = (f(a + t * delta) - f(a - t * delta)) / (2 * t)
        assert slope == pytest.approx(l2_inner(LatticeField(1, N, 2, g), delta), rel=1e-7)


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("n", [2, 3])
def test_real_curvature_and_flow_gradient_are_the_real_part_of_the_complex_ones(N, n):
    # on float64 arrays deriv, curvature and the flow's gradient are the
    # real part of the same computation on complex copies (D_N, then the
    # su(n) part), bit for bit, and float64 themselves
    rng = np.random.default_rng(60 + 10 * N + n)
    a = LatticeField.random(1, N, n, rng, scale=0.3).data
    ac = a.astype(complex)
    for mu in range(4):
        got = lattice.deriv(a, mu, N)
        assert got.dtype == np.float64
        assert np.array_equal(got, lattice.deriv(ac, mu, N).real)
    F = curvature(Connection(LatticeField(1, N, n, a))).data
    Fc = d_raw(ac, 1, N)
    lattice.bracket(ac[moduli._MU], ac[moduli._NU], Fc)
    assert F.dtype == np.float64 and np.array_equal(F, Fc.real)
    plus = apply_components(sd_projector(), F)
    g = moduli._flow_gradient(a, plus, N)
    gc = 2.0 * d_adjoint(plus.astype(complex), 2, N, ac)
    assert g.dtype == np.float64 and np.array_equal(g, gc.real)


def test_connections_curvature_and_flow_are_float64():
    assert Connection.flat(4, 2).A.data.dtype == np.float64
    assert curvature(Connection.flat(4, 2)).data.dtype == np.float64
    A0 = suite_flow_start(4, 2, 0, 1e-2)
    assert A0.A.data.dtype == np.float64
    res = ym_flow(A0, step=1e-3, max_iters=3, reduction=0.0)
    assert res.iterations == 3 and res.connection.A.data.dtype == np.float64
    # a connection given as complex coordinates flows, and curves, as its
    # su(n) part
    Ac = Connection(LatticeField(1, 4, 2, A0.A.data.astype(complex)))
    assert np.array_equal(curvature(Ac).data, curvature(A0).data)
    resc = ym_flow(Ac, step=1e-3, max_iters=3, reduction=0.0)
    assert resc.connection.A.data.dtype == np.float64
    assert resc.history == res.history


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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_horizontal_slice_rejects_tol_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        horizontal_slice(Connection.flat(3, 2), FRAME.I, tol)


def diagonal_connection(N, t):
    """A = i diag(t, -t) dx0: its off-diagonal channels have the shift 2t."""
    return constant_connection(N, 2, [(0, np.diag([1j * t, -1j * t]))])


@pytest.mark.parametrize("t,dim", [(4e-11, 12), (6e-11, 4), (7e-11, 4), (8e-11, 4)])
def test_slice_near_a_resonance_follows_the_gauge_kernel_rule(t, dim):
    # at t = 6e-11 and 7e-11 the off-diagonal blocks at xi = 0 have singular
    # values 2t >= tol and 2t / sqrt 2 < tol: the per-mode SVD found a partial
    # kernel there and raised; the norm rule |xi + shift| < tol, the one
    # gauge_kernel_dim applies, puts each block on one side
    A, tol = diagonal_connection(5, t), 1e-10
    tb = horizontal_slice(A, FRAME.I, tol, frame=FRAME)
    assert tb.dimension == 4 * ruled_gauge_kernel_dim(A, tol) == dim
    # the gap is measured against tol: at 6e-11 to 8e-11 the least
    # non-kernel singular value 2t / sqrt 2 is at or within 13% of tol, so
    # there is no clear gap; at 4e-11 the kernel is clear of it
    assert tb.gap_ok == (t == 4e-11)
    assert tb.gap == pytest.approx(tb.min_nonkernel_sv / tol, rel=1e-14)
    # the least non-kernel block: the off-diagonal one at xi = 0 when it is
    # outside the kernel, else the one at xi = -2 pi e_0
    least = 2 * t if dim == 4 else 2 * np.pi - 2 * t
    assert tb.min_nonkernel_sv == pytest.approx(least / np.sqrt(2), rel=1e-14)
    if t in (6e-11, 7e-11):
        with pytest.raises(RuntimeError, match="unexpected slice kernel"):
            svd_mode_slice_basis(5, FRAME.I, tol, moduli._cartan_shifts(A))


def test_slice_elements_satisfy_equations():
    tb = horizontal_slice(Connection.flat(4, 2), FRAME.I, 1e-10, frame=FRAME)
    assert tb.residual(tb.basis).max() < 1e-13


def test_dense_oracle_matches_mode_kernel_n2(monkeypatch):
    # brute-force null space of the materialized operator
    monkeypatch.setattr(moduli, "MAX_DENSE_DIM", 4000)
    A = Connection.flat(3, 2)
    basis, min_sv, gap = _dense_slice_basis(A, FRAME.I, 1e-8)
    assert len(basis) == 12
    assert gap > 1e3
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    assert subspace_distance(tb.basis, basis) < 1e-6


def test_dense_oracle_matches_mode_kernel_n3(monkeypatch):
    monkeypatch.setattr(moduli, "MAX_DENSE_DIM", 4000)
    A = Connection.flat(3, 3)
    basis, _, gap = _dense_slice_basis(A, FRAME.I, 1e-8)
    assert len(basis) == 32
    assert gap > 1e3
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    assert subspace_distance(tb.basis, basis) < 1e-6


def test_dense_oracles_differentiate_complex_unit_fields(monkeypatch):
    # Re(D_N), the d of real arrays, has no Nyquist action, so real unit
    # fields at an even grid would put the Nyquist modes in the dense
    # kernels; the unit fields are complex, the slice oracle sees complex
    # chunks and the dense gauge kernel at 0.37 i sigma1 dx0 (no Cartan
    # connection) is its stabiliser, the line of i sigma1
    N = 4
    assert _unit_fields(0, N, 2).dtype == _unit_fields(1, N, 2).dtype == np.complex128
    t1 = pauli_su2()[0]
    A = constant_connection(N, 2, [(0, 0.37 * t1)])
    assert moduli._cartan_shifts(A) is None
    assert ruled_gauge_kernel_dim(A, 1e-10) == dense_gauge_kernel_dim(A, 1e-10) == 1
    flat_dim = 3  # the constants at A = 0
    real_units = _unit_fields(0, N, 2).real
    M = _real_matrix(d_raw(real_units, 0, N))
    s = np.linalg.svd(M, compute_uv=False)
    assert M.shape[1] - int(np.sum(s >= 1e-10 * s.max())) == 16 * flat_dim
    seen = []

    class Captured(Exception):
        pass

    def spy(conn, L):
        def op(a):
            seen.append(a.dtype)
            raise Captured
        return op

    monkeypatch.setattr(moduli, "slice_operator", spy)
    with pytest.raises(Captured):
        _dense_slice_basis(A, FRAME.I, 1e-10)
    assert seen == [np.complex128]


def test_dense_guard(monkeypatch):
    monkeypatch.setattr(moduli, "MAX_DENSE_DIM", 100)
    with pytest.raises(ValueError):
        _dense_slice_basis(Connection.flat(4, 3), FRAME.I, 1e-8)


def test_coulomb_identity_random_fields():
    rng = np.random.default_rng(41)
    for N in (3, 4):
        for _ in range(3):
            a = LatticeField.random(1, N, 2, rng)
            assert coulomb_identity_defect(a, FRAME.matrices()) < 1e-10


def composed_slice_operator(A, L):
    """Reference slice operator: P_sd d_A a and Lambda d^c_{L,A} a, each
    through its own differential."""
    Ac = None if not np.any(A.A.data) else A.A.data

    def op(a):
        plus = apply_components(sd_projector(), d_raw(a, 1, A.N, A=Ac))
        lam = apply_components(lambda_row(L)[None], dc_raw(L, a, 1, A.N, A=Ac))
        return np.concatenate([plus, lam], axis=-6)

    return op


def sample_connections(N, n, rng):
    """A = 0, 0.37 i sigma3 dx0 (padded with a zero eigenvalue at n = 3) and
    a random connection, which is not flat."""
    theta = [0.37, -0.37] + [0.0] * (n - 2)
    return [Connection.flat(N, n), cartan_connection(N, 0, theta),
            Connection(LatticeField.random(1, N, n, rng))]


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_fused_slice_operator_matches_composition(N, n):
    # one covariant gradient and one 7 x 16 matrix equal P_sd d_A (+) Lambda d^c_L
    rng = np.random.default_rng(50 + 10 * N + n)
    a = np.stack([LatticeField.random(1, N, n, rng).data for _ in range(3)])
    for A in sample_connections(N, n, rng):
        for L in FRAME.matrices():
            got = moduli.slice_operator(A, L)(a)
            ref = composed_slice_operator(A, L)(a)
            assert got.shape == ref.shape == (3, 7) + a.shape[2:]
            assert np.all(np.sqrt(sq_norm(got - ref)) <= 1e-13 * np.sqrt(sq_norm(a)))


def test_chunked_slice_residual_is_bit_identical_to_one_pass(monkeypatch):
    rng = np.random.default_rng(53)
    A = cartan_connection(3, 0, [0.37, -0.37])
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    stack = np.concatenate([tb.basis, [LatticeField.random(1, 3, 2, rng).data
                                       for _ in range(3)]])
    whole = np.sqrt(sq_norm(moduli.slice_operator(A, FRAME.I)(stack)))
    assert whole[:tb.dimension].max() < 1e-12 < whole[tb.dimension:].min()
    # chunks of 3 fields, the last one short, and one field per chunk
    for fields in (3, 1):
        monkeypatch.setattr(moduli, "GRID_CHUNK_BYTES", fields * 4 * stack[0].nbytes)
        assert np.array_equal(tb.residual(stack), whole)


@pytest.mark.parametrize("theta", [None, [np.pi, -np.pi]])
def test_streamed_basis_residual_is_the_residual_of_the_basis(theta, monkeypatch):
    # each chunk built from coeffs * phase gives the residual of the whole
    # grid basis, bit for bit, on the flat slice and on a Cartan slice
    # whose root pair has a non-trivial phase
    A = Connection.flat(4, 2) if theta is None else cartan_connection(4, 0, theta)
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    assert np.all(tb.phase == 1) == (theta is None)
    whole = tb.residual(tb.basis)
    for fields in (5, 1):
        monkeypatch.setattr(moduli, "GRID_CHUNK_BYTES", fields * 4 * tb.basis[0].nbytes)
        assert np.array_equal(tb.residual(tb.coeffs, tb.phase), whole)


def test_chunked_dense_matrix_is_bit_identical_to_one_pass(monkeypatch):
    # the dense oracle's matrix, written chunk by chunk, before its QR
    A = Connection(LatticeField.random(1, 3, 2, np.random.default_rng(54)))
    matrices = []

    class Captured(Exception):
        pass

    def spy(M, *args, **kwargs):
        matrices.append(np.array(M))
        raise Captured

    monkeypatch.setattr(np.linalg, "qr", spy)
    unit = _unit_fields(1, 3, 2)
    # 972 unit fields in chunks of 50 (complex fields on the grid), the last
    # one short
    monkeypatch.setattr(moduli, "GRID_CHUNK_BYTES", 50 * 4 * 16 * unit[0].size)
    monkeypatch.setattr(moduli, "MAX_DENSE_DIM", 4000)
    with pytest.raises(Captured):
        _dense_slice_basis(A, FRAME.J, 1e-10)
    (M,) = matrices
    # the QR sees the matrix without its zero rows: at odd N a real
    # connection maps real coordinates to real ones, so the imaginary half
    want = _real_matrix(moduli.slice_operator(A, FRAME.J)(unit))
    assert M.shape[0] == len(want) // 2 and not np.any(want[len(want) // 2:])
    assert np.array_equal(M, want[:len(want) // 2])


def test_stacked_coulomb_defect_is_the_per_field_maximum(monkeypatch):
    rng = np.random.default_rng(55)
    N, n = 4, 2
    fields = [LatticeField.random(1, N, n, rng) for _ in range(4)]
    stack = np.stack([f.data for f in fields])
    for A in sample_connections(N, n, rng):
        worst = []
        for L in FRAME.matrices():
            per_field = max(coulomb_identity_defect(f, [L], A) for f in fields)
            assert coulomb_identity_defect(stack, [L], A) == per_field < 1e-10
            worst.append(per_field)
        # one d*_A shared by the three structures: the worst of the three
        assert coulomb_identity_defect(stack, FRAME.matrices(), A) == max(worst)
        # in chunks of three fields, the last one short
        with monkeypatch.context() as m:
            m.setattr(moduli, "GRID_CHUNK_BYTES", 3 * 4 * stack[0].nbytes)
            assert coulomb_identity_defect(stack, FRAME.matrices(), A) == max(worst)


@pytest.mark.parametrize("N", [5, 8])
def test_coulomb_identity_is_exactly_zero_at_the_flat_connection(N):
    # d of the constant Hermitian forms is exactly 0 and both sides of the
    # identity come out bit-equal, so the reported defect is 0.0, as at N = 3
    # and 4
    (check,) = [c for c in suites.moduli_suite(N, 2, 1e-10)
                if c.name == "moduli.coulomb-identity"]
    assert check.defect == 0.0 and check.status == "pass"


def test_moduli_suite_certifies_the_coulomb_identity_off_the_grid(monkeypatch):
    # the check reads the constant row block: neither the grid oracle nor a
    # covariant gradient runs in a whole moduli request, flow included
    events = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            events.append(name)
            return real(*args, **kwargs)
        return wrapped

    for module in (moduli, lattice):
        monkeypatch.setattr(module, "covariant_gradient",
                            spy("gradient", lattice.covariant_gradient))
    oracle = spy("oracle", moduli.coulomb_identity_defect)
    monkeypatch.setattr(moduli, "coulomb_identity_defect", oracle)
    monkeypatch.setattr(suites, "coulomb_identity_defect", oracle, raising=False)
    checks = suites.moduli_suite(3, 2, 1e-10, flow_eps=1e-2)
    assert [c.status for c in checks] == ["pass"] * len(checks)
    assert events == []
    # the spies see the oracle and its gradient
    moduli.coulomb_identity_defect(LatticeField.random(1, 3, 2, np.random.default_rng(0)),
                                   FRAME.matrices())
    assert events == ["oracle", "gradient"]


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("flip", [False, True], ids=["dc", "flipped-dc"])
def test_coulomb_certificate_bounds_the_grid_oracle(N, flip, monkeypatch):
    # the sides differ by (row 0 - row i) . D_A a, so the oracle is at most
    # |row 0 - row i|_2 <= 4 x the certificate (its largest entry) times
    # |D_A a|, up to round-off, at A = 0 and at a random A
    rng = np.random.default_rng(90 + N)
    a = np.stack([LatticeField.random(1, N, 2, rng).data for _ in range(3)])
    slice_matrix.cache_clear()
    try:
        with monkeypatch.context() as m:
            if flip:
                m.setattr(lattice, "DC_SIGN", -lattice.DC_SIGN)
            rows = moduli._coulomb_rows(FRAME.matrices())
            cert = float(np.abs(rows[1:] - rows[0]).max())
            assert cert == (2.0 if flip else 0.0)
            for A in (Connection.flat(N, 2), Connection(LatticeField.random(1, N, 2, rng))):
                Ac = None if not np.any(A.A.data) else A.A.data
                grad = float(np.sqrt(sq_norm(covariant_gradient(a, N, Ac)).max()))
                oracle = coulomb_identity_defect(a, FRAME.matrices(), A)
                assert oracle <= (4 * cert + 1e-13) * grad
                assert (oracle > 1.0) == flip
    finally:
        slice_matrix.cache_clear()


def test_moduli_suite_fails_the_coulomb_identity_with_a_flipped_dc_sign(monkeypatch):
    slice_matrix.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(lattice, "DC_SIGN", -lattice.DC_SIGN)
            (check,) = [c for c in suites.moduli_suite(3, 2, 1e-10)
                        if c.name == "moduli.coulomb-identity"]
    finally:
        slice_matrix.cache_clear()
    assert check.status == "fail" and check.defect == 2.0


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_coulomb_rows_match_composition(N, n):
    # the row block on one covariant gradient equals d*_A a and, for each
    # structure, Lambda d^c_{L,A} a, each through its own differential
    rng = np.random.default_rng(60 + 10 * N + n)
    a = np.stack([LatticeField.random(1, N, n, rng).data for _ in range(2)])
    rows = moduli._coulomb_rows(FRAME.matrices())
    assert rows.shape == (4, 16)
    for A in sample_connections(N, n, rng):
        Ac = None if not np.any(A.A.data) else A.A.data
        sides = apply_components(rows, covariant_gradient(a, N, Ac))
        refs = [d_adjoint(a, 1, N, A=Ac)] + [
            apply_components(lambda_row(L)[None], dc_raw(L, a, 1, N, A=Ac))
            for L in FRAME.matrices()]
        for i, ref in enumerate(refs):
            got = sides[:, i:i + 1]
            assert np.all(np.sqrt(sq_norm(got - ref)) <= 1e-12 * np.sqrt(sq_norm(ref)))


@pytest.mark.parametrize("N", [3, 4])
def test_coulomb_defect_sees_a_flipped_dc_sign(N, monkeypatch):
    # with d^c_L of the wrong sign the two sides are d*_A a and -d*_A a, so
    # the defect is 2 |d*_A a|: the check is not vacuous
    rng = np.random.default_rng(70 + N)
    a = LatticeField.random(1, N, 2, rng)
    conns = [Connection.flat(N, 2), Connection(LatticeField.random(1, N, 2, rng))]
    slice_matrix.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(lattice, "DC_SIGN", -lattice.DC_SIGN)
            for A in conns:
                Ac = None if not np.any(A.A.data) else A.A.data
                want = 2 * float(np.sqrt(sq_norm(d_adjoint(a.data, 1, N, A=Ac))))
                got = coulomb_identity_defect(a, FRAME.matrices(), A)
                assert want > 1.0
                assert abs(got - want) <= 1e-12 * want
    finally:
        slice_matrix.cache_clear()
    assert coulomb_identity_defect(a, FRAME.matrices(), conns[1]) < 1e-10


def test_coulomb_identity_rejects_forms_of_other_degrees():
    rng = np.random.default_rng(80)
    for degree in (0, 2, 3):
        with pytest.raises(ValueError, match=f"degree-{degree}"):
            coulomb_identity_defect(LatticeField.random(degree, 3, 2, rng), FRAME.matrices())
    two_forms = LatticeField.random(2, 3, 2, rng).data[None]
    with pytest.raises(ValueError, match="6 components"):
        coulomb_identity_defect(two_forms, FRAME.matrices())


@pytest.mark.parametrize("N", [4, 5])
@pytest.mark.parametrize("theta", [None, [0.37, -0.37], [np.pi, -np.pi]],
                         ids=["flat", "cartan", "cartan-pi"])
def test_slices_of_the_three_structures_share_their_phase(N, theta):
    # verify_moduli_structure takes the J and K slices to be I's, whose
    # coefficients stand for the fields under one phase; at theta = pi the
    # off-diagonal entries vanish at a mode xi != 0
    A = Connection.flat(N, 2) if theta is None else cartan_connection(N, 0, theta)
    phase_I = horizontal_slice(A, FRAME.I, 1e-10).phase
    assert np.all(phase_I == 1) == (theta is None or theta[0] < 1)
    for L in (FRAME.J, FRAME.K):
        assert np.array_equal(horizontal_slice(A, L, 1e-10).phase, phase_I)


def test_moduli_suite_reads_the_curvature_the_slice_guard_computed(monkeypatch):
    # the slice guard computes |F| and |F+| once, at one site per mode, and
    # moduli.flat-curvature reads that |F|; the grid curvature is its oracle
    calls, real = [], moduli._curvature_norms

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(moduli, "_curvature_norms", spy)
    checks = suites.moduli_suite(3, 2, 1e-10)
    assert len(calls) == 1 and calls[0][1] is not None
    (flat,) = [c for c in checks if c.name == "moduli.flat-curvature"]
    assert (flat.status, flat.defect) == ("pass", "exact-zero")
    tb = horizontal_slice(cartan_connection(3, 0, [0.37, -0.37]), FRAME.I, 1e-10)
    assert len(calls) == 2 and tb.curvature_norm < 1e-15
    assert abs(tb.curvature_norm - curvature(tb.base).norm()) < 1e-14


@pytest.mark.parametrize("N, n, flow", [(4, 2, None), (4, 2, 1e-2), (4, 3, None)])
def test_moduli_suite_computes_the_slice_rule_once(N, n, flow, monkeypatch):
    # the I, J and K cuts, the stabiliser count and the slice defects read
    # the one per-mode rule horizontal_slice stores
    calls = []
    for name in ("_cartan_shifts", "_mode_kernel"):
        def spy(*args, _name=name, _real=getattr(moduli, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(moduli, name, spy)
    checks = suites.moduli_suite(N, n, 1e-10, flow_eps=flow)
    assert all(c.status == "pass" for c in checks)
    assert sorted(calls) == ["_cartan_shifts", "_mode_kernel"]


def test_gauge_orthogonality_of_slice():
    rng = np.random.default_rng(43)
    A = Connection.flat(4, 2)
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    for _ in range(5):
        xi = LatticeField.random(0, 4, 2, rng)
        v = d_raw(xi.data, 0, 4, A=A.A.data)
        assert np.abs(l2_gram(tb.basis, v[None])).max() < 1e-12


def test_induced_structure_examples():
    N, n = 3, 2
    g = su_basis(2)[1]
    arr = np.zeros((N, N, N, N, n, n), dtype=complex)
    arr[...] = g
    a = LatticeField(1, N, n, {(0,): arr})
    ia = induced_structure(FRAME.I, a)
    # I~(dx0 x g) = -I(dx0) x g = +dx1 x g under the ledger sign
    assert np.allclose(ia.data[1], a.data[0])
    assert np.max(np.abs(ia.data[[0, 2, 3]])) < 1e-15
    # involution and realness: real coordinates stay real, su(n) stays su(n)
    rng = np.random.default_rng(51)
    b = LatticeField.random(1, N, n, rng)
    ib = induced_structure(FRAME.J, b)
    assert np.max(np.abs(ib.data.imag)) < 1e-12
    assert (induced_structure(FRAME.J, ib) + b).norm() < 1e-12


def form_to_vector(form, degree):
    """Oracle: the components of a constant exact form, each coefficient's
    derived numerator over phi^k read as one Gaussian rational; real if
    every imaginary part is exactly 0."""
    out = np.zeros(len(TUPLES[degree]), dtype=complex)
    for i, t in enumerate(TUPLES[degree]):
        f = form.coeffs.get(t)
        if f is not None:
            num = f.num
            if f.k != 0 or any(num.terms):
                raise ValueError("expected a constant-coefficient form")
            a, b = num.terms.get(0, (0, 0))
            out[i] = complex(QI(Fraction(a, num.den), Fraction(b, num.den)))
    return out if out.imag.any() else out.real.copy()


def constant_op_matrix(op, degree_in, degree_out):
    """Oracle: a constant operator on exact forms as the matrix whose
    columns are its images of the basis forms."""
    return np.stack([form_to_vector(op(RationalForm.basis(t)), degree_out)
                     for t in TUPLES[degree_in]], axis=1)


def pq_induced_matrix(L):
    """Oracle: the ledger's sqrt(-1)(a^{0,1} - a^{1,0}) as a complex matrix
    on 1-form components, from the exact (p,q) projectors."""
    def pq(p, q):
        return constant_op_matrix(lambda f: pq_project(L, f, p, q), 1, 1)

    return 1j * (pq(0, 1) - pq(1, 0))


def both_frame_structures():
    """The six frame structures and twelve on seeded rational axes, left and
    right: entries that are not dyadic test the rounding."""
    rng = random.Random(59)
    axes = [suites.random_rational_axis(rng) for _ in range(6)]
    return (FRAME.matrices() + HypercomplexFrame.right().matrices()
            + tuple(structure_matrix(side, axis) for side in ("left", "right") for axis in axes))


def test_constant_matrices_are_the_images_of_the_basis_forms():
    # read off the exact column tables, bit for bit and in the same dtype
    euclid = ConstantMetric.euclidean()
    for degree in range(5):
        want = constant_op_matrix(lambda f: hodge_star(euclid, f), degree, 4 - degree)
        got = lattice.star_matrix(degree)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        for L in both_frame_structures():
            want = constant_op_matrix(lambda f: structure_action(L, f), degree, degree)
            got = action_matrix(L, degree)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_hermitian_form_vector_is_the_exact_form():
    for L in both_frame_structures():
        want = form_to_vector(hermitian_form(ConstantMetric.euclidean(), L), 2)
        got = hermitian_form_vector(L)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_induced_structure_matches_coordinate_formula():
    # the (p,q) definition sqrt(-1)(a^{0,1} - a^{1,0}) is -L(a) exactly, on
    # the six frame structures and on rational axes; induced_structure
    # applies -L(a)
    structures = FRAME.matrices() + HypercomplexFrame.right().matrices()
    rng = random.Random(53)
    for _ in range(20):
        axis = suites.random_rational_axis(rng)
        structures += tuple(structure_matrix(side, axis) for side in ("left", "right"))
    for L in structures:
        oracle = pq_induced_matrix(L)
        assert np.iscomplexobj(oracle)
        assert np.array_equal(oracle, -action_matrix(L, 1))
    nrng = np.random.default_rng(53)
    for N in (3, 4):
        a = LatticeField.random(1, N, 2, nrng)
        for L in FRAME.matrices():
            got = induced_structure(L, a)
            want = apply_components(pq_induced_matrix(L), a.data)
            assert np.max(np.abs(got.data - want)) < 1e-12


def test_verify_moduli_structure_passes():
    tb = horizontal_slice(Connection.flat(4, 2), FRAME.I, 1e-10, frame=FRAME)
    checks = verify_moduli_structure(tb)
    assert tb.dimension == 12 and all(c.status == "pass" for c in checks)
    assert max(defects(checks, "moduli.structure.").values()) < 1e-12
    assert max(defects(checks, "moduli.metric-invariance.").values()) < 1e-12


def spy_on(monkeypatch, name, arg):
    """Replace ``moduli.<name>`` by a wrapper that records the positional
    argument ``arg`` of each call; return the list."""
    seen, real = [], getattr(moduli, name)

    def spy(*args):
        seen.append(args[arg])
        return real(*args)

    monkeypatch.setattr(moduli, name, spy)
    return seen


def spy_on_cuts(monkeypatch):
    """Spy on the symbol certificates, the dense cuts and the subspace
    distances of ``moduli``; return the three lists, each by structure (the
    distances by their first basis)."""
    return (spy_on(monkeypatch, "_certify_symbol", 0),
            spy_on(monkeypatch, "_dense_slice_basis", 1),
            spy_on(monkeypatch, "subspace_distance", 0))


def test_verify_moduli_structure_cuts_by_the_frame_of_the_slice(monkeypatch):
    # per mode a slice is cut by its own frame's J and K, next to its induced
    # operators (a right-frame slice not by the left frame's), at A = 0 and at
    # a constant Cartan connection: each symbol is certified, so each cut is
    # the slice itself, neither cut again nor measured
    frames = [FRAME, FRAME, HypercomplexFrame.right(), HypercomplexFrame.right()]
    bases = [Connection.flat(4, 2), cartan_connection(4, 0, [0.37, -0.37])] * 2
    slices = [horizontal_slice(A, frame.I, 1e-10, frame=frame) for A, frame in zip(bases, frames)]
    certified, cuts, distances = spy_on_cuts(monkeypatch)
    checks = [verify_moduli_structure(tb) for tb in slices]
    assert certified == [L for frame in frames for L in (frame.J, frame.K)]
    assert cuts == [] and distances == []
    assert [tb.dimension for tb in slices] == [12, 4, 12, 4]
    assert all(structure_holds(c) for c in checks)


def test_a_slice_cut_by_an_axis_structure_certifies_j_and_k(monkeypatch):
    # the operator of a rational-axis structure differs from J's and K's in
    # the last bits, but per mode every certified symbol has the one kernel
    # of the slice's rule, so verify certifies J and K and cuts neither
    L = FRAME.span_structure((Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)))
    assert not any(np.array_equal(slice_matrix(L), slice_matrix(M)) for M in FRAME.matrices())
    A = cartan_connection(4, 2, [0.3, 0.5, -0.8])
    tb = horizontal_slice(A, L, 1e-10, frame=FRAME)
    certified, cuts, distances = spy_on_cuts(monkeypatch)
    checks = verify_moduli_structure(tb)
    assert certified == [FRAME.J, FRAME.K]
    assert cuts == [] and distances == []
    assert tb.dimension == 8 and all(c.status == "pass" for c in checks)


def test_a_dense_slice_cut_by_an_axis_structure_is_cut_again_by_j_and_k(monkeypatch):
    # off the per-mode path J's and K's operators differ from a rational-axis
    # structure's, so each is cut by a dense null space and measured
    L = FRAME.span_structure((Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)))
    A = constant_connection(3, 2, [(0, 0.37 * pauli_su2()[0])])
    tb = horizontal_slice(A, L, 1e-10, frame=FRAME)
    assert tb.rule is None
    certified, cuts, distances = spy_on_cuts(monkeypatch)
    checks = verify_moduli_structure(tb)
    assert certified == [] and cuts == [FRAME.J, FRAME.K]
    assert len(distances) == 2 and all(d is tb.coeffs for d in distances)
    (same,) = [c for c in checks if c.name == "moduli.slice-same-for-IJK"]
    assert same.defect < 1e-12
    assert tb.dimension == 4 and all(c.status == "pass" for c in checks)


def test_verify_moduli_structure_at_cartan_connection():
    # a flat connection with non-central holonomy: the stabiliser is the
    # Cartan line, so the slice is 4-dimensional, not 4 (n^2 - 1)
    _, _, t3 = pauli_su2()
    A = constant_connection(3, 2, [(0, 0.37 * t3)])
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    checks = verify_moduli_structure(tb)
    assert tb.dimension == 4 and all(c.status == "pass" for c in checks)


def ruled_gauge_kernel_dim(A, tol):
    """``gauge_kernel_dim`` with A's own ``_mode_rule``."""
    return gauge_kernel_dim(A, tol, moduli._mode_rule(A, tol))


def test_gauge_kernel_dim():
    _, _, t3 = pauli_su2()
    assert ruled_gauge_kernel_dim(Connection.flat(3, 2), 1e-10) == 3
    assert ruled_gauge_kernel_dim(Connection.flat(3, 3), 1e-10) == 8
    # holonomy exp(pi i sigma3) = -1 is central: the whole of su(2) is fixed
    A = constant_connection(3, 2, [(0, np.pi * t3)])
    assert ruled_gauge_kernel_dim(A, 1e-10) == 3


def cartan_connection(N, mu, theta):
    """theta: the eigenvalues theta_j of A_mu = i diag(theta) dx_mu."""
    return constant_connection(N, len(theta), [(mu, np.diag(1j * np.asarray(theta)))])


def dense_gauge_kernel_dim(A, tol):
    # oracle: the real matrix of d_A on su(n)-valued 0-forms and its SVD
    M = _real_matrix(d_raw(_unit_fields(0, A.N, A.n), 0, A.N, A=A.A.data))
    s = np.linalg.svd(M, compute_uv=False)
    return M.shape[1] - int(np.sum(s >= tol * max(1.0, s.max())))


# (mu, theta, slice dimension 4 dim(stabiliser)) at N = 3
CARTAN_CASES = [
    # generic holonomy: the stabiliser is the maximal torus, 4 (n - 1)
    (0, [0.37, -0.37], 4),
    (2, [0.3, 0.5, -0.8], 8),
    # central holonomy -1 and exp(2 pi i / 3): all of su(n), 4 (n^2 - 1)
    (0, [np.pi, -np.pi], 12),
    (3, [2 * np.pi / 3, 2 * np.pi / 3, -4 * np.pi / 3], 32),
    # two equal eigenvalues: s(u(2) + u(1)), of dimension 4
    (1, [0.5, 0.5, -1.0], 16),
]


@pytest.mark.parametrize("mu,theta,dim", CARTAN_CASES)
def test_slice_dimension_is_four_times_stabiliser(mu, theta, dim):
    A = cartan_connection(3, mu, theta)
    assert ruled_gauge_kernel_dim(A, 1e-10) == dense_gauge_kernel_dim(A, 1e-10) == dim // 4
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    assert tb.dimension == dim and tb.gap_ok
    assert np.abs(tb.gram - np.eye(dim)).max() < 1e-12
    assert tb.residual(tb.basis).max() < 1e-12
    assert all(c.status == "pass" for c in verify_moduli_structure(tb))


@pytest.mark.parametrize("mu,theta", [
    (0, [0.37, -0.37]), (0, [np.pi, -np.pi]), (1, [0.5, 0.5, -1.0])])
def test_cartan_slice_matches_dense_oracle(mu, theta, monkeypatch):
    A = cartan_connection(3, mu, theta)
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    # keep the singular values of the dense path's one SVD, of the R factor
    # of its (14 N^4 m) x (4 N^4 m) matrix, instead of building it again
    dense_svds, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        dense_svds.append(out[1])
        return out

    monkeypatch.setattr(moduli, "MAX_DENSE_DIM", 4000)
    monkeypatch.setattr(np.linalg, "svd", spy)
    basis, _, _ = _dense_slice_basis(A, FRAME.I, 1e-10)
    monkeypatch.undo()
    assert len(basis) == tb.dimension
    assert subspace_distance(tb.basis, basis) < 1e-6
    # the shift rule: entry (j, k) at the mode xi has the symbol at
    # xi + theta_j - theta_k; the n - 1 Cartan directions have shift 0
    n = len(theta)
    shifts = [np.eye(4)[mu] * (theta[j] - theta[k])
              for j in range(n) for k in range(n) if j != k]
    shifts += [np.zeros(4)] * (n - 1)
    f = frequencies(3)
    xi = np.stack(np.meshgrid(f, f, f, f, indexing="ij"), axis=-1).reshape(-1, 4)
    per_mode = np.sort(np.concatenate(
        [np.linalg.svd(_mode_symbol(FRAME.I, xi + a), compute_uv=False).ravel()
         for a in shifts]))
    (dense,) = dense_svds
    assert dense.shape == per_mode.shape == (4 * 3 ** 4 * (n * n - 1),)
    dense = np.sort(dense)
    assert np.abs(per_mode - dense).max() < 1e-12 * dense.max()


ORACLE_CONNECTIONS = {
    "flat": lambda N: Connection.flat(N, 2),
    "generic": lambda N: cartan_connection(N, 0, [0.37, -0.37]),
    "central": lambda N: cartan_connection(N, 0, [np.pi, -np.pi]),
    "resonant": lambda N: cartan_connection(N, 1, [0.5, 0.5, -1.0]),
    "near-4e-11": lambda N: diagonal_connection(N, 4e-11),
    "near-8e-11": lambda N: diagonal_connection(N, 8e-11),
}


@pytest.mark.parametrize("N", [3, 4, 5, 8])
@pytest.mark.parametrize("name", list(ORACLE_CONNECTIONS))
def test_mode_slice_basis_matches_the_per_mode_svd(N, name):
    A = ORACLE_CONNECTIONS[name](N)
    # the three cuts at N <= 5, one of them, in turn, at N = 8
    turn = list(ORACLE_CONNECTIONS).index(name) % 3
    cuts = FRAME.matrices() if N < 8 else FRAME.matrices()[turn:turn + 1]
    for L in cuts:
        tb = horizontal_slice(A, L, 1e-10)
        coeffs, phase, min_sv, gap = tb.coeffs, tb.phase, tb.min_nonkernel_sv, tb.gap
        want = svd_mode_slice_basis(N, L, 1e-10, moduli._cartan_shifts(A))
        assert np.array_equal(coeffs, want[0]) and np.array_equal(phase, want[1])
        assert abs(min_sv - want[2]) <= 1e-14 * want[2]
        assert abs(gap - want[3]) <= 1e-14 * want[3]
        # against tol, only the near-resonant 8e-11 has no clear gap
        assert (gap > moduli.GAP_THRESHOLD) == (name != "near-8e-11")


@pytest.mark.parametrize("N", [3, 4, 5, 8])
@pytest.mark.parametrize("name", ["flat", "generic", "central", "resonant"])
def test_slice_defects_match_the_grid_residual(N, name):
    # one gradient of the phase and its R factors give the slice-equation
    # defects of the grid basis
    A = ORACLE_CONNECTIONS[name](N)
    for L in FRAME.matrices():
        tb = horizontal_slice(A, L, 1e-10, frame=FRAME)
        got, want = tb.slice_defects(), tb.residual(tb.basis)
        assert got.shape == want.shape == (tb.dimension,)
        assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("name", ["generic", "resonant"])
def test_slice_defects_of_non_kernel_coefficients_match_the_residual(name):
    # constants off the kernel: the off-diagonal entries of the generic and
    # of the resonant connection have a shift and so a non-zero gradient
    rng = np.random.default_rng(55)
    for N in (4, 5):
        tb = horizontal_slice(ORACLE_CONNECTIONS[name](N), FRAME.K, 1e-10, frame=FRAME)
        coeffs = rng.standard_normal(tb.coeffs.shape) + 1j * rng.standard_normal(tb.coeffs.shape)
        tb = dataclasses.replace(tb, coeffs=coeffs)
        got, want = tb.slice_defects(), tb.residual(coeffs, tb.phase)
        assert 0.1 < want.min() and want.max() < 100
        assert np.abs(got - want).max() <= 1e-12 * want.max()


def test_slice_defects_round_the_same_on_one_and_two_blas_threads():
    # the defects at N = 5, 8 and 16 sum over each entry's axis lines and
    # apply deriv's N x N matrix to them; a BLAS thread count changes none
    code = ("from hkt4.moduli import Connection, horizontal_slice; "
            "from hkt4.quaternions import HypercomplexFrame; "
            "print([repr(horizontal_slice(Connection.flat(N, 2), HypercomplexFrame.left().I, "
            "1e-10).slice_defects().tolist()) for N in (5, 8, 16)])")
    src = os.path.dirname(os.path.dirname(moduli.__file__))
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": src,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1]


def test_slice_defects_see_a_scaled_spectral_derivative(monkeypatch):
    # the one-axis defects still apply deriv's matrix: at central holonomy
    # D_N p = i xi p with |xi| = 2 pi cancels the shift, and D_N x 1.001
    # leaves 2 pi / 1000 on the grid and on the lines alike
    tb = horizontal_slice(cartan_connection(4, 0, [np.pi, -np.pi]), FRAME.I, 1e-10,
                          frame=FRAME)
    flat = horizontal_slice(Connection.flat(4, 2), FRAME.I, 1e-10, frame=FRAME)
    D = lattice._diff_matrix

    def scaled(N, after=0, real=False):
        # from the unscaled D_N alone, so that no cached matrix is scaled
        M = D(N) * 1.001
        M = M.real if real else M
        return np.kron(M.T, np.eye(after)) if after else M

    monkeypatch.setattr(lattice, "_diff_matrix", scaled)
    got, want = tb.slice_defects().max(), tb.residual(tb.basis).max()
    assert abs(got - 2e-3 * np.pi) < 1e-15 and abs(want - 2e-3 * np.pi) < 1e-15
    checks = {c.name: c for c in verify_moduli_structure(tb)}
    assert checks["moduli.slice-equations"].status == "fail"
    # at A = 0 the check is structural: every phase line is constant, and
    # each row of D_4 (entries pi and i pi in pairs of opposite sign) maps
    # it to exactly 0 at any scale, so the per-mode defects read 0.0 and the
    # grid oracle, on the basis constants, round-off
    assert flat.slice_defects().max() == 0.0
    assert flat.residual(flat.basis).max() < 1e-14
    checks = {c.name: c for c in verify_moduli_structure(flat)}
    assert checks["moduli.slice-equations"].status == "pass"


def test_the_mode_slice_holds_no_grid_array():
    # the rule keeps each entry's mode, and the slice checks build neither
    # the phase nor the grid basis
    tb = horizontal_slice(Connection.flat(8, 3), FRAME.I, 1e-10, frame=FRAME)
    verify_moduli_structure(tb)
    assert "phase" not in vars(tb) and "basis" not in vars(tb)
    assert tb.rule.modes.shape == (3, 3, 4)
    assert max(np.size(v) for v in vars(tb.rule).values()) < 8 ** 4
    # one-axis lines: the defects at (16, 3) take no N^4 array
    tb = horizontal_slice(Connection.flat(16, 3), FRAME.I, 1e-10, frame=FRAME)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tb.slice_defects()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 2 ** 20


def test_the_mode_slice_runs_no_svd(monkeypatch):
    def svd(*args, **kwargs):
        raise AssertionError("an SVD on the per-mode path")

    monkeypatch.setattr(np.linalg, "svd", svd)
    tb = horizontal_slice(cartan_connection(4, 0, [np.pi, -np.pi]), FRAME.J, 1e-10)
    assert tb.dimension == 12


def test_the_mode_table_is_one_shared_read_only_array():
    xi = moduli._modes(4)
    assert moduli._modes(4) is xi and not xi.flags.writeable
    assert np.array_equal(xi, mode_table(4))


def unique_mode_kernel(N, shifts, tol):
    """Oracle: the norms, vanish mask and stabiliser of every channel, the
    distinct shifts grouped by np.unique."""
    alpha, channel = np.unique(shifts.reshape(-1, 4), axis=0, return_inverse=True)
    norms = np.linalg.norm(mode_table(N) + alpha[:, None], axis=-1)
    norms = norms[channel.reshape(shifts.shape[:2])]
    vanish, gens = norms < tol, su_basis(len(shifts))
    return norms, vanish, np.all(vanish.any(axis=-1) | (gens == 0), axis=(-2, -1))


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("tol", [1e-10, 2.0])
def test_mode_kernel_groups_the_shifts_as_unique_does(N, tol):
    # repeated rows (equal eigenvalue gaps, a central holonomy) and a -0.0
    # that np.unique groups with 0.0; each channel reads its group's row
    cases = [moduli._cartan_shifts(cartan_connection(N, 1, [0.5, 0.0, -0.5])),
             moduli._cartan_shifts(cartan_connection(N, 0, [np.pi, -np.pi])),
             moduli._cartan_shifts(Connection.flat(N, 3))]
    signed = cases[0].copy()
    signed[0, 0, :2] = signed[1, 1, 2:] = -0.0
    signed[2, 0, 3] = -0.0
    for shifts in cases + [signed]:
        norms, vanish, channel, stabiliser = moduli._mode_kernel(N, shifts, tol)
        want_norms, want_vanish, want_stabiliser = unique_mode_kernel(N, shifts, tol)
        assert len(norms) == len(np.unique(shifts.reshape(-1, 4), axis=0))
        assert np.array_equal(norms[channel], want_norms)
        assert np.array_equal(vanish[channel], want_vanish)
        assert np.array_equal(stabiliser, want_stabiliser)


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("n", [2, 3])
def test_one_site_curvature_is_exactly_zero_at_a_flat_connection(N, n):
    A = Connection.flat(N, n)
    assert moduli._curvature_norms(A, moduli._mode_rule(A, 1e-10)) == (0.0, 0.0)
    F = curvature(A)
    assert (F.norm(), asd_residual(F)[1]) == (0.0, 0.0)


@pytest.mark.parametrize("N", [3, 4, 5, 8, 16])
@pytest.mark.parametrize("theta", [[0.37, -0.37], [np.pi, -np.pi], [0.37, 1.1, -1.47]])
@pytest.mark.parametrize("axes", [(0,), (1, 3), (0, 1, 2, 3)])
def test_one_site_curvature_matches_the_grid(N, theta, axes):
    # a constant Cartan connection's d sums one row of D_N per site, so the
    # one-site norms and the grid's agree to round-off
    A = constant_connection(N, len(theta), [(mu, np.diag(1j * np.asarray(theta))) for mu in axes])
    got = moduli._curvature_norms(A, moduli._mode_rule(A, 1e-10))
    F = curvature(A)
    want = F.norm(), asd_residual(F)[1]
    assert np.abs(np.subtract(got, want)).max() < 1e-14


def test_the_slice_guard_builds_no_grid_curvature_per_mode(monkeypatch):
    # at (16, 3) one 2-form is 25 MiB; the per-mode guard reads one site
    A = Connection.flat(16, 3)
    horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)  # the shared caches

    def refuse(*args, **kwargs):
        raise AssertionError("a grid curvature or a np.unique on the per-mode path")

    for name in ("curvature", "asd_residual"):
        monkeypatch.setattr(moduli, name, refuse)
    monkeypatch.setattr(np, "unique", refuse)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tb.curvature_norm == 0.0 and tb.dimension == 4 * 8
    assert peak - held < 4 * 2 ** 20


def test_rational_axis_structures_pass_the_symbol_certificate():
    # every orthogonal complex structure, left or right, satisfies the
    # identity; on a rational axis it holds up to round-off
    rng = random.Random(5)
    axes = [suites.random_rational_axis(rng) for _ in range(6)]
    structures = [structure_matrix(side, axis) for side in ("left", "right") for axis in axes]
    for L in structures + list(FRAME.matrices()) + list(HypercomplexFrame.right().matrices()):
        moduli._certify_symbol(L)
        # the certified symbols are the oracle's at the unit vectors
        S = 1j * slice_matrix(L).reshape(7, 4, 4).swapaxes(0, 1)
        assert np.abs(S - _mode_symbol(L, np.eye(4))).max() < 1e-15
    A = cartan_connection(4, 2, [0.3, 0.5, -0.8])
    for L in structures[::5]:
        tb = horizontal_slice(A, L, 1e-10)
        coeffs, phase, min_sv = tb.coeffs, tb.phase, tb.min_nonkernel_sv
        want = svd_mode_slice_basis(4, L, 1e-10, moduli._cartan_shifts(A))
        assert len(coeffs) == 8 and np.array_equal(coeffs, want[0])
        assert np.array_equal(phase, want[1])
        assert abs(min_sv - want[2]) <= 1e-14 * want[2]


def test_a_slice_symbol_breaking_the_identity_raises(monkeypatch):
    # every structure the lattice accepts satisfies the identity, so break
    # the operator: doubling the Lambda row adds 3 xi xi^T to sigma^H sigma,
    # and no SVD falls back
    real = moduli.slice_matrix
    monkeypatch.setattr(moduli, "slice_matrix",
                        lambda L: real(L) * np.r_[np.ones(6), 2.0][:, None])
    moduli._certify_symbol.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="slice symbol"):
            horizontal_slice(Connection.flat(3, 2), FRAME.I, 1e-10)
    finally:
        moduli._certify_symbol.cache_clear()


@pytest.fixture(scope="module")
def dense_path():
    """The slice at 0.37 i sigma1 dx0, N = 3 (constant and flat but not
    diagonal, so with no per-mode rule) and its checks, built once as they
    take seconds; ``calls`` lists every dense null space, by its structure,
    and every ``_mode_rule`` call, each with its stage, "build" or "verify"."""
    calls, stage = [], ["build"]
    real_dense, real_rule = moduli._dense_slice_basis, moduli._mode_rule

    def dense(*args):
        calls.append((stage[0], args[1]))
        return real_dense(*args)

    def rule(*args):
        calls.append((stage[0], "_mode_rule"))
        return real_rule(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moduli, "_dense_slice_basis", dense)
        mp.setattr(moduli, "_mode_rule", rule)
        tb = horizontal_slice(constant_connection(3, 2, [(0, 0.37 * pauli_su2()[0])]),
                              FRAME.I, 1e-10, frame=FRAME)
        stage[0] = "verify"
        checks = verify_moduli_structure(tb)
    return tb, checks, calls


def test_commuting_non_diagonal_connection_takes_dense_path(dense_path, monkeypatch):
    tb, checks, calls = dense_path
    assert tb.dimension == 4 and tb.gap_ok
    # with no phase, the slice defects are the grid residual of the basis
    assert tb.phase.ndim == 0 and tb.rule is None
    assert np.array_equal(tb.slice_defects(), tb.residual(tb.coeffs))
    # the build decides the rule once and takes one dense null space; J and
    # K have I's operator, so the checks cut neither again and decide no rule
    assert calls == [("build", "_mode_rule"), ("build", FRAME.I)]
    assert all(c.status == "pass" for c in checks)
    # the same holonomy in diagonal form is certified per mode
    diagonal = []
    monkeypatch.setattr(moduli, "_dense_slice_basis", lambda *args: diagonal.append(args))
    horizontal_slice(cartan_connection(3, 0, [0.37, -0.37]), FRAME.I, 1e-10)
    assert diagonal == []


def test_verify_moduli_structure_names_its_checks_in_report_order(dense_path):
    # the same names in the same order on the flat, the constant Cartan and
    # the dense path
    runs = []
    for A, dim in ((Connection.flat(4, 2), 12),
                   (constant_connection(4, 2, [(0, 0.37 * pauli_su2()[2])]), 4)):
        tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
        assert tb.dimension == dim and tb.rule is not None
        runs.append(verify_moduli_structure(tb))
    runs.append(dense_path[1])
    for checks in runs:
        assert [c.name for c in checks] == SLICE_CHECKS
        assert all(c.status == "pass" for c in checks)


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("charge", [None, 0.37, np.pi])
def test_one_site_claims_match_grid_claims(N, charge, monkeypatch):
    # the slice claims computed from the one-site coefficients equal those
    # computed from the grid basis coeffs * phase, at A = 0 and at the Cartan
    # connections charge i sigma3 dx0 (off-diagonal phases at charge pi)
    A = (Connection.flat(N, 2) if charge is None
         else constant_connection(N, 2, [(0, charge * pauli_su2()[2])]))
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    _, cuts, distances = spy_on_cuts(monkeypatch)
    checks = verify_moduli_structure(tb)
    monkeypatch.undo()
    # neither the claims nor the J and K checks build grid fields; per mode
    # J and K cut the slice itself, so nothing is cut again or measured
    assert "basis" not in vars(tb)
    assert tb.coeffs.shape[3:7] == (1, 1, 1, 1)
    assert cuts == [] and distances == []
    if charge == np.pi:
        assert np.abs(tb.phase - 1).max() > 1.0
    b = tb.basis
    assert b.shape == (tb.dimension, 4, 3) + (N,) * 4
    gram = l2_gram(b, b)
    assert np.abs(tb.gram - gram).max() < 1e-12
    for name, L in zip("IJK", FRAME.matrices()):
        images = induced_structure(L, b)
        ops = np.linalg.solve(gram, l2_gram(b, images))
        assert np.abs(tb.ops[name] - ops).max() < 1e-12
        recon = np.tensordot(ops.T, b, axes=1)
        invariance = float(np.sqrt(sq_norm(images - recon)).max())
        assert abs(tb.invariance_defects[name] - invariance) < 1e-12
    W = hermitian_form_matrix(FRAME.I, b, b)
    assert np.abs(hermitian_form_matrix(FRAME.I, tb.coeffs, tb.coeffs) - W).max() < 1e-12
    G = l2_gram(induced_structure(FRAME.I, b), b)
    assert np.abs(l2_gram(induced_structure(FRAME.I, tb.coeffs), tb.coeffs) - G).max() < 1e-12
    # the check's 0.0 against the grid distance of J's and K's own slices
    (same,) = [c for c in checks if c.name == "moduli.slice-same-for-IJK"]
    assert same.defect == 0.0
    for L in (FRAME.J, FRAME.K):
        other = horizontal_slice(A, L, 1e-10)
        grid = subspace_distance(b, moduli._on_grid(other.coeffs, other.phase))
        assert abs(same.defect - grid) < 1e-12


def test_verify_moduli_structure_detects_sign_flip():
    tb = horizontal_slice(Connection.flat(3, 2), FRAME.I, 1e-10, frame=FRAME)
    tb.ops["K"] = -tb.ops["K"]
    checks = verify_moduli_structure(tb)
    d = defects(checks, "moduli.structure.")
    assert d["IJ=K"] > 1.0
    assert d["K^2=-Id"] < 1e-12 and d["IJ=-JI"] < 1e-12
    assert not structure_holds(checks)


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


@pytest.mark.parametrize("N, n, charge", [(3, 2, None), (4, 2, None), (4, 3, None),
                                           (4, 2, 0.37)])
def test_hermitian_form_matrix_matches_l2_pairing(N, n, charge):
    # c1^T W c2 = omega~(a1, a2) = -(I~ a1, a2) for a_k = sum_i c_k[i] b_i,
    # at flat slices and at the constant Cartan connection 0.37 i sigma3 dx0
    A = (Connection.flat(N, n) if charge is None
         else constant_connection(N, n, [(0, charge * pauli_su2()[2])]))
    tb = horizontal_slice(A, FRAME.I, 1e-10, frame=FRAME)
    W = hermitian_form_matrix(tb.structure, tb.basis, tb.basis)
    assert W.shape == (tb.dimension, tb.dimension)
    rng = np.random.default_rng(17 * N + n)
    for _ in range(5):
        c1, c2 = rng.standard_normal((2, tb.dimension))
        a1, a2 = tb.element(c1), tb.element(c2)
        g = l2_inner(induced_structure(tb.structure, a1), a2)
        assert abs(c1 @ W @ c2 + g) <= 1e-12 * abs(g)
        assert abs(moduli_hermitian_form(tb, a1, a2) - c1 @ W @ c2) <= 1e-12 * abs(g)
    G = l2_gram(induced_structure(tb.structure, tb.basis), tb.basis)
    assert hermitian_sign_defect(W, G, -1.0) < 1e-12


def test_hermitian_sign_check_fails_for_another_structure():
    # the Hermitian form of J against the L^2 pairing of I~ is no multiple
    tb = horizontal_slice(Connection.flat(4, 2), FRAME.I, 1e-10, frame=FRAME)
    G = l2_gram(induced_structure(FRAME.I, tb.basis), tb.basis)
    W = hermitian_form_matrix(FRAME.J, tb.basis, tb.basis)
    for s in (-1.0, 1.0):
        assert hermitian_sign_defect(W, G, s) > 0.5
        # one batched SVD, bit for bit the two spectral norms
        norms = np.linalg.norm(W - s * G, 2), np.linalg.norm(G, 2)
        assert hermitian_sign_defect(W, G, s) == float(norms[0] / norms[1])
    assert hermitian_sign_defect(hermitian_form_matrix(FRAME.I, tb.basis, tb.basis), G, -1.0) < 1e-12


@pytest.mark.parametrize("frame, s", [(HypercomplexFrame.left(), -1.0),
                                      (HypercomplexFrame.right(), 1.0)],
                         ids=["left", "right"])
def test_hermitian_form_sign_is_minus_the_orientation_of_the_frame(frame, s):
    # s = -eps_L: eps_L = +1 on the self-dual left forms, -1 on the
    # anti-self-dual right ones; W = s G on each structure's slice, and the
    # other sign misses by 2
    for L in frame.matrices():
        assert moduli.hermitian_form_sign(L) == s
        tb = horizontal_slice(Connection.flat(4, 2), L, 1e-10, frame=frame)
        W = hermitian_form_matrix(L, tb.basis, tb.basis)
        G = l2_gram(induced_structure(L, tb.basis), tb.basis)
        assert hermitian_sign_defect(W, G, s) < 1e-12
        assert abs(hermitian_sign_defect(W, G, -s) - 2.0) < 1e-12


def test_negated_induced_structure_fails_the_hermitian_form_sign(monkeypatch):
    # the sign comes from the structure, not from the data; the slice is
    # built first, so that only the Hermitian check reads the negation
    tb = horizontal_slice(Connection.flat(4, 2), FRAME.I, 1e-10, frame=FRAME)
    real = moduli.induced_structure
    monkeypatch.setattr(moduli, "induced_structure", lambda L, a: -real(L, a))
    failed = [c.name for c in verify_moduli_structure(tb) if c.status == "fail"]
    assert failed == ["moduli.hermitian-form-sign"]


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
        return LatticeField(1, 3, 2, comps)

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
    scalar = complex(form_to_vector(top, 4)[0])
    trace = complex(np.einsum("ij,ji->", gsel[0], gsel[1]))
    expected = (scalar * trace).real
    assert abs(value - expected) < 1e-12


def test_flow_diverges_with_huge_step_is_caught_or_monotone():
    rng = np.random.default_rng(101)
    pert = LatticeField.random(1, 3, 2, rng, scale=1e-2)
    A0 = Connection(pert)
    # an absurd step is tamed by halving: monotonicity still holds
    res = ym_flow(A0, step=100.0, max_iters=50, reduction=0.0)
    assert all(res.history[i + 1] <= res.history[i]
               for i in range(len(res.history) - 1))

"""Degree and slope certificates for explicit curvature data.

The degree integrand F ^ omega is imaginary for anti-Hermitian curvature, so
the normalization inserts sqrt(-1)/(2 pi) to land in the reals (the degree is
only defined up to a positive constant anyway; unit torus periods are fixed
by the ledger).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Union

import numpy as np

from .exact import QI, ScalarField, _unpack
from .forms import RationalForm, wedge
from .lattice import LatticeField, _form_to_vector, wedge_pairing


def _integrate_unit_cell(f: ScalarField) -> QI:
    """Exact integral of a polynomial field over [0,1]^4.

    phi-denominators have a singularity at the origin and are rejected; the
    torus integrands here are polynomial.
    """
    if f.k != 0:
        raise ValueError("cannot integrate a phi-denominator over the torus cell")
    total = QI(0)
    for m, (a, b) in f.num.terms.items():
        w = Fraction(1, f.num.den * math.prod(e + 1 for e in _unpack(m)))
        total = total + QI(a * w, b * w)
    return total


def integral_top_form(top: RationalForm) -> QI:
    if top.degree != 4:
        raise ValueError("integral needs a top-degree form")
    coeff = top.coeffs.get((0, 1, 2, 3))
    return _integrate_unit_cell(coeff) if coeff is not None else QI(0)


def _lattice_degree_integral(F: LatticeField, omega: RationalForm) -> complex:
    if F.n != 1:
        raise ValueError("degree needs scalar (rank-1) curvature values")
    # F = i c for the u(1) coordinate c = -i F
    means = 1j * np.mean(F.data[:, 0], axis=(1, 2, 3, 4))
    return complex(means @ wedge_pairing(2) @ _form_to_vector(omega, 2))


DegreeInput = Union[RationalForm, LatticeField]


def degree(F: DegreeInput, omega: RationalForm) -> float:
    """(sqrt(-1) / 2 pi) * integral of F ^ omega, real for anti-Hermitian F.

    F may be a symbolic 2-form with imaginary coefficients or a rank-1
    LatticeField; omega is the Gauduchon Hermitian form.
    """
    if omega.degree != 2:
        raise ValueError("omega must be a 2-form")
    if isinstance(F, LatticeField):
        if F.degree != 2:
            raise ValueError("curvature must be a 2-form")
        with np.errstate(over="ignore", invalid="ignore"):
            val = 1j * _lattice_degree_integral(F, omega) / (2 * math.pi)
        if not cmath.isfinite(val):
            raise ValueError("the degree is not finite")
        if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
            raise ValueError("degree came out non-real; curvature is not "
                             "anti-Hermitian scalar")
        return float(val.real)
    if isinstance(F, RationalForm):
        if F.degree != 2:
            raise ValueError("curvature must be a 2-form")
        integral = integral_top_form(wedge(F, omega))
        # multiply by i: (i) * (re + i im) = -im + i re
        re = -float(integral.im)
        im = float(integral.re)
        if abs(im) > 1e-9 * max(1.0, abs(re)):
            raise ValueError("degree came out non-real; pass imaginary-valued "
                             "curvature coefficients")
        return re / (2 * math.pi)
    raise TypeError(f"unsupported curvature input: {type(F)!r}")


def slope(deg: Union[float, Fraction], rank: int) -> float:
    """deg / rank."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if isinstance(deg, Fraction):
        return float(deg / rank)
    return deg / rank


"""Verification toolkit for hypercomplex and HKT geometry on 4-manifolds.

Two halves: an exact symbolic engine that certifies the Hopf-surface
identities (strong HKT, opposite torsions, common metric, descent), and a
spectral lattice engine that realizes the instanton-moduli tangent space on
the flat 4-torus and checks the induced quaternionic structures.
"""

__version__ = "0.1.0"

from .exact import QI, Poly, ScalarField
from .quaternions import (
    AxisTriple,
    HypercomplexFrame,
    Quaternion,
    independence_rank,
    structure_matrix,
)
from .forms import (
    ConstantMetric,
    RationalForm,
    exterior_d,
    hodge_star,
    lambda_contract,
    pq_project,
    scale_pullback,
    structure_action,
    twisted_d,
    wedge,
    wedge_sum,
)
from .hermitian import (
    ConformalMetric,
    HKTReport,
    TorsionReport,
    bismut_torsion,
    check_hermitian,
    gauduchon_defect,
    hermitian_form,
    hkt_report,
)
from .hopf import (
    HopfGeometry,
    build_flat_control,
    build_hopf,
    verify_44,
    verify_descent,
    verify_strong_hkt,
)
from .lattice import LatticeField, l2_inner
from .moduli import (
    Connection,
    TangentBasis,
    asd_residual,
    coulomb_identity_defect,
    curvature,
    horizontal_slice,
    induced_structure,
    moduli_hermitian_form,
    verify_moduli_structure,
    ym_flow,
)
from .invariants import degree, slope
from .report import VerificationReport, emit_report

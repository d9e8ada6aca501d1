"""Exact classification and numerical verification of finite-gap
ordinary differential operators on elliptic curves.

Layers, bottom to top:

- rationals / poly / linalg / interp: exact arithmetic over Q, sparse
  multivariate polynomials with weighted-homogeneous structure, linear
  solving in the polynomial ring, and rational function interpolation.
- series / elliptic / operators: truncated Laurent series, the function
  ring of an elliptic curve, differential operator algebra, indicial data,
  commuting-operator search.
- monodromy / locus3: the Frobenius obstruction engine and the triangular
  solver that turns obstruction coefficients into classified loci.
- lattice / cm / oracle: numerical Weierstrass evaluation, many-body
  critical-point systems, and the loop-transport monodromy check.
- acceptance / cli: the verification suite and the command line.
"""

from .rationals import Rat, as_rat, BACKEND
from .poly import MultiPoly, RatFunc
from .series import LaurentSeries, TruncationError, wp_series
from .elliptic import EllipticElement
from .operators import (
    GlobalEllipticOperator,
    IndexData,
    InvalidGapsError,
    LocalOperator,
    VerificationError,
    cyclic_L0,
    find_commuting,
    homogeneous_integrable,
    third_order_from_gaps,
    third_order_indices,
)
from .monodromy import (
    Condition,
    ConstraintSet,
    frobenius_solve,
    second_order_conditions,
    trivial_monodromy_constraints,
    two_gap_conditions,
)
from .locus3 import (
    LocusBranch,
    constraints_for,
    j_invariant,
    reconstruct_in_q,
    scan_grid,
    solved_branch,
    branch_quantity,
    triangular_solve,
    valid_r,
)
from .lattice import (
    HEX_TAU,
    InvalidLatticeError,
    Lattice,
    NearPoleError,
    lattice_invariants,
    make_lattice,
    wp_eval,
)
from .cm import (
    CMConfig2,
    CMConfig3,
    Cryst3Config,
    InvalidConfigurationError,
    NewtonResult,
    cm3_F,
    cm3_residuals,
    cryst3_grad_H,
    cryst3_residuals,
    finite_gap_residuals,
    inozemtsev_gradient,
    newton_critical,
)
from .oracle import (
    MonodromyReport,
    PathError,
    elliptic_batch_evaluator,
    elliptic_evaluator,
    integrability_verdict,
    monodromy_matrices,
    monodromy_matrix,
)
from .acceptance import run_all as run_verification

__version__ = "0.1.0"

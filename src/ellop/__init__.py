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

The package re-exports nothing: import each name from the module that
defines it, as in ``from ellop.lattice import make_lattice``.
"""

__version__ = "0.1.0"

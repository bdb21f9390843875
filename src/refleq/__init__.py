"""Exact calculus for R-matrices, K-matrices and reflection-equation checks.

The package is organized bottom-up:

  field        exact multivariate rational functions over Q (h, u, u1..u4)
  matrix       labeled sparse matrices over the field + identity verification
  dynkin       ADE Cartan data, longest Weyl words, diagram involutions
  kclass       q-Laurent K-theory classes and reflection functor transforms
  tableaux     torus fixed-point tableaux, charges, Poincare polynomials
  rkmat        the concrete R- and K-matrices
  relations    YBE / unitarity / RTT / reflection-equation checkers
  polarization wall-consistency constraint problems for polarization choices
  acceptance   the sign-off battery shared by the tests and the CLI
  cli          the `refleq` command line tool
"""

__version__ = "0.1.0"

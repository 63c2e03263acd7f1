"""Auxiliary-space preconditioning for B-spline discretizations of
curl-curl and grad-div elliptic problems on the unit square/cube.

Subpackage map:

- ``splines1d``: univariate B-spline / Curry-Schoenberg machinery and
  1-D matrix factories.
- ``derham``: tensor-product discrete de Rham spaces, their exact
  difference matrices and ``KronBlocks``, the block-Kronecker operator.
- ``assembly``: Kronecker-structured global matrices (mass, system,
  auxiliary H/L/Q matrices) and right-hand sides.
- ``transfer``: auxiliary-space transfer matrices built from 1-D
  interpolation/histopolation factors.
- ``precond``: smoothers and the auxiliary-space preconditioners.
- ``krylov``: PCG, the composite smoothed preconditioner, and
  condition-number estimation.
- ``bench``/``cli``: manufactured solutions, experiment sweeps, and the
  ``iga-asp`` command-line tool.
"""

__version__ = "0.1.0"

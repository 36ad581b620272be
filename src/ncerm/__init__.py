"""Norm-constrained empirical risk minimization for halfspaces and small
networks: random-search learners with certified round counts, a boosting
wrapper, hardness reductions from clause satisfaction, and Monte Carlo
checks of the concentration bounds the round counts rest on.

The library is its submodules (``ncerm.halfspace``, ``ncerm.networks``,
``ncerm.boosting``, ...); import names from them.
"""

__version__ = "0.1.0"

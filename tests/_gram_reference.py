"""Quadrature reference for the half-interval Gram matrix, for the tests only.

The library's `gram_front` is the Sturm-Liouville closed form.  This module
builds the same matrix the independent way, from the front-half quadrature
rule: with nodes x_i and weights q_i on [0, 1] and V_ni = P_n(x_i), the
square-root factor is F = diag(sqrt(q)) V^T diag(1/N_n^2) and the Gram matrix
is F^T F, made exactly symmetric and with the same-parity off-diagonal
entries set to exactly zero (those integrands are even, so the half-interval
integral inherits full orthogonality).

G is positive definite iff F has full column rank, and F's singular values
are the square roots of G's eigenvalues, so its condition number is only the
square root of G's.  Past N ~ 10 the smallest eigenvalue of G lies below the
eigensolver backward error eps * ||G||, so the tests judge definiteness
through F: under numpy's default rank tolerance (sigma_max * rows * eps,
1.4e-14 relative for the 64-node rule) F stays full rank up to N = 18 for D
in [2, 4] and loses rank from N = 19.
"""

import numpy as np

from axibeam.quadrature import _node_count, _rule
from axibeam.ultraspherical import eval_sequence, norms_squared


def quadrature_gram(max_degree, dim, back=False):
    """F and F^T F of the front half, or with back=True of the back half [-1, 0].

    The back-half factor is F with its odd-degree columns negated.
    """
    x, q = _rule(dim, _node_count(2 * max_degree, dim), 0.0, 1.0)
    seq = eval_sequence(x, max_degree, dim) / norms_squared(max_degree, dim)[:, None]
    factor = seq.T * np.sqrt(q)[:, None]
    if back:
        factor = factor * (-1.0) ** np.arange(max_degree + 1)
    g = factor.T @ factor
    g = 0.5 * (g + g.T)
    degree = np.arange(max_degree + 1)
    diff = degree[:, None] - degree[None, :]
    g[(diff != 0) & (diff % 2 == 0)] = 0.0
    return factor, g

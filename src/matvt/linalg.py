"""Shared Cholesky-based helpers.

Quadratic forms and log-determinants go through Cholesky factors.  The
fitters still invert where the update is a closed form in an inverse: the
E-step weights C_i^-1 and the t fit's row scatter (sum S_i)^-1.

Triangular solves invert the small d-by-d factor once and apply it with
numpy ``matmul``, so numpy's BLAS does all of the work; no ``scipy.linalg``
remains, whose own BLAS thread pool would compete with numpy's for the
cores.
"""

import numpy as np

from .errors import SingularUpdateError


def cholesky_logdet(A):
    """Lower Cholesky factor and log-determinant of a symmetric PD matrix."""
    L = np.linalg.cholesky(A)
    return L, 2.0 * np.log(np.diag(L)).sum()


def safe_cholesky(A, what):
    """:func:`cholesky_logdet` of a fitted scatter update.

    A matrix that is not positive definite raises
    :class:`SingularUpdateError` naming ``what``.
    """
    try:
        return cholesky_logdet(A)
    except np.linalg.LinAlgError:
        raise SingularUpdateError(f"{what} update is not positive definite") from None


def solve_lower_batch(L, B):
    """Solve L Y = B_i for a stack B of shape (n, d, m) with L (d, d) lower."""
    return np.linalg.inv(L) @ B


def symmetrize(A):
    return 0.5 * (A + np.swapaxes(A, -1, -2))

"""Volume-preserving affine maps of the plane.

A linear group element is a plain 2x2 array with |det| = 1, as in the
estimator's (n, 2, 2) batches.  Its singular values come in closed form (no
iterative factorizations).  The operator-norm ball S_R = {lambda_1(M) <= R}
is the truncation device used by the Haar sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VolumePreservingAffineMap",
    "SingularPair",
    "singular_values",
]

_DET_REJECT = 1e-6


@dataclass(frozen=True)
class SingularPair:
    """Ordered singular values of a unimodular map; lam1 * lam2 = 1."""
    lam1: float
    lam2: float


@dataclass(frozen=True)
class VolumePreservingAffineMap:
    """phi(a) = r(a) + x with r a 2x2 array of |det| = 1.

    The linear part is renormalized by |det|**(1/2) on construction; one
    whose determinant differs from +-1 by more than 1e-6 is rejected.
    """

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        mat = np.array(self.linear, dtype=float)
        if mat.shape != (2, 2) or not np.all(np.isfinite(mat)):
            raise ValueError("expected a finite 2x2 linear part")
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        if abs(abs(det) - 1.0) > _DET_REJECT:
            raise ValueError(f"linear part determinant {det:.9f} too far from +-1")
        mat /= np.sqrt(abs(det))
        mat.setflags(write=False)
        t = np.array(self.translation, dtype=float).reshape(2)
        t.setflags(write=False)
        object.__setattr__(self, "linear", mat)
        object.__setattr__(self, "translation", t)

    def apply(self, points) -> np.ndarray:
        return np.asarray(points, float) @ self.linear.T + self.translation


def singular_values(m) -> SingularPair:
    """Closed-form singular values for a 2x2 matrix with |det| = 1.

    With T the sum of squared entries, lam1 + lam2 = sqrt(T + 2) and
    lam1 - lam2 = sqrt(T - 2); lam2 is returned as 1/lam1 so the product is
    exactly one.
    """
    mat = np.asarray(m, float)
    t = float(np.sum(mat * mat))
    lam1 = 0.5 * (np.sqrt(t + 2.0) + np.sqrt(max(t - 2.0, 0.0)))
    return SingularPair(lam1=float(lam1), lam2=float(1.0 / lam1))

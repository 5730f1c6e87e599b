"""Volume-preserving linear and affine maps of the plane.

2x2 matrices with |det| = 1 and their singular values in closed form (no
iterative factorizations).  The operator-norm ball S_R = {lambda_1(M) <= R}
is the truncation device used by the Haar sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UnimodularMap",
    "VolumePreservingAffineMap",
    "SingularPair",
    "singular_values",
]

_DET_REJECT = 1e-6


class UnimodularMap:
    """Linear map of the plane with |det| = 1.

    The matrix is renormalized by |det|**(1/2) on construction; inputs whose
    determinant differs from +-1 by more than 1e-6 are rejected.
    """

    __slots__ = ("matrix", "det_sign")

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=float)
        if mat.shape != (2, 2) or not np.all(np.isfinite(mat)):
            raise ValueError("expected a finite 2x2 matrix")
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        if abs(abs(det) - 1.0) > _DET_REJECT:
            raise ValueError(f"matrix determinant {det:.9f} too far from +-1")
        mat /= np.sqrt(abs(det))
        mat.setflags(write=False)
        self.matrix = mat
        self.det_sign = 1 if det > 0 else -1

    @classmethod
    def identity(cls) -> "UnimodularMap":
        return cls(np.eye(2))

    @classmethod
    def rotation(cls, theta: float) -> "UnimodularMap":
        c, s = np.cos(theta), np.sin(theta)
        return cls([[c, -s], [s, c]])

    @classmethod
    def stretch(cls, s: float) -> "UnimodularMap":
        """diag(s, 1/s) for s > 0."""
        if s <= 0:
            raise ValueError("stretch factor must be positive")
        return cls([[s, 0.0], [0.0, 1.0 / s]])

    def __matmul__(self, other: "UnimodularMap") -> "UnimodularMap":
        return UnimodularMap(self.matrix @ other.matrix)

    def inverse(self) -> "UnimodularMap":
        a, b, c, d = self.matrix.ravel()
        s = self.det_sign
        return UnimodularMap([[d * s, -b * s], [-c * s, a * s]])

    def apply(self, points) -> np.ndarray:
        return np.asarray(points, float) @ self.matrix.T

    def __repr__(self) -> str:
        return f"UnimodularMap({self.matrix.tolist()})"


@dataclass(frozen=True)
class SingularPair:
    """Ordered singular values of a unimodular map; lam1 * lam2 = 1."""
    lam1: float
    lam2: float


@dataclass(frozen=True)
class VolumePreservingAffineMap:
    """phi(a) = r(a) + x with r unimodular; the group law is
    (r1, x1)(r2, x2) = (r1 r2, r1 x2 + x1)."""

    linear: UnimodularMap
    translation: np.ndarray

    def __post_init__(self):
        t = np.array(self.translation, dtype=float).reshape(2)
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "VolumePreservingAffineMap":
        return cls(UnimodularMap.identity(), np.zeros(2))

    def apply(self, points) -> np.ndarray:
        return self.linear.apply(points) + self.translation

    def inverse(self) -> "VolumePreservingAffineMap":
        rinv = self.linear.inverse()
        return VolumePreservingAffineMap(rinv, -rinv.apply(self.translation))

    def __matmul__(self, other: "VolumePreservingAffineMap") -> "VolumePreservingAffineMap":
        """Composition self o other in the semidirect product."""
        return VolumePreservingAffineMap(
            self.linear @ other.linear,
            self.linear.apply(other.translation) + self.translation,
        )


def _as_matrix(m) -> np.ndarray:
    return m.matrix if isinstance(m, UnimodularMap) else np.asarray(m, float)


def singular_values(m) -> SingularPair:
    """Closed-form singular values for a 2x2 matrix with |det| = 1.

    With T the sum of squared entries, lam1 + lam2 = sqrt(T + 2) and
    lam1 - lam2 = sqrt(T - 2); lam2 is returned as 1/lam1 so the product is
    exactly one.
    """
    mat = _as_matrix(m)
    t = float(np.sum(mat * mat))
    lam1 = 0.5 * (np.sqrt(t + 2.0) + np.sqrt(max(t - 2.0, 0.0)))
    return SingularPair(lam1=float(lam1), lam2=float(1.0 / lam1))

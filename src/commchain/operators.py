"""Two-site operator types and the operations that normalize them.

A translation-invariant chain is defined by a single hermitian operator on
two adjacent sites of local dimension d.  This module turns such a term
into a projector, computes its operator Schmidt decomposition across the
two-site cut, h = sum_k s_k A_k (x) B_k with hermitian factors, and tests
whether the resulting chain is commuting.

One factorization, ``operator_schmidt``, feeds everything read from the
factors: the commutator gate, the site decomposition (which reads the
C*-algebras the factors generate) and the bridge's defect map.  The
commutator residual is the Frobenius norm of C = [h x 1, 1 x h], computed
from those factors.  As C has rank at most d^3, ||C||_2 <= ||C||_F <=
d^(3/2) ||C||_2: a gate on it is never looser than the same gate on the
spectral norm.

Tolerance rule: every threshold derived from the caller's ``tol`` is
``tol`` or ``sqrt(tol)``, with no floor.  ``tol`` decides about the input:
a term's hermiticity defect, ``projectorize``'s zero-eigenvalue cut (for
the bridge's commutified term too), the commutator gate
``check_commuting`` in ``canonical.Analysis.commuting`` (the only gate an
input term passes), the commutant rank cuts, and the bridge's
positive-definite margin of X and singular cut of S.  ``sqrt(tol)``
bounds every identity a constructed object must meet: ``projectorize``'s
negative-eigenvalue margin, the Schmidt coefficients' imaginary part
(times max(||p||_F, 1)), the site blocks and their completeness, bond
factoring, idempotency and reconstruction, the commutator residual of the
pruned and of the commutified term, the disentangler's unitarity, and
||P (s x s)||_F for every loop site state s of the disentangled term P.
Thresholds that do not scale with ``tol`` are named constants.
Every matrix defect a threshold bounds (hermiticity, idempotency,
factoring, completeness, reconstruction, unitarity; ``PROJECTOR_TOL``'s
too) is a Frobenius norm, O(n^2) with no SVD: as ||A||_2 <= ||A||_F, a
gate on it is never looser than the same gate on the spectral norm.
``tol`` itself has one floor, ``MIN_TOL``, which the command line enforces:
below it, rounding alone fails the input gates.

Conventions: the two-site basis is |i> x |j| with flat index i*d + j, the
left site first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg as la
from .errors import NotHermitian, NotPSD

DEFAULT_TOL = 1e-9

# Smallest tol the command line accepts.  Rounding alone gives a commuting
# term a commutator residual up to 2.4e-14 (synthesized terms at d = 16;
# 1.1e-14 at d = 9) and zero eigenvalues up to 2.1e-15; at tol = 1e-14 the
# gate already reads some of them as non-commuting.  The floor is 40x above.
MIN_TOL = 1e-12

# Relative cutoff for treating singular values / eigenvalues as zero.
RANK_RTOL = 1e-9

# Largest hermiticity or idempotency defect of a valid ProjectorTerm.
PROJECTOR_TOL = 1e-8


@dataclass
class LocalTerm:
    """Hermitian operator on two adjacent d-dimensional sites."""

    d: int
    op: np.ndarray

    def __post_init__(self):
        self.op = np.asarray(self.op, dtype=complex)
        n = self.d * self.d
        if self.d < 1 or self.op.shape != (n, n):
            raise ValueError(f"operator must be {n}x{n} for site dimension {self.d}")
        if not np.all(np.isfinite(self.op)):
            raise ValueError("operator entries must be finite")

    @classmethod
    def symmetrized(cls, d: int, op: np.ndarray, tol: float = DEFAULT_TOL) -> "LocalTerm":
        """Build a term, absorbing hermiticity defects up to ``tol``."""
        op = np.asarray(op, dtype=complex)
        defect = la.hermiticity_defect(op)
        if defect > tol:
            raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tol {tol:.3e}")
        return cls(d, (op + la.dag(op)) / 2.0)

    def to_dict(self) -> dict:
        return {"d": self.d, "matrix": self.op}


@dataclass
class ProjectorTerm(LocalTerm):
    """Local term that is an orthogonal projector."""

    def validate(self) -> None:
        herm = la.hermiticity_defect(self.op)
        idem = np.linalg.norm(self.op @ self.op - self.op)
        if herm > PROJECTOR_TOL or idem > PROJECTOR_TOL:
            raise ValueError(
                f"not a projector: hermiticity defect {herm:.3e}, idempotency defect {idem:.3e}"
            )


@dataclass
class OperatorSchmidt:
    """h = sum_k s[k] A_k (x) B_k across the two-site cut (A_k on the left site).

    ``s`` is descending and keeps every coefficient above the SVD's own
    resolution, s_0 d^2 eps.  ``coords`` holds the real coordinates of the
    A_k and of the B_k in ``hermitian_basis(d)``, as orthonormal rows, so
    the factors are hermitian and Hilbert-Schmidt orthonormal.
    """

    d: int
    s: np.ndarray  # (r,)
    coords: tuple[np.ndarray, np.ndarray]  # (r, d^2) each

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(A_k, B_k), each of shape (r, d, d)."""
        basis = la.hermitian_basis(self.d).reshape(self.d**2, self.d**2)
        return tuple((c @ basis).reshape(-1, self.d, self.d) for c in self.coords)

    @property
    def inner(self) -> tuple[np.ndarray, np.ndarray]:
        """(s_k A_k, s_k B_k): what a three-site product meets on the middle site."""
        return tuple(self.s[:, None, None] * f for f in self.factors)

    @cached_property
    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """(sqrt(s_k) A_k, sqrt(s_k) B_k) for the s_k above ``RANK_RTOL * max(s_0, 1)``.

        The site decomposition splits the site along these two families.
        The cut keeps a prefix of ``s``; each factor is contracted from its
        folded coordinates.
        """
        rank = int(np.count_nonzero(self.s > RANK_RTOL * max(self.s.max(initial=0.0), 1.0)))
        basis = la.hermitian_basis(self.d)
        return tuple(
            np.array(
                [np.tensordot(c[k] * np.sqrt(self.s[k]), basis, axes=(0, 0)) for k in range(rank)],
                dtype=complex,
            ).reshape(-1, self.d, self.d)
            for c in self.coords
        )


@dataclass
class CommutingCheck:
    commuting: bool
    residual: float


def projectorize(h: LocalTerm, tol: float = DEFAULT_TOL) -> ProjectorTerm:
    """Orthogonal projector with the same kernel as ``h``.

    Eigenvalues below ``tol`` are treated as zero; an eigenvalue below
    ``-sqrt(tol)`` means the term is frustrated and the caller must shift
    the energy first.
    """
    w, v = np.linalg.eigh(LocalTerm.symmetrized(h.d, h.op, tol).op)
    if w[0] < -np.sqrt(tol):
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -sqrt(tol); shift the energy first")
    keep = w > tol
    p = (v[:, keep] * 1.0) @ la.dag(v[:, keep])
    return ProjectorTerm(h.d, (p + la.dag(p)) / 2.0)


# Entries of one (i-chunk, j, d, d) defect slab; bounds memory at large d.
_SLAB_ENTRIES = 1 << 21


def _defect_norm(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Frobenius norm of h12 X2 h23 - h23 X2 h12 from the inner factors.

    The defect is sum_ij A_i (x) (b_i X a_j - a_j X b_i) (x) B_j with
    orthonormal outer factors, so its squared norm is
    sum_ij ||b_i X a_j - a_j X b_i||_F^2: O(r^2 d^3) in batched GEMMs.
    """
    r, d = a.shape[0], x.shape[0]
    if r == 0:
        return 0.0
    a_cols = a.transpose(1, 0, 2).reshape(d, r * d)  # [m, (j, n)]
    b_cols = b.transpose(1, 0, 2).reshape(d, r * d)
    ax = (a @ x).reshape(r * d, d)
    bx = b @ x
    step = max(1, _SLAB_ENTRIES // (r * d * d))
    total = 0.0
    for i0 in range(0, r, step):
        bxa = bx[i0 : i0 + step].reshape(-1, d) @ a_cols  # [(i, m), (j, n)]
        axb = ax @ b_cols[:, i0 * d : (i0 + step) * d]  # [(j, m), (i, n)]
        c = bxa.reshape(-1, d, r, d) - axb.reshape(r, d, -1, d).transpose(2, 1, 0, 3)
        total += float(np.vdot(c, c).real)
    return float(np.sqrt(total))


def commutator_residual(f: OperatorSchmidt) -> float:
    """Frobenius norm of [h x 1, 1 x h] on three sites, from the factors of h.

    [h x 1, 1 x h] = sum_kl s_k s_l A_k (x) [B_k, A_l] (x) B_l, so the
    squared norm is sum_kl s_k^2 s_l^2 ||[B_k, A_l]||_F^2: O(d^7), with no
    d^3 x d^3 operator.
    """
    return _defect_norm(*f.inner, np.eye(f.d))


def check_commuting(f: OperatorSchmidt, tol: float = DEFAULT_TOL) -> CommutingCheck:
    """Decide whether the chain built from the factored term is commuting."""
    residual = commutator_residual(f)
    return CommutingCheck(commuting=residual <= tol, residual=residual)


def operator_schmidt(p: LocalTerm, tol: float = DEFAULT_TOL) -> OperatorSchmidt:
    """Schmidt decomposition of ``p`` across the two-site cut.

    The decomposition is carried out in the real vector space of hermitian
    matrices, so both factor stacks come out hermitian and the coefficient
    matrix is a real SVD problem.  Its imaginary part is rounding only for
    a hermitian ``p``; past sqrt(tol) max(||p||_F, 1) the term is refused.
    """
    d = p.d
    basis = la.hermitian_basis(d)
    u = basis.reshape(d * d, d * d).T  # column m = vec(G_m), unitary
    # reshuffle: R[(i,i'),(j,j')] = P[(i,j),(i',j')]
    r = p.op.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    c = la.dag(u) @ r @ u.conj()
    imag = float(np.max(np.abs(c.imag)))
    if imag > np.sqrt(tol) * max(float(np.linalg.norm(p.op)), 1.0):
        raise NotHermitian(f"coefficient matrix not real (defect {imag:.3e})")
    o, s, qt = np.linalg.svd(c.real)
    keep = int(np.count_nonzero(s > s[0] * d * d * np.finfo(float).eps))
    return OperatorSchmidt(d=d, s=s[:keep], coords=(o[:, :keep].T, qt[:keep]))


def identity_slots(l: int, q: np.ndarray, r: int) -> np.ndarray:
    """1_l (x) q (x) 1_r, by broadcasting."""
    m = q.shape[0]
    out = (
        np.eye(l)[:, None, None, :, None, None]
        * q[None, :, None, None, :, None]
        * np.eye(r)[None, None, :, None, None, :]
    )
    return out.reshape(l * m * r, l * m * r)

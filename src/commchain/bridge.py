"""Bridging non-commuting frustration-free terms to commuting ones.

A positive-definite single-site operator X with

    (h (x) 1) (1 (x) X (x) 1) (1 (x) h) = (1 (x) h) (1 (x) X (x) 1) (h (x) 1)

on three sites certifies that conjugating the local term by
X^(1/2) (x) X^(1/2) yields a commuting term whose chain kernel maps
one-to-one onto the original one through sitewise X^(1/2).  The condition
is linear in X, so the solution space is a null space computation; the
positive-definite search inside it is a bounded randomized scan and its
failure does not certify nonexistence.

With h = sum_k s_k A_k (x) B_k (the hermitian, Hilbert-Schmidt
orthonormal factors of ``operators.operator_schmidt``), the defect
is D(X) = sum_ij s_i s_j A_i (x) (B_i X A_j - A_j X B_i) (x) B_j.  The
residual of X is ||D(X)||_F, which bounds the spectral norm from above
and is at most d^(3/2) times it; the solution space is the null space of
the d^2 x d^2 Gram matrix of X -> D(X).  No three-site operator is built.

The converse direction builds the commuting parent of an injective
translation-invariant MPS on doubled spins: each site carries two
chi-dimensional spins (l, r) and the local projector penalizes everything
but the maximally entangled state on (r_j, l_{j+1}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .ed import same_chain_kernel
from .errors import CommutificationFailed, SingularS
from .operators import (
    DEFAULT_TOL,
    LocalTerm,
    ProjectorTerm,
    _defect_norm,
    commutator_residual,
    identity_slots,
    operator_schmidt,
    projectorize,
)

PD_SEARCH_TRIES = 200

# Gram eigenvalues up to NULL_RTOL * max(lambda_max, 1) span the solution
# space.  They are squared singular values, resolved to about
# d^2 eps lambda_max (6e-14 lambda_max at d = 16); the cut sits three
# decades above that, i.e. sigma <= 1e-5 sigma_max.  solve_x's final
# residual check rejects any X the cut lets through with a real defect.
NULL_RTOL = 1e-10

__all__ = [
    "XCandidate",
    "VerifyX",
    "CommutifyResult",
    "InjectiveMpsMap",
    "MpsParentResult",
    "verify_x",
    "solve_x",
    "commutify",
    "polar_normalize",
    "random_injective_map",
    "mps_parent",
]


@dataclass
class XCandidate:
    x: np.ndarray
    min_eigenvalue: float
    residual: float

    def to_dict(self) -> dict:
        return {
            "X": self.x,
            "residual": self.residual,
            "min_eig": self.min_eigenvalue,
            "status": "found",
        }


@dataclass
class VerifyX:
    residual: float
    pd: bool
    min_eigenvalue: float


def verify_x(h: LocalTerm, x: np.ndarray, tol: float = DEFAULT_TOL) -> VerifyX:
    if np.shape(x) != (h.d, h.d):
        raise ValueError(f"X has shape {np.shape(x)}, not {(h.d, h.d)} for site dimension {h.d}")
    residual = _defect_norm(*operator_schmidt(h, tol).inner, x)
    w = np.linalg.eigvalsh((x + la.dag(x)) / 2.0)
    return VerifyX(residual=residual, pd=bool(w[0] > tol), min_eigenvalue=float(w[0]))


def _defect_gram(a: np.ndarray, b: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real Gram matrix of X -> D(X) on the hermitian basis.

    With row-major vec, D(X) has blocks L_ij vec(X), L_ij = b_i (x) a_j^T -
    a_j (x) b_i^T, and G = sum_ij L_ij^dag L_ij.  The two direct terms are
    separable; the cross term sum_ij (b_i^dag a_j) (x) (b_i a_j^dag)^T is
    one (d^2 x r^2)(r^2 x d^2) product.  O(d^8) at full Schmidt rank.
    """
    r, d = a.shape[0], basis.shape[1]
    bb = np.einsum("kji,kjl->il", b.conj(), b)  # sum b^dag b
    aa = np.einsum("kji,kjl->il", a.conj(), a)  # sum a^dag a
    b_b = np.einsum("kij,klj->il", b, b.conj())  # sum b b^dag
    a_a = np.einsum("kij,klj->il", a, a.conj())  # sum a a^dag
    g = np.kron(bb, a_a.T) + np.kron(aa, b_b.T)
    left = np.einsum("iba,jbc->ijac", b.conj(), a).reshape(r * r, d * d)
    right = np.einsum("iab,jcb->ijca", b, a.conj()).reshape(r * r, d * d)
    cross = (left.T @ right).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    g = g - cross - la.dag(cross)
    u = basis.reshape(d * d, d * d).T  # column m = vec(G_m)
    return (la.dag(u) @ g @ u).real


def solve_x(h: LocalTerm, tol: float = DEFAULT_TOL, seed: int = 0) -> XCandidate | None:
    """Search the solution space of the intertwining condition for a PD element.

    The hermitian solution space is the null space of the Gram matrix of
    the defect map over a hermitian basis.  Candidates tried: the
    projection of the identity first, then ``PD_SEARCH_TRIES`` seeded random
    mixtures, keeping the best minimal eigenvalue (the first on a tie).
    All candidates are scored as one stack; the winner alone is rebuilt
    and reported.  Returns None when nothing positive definite is found;
    absence does not prove that no PD solution exists.
    """
    d = h.d
    basis = la.hermitian_basis(d)
    a, b = operator_schmidt(h, tol).inner
    lam, vecs = np.linalg.eigh(_defect_gram(a, b, basis))
    null = vecs[:, lam <= NULL_RTOL * max(float(lam[-1]), 1.0)]
    if null.shape[1] == 0:
        return None

    def make_x(coeffs: np.ndarray) -> np.ndarray:
        x = np.tensordot(null @ coeffs, basis, axes=(0, 0))
        nrm = np.linalg.norm(x)
        if nrm < 1e-14:
            return x
        return x * (np.sqrt(d) / nrm)

    id_coeffs = np.zeros(d * d)
    id_coeffs[0] = np.sqrt(d)  # identity in the hermitian basis
    proj = null.T @ id_coeffs
    candidates = np.random.default_rng(seed).standard_normal((PD_SEARCH_TRIES, null.shape[1]))
    if np.linalg.norm(proj) > 1e-12:
        candidates = np.vstack([proj, candidates])

    # Score: the larger of min eig and -max eig (X or -X), after scaling to
    # ||X||_F = sqrt(d); zero-norm candidates are skipped.
    xs = np.tensordot(candidates @ null.T, basis, axes=(1, 0))
    norms = np.linalg.norm(xs, axis=(1, 2))
    live = norms >= 1e-14
    if not live.any():
        return None
    w = np.linalg.eigvalsh(xs[live] * (np.sqrt(d) / norms[live])[:, None, None])
    best = candidates[live][int(np.argmax(np.maximum(w[:, 0], -w[:, -1])))]

    x = make_x(best)
    w = np.linalg.eigvalsh(x)
    lo = float(w[0])
    if -float(w[-1]) > lo:
        x = -x
        lo = -float(w[-1])
    if lo <= tol:
        return None
    # ||D(X)||_F <= 2 ||h||_F^2 ||X||_2: accept a relative defect of 1e-10.
    # X is hermitian with ascending eigenvalues w: ||X||_2 = max(-w_0, w_-1).
    residual = _defect_norm(a, b, x)
    if residual > max(tol, 1e-10 * np.linalg.norm(h.op) ** 2 * max(-w[0], w[-1])):
        return None
    return XCandidate(x=x, min_eigenvalue=lo, residual=residual)


@dataclass
class CommutifyResult:
    h_prime: LocalTerm
    certificate: dict


def commutify(h: LocalTerm, x: np.ndarray, tol: float = DEFAULT_TOL) -> CommutifyResult:
    """Conjugate ``h`` by X^(1/2) (x) X^(1/2) and certify the result.

    The certificate records the commutator residual of the projectorized
    result (must pass), the intertwining residual of X, and an exact-
    diagonalization check at one small chain length that the kernel of
    the new chain maps onto the kernel of the old one under sitewise
    X^(1/2).
    """
    check = verify_x(h, x, tol)
    if not check.pd:
        raise CommutificationFailed(
            f"X is not positive definite (min eigenvalue {check.min_eigenvalue:.3e})"
        )
    w, v = np.linalg.eigh((x + la.dag(x)) / 2.0)
    root = (v * np.sqrt(np.clip(w, tol, None))) @ la.dag(v)
    conj = np.kron(root, root)
    h_prime = LocalTerm(h.d, (conj @ h.op @ conj + la.dag(conj @ h.op @ conj)) / 2.0)
    p_prime = projectorize(h_prime, tol)
    resid = commutator_residual(operator_schmidt(p_prime, tol))
    if resid > np.sqrt(tol):
        raise CommutificationFailed(
            f"conjugated term is not commuting (residual {resid:.3e}); X is invalid"
        )
    cert = {
        "commutator_residual": float(resid),
        "x_residual": float(check.residual),
        "min_eigenvalue": float(check.min_eigenvalue),
    }
    cert["kernel_n"], cert["kernel_match"] = same_chain_kernel(h_prime, h, sitewise=root)
    return CommutifyResult(h_prime=h_prime, certificate=cert)


@dataclass
class InjectiveMpsMap:
    """Hermitian positive-definite sitewise map of an injective MPS."""

    chi: int
    s: np.ndarray  # on C^(chi^2)
    phi_max: np.ndarray  # maximally entangled vector, local dimension chi

    def to_dict(self) -> dict:
        return {"chi": self.chi, "S": self.s}


def _phi_max(chi: int) -> np.ndarray:
    phi = np.zeros(chi * chi, dtype=complex)
    for i in range(chi):
        phi[i * chi + i] = 1.0
    return phi / np.sqrt(chi)


def polar_normalize(s_raw: np.ndarray, tol: float = DEFAULT_TOL) -> InjectiveMpsMap:
    """Positive polar factor of an injective map (the unitary is dropped).

    Removing the unitary changes the MPS only by a sitewise unitary, which
    preserves the phase.
    """
    s_raw = np.asarray(s_raw, dtype=complex)
    dim = s_raw.shape[0]
    chi = round(np.sqrt(dim))
    if chi * chi != dim or s_raw.shape != (dim, dim):
        raise ValueError("map must be square on a chi^2-dimensional space")
    u, sv, vh = np.linalg.svd(s_raw)
    if sv[-1] <= tol * max(sv[0], 1.0):
        raise SingularS(f"smallest singular value {sv[-1]:.3e} is numerically zero")
    pos = (la.dag(vh) * sv) @ vh
    return InjectiveMpsMap(chi=chi, s=(pos + la.dag(pos)) / 2.0, phi_max=_phi_max(chi))


def random_injective_map(chi: int, seed: int = 0) -> InjectiveMpsMap:
    """Seeded random hermitian PD map with controlled conditioning."""
    rng = np.random.default_rng(seed)
    v = la.haar_unitary(chi * chi, rng)
    w = rng.uniform(0.6, 1.8, size=chi * chi)
    s = (v * w) @ la.dag(v)
    return InjectiveMpsMap(chi=chi, s=(s + la.dag(s)) / 2.0, phi_max=_phi_max(chi))


@dataclass
class MpsParentResult:
    p: ProjectorTerm  # commuting parent of the entangled-pair chain
    h: LocalTerm  # parent of the S-deformed MPS, generally non-commuting
    s_map: InjectiveMpsMap
    layout: str


def mps_parent(m: InjectiveMpsMap) -> MpsParentResult:
    """Commuting parent projector on doubled spins and its S-deformed term.

    Each site is C^chi (x) C^chi with parts (l, r); the projector removes
    the maximally entangled state on the inner pair (r_j, l_{j+1}).  The
    deformed term h = (S^-1 (x) S^-1) P (S^-1 (x) S^-1) has the sitewise-S
    image of the entangled chain as its unique ground state.
    """
    chi = m.chi
    d = chi * chi
    phi = m.phi_max
    mid = np.eye(d, dtype=complex) - np.outer(phi, phi.conj())
    op = identity_slots(chi, mid, chi)
    p = ProjectorTerm(d, op)
    p.validate()
    w, v = np.linalg.eigh(m.s)
    if w[0] <= 0:
        raise SingularS(f"map not positive definite (min eigenvalue {w[0]:.3e})")
    sinv = (v / w) @ la.dag(v)
    conj = np.kron(sinv, sinv)
    h_op = conj @ p.op @ conj
    h = LocalTerm(d, (h_op + la.dag(h_op)) / 2.0)
    return MpsParentResult(
        p=p,
        h=h,
        s_map=m,
        layout="site = (l, r) of dimension chi each; pair state on (r_j, l_j+1)",
    )

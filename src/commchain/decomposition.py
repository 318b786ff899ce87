"""Constructive block decomposition of the single-site space.

Given a commuting two-site projector P, the local space C^d splits as a
direct sum of tensor products H_l (x) H_r such that the factors through
which the left-neighbor term touches the site act only on H_l and the
factors of the right-neighbor term act only on H_r.

The construction is the standard finite-dimensional *-algebra machinery,
done numerically:

1. build the joint algebra D generated by both Schmidt factor families,
2. split C^d along the spectral projections of a generic hermitian
   element of the center of D,
3. inside each block, factor the algebra generated by the second-slot
   family alone (a full matrix algebra with multiplicity) by
   eigendecomposing a generic element of its commutant and aligning the
   resulting copies of H_l with intertwiners from the commutant.

Correctness is enforced by verifying the defining conditions numerically
before returning, with a bounded number of internal reseeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .errors import DecompositionFailed
from .operators import DEFAULT_TOL, ProjectorTerm, commutator_residual, operator_schmidt

MAX_RESEEDS = 8


@dataclass
class OperatorAlgebra:
    """Unital *-algebra given by an orthonormal (Hilbert-Schmidt) basis."""

    ambient_dim: int
    basis: np.ndarray  # shape (dim, n, n)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project_coeffs(self, op: np.ndarray) -> np.ndarray:
        """Coefficients of the orthogonal projection of ``op`` onto the span."""
        flat = self.basis.reshape(self.dim, -1)
        return flat.conj() @ op.reshape(-1)

    def distance_to_span(self, op: np.ndarray) -> float:
        coeffs = self.project_coeffs(op)
        proj = np.tensordot(coeffs, self.basis, axes=(0, 0))
        return float(np.linalg.norm(op - proj))

    def closure_defect(self) -> float:
        """Largest distance of a basis product or adjoint from the span."""
        worst = 0.0
        for a in self.basis:
            worst = max(worst, self.distance_to_span(la.dag(a)))
            for b in self.basis:
                worst = max(worst, self.distance_to_span(a @ b))
        return worst

    def random_hermitian_element(self, rng: np.random.Generator) -> np.ndarray:
        w = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        z = np.tensordot(w, self.basis, axes=(0, 0))
        return (z + la.dag(z)) / 2.0

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        w = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return np.tensordot(w, self.basis, axes=(0, 0))


def generate_algebra(ops: list[np.ndarray], tol: float = DEFAULT_TOL) -> OperatorAlgebra:
    """Smallest unital *-algebra containing ``ops``.

    Closure is computed by alternating pairwise products with the current
    basis and re-orthonormalization until the dimension stabilizes.
    """
    if not ops:
        raise ValueError("need at least one generator dimension")
    n = ops[0].shape[0]
    rows = [np.eye(n, dtype=complex).reshape(-1)]
    rows += [np.asarray(op, dtype=complex).reshape(-1) for op in ops]
    basis = la.orthonormalize_rows(np.array(rows), rtol=tol)
    while True:
        mats = basis.reshape(-1, n, n)
        prods = np.einsum("aij,bjk->abik", mats, mats).reshape(-1, n * n)
        new = la.orthonormalize_rows(np.vstack([basis, prods]), rtol=tol)
        if new.shape[0] == basis.shape[0]:
            return OperatorAlgebra(ambient_dim=n, basis=new.reshape(-1, n, n))
        basis = new


def commutant(alg: OperatorAlgebra, tol: float = DEFAULT_TOL) -> OperatorAlgebra:
    """Algebra of everything commuting with ``alg``.

    Solves the stacked linear system [Z, b] = 0 over all basis elements b;
    with row-major vec this is (b (x) 1 - 1 (x) b^T) vec(Z) = 0.
    """
    n = alg.ambient_dim
    eye = np.eye(n)
    rows = []
    for b in alg.basis:
        rows.append(np.kron(b, eye) - np.kron(eye, b.T))
    stacked = np.vstack(rows)
    null = la.nullspace(stacked, rtol=tol)
    basis = la.orthonormalize_rows(null.T, rtol=tol)
    return OperatorAlgebra(ambient_dim=n, basis=basis.reshape(-1, n, n))


def center(alg: OperatorAlgebra, tol: float = DEFAULT_TOL) -> OperatorAlgebra:
    """Center of the algebra: elements of the span commuting with all of it."""
    n = alg.ambient_dim
    cols = []
    for bi in alg.basis:
        col = [ (bi @ bj - bj @ bi).reshape(-1) for bj in alg.basis ]
        cols.append(np.concatenate(col))
    stacked = np.array(cols).T  # rows: constraints, cols: coefficients
    coeff_null = la.nullspace(stacked, rtol=tol)
    elems = [np.tensordot(coeff_null[:, k], alg.basis, axes=(0, 0)) for k in range(coeff_null.shape[1])]
    if not elems:
        raise DecompositionFailed("center of the joint algebra is empty")
    basis = la.orthonormalize_rows(np.array([e.reshape(-1) for e in elems]), rtol=tol)
    return OperatorAlgebra(ambient_dim=n, basis=basis.reshape(-1, n, n))


@dataclass
class Block:
    l: int
    r: int
    isometry: np.ndarray  # d x (l*r), orthonormal columns, col index a*r + b


@dataclass
class SiteDecomposition:
    d: int
    blocks: list[Block]

    @property
    def block_dims(self) -> list[tuple[int, int]]:
        return [(b.l, b.r) for b in self.blocks]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "blocks": [
                {
                    "l": b.l,
                    "r": b.r,
                    "isometry": la.complex_to_json(b.isometry),
                }
                for b in self.blocks
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SiteDecomposition":
        blocks = []
        for rec in data["blocks"]:
            iso = la.complex_from_json(rec["isometry"])
            blocks.append(Block(l=int(rec["l"]), r=int(rec["r"]), isometry=iso))
        return cls(d=int(data["d"]), blocks=blocks)

    def completeness_defect(self) -> float:
        total = np.zeros((self.d, self.d), dtype=complex)
        for b in self.blocks:
            total += b.isometry @ la.dag(b.isometry)
        return la.op_norm(total - np.eye(self.d))


class _Retry(Exception):
    pass


def _nearest_left_action(m: np.ndarray, l: int, r: int) -> tuple[np.ndarray, float]:
    """Closest s~ (x) 1_r to ``m`` and the distance to it."""
    t = m.reshape(l, r, l, r)
    stilde = np.einsum("axbx->ab", t) / r
    return stilde, la.op_norm(m - np.kron(stilde, np.eye(r)))


def _nearest_right_action(m: np.ndarray, l: int, r: int) -> tuple[np.ndarray, float]:
    """Closest 1_l (x) c~ to ``m`` and the distance to it."""
    t = m.reshape(l, r, l, r)
    ctilde = np.einsum("xaxb->ab", t) / l
    return ctilde, la.op_norm(m - np.kron(np.eye(l), ctilde))


def _verify_blocks(
    blocks: list[Block],
    left_family: list[np.ndarray],
    right_family: list[np.ndarray],
    thresh: float,
) -> None:
    """Check the defining conditions of the decomposition.

    ``left_family`` are the factors that must act as s~ (x) 1_r (the site
    seen from its left neighbor); ``right_family`` must act as 1_l (x) c~.
    The slot conventions are easy to get backwards, so failures name the
    family explicitly.
    """
    for name, family, project in (
        ("left-neighbor factors (must act on H_l)", left_family, _nearest_left_action),
        ("right-neighbor factors (must act on H_r)", right_family, _nearest_right_action),
    ):
        for op in family:
            for i, bi in enumerate(blocks):
                _, resid = project(la.dag(bi.isometry) @ op @ bi.isometry, bi.l, bi.r)
                if resid > thresh:
                    raise _Retry(f"{name}: in-block residual {resid:.3e} at block {i}")
                for j, bj in enumerate(blocks):
                    if i == j:
                        continue
                    cross = la.op_norm(la.dag(bi.isometry) @ op @ bj.isometry)
                    if cross > thresh:
                        raise _Retry(f"{name}: cross-block residual {cross:.3e} at ({i},{j})")


def _factor_block(
    v: np.ndarray,
    left_ops: list[np.ndarray],
    rng: np.random.Generator,
    tol: float,
) -> Block:
    """Split one central block into H_l (x) H_r.

    ``v``: orthonormal columns spanning the block.  ``left_ops``: the
    factor family that generates a full matrix algebra (with multiplicity)
    on the block; its action defines H_l.
    """
    n = v.shape[1]
    gens = [la.dag(v) @ op @ v for op in left_ops]
    alg = generate_algebra(gens, tol) if gens else generate_algebra([np.eye(n, dtype=complex)], tol)
    l = math.isqrt(alg.dim)
    if l * l != alg.dim or n % l != 0:
        raise _Retry(f"block algebra dimension {alg.dim} is not a perfect square fitting {n}")
    r = n // l
    if r == 1:
        return Block(l=l, r=1, isometry=v.copy())
    comm = commutant(alg, tol)
    if comm.dim != r * r:
        raise _Retry(f"block commutant dimension {comm.dim}, expected {r * r}")
    k = comm.random_hermitian_element(rng)
    w, vecs = np.linalg.eigh(k)
    clusters = la.cluster_eigenvalues(w)
    if len(clusters) != r or any(c.stop - c.start != l for c in clusters):
        raise _Retry("commutant element did not split the block into equal copies")
    copies = [vecs[:, c] for c in clusters]
    y = comm.random_element(rng)
    cols = np.zeros((n, n), dtype=complex)
    base = copies[0]
    for b, copy in enumerate(copies):
        if b == 0:
            aligned = base
        else:
            overlap = la.dag(copy) @ y @ base
            uu, ss, vvh = np.linalg.svd(overlap)
            if ss[-1] <= 1e-8 * max(ss[0], 1.0):
                raise _Retry("intertwiner between copies is singular")
            aligned = copy @ (uu @ vvh)
        for a in range(l):
            cols[:, a * r + b] = aligned[:, a]
    return Block(l=l, r=r, isometry=v @ cols)


def _fingerprint(block: Block) -> tuple:
    return tuple(np.round(np.abs(block.isometry[:, 0]), 6))


def decompose_site(
    p: ProjectorTerm, tol: float = DEFAULT_TOL, seed: int = 0
) -> SiteDecomposition:
    """Block decomposition of C^d induced by the commuting projector ``p``.

    Blocks are sorted by (l*r, l, fingerprint of the first isometry
    column), which is stable and reproducible for a fixed seed.
    """
    resid = commutator_residual(p)
    if resid > np.sqrt(tol):
        raise DecompositionFailed(
            f"input term is not commuting (commutator residual {resid:.3e})"
        )
    d = p.d
    pair = operator_schmidt(p, tol)
    left_family = pair.right_factors  # act on the site from the left bond
    right_family = pair.left_factors  # act on the site from the right bond
    eye = [np.eye(d, dtype=complex)]
    joint = generate_algebra(left_family + right_family + eye, tol)
    zc = center(joint, tol)
    rng = np.random.default_rng(seed)
    thresh = np.sqrt(tol)
    last = "no attempt"
    for _ in range(MAX_RESEEDS):
        try:
            z = zc.random_hermitian_element(rng)
            w, vecs = np.linalg.eigh(z)
            clusters = la.cluster_eigenvalues(w)
            if len(clusters) != zc.dim:
                raise _Retry(
                    f"central element produced {len(clusters)} clusters for center dim {zc.dim}"
                )
            blocks = [
                _factor_block(vecs[:, c], left_family, rng, tol) for c in clusters
            ]
            blocks.sort(key=lambda b: (b.l * b.r, b.l, _fingerprint(b)))
            _verify_blocks(blocks, left_family, right_family, thresh)
            dec = SiteDecomposition(d=d, blocks=blocks)
            if dec.completeness_defect() > thresh:
                raise _Retry("isometries do not resolve the identity")
            return dec
        except _Retry as exc:
            last = str(exc)
    raise DecompositionFailed(f"decomposition failed after {MAX_RESEEDS} attempts: {last}")

"""Constructive block decomposition of the single-site space.

Given a commuting two-site projector P, the local space C^d splits as a
direct sum of tensor products H_l (x) H_r such that the factors through
which the left-neighbor term touches the site act only on H_l and the
factors of the right-neighbor term act only on H_r.

The construction is the standard finite-dimensional *-algebra machinery,
done numerically.  The Schmidt factors of P are hermitian, so the set S of
both factor families is self-adjoint and the algebra D it generates is its
own double commutant, D = D''.  D itself is never built:

1. the commutant D' = S' is the null space of one stacked real system
   i[g, X] = 0 over g in S, with X in the real space of hermitian matrices;
2. the center Z(D) = D' n D'' = Z(D') is the part of D' commuting with two
   generic hermitian elements of D' (which generate D'), and C^d splits
   along the spectral projections of a generic hermitian central element;
3. inside each block the second-slot family alone generates M_l (x) 1_r,
   whose commutant 1_l (x) M_r is again one null space (r = sqrt(dim),
   l = n / r); a generic element of it splits the block into r copies of
   H_l, and intertwiners from the commutant align the copies.

Correctness is enforced by verifying the defining conditions numerically
before returning, with a bounded number of internal reseeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .errors import DecompositionFailed
from .operators import DEFAULT_TOL, OperatorSchmidt, identity_slots

MAX_RESEEDS = 8

_SQRT2 = np.sqrt(2.0)


@dataclass
class OperatorAlgebra:
    """Unital *-algebra given by an orthonormal (Hilbert-Schmidt) basis."""

    ambient_dim: int
    basis: np.ndarray  # shape (dim, n, n)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def random_hermitian_element(self, rng: np.random.Generator) -> np.ndarray:
        w = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        z = np.tensordot(w, self.basis, axes=(0, 0))
        return (z + la.dag(z)) / 2.0

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        w = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return np.tensordot(w, self.basis, axes=(0, 0))


def _coords(x: np.ndarray) -> np.ndarray:
    """Real orthonormal coordinates of hermitian ``x`` (batched over leading axes).

    (X_ii, sqrt2 Re X_ij, sqrt2 Im X_ij for i < j): the Hilbert-Schmidt
    inner product of two hermitian matrices is the dot product of these.
    """
    iu, ju = np.triu_indices(x.shape[-1], 1)
    up = x[..., iu, ju] * _SQRT2
    return np.concatenate([np.diagonal(x, axis1=-2, axis2=-1).real, up.real, up.imag], axis=-1)


def _ad_stack(ops: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows (g, coordinate), columns (basis element X): coordinates of i[g, X].

    ``ops`` (k, n, n) and ``basis`` (m, n, n) are hermitian, so every i[g, X]
    is hermitian and the matrix is real.
    """
    prod = ops[:, None] @ basis[None]  # g X, shape (k, m, n, n)
    comm = 1j * (prod - np.swapaxes(prod, -1, -2).conj())  # (g X)^dag = X g
    return np.swapaxes(_coords(comm), 1, 2).reshape(-1, basis.shape[0])


def commutant(ops: np.ndarray, tol: float = DEFAULT_TOL) -> OperatorAlgebra:
    """Algebra of everything commuting with the hermitian family ``ops`` (k, n, n).

    Only the hermitian parts of ``ops`` are used (compressions like
    V^dag g V are hermitian up to rounding).  A self-adjoint family's
    commutant is a *-algebra, so it is spanned by its hermitian elements:
    X runs over the real span of ``hermitian_basis`` and i[g, X] is read
    in the coordinates of ``_coords``.  Both are orthonormal, so the real
    stack is the complex (g (x) 1 - 1 (x) g^T) stack in unitary changes of
    basis (times -i): it has the same singular values, and ``nullspace``'s
    cut is unchanged.  A tall stack is reduced to its n^2 x n^2 R factor
    first, which keeps the singular values.
    """
    ops = np.asarray(ops, dtype=complex)
    n = ops.shape[-1]
    ops = (ops + np.swapaxes(ops, -1, -2).conj()) / 2.0
    basis = la.hermitian_basis(n)
    stack = _ad_stack(ops, basis)
    if stack.shape[0] > stack.shape[1]:
        stack = np.linalg.qr(stack, mode="r")
    null = la.nullspace(stack, rtol=tol).real
    return OperatorAlgebra(ambient_dim=n, basis=np.tensordot(null.T, basis, axes=(1, 0)))


def _center(alg: OperatorAlgebra, rng: np.random.Generator, tol: float) -> OperatorAlgebra:
    """Center of the *-algebra ``alg`` (with a hermitian basis).

    Two generic hermitian elements generate ``alg``, so its center is the
    part of ``alg`` commuting with both: one null space in the
    coefficients of ``alg.basis``.
    """
    pair = np.array([alg.random_hermitian_element(rng) for _ in range(2)])
    coeffs = la.nullspace(_ad_stack(pair, alg.basis), rtol=tol).real
    return OperatorAlgebra(
        ambient_dim=alg.ambient_dim, basis=np.tensordot(coeffs.T, alg.basis, axes=(1, 0))
    )


@dataclass
class Block:
    l: int
    r: int
    isometry: np.ndarray  # d x (l*r), orthonormal columns


@dataclass
class SiteDecomposition:
    """C^d = sum_a H_{a_l} (x) H_{a_r}, one ``Block`` per summand.

    The block basis is U = [W_0 ... W_n] (``u``): block a holds the columns
    ``offsets[a]`` to ``offsets[a + 1]``, and inside a block column i*r + j
    is |i> (x) |j> of H_l (x) H_r.  On two sites, in the basis U (x) U, every
    bond acts as 1_l (x) Q_ab (x) 1_r; ``assemble`` is the one place that
    builds a two-site operator from such blocks.
    """

    d: int
    blocks: list[Block]

    @property
    def block_dims(self) -> list[tuple[int, int]]:
        return [(b.l, b.r) for b in self.blocks]

    @property
    def u(self) -> np.ndarray:
        return np.hstack([b.isometry for b in self.blocks])

    @property
    def offsets(self) -> np.ndarray:
        return np.cumsum([0] + [b.l * b.r for b in self.blocks])

    def completeness_defect(self) -> float:
        u = self.u
        return float(np.linalg.norm(u @ la.dag(u) - np.eye(self.d)))

    def assemble(self, ops: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
        """sum_ab (W_a x W_b)(1_l x O_ab x 1_r)(W_a x W_b)^dag, O_ab = ``ops[a, b]``.

        A pair missing from ``ops`` acts as the identity.  Every
        1_l x O_ab x 1_r is placed in the block basis, and the sum is
        conjugated back once by U x U.
        """
        u, offs, dims = self.u, self.offsets, self.block_dims
        dim = u.shape[1]
        mid = np.eye(dim * dim, dtype=complex).reshape(dim, dim, dim, dim)
        for (a, b), op in ops.items():
            (la_, ra), (lb, rb) = dims[a], dims[b]
            sa, sb = slice(offs[a], offs[a + 1]), slice(offs[b], offs[b + 1])
            block = identity_slots(la_, op, rb)
            mid[sa, sb, sa, sb] = block.reshape(la_ * ra, lb * rb, la_ * ra, lb * rb)
        uu = np.kron(u, u)
        return uu @ mid.reshape(dim * dim, dim * dim) @ la.dag(uu)


class _Retry(Exception):
    pass


def _verify_blocks(
    dec: SiteDecomposition,
    left_family: np.ndarray,
    right_family: np.ndarray,
    thresh: float,
) -> None:
    """Check the defining conditions of the decomposition.

    ``left_family`` are the factors that must act as s~ (x) 1_r (the site
    seen from its left neighbor); ``right_family`` must act as 1_l (x) c~.
    The slot conventions are easy to get backwards, so failures name the
    family explicitly.  The residuals are the Frobenius norms of the
    (factor, block, block) slices of U^dag F U, with the closest s~ (x) 1_r,
    resp. 1_l (x) c~ subtracted in place on the diagonal blocks; the first
    failure is reported in the order family, factor, block, then in-block
    before cross-block.
    """
    names = (
        "left-neighbor factors (must act on H_l)",
        "right-neighbor factors (must act on H_r)",
    )
    nl = len(left_family)
    u, offs = dec.u, dec.offsets
    t = la.dag(u) @ np.concatenate([left_family, right_family]) @ u
    for i, b in enumerate(dec.blocks):
        s = slice(offs[i], offs[i + 1])
        t5 = t[:, s, s].reshape(-1, b.l, b.r, b.l, b.r)
        near_left = np.einsum("kaxbx,yz->kaybz", t5[:nl], np.eye(b.r)) / b.r
        near_right = np.einsum("kxaxb,yz->kyazb", t5[nl:], np.eye(b.l)) / b.l
        t[:, s, s] -= np.concatenate([near_left, near_right]).reshape(-1, b.l * b.r, b.l * b.r)
    # Squared entries summed over each (block, block) slice: (factor, i, j).
    sq = t.real**2 + t.imag**2
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(sq, offs[:-1], axis=1), offs[:-1], axis=2))
    bad = norms > thresh
    hits = np.argwhere(bad.any(axis=2))
    if len(hits):
        f, i = hits[0]
        name = names[0] if f < nl else names[1]
        if bad[f, i, i]:
            raise _Retry(f"{name}: in-block residual {norms[f, i, i]:.3e} at block {i}")
        j = int(np.argmax(bad[f, i]))
        raise _Retry(f"{name}: cross-block residual {norms[f, i, j]:.3e} at ({i},{j})")


def _factor_block(
    v: np.ndarray,
    left_ops: np.ndarray,
    rng: np.random.Generator,
    tol: float,
) -> Block:
    """Split one central block into H_l (x) H_r.

    ``v``: orthonormal columns spanning the block.  ``left_ops``: the
    factor family that generates a full matrix algebra M_l (x) 1_r on the
    block; its commutant 1_l (x) M_r has dimension r^2.
    """
    n = v.shape[1]
    comm = commutant(la.dag(v) @ left_ops @ v, tol)
    r = math.isqrt(comm.dim)
    if r * r != comm.dim or n % r != 0:
        raise _Retry(f"block commutant dimension {comm.dim} is not a perfect square dividing {n}")
    l = n // r
    if r == 1:
        return Block(l=l, r=1, isometry=v.copy())
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


def _vertex_key(block: Block) -> tuple:
    """(l*r, l, rounded entries of the range projector V V^dag).

    The range projector is a minimal central projection: the term alone
    fixes it, whatever the rng stream or the gauge of V, and no two blocks
    share it.
    """
    proj = np.round(block.isometry @ la.dag(block.isometry), 6)
    return (block.l * block.r, block.l, tuple(proj.real.ravel()), tuple(proj.imag.ravel()))


def decompose_site(
    f: OperatorSchmidt, tol: float = DEFAULT_TOL, seed: int = 0
) -> SiteDecomposition:
    """Block decomposition of C^d induced by the factors ``f`` of a commuting projector.

    Nothing here gates the term (``canonical.Analysis.commuting`` does).  Blocks
    are sorted by ``_vertex_key``, which depends on the term only; the
    isometries within a block are reproducible for a fixed seed.
    """
    d = f.d
    # B_k act on the site from its left bond, A_k from its right bond.
    right_family, left_family = f.folded
    joint = commutant(np.concatenate([left_family, right_family]), tol)
    rng = np.random.default_rng(seed)
    thresh = np.sqrt(tol)
    last = "no attempt"
    for _ in range(MAX_RESEEDS):
        try:
            zc = _center(joint, rng, tol)
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
            blocks.sort(key=_vertex_key)
            dec = SiteDecomposition(d=d, blocks=blocks)
            _verify_blocks(dec, left_family, right_family, thresh)
            if dec.completeness_defect() > thresh:
                raise _Retry("isometries do not resolve the identity")
            return dec
        except _Retry as exc:
            last = str(exc)
    raise DecompositionFailed(f"decomposition failed after {MAX_RESEEDS} attempts: {last}")

"""Bond projector extraction and the directed interaction graph.

For every ordered pair of blocks (a, b) the two-site projector compresses
to 1_{l_a} (x) Q (x) 1_{r_b} with Q a projector on H_{a_r} (x) H_{b_l}.
The compression and its inverse both work in the block basis of
``SiteDecomposition``.  The graph has one vertex per block and an edge
a -> b whenever Q has a nontrivial kernel; kernel dimensions and ranks are
collected in the integer transfer matrices M and R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .decomposition import SiteDecomposition
from .errors import FactorizationFailed
from .operators import DEFAULT_TOL, ProjectorTerm, identity_slots

__all__ = [
    "BondFactor",
    "InteractionGraph",
    "extract_bond_projectors",
    "build_graph",
    "reconstruct_term",
    "export_dot",
]


@dataclass
class BondFactor:
    """Projector Q acting on H_{a_r} (x) H_{b_l} for blocks a -> b."""

    q: np.ndarray
    kernel_dim: int
    kernel_basis: np.ndarray  # orthonormal columns spanning ker q


@dataclass
class InteractionGraph:
    M: np.ndarray  # kernel dimensions, dtype int
    R: np.ndarray  # ranks, dtype int
    block_dims: list[tuple[int, int]]

    @property
    def num_vertices(self) -> int:
        return len(self.M)

    def to_dict(self) -> dict:
        return {
            "M": self.M.tolist(),
            "R": self.R.tolist(),
            "blocks": [[l, r] for l, r in self.block_dims],
        }


def extract_bond_projectors(
    p: ProjectorTerm, dec: SiteDecomposition, tol: float = DEFAULT_TOL
) -> list[list[BondFactor]]:
    """Compress ``p`` onto every ordered block pair and strip identity slots.

    Raises FactorizationFailed when a compression does not factor as
    1 (x) Q (x) 1, which signals a decomposition that does not belong to
    this term.
    """
    thresh = np.sqrt(tol)
    blocks = dec.blocks
    # Compress once onto U x U: the slice of block pair (a, b) is exactly
    # (W_a x W_b)^dag P (W_a x W_b).
    u, offs = dec.u, dec.offsets
    uu = np.kron(u, u)
    dim = u.shape[1]
    full = (la.dag(uu) @ p.op @ uu).reshape(dim, dim, dim, dim)
    bonds: list[list[BondFactor]] = []
    for a, ba in enumerate(blocks):
        sa = slice(offs[a], offs[a + 1])
        row = []
        for b, bb in enumerate(blocks):
            sb = slice(offs[b], offs[b + 1])
            size = ba.l * ba.r * bb.l * bb.r
            comp = full[sa, sb, sa, sb].reshape(size, size)
            t = comp.reshape(ba.l, ba.r, bb.l, bb.r, ba.l, ba.r, bb.l, bb.r)
            q = np.einsum("xabyxcdy->abcd", t).reshape(
                ba.r * bb.l, ba.r * bb.l
            ) / (ba.l * bb.r)
            resid = np.linalg.norm(comp - identity_slots(ba.l, q, bb.r))
            if resid > thresh:
                raise FactorizationFailed(
                    f"bond ({a},{b}) does not factor with identity outer slots "
                    f"(residual {resid:.3e})"
                )
            q = (q + la.dag(q)) / 2.0
            idem = np.linalg.norm(q @ q - q)
            if idem > thresh:
                raise FactorizationFailed(
                    f"bond ({a},{b}) compression is not a projector (defect {idem:.3e})"
                )
            # Projector spectrum is {0,1}; threshold at 1/2 is robust.
            w_eig, v_eig = np.linalg.eigh(q)
            kernel = v_eig[:, w_eig < 0.5]
            row.append(BondFactor(q=q, kernel_dim=kernel.shape[1], kernel_basis=kernel))
        bonds.append(row)
    resid = np.linalg.norm(reconstruct_term(dec, bonds) - p.op)
    if resid > thresh:
        raise FactorizationFailed(f"reconstruction residual {resid:.3e}")
    return bonds


def reconstruct_term(dec: SiteDecomposition, bonds: list[list[BondFactor]]) -> np.ndarray:
    """Rebuild the two-site operator from the block data (inverse of extraction)."""
    return dec.assemble({(a, b): bf.q for a, row in enumerate(bonds) for b, bf in enumerate(row)})


def build_graph(dec: SiteDecomposition, bonds: list[list[BondFactor]]) -> InteractionGraph:
    m = np.array([[bf.kernel_dim for bf in row] for row in bonds], dtype=int)
    r = np.array([[bf.q.shape[0] for bf in row] for row in bonds], dtype=int) - m
    return InteractionGraph(M=m, R=r, block_dims=dec.block_dims)


def export_dot(g: InteractionGraph) -> str:
    """Graphviz DOT rendering with kernel dimensions as edge labels."""
    lines = ["digraph interaction {"]
    for v in range(g.num_vertices):
        l, r = g.block_dims[v]
        lines.append(f'  a{v} [label="a{v} (l={l}, r={r})"];')
    for a in range(g.num_vertices):
        for b in range(g.num_vertices):
            if g.M[a, b] > 0:
                lines.append(f'  a{a} -> a{b} [label="k={int(g.M[a, b])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

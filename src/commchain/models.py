"""Builtin two-site models used by the CLI, and the synthesizer of the test corpus.

``synthesize_local_term`` builds random commuting projectors with a
prescribed block and graph structure.
"""

from __future__ import annotations

import re

import numpy as np

from . import _linalg as la
from .decomposition import Block, SiteDecomposition
from .errors import InvalidSpec
from .operators import ProjectorTerm

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def ising() -> ProjectorTerm:
    """Projector penalizing unequal neighbors: 1 - |00><00| - |11><11|."""
    op = np.eye(4, dtype=complex)
    op[0, 0] = 0.0
    op[3, 3] = 0.0
    return ProjectorTerm(2, op)


def fig2() -> ProjectorTerm:
    """d=4 model (1 - (XX) (x) (ZZ)) / 2 on pairs of qubits per site.

    Commuting and translation invariant but not scale invariant: its graph
    has a directed three-cycle through the Bell-type blocks.
    """
    xx = np.kron(SIGMA_X, SIGMA_X)
    zz = np.kron(SIGMA_Z, SIGMA_Z)
    op = (np.eye(16, dtype=complex) - np.kron(xx, zz)) / 2.0
    return ProjectorTerm(4, op)


def zero(d: int = 2) -> ProjectorTerm:
    """The zero Hamiltonian on local dimension d."""
    return ProjectorTerm(d, np.zeros((d * d, d * d), dtype=complex))


def builtin(name: str) -> ProjectorTerm:
    """Look up a builtin model by name; ``zero`` takes an optional ``(d)``."""
    name = name.strip().lower()
    if name == "ising":
        return ising()
    if name == "fig2":
        return fig2()
    m = re.fullmatch(r"zero(?:\((\d+)\))?", name)
    if m:
        return zero(int(m.group(1)) if m.group(1) else 2)
    raise ValueError(f"unknown builtin model {name!r} (try ising, fig2, zero(d))")


def synthesize_local_term(
    block_spec: list[tuple[int, int]],
    edge_kernel_dims,
    seed: int = 0,
) -> ProjectorTerm:
    """Random commuting projector with prescribed blocks and kernel dims.

    ``block_spec`` lists (l, r) dimensions per block with sum(l*r) = d;
    ``edge_kernel_dims[a][b]`` is the kernel dimension of the bond
    projector from block a to block b.  All randomness (basis rotation and
    kernel subspaces) flows from ``seed``.
    """
    block_spec = [(int(l), int(r)) for l, r in block_spec]
    kdims = np.asarray(edge_kernel_dims, dtype=int)
    nb = len(block_spec)
    if kdims.shape != (nb, nb):
        raise InvalidSpec(f"kernel dim matrix must be {nb}x{nb}")
    if any(l < 1 or r < 1 for l, r in block_spec):
        raise InvalidSpec("block dimensions must be positive")
    d = sum(l * r for l, r in block_spec)
    for a, (_, ra) in enumerate(block_spec):
        for b, (lb, _) in enumerate(block_spec):
            if not (0 <= kdims[a, b] <= ra * lb):
                raise InvalidSpec(
                    f"kernel dim {kdims[a, b]} out of range for bond ({a},{b})"
                )
    rng = np.random.default_rng(seed)
    # The blocks take consecutive columns of one Haar unitary.
    rest = la.haar_unitary(d, rng)
    blocks = []
    for l, r in block_spec:
        blocks.append(Block(l, r, rest[:, : l * r]))
        rest = rest[:, l * r :]

    qs = {}
    for a, (_, ra) in enumerate(block_spec):
        for b, (lb, _) in enumerate(block_spec):
            m = ra * lb
            k = int(kdims[a, b])
            u = la.haar_unitary(m, rng)
            kern = u[:, :k]
            qs[a, b] = np.eye(m) - kern @ la.dag(kern)

    op = SiteDecomposition(d, blocks).assemble(qs)
    term = ProjectorTerm(d, (op + la.dag(op)) / 2.0)
    term.validate()
    return term

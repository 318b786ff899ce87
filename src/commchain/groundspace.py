"""Everything the interaction graph says about the spectrum.

Ground-state degeneracy of the length-N chain is the trace of the N-th
power of the integer kernel-dimension matrix M, computed exactly in big
integers.  The full energy census comes from the same transfer structure:
the dimension of the energy-k eigenspace is the x^k coefficient of
Tr((M + x R)^N), since the bond projectors in a fixed block sector act on
disjoint tensor slots and admit a simultaneous eigenbasis labelled by
per-bond outcomes.  Both quantities are validated against the dense
diagonalization oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import SiteDecomposition
from .graph import BondFactor, InteractionGraph, build_graph

DEFAULT_CYCLE_CAP = 10_000
DEFAULT_STATE_CAP = 10_000

__all__ = [
    "TransferMatrices",
    "ScaleInvarianceVerdict",
    "Witness",
    "GroundLoopState",
    "GroundState",
    "GroundStateList",
    "SpectralCensus",
    "degeneracy",
    "enumerate_cycles",
    "check_scale_invariance",
    "loop_states",
    "ground_states",
    "assemble_state",
    "loop_mps_tensor",
    "mps_reconstruct",
    "spectral_census",
]


@dataclass
class TransferMatrices:
    """Integer kernel-dimension and rank matrices of the bond projectors."""

    M: list[list[int]]
    R: list[list[int]]

    @classmethod
    def from_graph(cls, g: InteractionGraph) -> "TransferMatrices":
        return cls(M=[[int(x) for x in row] for row in g.M],
                   R=[[int(x) for x in row] for row in g.R])

    @property
    def num_vertices(self) -> int:
        return len(self.M)


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _mat_pow(m, n: int):
    size = len(m)
    result = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    base = [row[:] for row in m]
    while n > 0:
        if n & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        n >>= 1
    return result


def degeneracy(t: TransferMatrices, n: int) -> int:
    """dim ker H_N = Tr(M^N), exact in arbitrary precision."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    p = _mat_pow(t.M, n)
    return sum(p[i][i] for i in range(len(p)))


def enumerate_cycles(
    g: InteractionGraph, n: int, cap: int = DEFAULT_CYCLE_CAP
) -> tuple[list[tuple[int, ...]], bool]:
    """All ordered closed walks of length ``n`` (rotations counted as distinct).

    Returns (cycles, truncated).  Vertices may repeat; an edge exists when
    the kernel dimension is positive.
    """
    if n < 1:
        raise ValueError("chain length must be at least 1")
    nv = g.num_vertices
    adj = [[b for b in range(nv) if g.M[a, b] > 0] for a in range(nv)]
    out: list[tuple[int, ...]] = []
    truncated = False

    for v in range(nv):
        if n == 1:
            if g.M[v, v] > 0:
                out.append((v,))
            continue
        # Depth-first over walks from v, in adjacency order; stack[i] holds
        # the successors of seq[i] not yet tried.
        seq = [v]
        stack = [iter(adj[v])]
        while stack and not truncated:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                seq.pop()
            elif len(seq) + 1 < n:
                seq.append(nxt)
                stack.append(iter(adj[nxt]))
            elif g.M[nxt, v] > 0:
                if len(out) >= cap:
                    truncated = True
                else:
                    out.append((*seq, nxt))
        if truncated:
            break
    return out, truncated


@dataclass
class Witness:
    """Reason a graph is not scale invariant."""

    kind: str  # "cycle" or "heavy_loop"
    vertices: list[int]
    weight: int | None = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "vertices": self.vertices}
        if self.weight is not None:
            out["weight"] = self.weight
        return out


@dataclass
class ScaleInvarianceVerdict:
    scale_invariant: bool
    loops: list[int]
    witness: Witness | None

    def to_dict(self) -> dict:
        return {
            "scale_invariant": self.scale_invariant,
            "loops": self.loops,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def _find_cycle_without_loops(g: InteractionGraph) -> list[int] | None:
    """Directed cycle of length >= 2 after removing self-loops, if any."""
    nv = g.num_vertices
    adj = [[b for b in range(nv) if b != a and g.M[a, b] > 0] for a in range(nv)]
    color = [0] * nv  # 0 unvisited, 1 on stack, 2 done
    parent: dict[int, int] = {}

    for root in range(nv):
        if color[root]:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                if color[w] == 1:
                    cycle = [v]
                    while cycle[-1] != w:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def check_scale_invariance(g: InteractionGraph) -> ScaleInvarianceVerdict:
    """Scale invariance holds iff every cycle is a weight-1 self-loop.

    Equivalently: the digraph with self-loops removed is acyclic and every
    self-loop has kernel dimension exactly 1.  When the verdict is
    positive, the constancy of the degeneracy is re-checked against the
    transfer matrix for chain lengths up to twice the vertex count.
    """
    loops = [a for a in range(g.num_vertices) if g.M[a, a] > 0]
    for a in loops:
        if g.M[a, a] > 1:
            return ScaleInvarianceVerdict(
                scale_invariant=False,
                loops=loops,
                witness=Witness(kind="heavy_loop", vertices=[a], weight=int(g.M[a, a])),
            )
    cycle = _find_cycle_without_loops(g)
    if cycle is not None:
        return ScaleInvarianceVerdict(
            scale_invariant=False, loops=loops, witness=Witness(kind="cycle", vertices=cycle)
        )
    t = TransferMatrices.from_graph(g)
    for n in range(1, 2 * g.num_vertices + 1):
        if degeneracy(t, n) != len(loops):
            raise AssertionError(
                "scale-invariance criterion disagrees with the transfer matrix"
            )
    return ScaleInvarianceVerdict(scale_invariant=True, loops=loops, witness=None)


@dataclass
class GroundLoopState:
    """Unit vector spanning the kernel of a weight-1 self-loop bond."""

    block: int
    phi: np.ndarray  # in H_{a_r} (x) H_{a_l}


def _phase_fix(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    ph = v[idx] / abs(v[idx])
    return v / ph


def loop_states(bonds: list[list[BondFactor]]) -> list[GroundLoopState]:
    """One kernel vector per weight-1 self-loop, with a fixed phase."""
    out = []
    for a in range(len(bonds)):
        bf = bonds[a][a]
        if bf.kernel_dim == 1:
            out.append(GroundLoopState(block=a, phi=_phase_fix(bf.kernel_basis[:, 0])))
    return out


@dataclass
class GroundState:
    """Ground state given by a cycle and one kernel vector per bond."""

    cycle: tuple[int, ...]
    bond_vectors: list[np.ndarray]
    mps_bond_dim: int | None = None
    mps_tensor: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "cycle": [int(v) for v in self.cycle],
            "bond_vectors": [
                [[float(z.real), float(z.imag)] for z in v] for v in self.bond_vectors
            ],
        }
        if self.mps_tensor is not None:
            out["mps"] = {
                "bond_dim": int(self.mps_bond_dim),
                "tensor": [
                    [[[float(z.real), float(z.imag)] for z in row] for row in mat]
                    for mat in self.mps_tensor
                ],
            }
        return out


@dataclass
class GroundStateList:
    N: int
    states: list[GroundState]
    truncated: bool


def assemble_state(
    dec: SiteDecomposition, cycle: tuple[int, ...], bond_vectors: list[np.ndarray]
) -> np.ndarray:
    """Dense chain vector for a cycle with one kernel vector per bond.

    Bond j holds a vector in H_{r of site j} (x) H_{l of site j+1}; the
    legs are regrouped per site and pushed through the block isometries.
    """
    blocks = dec.blocks
    n = len(cycle)
    tensor = np.array([1.0 + 0j])
    for v in bond_vectors:
        tensor = np.multiply.outer(tensor, v)
    shape = []
    for j in range(n):
        a, b = cycle[j], cycle[(j + 1) % n]
        shape += [blocks[a].r, blocks[b].l]
    tensor = tensor.reshape(shape)
    perm = []
    for k in range(n):
        perm += [(2 * k - 1) % (2 * n), 2 * k]
    state = tensor.transpose(perm).reshape(-1)
    done = 1
    for k in range(n):
        blk = blocks[cycle[k]]
        cur = blk.l * blk.r
        rest = state.size // (done * cur)
        st = state.reshape(done, cur, rest)
        state = np.einsum("sc,dcr->dsr", blk.isometry, st).reshape(-1)
        done *= dec.d
    return state


def loop_mps_tensor(
    dec: SiteDecomposition, loop: GroundLoopState, bond_dim: int
) -> np.ndarray:
    """Uniform MPS tensor A[s, x, y] for the translation-invariant loop state.

    Contracting the bond vector with the site isometry gives a tensor with
    natural bond dimension l; it is zero-padded to the requested uniform
    ``bond_dim``.
    """
    blk = dec.blocks[loop.block]
    w3 = blk.isometry.reshape(dec.d, blk.l, blk.r)
    phi_mat = loop.phi.reshape(blk.r, blk.l)
    a = np.einsum("slr,ry->sly", w3, phi_mat)
    if bond_dim < blk.l:
        raise ValueError("bond dimension too small for this loop")
    out = np.zeros((dec.d, bond_dim, bond_dim), dtype=complex)
    out[:, : blk.l, : blk.l] = a
    return out


def mps_reconstruct(tensor: np.ndarray, n: int) -> np.ndarray:
    """Dense vector of the uniform MPS (periodic trace contraction)."""
    part = tensor
    for _ in range(n - 1):
        part = np.einsum("...xy,tyz->...txz", part, tensor)
    return np.einsum("...xx->...", part).reshape(-1)


def ground_states(
    dec: SiteDecomposition,
    bonds: list[list[BondFactor]],
    n: int,
    cap: int = DEFAULT_STATE_CAP,
) -> GroundStateList:
    """Basis of the ground space of the length-``n`` chain, up to ``cap``.

    In the scale-invariant case this is one translation-invariant state
    per loop (with its MPS form); in general the basis is labelled by
    ordered cycles and one kernel-basis element per edge.
    """
    if n < 2:
        raise ValueError("chain length must be at least 2")
    g = build_graph(bonds)
    verdict = check_scale_invariance(g)
    states: list[GroundState] = []
    if verdict.scale_invariant:
        loops = loop_states(bonds)
        chi = max((dec.blocks[s.block].r * dec.blocks[s.block].l for s in loops), default=1)
        for s in loops:
            states.append(
                GroundState(
                    cycle=tuple([s.block] * n),
                    bond_vectors=[s.phi] * n,
                    mps_bond_dim=chi,
                    mps_tensor=loop_mps_tensor(dec, s, chi),
                )
            )
        return GroundStateList(N=n, states=states, truncated=False)

    cycles, enum_truncated = enumerate_cycles(g, n, cap)
    cap_hit = False
    for cyc in cycles:
        if len(states) >= cap:
            cap_hit = True
            break
        edges = [(cyc[j], cyc[(j + 1) % n]) for j in range(n)]
        choices = [range(bonds[a][b].kernel_dim) for a, b in edges]
        idx = [0] * n
        while True:
            if len(states) >= cap:
                cap_hit = True
                break
            vecs = [
                _phase_fix(bonds[a][b].kernel_basis[:, idx[j]])
                for j, (a, b) in enumerate(edges)
            ]
            states.append(GroundState(cycle=cyc, bond_vectors=vecs))
            pos = n - 1
            while pos >= 0:
                idx[pos] += 1
                if idx[pos] < len(choices[pos]):
                    break
                idx[pos] = 0
                pos -= 1
            if pos < 0:
                break
        if cap_hit:
            break
    return GroundStateList(N=n, states=states, truncated=enum_truncated or cap_hit)


@dataclass
class SpectralCensus:
    """Dimension of every energy eigenspace of the length-N chain."""

    N: int
    dims: dict[int, int]

    def total(self) -> int:
        return sum(self.dims.values())

    def to_dict(self) -> dict:
        return {"N": self.N, "dims": {str(k): self.dims[k] for k in sorted(self.dims)}}


def _poly_mul(p: list[int], q: list[int], maxdeg: int) -> list[int]:
    out = [0] * min(len(p) + len(q) - 1, maxdeg + 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if i + j > maxdeg:
                break
            if b:
                out[i + j] += a * b
    return out


def _poly_add(p: list[int], q: list[int]) -> list[int]:
    if len(p) < len(q):
        p, q = q, p
    out = p[:]
    for i, b in enumerate(q):
        out[i] += b
    return out


def spectral_census(t: TransferMatrices, n: int) -> SpectralCensus:
    """Energy census dims[k] = [x^k] Tr((M + x R)^N), exact integers."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    nv = t.num_vertices
    base = [[[t.M[a][b], t.R[a][b]] for b in range(nv)] for a in range(nv)]
    power = [[[1] if a == b else [0] for b in range(nv)] for a in range(nv)]
    for _ in range(n):
        new = [[[0] for _ in range(nv)] for _ in range(nv)]
        for a in range(nv):
            for b in range(nv):
                acc = [0]
                for c in range(nv):
                    acc = _poly_add(acc, _poly_mul(power[a][c], base[c][b], n))
                new[a][b] = acc
        power = new
    trace = [0]
    for a in range(nv):
        trace = _poly_add(trace, power[a][a])
    dims = {k: (trace[k] if k < len(trace) else 0) for k in range(n + 1)}
    return SpectralCensus(N=n, dims=dims)

"""Everything the interaction graph says about the spectrum.

Degeneracy, census and their size checks read the integer transfer
matrices M (kernel dimensions) and R (ranks) off the
``InteractionGraph``; only ``_mat_pow`` turns their entries into Python
ints.  Ground-state degeneracy of the length-N chain is the trace of the
N-th power of M, computed exactly in big integers.  The full energy
census comes from the same transfer structure: the dimension of the
energy-k eigenspace is the x^k coefficient of Tr((M + x R)^N), since the
bond projectors in a fixed block sector act on disjoint tensor slots and
admit a simultaneous eigenbasis labelled by per-bond outcomes.  The
census is exact and multimodular: the polynomial is evaluated at roots
of unity modulo 31-bit NTT primes in uint64, with products of residues
summed unreduced four at a time (delayed reduction, as in FFLAS-FFPACK:
Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008), transformed back and
rebuilt by CRT.  It is bounded in N: past ``MAX_CENSUS_ENTRIES``
evaluation entries or ``MAX_GARNER_STEPS`` CRT steps (fig2: N > 2047,
ising: N > 6208) it raises ``TooLarge``.  Both quantities are validated
against the exact-diagonalization oracle in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .decomposition import SiteDecomposition
from .errors import TooLarge
from .graph import BondFactor, InteractionGraph

# Most closed walks, and most ground states, one chain length lists.
DEFAULT_STATE_CAP = 10_000

# The census refuses a chain whose evaluation stack, primes x L x nv^2
# uint64 entries, would exceed this (fig2, nv = 4: N <= 2047).
MAX_CENSUS_ENTRIES = 1 << 23
# ... or whose Garner CRT would take more primes^2 x (N + 1) steps (ising: N <= 6208).
MAX_GARNER_STEPS = 1 << 28
# ``ground_states`` refuses a chain whose states would hold more bond-vector
# entries than this, estimated as min(cap, degeneracy) x N x d^2
# (ising: N <= 131072).
MAX_GROUND_ENTRIES = 1 << 20
# Uint64 entries per slab of evaluation points raised to the N-th power.
_CENSUS_SLAB = 1 << 14
# Products of two residues mod p < 2^31 a uint64 sum below p takes before
# it is reduced: p - 1 + 4 (p - 1)^2 < 2^64.
_UNREDUCED_PRODUCTS = 4
# NTT primes by two-adic order k: the largest p < 2^31 with p = 1 mod 2^k.
_NTT_PRIMES: dict[int, list[int]] = {}

__all__ = [
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
    "check_ground_size",
    "check_census_size",
    "loop_mps_tensor",
    "spectral_census",
]


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _mat_pow(m, n: int, ceiling: int | None = None):
    """M^n in Python ints, so no entry overflows.

    With ``ceiling``, every entry of every product is cut to at most ``ceiling``.
    """

    def cut(a):
        return a if ceiling is None else [[min(x, ceiling) for x in row] for row in a]

    size = len(m)
    result = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    base = [[int(x) for x in row] for row in m]
    while n > 0:
        if n & 1:
            result = cut(_mat_mul(result, base))
        n >>= 1
        if n:
            base = cut(_mat_mul(base, base))
    return result


def degeneracy(g: InteractionGraph, n: int) -> int:
    """dim ker H_N = Tr(M^N), exact in arbitrary precision."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    p = _mat_pow(g.M, n)
    return sum(p[i][i] for i in range(len(p)))


def _capped_degeneracy(g: InteractionGraph, n: int, ceiling: int) -> int:
    """min(Tr(M^N), ceiling), with no integer past ceiling^2 times the vertex count.

    M is nonnegative, so cutting every entry of every partial product at
    ``ceiling`` leaves the entries below it exact: a cut factor times a
    nonzero one is at least ``ceiling`` either way.
    """
    p = _mat_pow(g.M, n, ceiling)
    return min(sum(p[i][i] for i in range(len(p))), ceiling)


def enumerate_cycles(
    g: InteractionGraph, n: int, cap: int = DEFAULT_STATE_CAP
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
    self-loop has kernel dimension exactly 1.  Then a closed walk never
    leaves its start vertex, so Tr(M^N) is the loop count at every N.
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
            "bond_vectors": self.bond_vectors,
        }
        if self.mps_tensor is not None:
            out["mps"] = {
                "bond_dim": int(self.mps_bond_dim),
                "tensor": self.mps_tensor,
            }
        return out


@dataclass
class GroundStateList:
    N: int
    states: list[GroundState]
    truncated: bool


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


def check_ground_size(analysis, ns: list[int], cap: int = DEFAULT_STATE_CAP) -> None:
    """Raise ``TooLarge`` when the ground states at the lengths ``ns`` are too many to write.

    Each state holds N bond vectors of at most d^2 entries.  The states are
    min(cap, degeneracy) at each N, or one per loop in the scale-invariant
    case.  Past ``MAX_GROUND_ENTRIES`` entries in total the chain is refused.
    """
    if analysis.verdict.scale_invariant:
        counts = [len(analysis.verdict.loops)] * len(ns)
    else:
        counts = [_capped_degeneracy(analysis.graph, n, cap) for n in ns]
    entries = sum(count * n for count, n in zip(counts, ns)) * analysis.dec.d**2
    if entries > MAX_GROUND_ENTRIES:
        where = f"N={ns[0]}" if len(ns) == 1 else f"{len(ns)} lengths up to N={max(ns)}"
        raise TooLarge(
            f"ground states at {where} need about {entries} bond-vector entries "
            f"(states x N x d^2), past the limit {MAX_GROUND_ENTRIES}"
        )


def ground_states(analysis, n: int, cap: int = DEFAULT_STATE_CAP) -> GroundStateList:
    """Basis of the ground space of the length-``n`` chain, up to ``cap``.

    ``analysis`` is a ``canonical.Analysis``.  In the scale-invariant case
    this is one translation-invariant state per loop (with its MPS form);
    in general the basis is labelled by ordered cycles and one
    kernel-basis element per edge.  Before any state is built,
    ``check_ground_size`` bounds the bond-vector entries.
    """
    verdict = analysis.verdict
    if n < 2:
        raise ValueError("chain length must be at least 2")
    check_ground_size(analysis, [n], cap)
    dec, bonds = analysis.dec, analysis.bonds
    if verdict.scale_invariant:
        loops = loop_states(bonds)
        chi = max((dec.blocks[s.block].r * dec.blocks[s.block].l for s in loops), default=1)
        states = [
            GroundState(
                cycle=tuple([s.block] * n),
                bond_vectors=[s.phi] * n,
                mps_bond_dim=chi,
                mps_tensor=loop_mps_tensor(dec, s, chi),
            )
            for s in loops
        ]
        return GroundStateList(N=n, states=states, truncated=False)

    cycles, enum_truncated = enumerate_cycles(analysis.graph, n, cap)

    def walk_states(cyc):
        # One kernel-basis vector per bond of the closed walk, in every combination.
        kernels = [bonds[a][b].kernel_basis.T for a, b in zip(cyc, cyc[1:] + cyc[:1])]
        for vecs in itertools.product(*[[_phase_fix(v) for v in k] for k in kernels]):
            yield GroundState(cycle=cyc, bond_vectors=list(vecs))

    walks = itertools.chain.from_iterable(map(walk_states, cycles))
    states = list(itertools.islice(walks, cap + 1))
    truncated = enum_truncated or len(states) > cap
    return GroundStateList(N=n, states=states[:cap], truncated=truncated)


@dataclass
class SpectralCensus:
    """Dimension of every energy eigenspace of the length-N chain."""

    N: int
    dims: dict[int, int]

    def total(self) -> int:
        return sum(self.dims.values())

    def to_dict(self) -> dict:
        return {"N": self.N, "dims": {str(k): self.dims[k] for k in sorted(self.dims)}}


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the bases 2, 3, 5, 7 decide every n < 3.2e9."""
    if n < 2 or any(n % q == 0 for q in (2, 3, 5, 7)):
        return n in (2, 3, 5, 7)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _ntt_primes(k: int, count: int) -> list[int]:
    """The ``count`` largest primes p < 2^31 with p = 1 mod 2^k, cached."""
    found = _NTT_PRIMES.setdefault(k, [])
    c = (found[-1] >> k) - 1 if found else (2**31 - 2) >> k
    while len(found) < count:
        if c < 1:
            raise TooLarge(f"fewer than {count} NTT primes below 2^31 for length 2^{k}")
        if _is_prime((c << k) + 1):
            found.append((c << k) + 1)
        c -= 1
    return found[:count]


def _root_of_unity(p: int, size: int) -> int:
    """An element of order exactly ``size`` (a power of two dividing p - 1).

    A quadratic non-residue g has g^((p-1)/2) = -1, so g^((p-1)/size)
    squares to -1 after size/2 steps and has order exactly ``size``.
    """
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    return pow(g, (p - 1) // size, p)


def _reduce(a: np.ndarray, p: int, scratch: np.ndarray | None = None) -> None:
    """Int64 or uint64 ``a`` mod p into [0, p), in place.

    ``a - (a // p) p`` with a scalar divisor is about twice as fast as
    ``np.remainder``: numpy divides by a scalar without a division
    instruction.
    """
    if scratch is None:
        scratch = np.empty_like(a)
    np.floor_divide(a, p, out=scratch)
    scratch *= p
    a -= scratch


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Matrix product mod p of two (nv, nv, batch) uint64 stacks.

    The batch axis is last, so every elementwise pass runs over long
    contiguous rows.  Entries of a and b lie in [0, p) with p < 2^31, so
    each product is at most (p - 1)^2 < 2^62, and a sum below p can take
    g = ``_UNREDUCED_PRODUCTS`` = 4 more before it passes 2^64 - 1.
    Products are summed unreduced; the running sum is reduced after every
    g of them and once at the end: one reduction per matrix product when
    nv <= 4.
    """
    g = _UNREDUCED_PRODUCTS
    out = np.empty_like(a)
    term = np.empty_like(a)
    np.multiply(a[:, 0, None], b[None, 0], out=out)
    for k in range(1, a.shape[0]):
        if k % g == 0:
            _reduce(out, p, term)
        np.multiply(a[:, k, None], b[None, k], out=term)
        out += term
    _reduce(out, p, term)
    return out


def _trace_mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Tr(a b) mod p of two (nv, nv, batch) uint64 stacks: nv^2 products, reduced as in ``_mulmod``."""
    prod = (a * b.swapaxes(0, 1)).reshape(-1, a.shape[-1])
    out = np.zeros(a.shape[-1], dtype=np.uint64)
    for lo in range(0, len(prod), _UNREDUCED_PRODUCTS):
        out += prod[lo : lo + _UNREDUCED_PRODUCTS].sum(axis=0)
        _reduce(out, p)
    return out


def _trace_power(base: np.ndarray, n: int, p: int) -> np.ndarray:
    """Tr(base^n) mod p of a (nv, nv, batch) uint64 stack, by left-to-right binary powering.

    Each product is acc acc, or acc base on a 1 bit of n; of the last one
    only the trace is formed.
    """
    with_base: list[bool] = []
    for bit in bin(n)[3:]:
        with_base += [False, True] if bit == "1" else [False]
    if not with_base or not len(base):  # n = 1, or no vertices
        tr = np.trace(base)
        _reduce(tr, p)
        return tr
    acc = base
    for flag in with_base[:-1]:
        acc = _mulmod(acc, base if flag else acc, p)
    return _trace_mulmod(acc, base if with_base[-1] else acc, p)


def _census_residues(m, r, n: int, p: int, size: int) -> np.ndarray:
    """Coefficients 0..n of Tr((M + xR)^n) mod p.

    Evaluates at the ``size`` powers of a root of unity, ``_CENSUS_SLAB``
    entries at a time, in uint64, then applies an inverse NTT of
    O(size log size) in int64.
    """
    nv = len(m)
    w = _root_of_unity(p, size)
    # pw[i] = w^i, by doubling.
    pw = np.empty(size, dtype=np.int64)
    pw[0] = 1
    filled = 1
    while filled < size:
        seg = pw[filled: 2 * filled]
        np.multiply(pw[:filled], pow(w, filled, p), out=seg)
        _reduce(seg, p)
        filled *= 2
    mp = (np.asarray(m) % p).astype(np.uint64).reshape(nv, nv)
    rp = (np.asarray(r) % p).astype(np.uint64).reshape(nv, nv)
    traces = np.empty(size, dtype=np.int64)
    step = max(1, _CENSUS_SLAB // max(1, nv * nv))
    for lo in range(0, size, step):
        x = pw[lo: lo + step].astype(np.uint64)
        base = rp[:, :, None] * x + mp[:, :, None]
        _reduce(base, p)
        traces[lo: lo + len(x)] = _trace_power(base, n, p)
    # Inverse transform: radix-2 decimation in time on bit-reversed input,
    # in place, with twiddles w^-j = pw[(size - j) % size].
    rev = np.zeros(1, dtype=np.intp)
    while rev.size < size:
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    a = traces[rev]
    inv_pw = np.concatenate((pw[:1], pw[:0:-1]))
    half = 1
    while half < size:
        view = a.reshape(-1, 2 * half)
        tw = inv_pw[:: size // (2 * half)][:half]
        v = view[:, half:] * tw
        _reduce(v, p)
        np.subtract(view[:, :half], v, out=view[:, half:])
        view[:, :half] += v
        _reduce(view, p)
        half *= 2
    out = a[: n + 1] * pow(size, -1, p)
    _reduce(out, p)
    return out


def _garner(residues: np.ndarray, primes: list[int]) -> list[int]:
    """The integers in [0, prod(primes)) with the given residues (rows).

    Vectorized Garner: after step j, row j holds the j-th mixed-radix
    digit of every coefficient; the digits are then folded into one
    Python int per coefficient by Horner's rule.
    """
    x = residues.copy()
    for j in range(len(primes) - 1):
        pj = primes[j]
        for i in range(j + 1, len(primes)):
            pi = primes[i]
            row = x[i]
            row -= x[j]
            row *= pow(pj, -1, pi)
            _reduce(row, pi)
    value = x[-1].astype(object)
    for i in range(len(primes) - 2, -1, -1):
        value = value * primes[i] + x[i].astype(object)
    return [int(v) for v in value]


def check_census_size(g: InteractionGraph, ns: list[int]) -> None:
    """Raise ``TooLarge`` at the first N in ``ns`` whose census is past a bound.

    The census at N evaluates primes x L x nv^2 entries and rebuilds N + 1
    coefficients in primes^2 x (N + 1) Garner steps (see
    ``spectral_census``); nothing is evaluated here.
    """
    nv = g.num_vertices
    rho = int((g.M + g.R).sum(axis=1).max(initial=0))
    for n in ns:
        size = 1 << n.bit_length()  # least power of two >= n + 1
        bits = (math.log2(nv) + n * math.log2(rho)) if rho > 0 else 0.0
        primes = int(bits) // 30 + 1
        for need, limit, what in (
            (primes * size * nv * nv, MAX_CENSUS_ENTRIES, "evaluation entries"),
            (primes * primes * (n + 1), MAX_GARNER_STEPS, "Garner steps"),
        ):
            if need > limit:
                raise TooLarge(
                    f"census at N={n} on {nv} vertices needs about {need} {what}, "
                    f"past the limit {limit}"
                )


def spectral_census(g: InteractionGraph, n: int) -> SpectralCensus:
    """Energy census dims[k] = [x^k] Tr((M + x R)^N), exact integers.

    Multimodular: M + xR is evaluated at the L powers of an L-th root of
    unity (L the least power of two above N) modulo NTT primes
    p = c 2^k + 1 < 2^31, enough that their product exceeds
    T = Tr((M + R)^N).  Every coefficient is a nonnegative integer at most
    T, so the CRT answer is unique.  Per prime, the evaluated matrices are
    raised to the N-th power in uint64 (each product of two residues is at
    most (p - 1)^2 < 2^62, and a sum below p takes 4 of them unreduced
    without passing 2^64 - 1, so a running sum is reduced after every 4
    products; of the last product only the trace is formed), their traces
    are transformed back by an inverse NTT, and the coefficients are
    rebuilt by Garner's algorithm.  The coefficients must sum to T
    exactly; that is checked on every call.

    Raises ``TooLarge``, before any evaluation, past the bounds of
    ``check_census_size``; the prime count is bounded from
    T <= nv rho^N (rho the largest row sum of M + R) at 30 bits a prime.
    """
    if n < 1:
        raise ValueError("chain length must be at least 1")
    check_census_size(g, [n])
    size = 1 << n.bit_length()  # least power of two >= n + 1
    total = sum(row[i] for i, row in enumerate(_mat_pow(g.M + g.R, n)))
    primes: list[int] = []
    product = 1
    k = size.bit_length() - 1
    while product <= total or not primes:
        primes = _ntt_primes(k, len(primes) + 1)
        product *= primes[-1]
    residues = np.stack([_census_residues(g.M, g.R, n, p, size) for p in primes])
    coeffs = _garner(residues, primes)
    if sum(coeffs) != total:
        raise AssertionError("census coefficients do not sum to Tr((M + R)^N)")
    return SpectralCensus(N=n, dims=dict(enumerate(coeffs)))

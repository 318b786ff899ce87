"""Shared fixtures: builtin terms and the seeded synthesized corpus.

The corpus sampler only plants block/kernel specifications that are
*identifiable*: the synthesized projector's own canonical decomposition
equals the planted one (generically in the random draws).  A bond
projector and its complement generate the same unital slice algebra, so
the algebra a partial bond induces on one factor is carried by the
components of its *smaller* eigenspace: with kernel dimension k on a
bond of full dimension f, that is opposite_dim * min(k, f - k) random
component vectors.  The sufficient conditions enforced a priori are, for
every block side of dimension s >= 2 (s = r with out-edges, s = l with
in-edges):

- sum over partial edges of opposite_dim * min(k, f - k) >= s, and
- at least two partial edges, or one whose opposite factor dim is >= 2
  (a single edge with a one-dimensional opposite factor yields a single
  hermitian slice, whose algebra is commutative and splits the side);

and for every pair of blocks with dims (1, 1): some in- or out-entry of
the kernel-dimension matrix differs, or a shared entry is partial
(random subspaces then distinguish the blocks almost surely).

"partial" means a kernel dimension strictly between 0 and full, which
makes the drawn subspace genuinely random.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import commchain as cc
from commchain import _linalg as la
from commchain import models
from commchain.canonical import Analysis
from commchain.decomposition import OperatorAlgebra
from commchain.ed import _translation_orbits
from commchain.groundspace import SpectralCensus, TransferMatrices
from commchain.operators import ProjectorTerm


def pairs_list(a: np.ndarray) -> list:
    """``json.dumps`` ``default`` of the reference report layout: a complex
    array as nested [re, im] float lists."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def dense_eqx_defect(term, x) -> np.ndarray:
    """Reference h12 X2 h23 - h23 X2 h12 as a dense d^3 x d^3 matrix.

    At X = 1 this is the commutator [h x 1, 1 x h].
    """
    eye = np.eye(term.d)
    h12 = np.kron(term.op, eye)
    h23 = np.kron(eye, term.op)
    x2 = np.kron(np.kron(eye, x), eye)
    return h12 @ x2 @ h23 - h23 @ x2 @ h12


def inner_factors(term) -> tuple[np.ndarray, np.ndarray]:
    """Reference inner Schmidt factors (s_k A_k, s_k B_k) from a complex SVD.

    One SVD of the reshuffled d^2 x d^2 matrix gives Hilbert-Schmidt
    orthonormal, generally non-hermitian A_k, B_k; coefficients up to
    s_0 d^2 eps are dropped.  ``commutator_residual`` on the hermitian
    factors of ``operator_schmidt`` is checked against
    ``_defect_norm(*inner_factors(term), 1)``.
    """
    d = term.d
    r = term.op.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    u, s, vh = np.linalg.svd(r)
    keep = s > s[0] * d * d * np.finfo(float).eps
    a = (u[:, keep] * s[keep]).T.reshape(-1, d, d)
    b = (vh[keep] * s[keep, None]).reshape(-1, d, d)
    return a, b


def schmidt_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_k left[k] (x) right[k] as a d^2 x d^2 matrix."""
    d = left.shape[-1]
    return np.einsum("kij,kab->iajb", left, right).reshape(d * d, d * d)


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


def bigint_census(t: TransferMatrices, n: int) -> SpectralCensus:
    """Reference census: N sequential big-integer polynomial-matrix products.

    dims[k] = [x^k] Tr((M + x R)^N), O(nv^3 N^2) Python operations.
    """
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


# --- per-product reference for the census residues ---------------------------


def reference_census_residues(m, r, n: int, p: int, size: int) -> np.ndarray:
    """Reference ``groundspace._census_residues``: int64 stacks, every product reduced.

    Each matrix product reduces each of its nv products before adding it,
    and the binary powering forms the whole last product before its trace;
    the inverse NTT is the same radix-2 transform.
    """
    from commchain.groundspace import _CENSUS_SLAB, _reduce, _root_of_unity

    def mulmod(a, b):
        out = np.zeros_like(a)
        for k in range(a.shape[0]):
            term = a[:, k, None] * b[None, k]
            _reduce(term, p)
            out += term
        _reduce(out, p)
        return out

    nv = len(m)
    w = _root_of_unity(p, size)
    pw = np.array([pow(w, i, p) for i in range(size)], dtype=np.int64)
    mp = np.array([[x % p for x in row] for row in m], dtype=np.int64).reshape(nv, nv)
    rp = np.array([[x % p for x in row] for row in r], dtype=np.int64).reshape(nv, nv)
    traces = np.empty(size, dtype=np.int64)
    step = max(1, _CENSUS_SLAB // max(1, nv * nv))
    for lo in range(0, size, step):
        x = pw[lo : lo + step]
        base = rp[:, :, None] * x + mp[:, :, None]
        _reduce(base, p)
        acc = base
        for bit in bin(n)[3:]:
            acc = mulmod(acc, acc)
            if bit == "1":
                acc = mulmod(acc, base)
        tr = np.trace(acc)
        _reduce(tr, p)
        traces[lo : lo + len(x)] = tr
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


# --- per-pair reference for the bond projectors -------------------------------


def reference_assemble_two_site(block_spec, isometries, q_blocks) -> np.ndarray:
    """Reference ``SiteDecomposition.assemble``: each pair's kron and conjugation in turn."""
    d = isometries[0].shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for a, (la_, _) in enumerate(block_spec):
        for b, (_, rb) in enumerate(block_spec):
            mid = np.kron(np.kron(np.eye(la_), q_blocks(a, b)), np.eye(rb))
            w = np.kron(isometries[a], isometries[b])
            out += w @ mid @ la.dag(w)
    return out


def reference_bond_projectors(p, dec) -> list[list[tuple[np.ndarray, int, np.ndarray, float]]]:
    """Reference ``graph.extract_bond_projectors``: each pair compressed by its own W_a x W_b.

    Returns (q, kernel dim, kernel basis, factoring residual) per ordered
    block pair, with no gate.
    """
    out = []
    for ba in dec.blocks:
        row = []
        for bb in dec.blocks:
            w = np.kron(ba.isometry, bb.isometry)
            comp = la.dag(w) @ p.op @ w
            t = comp.reshape(ba.l, ba.r, bb.l, bb.r, ba.l, ba.r, bb.l, bb.r)
            q = np.einsum("xabyxcdy->abcd", t).reshape(ba.r * bb.l, ba.r * bb.l) / (ba.l * bb.r)
            resid = np.linalg.norm(comp - np.kron(np.kron(np.eye(ba.l), q), np.eye(bb.r)))
            q = (q + la.dag(q)) / 2.0
            w_eig, v_eig = np.linalg.eigh(q)
            kernel = v_eig[:, w_eig < 0.5]
            row.append((q, kernel.shape[1], kernel, resid))
        out.append(row)
    return out


# --- dense ground states -----------------------------------------------------


def assemble_state(dec, cycle: tuple[int, ...], bond_vectors: list[np.ndarray]) -> np.ndarray:
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


def mps_reconstruct(tensor: np.ndarray, n: int) -> np.ndarray:
    """Dense vector of the uniform MPS (periodic trace contraction)."""
    part = tensor
    for _ in range(n - 1):
        part = np.einsum("...xy,tyz->...txz", part, tensor)
    return np.einsum("...xx->...", part).reshape(-1)



# --- closure reference for the site decomposition ---------------------------


def _hermitian_span(mats: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal hermitian basis of the complex span of a *-closed set."""
    n = mats.shape[-1]
    adj = np.swapaxes(mats, -1, -2).conj()
    flat = np.concatenate([(mats + adj) / 2, (mats - adj) / 2j]).reshape(-1, n * n)
    # For hermitian matrices tr(A^dag B) = Re.Re + Im.Im: a real inner product.
    rows = la.orthonormalize_rows(np.hstack([flat.real, flat.imag]), rtol=tol)
    return (rows[:, : n * n] + 1j * rows[:, n * n :]).reshape(-1, n, n)


def generate_algebra(ops: list[np.ndarray], tol: float = 1e-9) -> OperatorAlgebra:
    """Reference: smallest unital *-algebra containing ``ops``, by closure.

    Alternates pairwise products with the current basis and
    re-orthonormalization until the dimension stabilizes; the result gets
    a hermitian orthonormal basis, so it can feed ``commutant``.
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
            return OperatorAlgebra(n, _hermitian_span(new.reshape(-1, n, n), tol))
        basis = new


def closure_defect(alg: OperatorAlgebra) -> float:
    """Largest distance of a basis product or adjoint from the span."""
    flat = alg.basis.reshape(alg.dim, -1)

    def distance(op):
        coeffs = flat.conj() @ op.reshape(-1)
        return float(np.linalg.norm(op.reshape(-1) - coeffs @ flat))

    worst = 0.0
    for a in alg.basis:
        worst = max(worst, distance(la.dag(a)))
        for b in alg.basis:
            worst = max(worst, distance(a @ b))
    return worst


def closure_commutant(alg: OperatorAlgebra, tol: float = 1e-9) -> OperatorAlgebra:
    """Reference commutant: the complex stack (b (x) 1 - 1 (x) b^T) over the basis."""
    n = alg.ambient_dim
    eye = np.eye(n)
    stacked = np.vstack([np.kron(b, eye) - np.kron(eye, b.T) for b in alg.basis])
    basis = la.orthonormalize_rows(la.nullspace(stacked, rtol=tol).T, rtol=tol)
    return OperatorAlgebra(n, basis.reshape(-1, n, n))


def center(alg: OperatorAlgebra, tol: float = 1e-9) -> OperatorAlgebra:
    """Reference center: elements of the span commuting with all of it."""
    n = alg.ambient_dim
    cols = []
    for bi in alg.basis:
        cols.append(np.concatenate([(bi @ bj - bj @ bi).reshape(-1) for bj in alg.basis]))
    coeff_null = la.nullspace(np.array(cols).T, rtol=tol)
    elems = np.tensordot(coeff_null.T, alg.basis, axes=(1, 0)).reshape(-1, n * n)
    basis = la.orthonormalize_rows(elems, rtol=tol)
    return OperatorAlgebra(n, basis.reshape(-1, n, n))


def span_distance(a, b) -> float:
    """Largest principal-angle sine between two operator spans."""
    fa = np.linalg.qr(np.array([m.reshape(-1) for m in a]).T)[0]
    fb = np.linalg.qr(np.array([m.reshape(-1) for m in b]).T)[0]
    return la.subspace_angle_sin(fa, fb)


# --- dense reference for the exact diagonalization --------------------------

CHECK_TILE = 512  # tile edge of the hermiticity check; a whole-matrix transpose is slower


def _build_defects(h: np.ndarray, d: int) -> tuple[float, float]:
    """Largest entries of |T H T^-1 - H| and |H - H^dag|, without a d^N x d^N temporary."""
    size = h.shape[0]
    top = size // d
    # Index a*top + b (a the site-0 digit) is sent by T to b*d + a.
    same = h.reshape(d, top, d, top)
    moved = h.reshape(top, d, top, d).transpose(1, 0, 3, 2)
    shift = max(float(np.max(np.abs(moved[a] - same[a]))) for a in range(d))
    herm = 0.0
    for lo in range(0, size, CHECK_TILE):
        for lo2 in range(lo, size, CHECK_TILE):
            upper = h[lo : lo + CHECK_TILE, lo2 : lo2 + CHECK_TILE]
            lower = h[lo2 : lo2 + CHECK_TILE, lo : lo + CHECK_TILE]
            herm = max(herm, float(np.max(np.abs(upper - lower.conj().T))))
    return shift, herm


def dense_chain(p, n: int) -> np.ndarray:
    """Reference H_N = sum_j P_{j,j+1} with periodic wraparound, as a dense d^N x d^N matrix.

    Each bond's d^2 nonzeros per column are written by scatter, and the
    matrix is checked for translation invariance and hermiticity to 1e-10.
    """
    d = p.d
    size = d**n
    x = np.arange(size)
    weights = d ** np.arange(n - 1, -1, -1)
    digits = (x[None, :] // weights[:, None]) % d
    pair_out = np.arange(d * d)
    h = np.zeros((size, size), dtype=complex)
    for j in range(n):
        jp = (j + 1) % n
        # Column x couples to the d^2 rows that differ from x on sites j, j+1 only;
        # the (row, column) pairs of one bond are distinct, so += loses none.
        rest = x - digits[j] * weights[j] - digits[jp] * weights[jp]
        offsets = (pair_out // d) * weights[j] + (pair_out % d) * weights[jp]
        rows = rest[None, :] + offsets[:, None]
        h[rows, x[None, :]] += p.op[:, digits[j] * d + digits[jp]]
    shift_defect, herm_defect = _build_defects(h, d)
    if shift_defect > 1e-10 or herm_defect > 1e-10:
        raise AssertionError(
            f"chain build inconsistent (shift {shift_defect:.3e}, herm {herm_defect:.3e})"
        )
    return h


def dense_momentum_blocks(h: np.ndarray, d: int, n: int):
    """Reference (orbits, periods, phases, H_k), gathered from the dense matrix ``h``.

    <r,k|H|r',k> = sqrt(p_r p_r')/N sum_{l<N} e^{-2 pi i k l/N} H[r, T^l r'].
    """
    images, period = _translation_orbits(d, n)
    reps = images[0]
    # gathered[l, i, j] = H[r_i, T^l r_j], flattened over (i, j)
    gathered = h[reps[None, :, None], images[:, None, :]].reshape(n, -1)
    for k in range(n):
        keep = (k * period) % n == 0
        if not keep.any():
            continue
        phases = np.exp(-2j * np.pi * ((k * np.arange(n)) % n) / n)
        phases.real[np.abs(phases.real) < 1e-12] = 0.0
        phases.imag[np.abs(phases.imag) < 1e-12] = 0.0
        block = (phases @ gathered).reshape(reps.size, reps.size)[np.ix_(keep, keep)]
        amp = np.sqrt(period[keep] / n)
        yield images[:, keep], period[keep], phases, block * np.outer(amp, amp)


def dense_kernel(h: np.ndarray, tol: float = 1e-8) -> tuple[int, np.ndarray]:
    """Reference kernel: one dense eigh of the whole d^N x d^N chain matrix."""
    w, v = np.linalg.eigh(h)
    mask = w < tol
    return int(np.sum(mask)), v[:, mask]


# --- per-candidate reference for the PD search -------------------------------


def reference_solve_x(h, tol: float = 1e-9, seed: int = 0, tries: int = 200):
    """Reference ``bridge.solve_x``: each candidate built, diagonalized and compared in turn.

    Same null space, candidates and acceptance checks; a later candidate
    replaces the best only when its minimal eigenvalue is strictly larger.
    """
    from commchain.bridge import NULL_RTOL, XCandidate, _defect_gram
    from commchain.operators import _defect_norm, operator_schmidt

    d = h.d
    basis = la.hermitian_basis(d)
    a, b = operator_schmidt(h, tol).inner
    lam, vecs = np.linalg.eigh(_defect_gram(a, b, basis))
    null = vecs[:, lam <= NULL_RTOL * max(float(lam[-1]), 1.0)]
    if null.shape[1] == 0:
        return None

    def make_x(coeffs):
        x = np.tensordot(null @ coeffs, basis, axes=(0, 0))
        nrm = np.linalg.norm(x)
        if nrm < 1e-14:
            return x
        return x * (np.sqrt(d) / nrm)

    candidates = []
    id_coeffs = np.zeros(d * d)
    id_coeffs[0] = np.sqrt(d)
    proj = null.T @ id_coeffs
    if np.linalg.norm(proj) > 1e-12:
        candidates.append(proj)
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        candidates.append(rng.standard_normal(null.shape[1]))

    best = None
    for c in candidates:
        x = make_x(c)
        if np.linalg.norm(x) < 1e-14:
            continue
        w = np.linalg.eigvalsh(x)
        lo = float(w[0])
        if -float(w[-1]) > lo:
            x = -x
            lo = -float(w[-1])
        if best is None or lo > best[0]:
            best = (lo, x)
    if best is None or best[0] <= tol:
        return None
    lo, x = best
    residual = _defect_norm(a, b, x)
    if residual > max(tol, 1e-10 * np.linalg.norm(h.op) ** 2 * np.linalg.norm(x, 2)):
        return None
    return XCandidate(x=x, min_eigenvalue=lo, residual=residual)


def full_pipeline(term, tol=1e-9, seed=0):
    """(p, dec, bonds, graph) of one ``Analysis``, for tests."""
    a = Analysis(term, tol, seed)
    return a.p, a.dec, a.bonds, a.graph


@pytest.fixture(scope="session", autouse=True)
def _blas_thread_pool_warm_up():
    """Start OpenBLAS's thread pool before any timed test.

    The first multithreaded BLAS call in a process sometimes stalls for
    about 1 s on a shared 2-core machine while the pool starts; later
    calls do not.  One 256 x 256 eigh here keeps that start-up cost out of
    the timing gates (criterion 1 times its own dense ED checks).
    """
    z = np.random.default_rng(0).standard_normal((256, 256))
    np.linalg.eigh(z + z.T)


@pytest.fixture(scope="session")
def ising():
    return models.ising()


@pytest.fixture(scope="session")
def fig2():
    return models.fig2()


# --- corpus ---------------------------------------------------------------

# Structures are ordered so that scale-invariant draws are feasible:
# blocks needing partial out-edges come early, blocks needing partial
# in-edges late (off-diagonal edges are drawn upper-triangular only).
SI_STRUCTURES = {
    2: [[(1, 1), (1, 1)]],
    3: [
        [(1, 1), (1, 1), (1, 1)],
        [(1, 2), (1, 1)],
        [(1, 1), (2, 1)],
    ],
    4: [
        [(1, 1)] * 4,
        [(2, 2)],
        [(1, 2), (2, 1)],
        [(1, 2), (1, 1), (1, 1)],
        [(1, 1), (1, 1), (2, 1)],
    ],
    5: [
        [(1, 1), (2, 2)],
        [(1, 2), (1, 1), (2, 1)],
        [(1, 2), (1, 1), (1, 1), (1, 1)],
        [(1, 1), (1, 2), (1, 1), (1, 1)],
    ],
    6: [
        [(2, 3)],
        [(1, 1), (1, 1), (2, 2)],
        [(1, 2), (2, 1), (1, 1), (1, 1)],
        [(1, 2), (2, 2)],
        [(2, 2), (2, 1)],
        [(1, 2), (1, 1), (3, 1)],
        [(1, 2), (1, 2), (1, 1), (1, 1)],
        [(1, 3), (1, 1), (2, 1)],
        [(1, 1), (1, 1), (1, 2), (2, 1)],
    ],
}

GENERIC_STRUCTURES = SI_STRUCTURES  # same pools; the kernel draw differs


def _full_dim(blocks, a, b):
    return blocks[a][1] * blocks[b][0]


def _is_partial(blocks, kd, a, b):
    return 0 < kd[a][b] < _full_dim(blocks, a, b)


def _side_generates_full_algebra(s: int, contributions: list[tuple[int, int]]) -> bool:
    """contributions: (opposite factor dim, smaller eigenspace dim) per partial edge."""
    if s < 2:
        return True
    if sum(o * k for o, k in contributions) < s:
        return False
    return len(contributions) >= 2 or any(o >= 2 for o, _ in contributions)


def _smaller_eigenspace(blocks, kd, a, b) -> int:
    """min(k, f - k) for the bond a -> b of kernel dim k and full dim f."""
    k = kd[a][b]
    return min(k, _full_dim(blocks, a, b) - k)


def identifiable(blocks, kd) -> bool:
    nb = len(blocks)
    for a, (l, r) in enumerate(blocks):
        out = [
            (blocks[b][0], _smaller_eigenspace(blocks, kd, a, b))
            for b in range(nb)
            if _is_partial(blocks, kd, a, b)
        ]
        if not _side_generates_full_algebra(r, out):
            return False
        inc = [
            (blocks[b][1], _smaller_eigenspace(blocks, kd, b, a))
            for b in range(nb)
            if _is_partial(blocks, kd, b, a)
        ]
        if not _side_generates_full_algebra(l, inc):
            return False
    for i in range(nb):
        for j in range(i + 1, nb):
            if blocks[i] != (1, 1) or blocks[j] != (1, 1):
                continue
            col_sep = any(
                kd[a][i] != kd[a][j] or _is_partial(blocks, kd, a, i)
                for a in range(nb)
            )
            row_sep = any(
                kd[i][b] != kd[j][b] or _is_partial(blocks, kd, i, b)
                for b in range(nb)
            )
            if not (col_sep or row_sep):
                return False
    return True


def _offdiag_acyclic(kd) -> bool:
    nb = len(kd)
    adj = [[b for b in range(nb) if b != a and kd[a][b] > 0] for a in range(nb)]
    color = [0] * nb

    def dfs(v):
        color[v] = 1
        for w in adj[v]:
            if color[w] == 1:
                return False
            if color[w] == 0 and not dfs(w):
                return False
        color[v] = 2
        return True

    return all(color[v] or dfs(v) for v in range(nb))


def planted_scale_invariant(kd) -> bool:
    nb = len(kd)
    if any(kd[a][a] > 1 for a in range(nb)):
        return False
    return _offdiag_acyclic(kd)


def draw_kdims(blocks, rng, scale_invariant: bool, max_tries: int = 2000):
    """Kernel-dimension matrix of the requested kind, identifiable by design.

    Returns None when the structure cannot support the requested kind
    (e.g. a single block whose only possible partial bond is a weight-1
    self-loop that is too small to fix the factor split).
    """
    nb = len(blocks)
    for _ in range(max_tries):
        kd = [[0] * nb for _ in range(nb)]
        if scale_invariant:
            for a in range(nb):
                if rng.random() < 0.75:
                    kd[a][a] = 1
            for a in range(nb):
                for b in range(a + 1, nb):
                    if rng.random() < 0.6:
                        kd[a][b] = int(rng.integers(1, _full_dim(blocks, a, b) + 1))
        else:
            for a in range(nb):
                for b in range(nb):
                    kd[a][b] = int(rng.integers(0, _full_dim(blocks, a, b) + 1))
        if identifiable(blocks, kd) and planted_scale_invariant(kd) == scale_invariant:
            return kd
    return None


@dataclass
class CorpusModel:
    name: str
    d: int
    blocks: list[tuple[int, int]]
    kdims: list[list[int]]
    seed: int
    scale_invariant_planted: bool
    term: ProjectorTerm


def _build_corpus(mix: list[tuple[int, int]], master_seed: int) -> list[CorpusModel]:
    """``mix`` is a list of (d, count) pairs; draws are fully seeded."""
    rng = np.random.default_rng(master_seed)
    out = []
    idx = 0
    for d, count in mix:
        pool = SI_STRUCTURES[d]
        for _ in range(count):
            kd = None
            while kd is None:
                blocks = pool[int(rng.integers(0, len(pool)))]
                si = bool(rng.random() < 0.45)
                kd = draw_kdims(blocks, rng, si)
            seed = int(rng.integers(0, 2**31))
            term = cc.synthesize_local_term(blocks, kd, seed)
            out.append(
                CorpusModel(
                    name=f"model{idx:02d}_d{d}",
                    d=d,
                    blocks=[tuple(b) for b in blocks],
                    kdims=kd,
                    seed=seed,
                    scale_invariant_planted=si,
                    term=term,
                )
            )
            idx += 1
    return out


@pytest.fixture(scope="session")
def small_corpus():
    """A dozen models for module-level property tests."""
    return _build_corpus([(2, 2), (3, 3), (4, 3), (5, 2), (6, 2)], master_seed=2024)


@pytest.fixture(scope="session")
def acceptance_corpus():
    """50 seeded commuting terms, d <= 6, blocks <= 4, ED-budget-weighted."""
    return _build_corpus(
        [(2, 1), (3, 5), (4, 1), (5, 4), (6, 39)], master_seed=777
    )

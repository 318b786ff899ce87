"""Exact diagonalization of the periodic chain, split by lattice momentum.

This is the independent oracle used to cross-check every combinatorial
claim (degeneracy, energy census, ground-space identities).  It never
forms the d^N x d^N Hamiltonian.  The only structure it uses is the
translation T of the ring: H is diagonalized one momentum block H_k at a
time (the momentum-state method of Sandvik, arXiv:1101.3281, section 4),
and each block is built from the columns H e_r of the orbit
representatives r alone.  A column has at most N d^2 nonzeros, written by
scatter from each bond's d^2 x d^2 term.  Two checks run on every block
build: H e_{Tr} = T(H e_r) for every representative (H commutes with T),
and every H_k is hermitian (so H is, the momentum basis being unitary).
The spectrum is the union of the block spectra, and the kernel is
computed by sector too: each block's kernel vectors are expanded back
into the full basis through the momentum states.  Nothing of the
commuting structure that the oracle is meant to check enters here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .errors import NonIntegerSpectrum, TooLarge
from .operators import LocalTerm

DEFAULT_CAP = 4096  # largest d^N
KERNEL_TOL = 1e-8
INTEGER_TOL = 1e-6
KERNEL_CHECK_CAP = 512  # largest d^N of the kernel checks after pruning and commutify
# Entries of one dense slab (of summed columns, or of block rows), bounding its memory.
_SLAB_BINS = 1 << 18

__all__ = [
    "ChainHamiltonian",
    "build_chain",
    "kernel_dim",
    "integer_spectrum",
    "same_subspace",
    "apply_sitewise",
    "same_chain_kernel",
]


@dataclass
class ChainHamiltonian:
    """H_N = sum_j P_{j,j+1} on the ring of N sites, held as its d^2 x d^2 two-site term."""

    N: int
    d: int
    term: np.ndarray


def _shift(x: np.ndarray, d: int, n: int) -> np.ndarray:
    """Basis index after the cyclic translation T (site k moves to site k-1).

    Site 0 is the most significant base-d digit of the index.
    """
    top = d ** (n - 1)
    return (x % top) * d + x // top


def build_chain(p: LocalTerm, n: int, cap: int = DEFAULT_CAP) -> ChainHamiltonian:
    """H_N = sum_j P_{j,j+1} with periodic wraparound; its momentum blocks are built on use."""
    if n < 2:
        raise ValueError("chain length must be at least 2")
    size = p.d**n
    if size > cap:
        raise TooLarge(f"d^N = {size} exceeds cap {cap}")
    return ChainHamiltonian(N=n, d=p.d, term=p.op)


def _bonds(n: int) -> list[tuple[int, int]]:
    """The ring's bonds (j, j+1 mod n); at n = 2 both join sites 0 and 1."""
    return [(j, (j + 1) % n) for j in range(n)]


def _summed_columns(term: np.ndarray, d: int, n: int, cols: np.ndarray) -> np.ndarray:
    """The columns H e_x for x in ``cols``, as rows of a dense (len(cols), d^N) array.

    Column x couples to the d^2 rows that differ from x on the sites of one
    bond only; each bond's entries are scattered and summed.
    """
    size = d**n
    weights = d ** np.arange(n - 1, -1, -1)
    digits = (cols[None, :] // weights[:, None]) % d
    pair_out = np.arange(d * d)
    out = np.zeros(cols.size * size, dtype=complex)
    at = cols + np.arange(cols.size) * size  # flat index of entry (c, x_c)
    by_input = term.T  # row a: the outputs of input pair a
    for j, jp in _bonds(n):
        rest = at - digits[j] * weights[j] - digits[jp] * weights[jp]
        offsets = (pair_out // d) * weights[j] + (pair_out % d) * weights[jp]
        rows = rest[:, None] + offsets[None, :]
        np.add.at(out, rows.ravel(), by_input[digits[j] * d + digits[jp]].ravel())
    return out.reshape(cols.size, size)


def _representative_columns(
    term: np.ndarray, d: int, n: int, reps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Nonzero entries (column, row, value) of H e_r over ``reps``, and the shift defect.

    The defect is the largest entry of |H e_{T r} - T(H e_r)|; both columns
    are built by the same scatter, a slab of representatives at a time.
    """
    size = d**n
    moved_reps = _shift(reps, d, n)
    after_shift = _shift(np.arange(size), d, n)
    step = max(1, _SLAB_BINS // (2 * size))
    defect, entries = 0.0, []
    for lo in range(0, reps.size, step):
        width = reps[lo : lo + step].size
        both = np.concatenate([reps[lo : lo + step], moved_reps[lo : lo + step]])
        grid = _summed_columns(term, d, n, both)
        grid, moved = grid[:width], grid[width:]
        defect = max(defect, float(np.max(np.abs(moved[:, after_shift] - grid))))
        j, y = np.nonzero(grid)
        entries.append((j + lo, y, grid[j, y]))
    cols, rows, vals = (np.concatenate(part) for part in zip(*entries))
    return cols, rows, vals, defect


def _real_if_exact(matrix: np.ndarray) -> np.ndarray:
    """The real part when the imaginary part is exactly zero, for the real solvers."""
    return matrix.real if not np.any(matrix.imag) else matrix


def _translation_orbits(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of T on the basis, one per smallest member r (the representative).

    Returns ``images`` with ``images[l, i] = T^l r_i`` for l = 0..n-1 and the
    periods p_i, the least p >= 1 with T^p r_i = r_i.
    """
    x = np.arange(d**n)
    images = np.empty((n, x.size), dtype=np.int64)
    images[0] = x
    for step in range(1, n):
        images[step] = _shift(images[step - 1], d, n)
    period = np.full(x.size, n)
    for step in range(n - 1, 0, -1):
        period[images[step] == x] = step
    is_rep = images.min(axis=0) == x
    return images[:, is_rep], period[is_rep]


def _momentum_blocks(chain: ChainHamiltonian):
    """Yield (orbits, periods, phases, H_k) for each lattice momentum k = 0..N-1 with states.

    The momentum state of representative r is |r,k> = p_r^{-1/2}
    sum_{l<p_r} e^{-2 pi i k l/N} T^l |r>; it exists when k p_r = 0 mod N.
    ``orbits[l, i] = T^l r_i`` and ``periods`` cover those representatives,
    and ``phases[l]`` is e^{-2 pi i k l/N}.  Since H commutes with T
    (checked here), each image y = T^s r_i (s < p_i) in the column H e_{r_j}
    adds H[y, r_j] e^{2 pi i k s/N} sqrt(p_j/p_i) to <r_i,k|H|r_j,k>.  Both
    build checks run before the first block is yielded, and the
    hermiticity check on every block.
    """
    n, d = chain.N, chain.d
    images, period = _translation_orbits(d, n)
    cols, rows, vals, shift_defect = _representative_columns(chain.term, d, n, images[0])
    # x = T^s r_i for orbit[x] = i and the least such s = shift[x]
    orbit = np.empty(d**n, dtype=np.int64)
    shift = np.empty(d**n, dtype=np.int64)
    for step in range(n - 1, -1, -1):
        orbit[images[step]] = np.arange(period.size)
        shift[images[step]] = step
    row_orbit = orbit[rows]
    back = (-shift[rows]) % n  # e^{2 pi i k s/N} = phases[-s mod N]
    weights = vals * np.sqrt(period[cols] / period[row_orbit])
    phase_table = np.exp(-2j * np.pi * (np.outer(np.arange(n), np.arange(n)) % n) / n)
    # Exact phases at k = 0 and k = N/2 keep a real H on the real solver.
    phase_table.real[np.abs(phase_table.real) < 1e-12] = 0.0
    phase_table.imag[np.abs(phase_table.imag) < 1e-12] = 0.0
    for k, phases in enumerate(phase_table):
        keep = (k * period) % n == 0
        width = int(np.count_nonzero(keep))
        if not width:
            continue
        # Only entries between two orbits of the sector, at their sector positions.
        at = np.cumsum(keep) - 1
        inside = keep[row_orbit] & keep[cols]
        block = np.zeros(width * width, dtype=complex)
        key = at[row_orbit[inside]] * width + at[cols[inside]]
        np.add.at(block, key, weights[inside] * phases[back[inside]])
        block = block.reshape(width, width)
        step = max(1, _SLAB_BINS // width)  # rows per slab of the hermiticity check
        herm_defect = max(
            float(np.max(np.abs(block[i : i + step] - block[:, i : i + step].T.conj())))
            for i in range(0, width, step)
        )
        if shift_defect > 1e-10 or herm_defect > 1e-10:
            raise AssertionError(
                f"chain build inconsistent (shift {shift_defect:.3e}, herm {herm_defect:.3e})"
            )
        yield images[:, keep], period[keep], phases, block
        del block  # before the next block is allocated


def kernel_dim(chain: ChainHamiltonian) -> tuple[int, np.ndarray]:
    """Kernel dimension and an orthonormal kernel basis (columns).

    Each momentum block's kernel vectors c are expanded into the full
    basis as sum_i c_i |r_i,k>.  Momentum states are orthonormal, within a
    sector and across sectors, so the columns are too.  The spectra here
    are sums of projectors, so an absolute tolerance on the eigenvalues is
    appropriate.
    """
    size = chain.d**chain.N
    cols = [np.zeros((size, 0), dtype=complex)]
    for orbits, periods, phases, block in _momentum_blocks(chain):
        w, c = np.linalg.eigh(_real_if_exact(block))
        del block  # before the next block is allocated
        c = c[:, w < KERNEL_TOL] / np.sqrt(periods)[:, None]
        v = np.zeros((size, c.shape[1]), dtype=complex)
        # T^l r for l < p_r are the distinct members of the orbit of r.
        for step in range(chain.N):
            on = step < periods
            v[orbits[step, on]] = phases[step] * c[on]
        cols.append(v)
    basis = np.concatenate(cols, axis=1)
    return basis.shape[1], basis


def integer_spectrum(chain: ChainHamiltonian) -> dict[int, int]:
    """Eigenvalue multiplicities, requiring every eigenvalue to be integral.

    The eigenvalues are gathered sector by sector from the momentum blocks.
    A non-integral eigenvalue signals a non-commuting local term.
    """
    # One block at a time: only its eigenvalues are kept, and it is dropped
    # before the next block is allocated.
    parts = []
    for *_, block in _momentum_blocks(chain):
        parts.append(np.linalg.eigvalsh(_real_if_exact(block)))
        del block
    w = np.concatenate(parts)
    rounded = np.rint(w)
    worst = float(np.max(np.abs(w - rounded)))
    if worst > INTEGER_TOL:
        raise NonIntegerSpectrum(f"eigenvalue off integer by {worst:.3e}")
    out: dict[int, int] = {}
    for v in rounded.astype(int):
        out[int(v)] = out.get(int(v), 0) + 1
    return out


def same_subspace(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dimension and largest principal angle below ``KERNEL_TOL`` (as a sine)."""
    if a.shape[1] != b.shape[1]:
        return False
    return la.subspace_angle_sin(a, b) < KERNEL_TOL


def same_chain_kernel(
    a: LocalTerm, b: LocalTerm, sitewise: np.ndarray | None = None
) -> tuple[int | None, bool | None]:
    """(N, whether the chains of ``a`` and ``b`` have the same kernel at N).

    N is 3 or, if d^3 passes ``KERNEL_CHECK_CAP``, 2; (None, None) if d^2 does
    too.  ``sitewise`` = Y maps the kernel of ``a`` by Y^(x N) first.
    """
    n = 3 if a.d**3 <= KERNEL_CHECK_CAP else 2
    if a.d**n > KERNEL_CHECK_CAP:
        return None, None
    ka = kernel_dim(build_chain(a, n))[1]
    kb = kernel_dim(build_chain(b, n))[1]
    if sitewise is not None:
        ka = la.orthonormalize_rows(apply_sitewise(sitewise, n, ka).T).T
    return n, bool(same_subspace(ka, kb))


def apply_sitewise(x: np.ndarray, n: int, vec_or_cols: np.ndarray) -> np.ndarray:
    """Apply x^(tensor N) to a chain vector or to each column of a basis."""
    d = x.shape[0]
    cols = vec_or_cols if vec_or_cols.ndim == 2 else vec_or_cols[:, None]
    out = cols.astype(complex)
    for k in range(n):
        left = d**k
        right = d ** (n - 1 - k)
        t = out.reshape(left, d, right, -1)
        out = np.einsum("sd,adrc->asrc", x, t).reshape(d**n, -1)
    return out if vec_or_cols.ndim == 2 else out[:, 0]

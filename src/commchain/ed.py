"""Exact diagonalization of the periodic chain, split by lattice momentum.

This is the independent oracle used to cross-check every combinatorial
claim (degeneracy, energy census, ground-space identities).  It builds the
full d^N-dimensional Hamiltonian as a dense matrix, with a hard size cap,
writing each bond's d^2 nonzeros per column by scatter.  The only
structure it uses is the translation T of the ring, which commutes with H
by construction and is checked on every build: H is diagonalized one
momentum block H_k at a time (the momentum-state method of Sandvik,
arXiv:1101.3281, section 4).  The spectrum is the union of the block
spectra, and the kernel is computed by sector too: each block's kernel
vectors are expanded back into the full basis through the momentum
states.  Nothing of the commuting structure that the oracle is meant to
check enters here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .errors import NonIntegerSpectrum, TooLarge
from .operators import LocalTerm

DEFAULT_CAP = 4096
KERNEL_TOL = 1e-8
INTEGER_TOL = 1e-6
CHECK_TILE = 512  # tile edge of the hermiticity check; a whole-matrix transpose is slower
KERNEL_CHECK_CAP = 512  # largest d^N of the dense kernel checks after pruning and commutify

__all__ = [
    "ChainHamiltonian",
    "build_chain",
    "kernel_dim",
    "integer_spectrum",
    "same_subspace",
    "apply_sitewise",
    "kernel_check_length",
]


@dataclass
class ChainHamiltonian:
    N: int
    d: int
    matrix: np.ndarray


def _shift(x: np.ndarray, d: int, n: int) -> np.ndarray:
    """Basis index after the cyclic translation T (site k moves to site k-1).

    Site 0 is the most significant base-d digit of the index.
    """
    top = d ** (n - 1)
    return (x % top) * d + x // top


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


def build_chain(p: LocalTerm, n: int, cap: int = DEFAULT_CAP) -> ChainHamiltonian:
    """H_N = sum_j P_{j,j+1} with periodic wraparound, as a dense matrix."""
    d = p.d
    if n < 2:
        raise ValueError("chain length must be at least 2")
    size = d**n
    if size > cap:
        raise TooLarge(f"d^N = {size} exceeds cap {cap}")
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
    return ChainHamiltonian(N=n, d=d, matrix=h)


def _real_if_exact(matrix: np.ndarray) -> np.ndarray:
    """The real part when the imaginary part is exactly zero, for the real solvers."""
    return matrix.real if np.max(np.abs(matrix.imag)) == 0.0 else matrix


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
    (checked in ``build_chain``),
    <r,k|H|r',k> = sqrt(p_r p_r')/N sum_{l<N} e^{-2 pi i k l/N} H[r, T^l r'].
    """
    n = chain.N
    images, period = _translation_orbits(chain.d, n)
    reps = images[0]
    # gathered[l, i, j] = H[r_i, T^l r_j], flattened over (i, j)
    gathered = chain.matrix[reps[None, :, None], images[:, None, :]].reshape(n, -1)
    for k in range(n):
        keep = (k * period) % n == 0
        if not keep.any():
            continue
        phases = np.exp(-2j * np.pi * ((k * np.arange(n)) % n) / n)
        # Exact phases at k = 0 and k = N/2 keep a real H on the real solver.
        phases.real[np.abs(phases.real) < 1e-12] = 0.0
        phases.imag[np.abs(phases.imag) < 1e-12] = 0.0
        block = (phases @ gathered).reshape(reps.size, reps.size)[np.ix_(keep, keep)]
        amp = np.sqrt(period[keep] / n)
        yield images[:, keep], period[keep], phases, block * np.outer(amp, amp)


def kernel_dim(chain: ChainHamiltonian, tol: float = KERNEL_TOL) -> tuple[int, np.ndarray]:
    """Kernel dimension and an orthonormal kernel basis (columns).

    Each momentum block's kernel vectors c are expanded into the full
    basis as sum_i c_i |r_i,k>.  Momentum states are orthonormal, within a
    sector and across sectors, so the columns are too.  The spectra here
    are sums of projectors, so an absolute tolerance on the eigenvalues is
    appropriate.
    """
    size = chain.matrix.shape[0]
    cols = [np.zeros((size, 0), dtype=complex)]
    for orbits, periods, phases, block in _momentum_blocks(chain):
        w, c = np.linalg.eigh(_real_if_exact(block))
        c = c[:, w < tol] / np.sqrt(periods)[:, None]
        v = np.zeros((size, c.shape[1]), dtype=complex)
        # T^l r for l < p_r are the distinct members of the orbit of r.
        for step in range(chain.N):
            on = step < periods
            v[orbits[step, on]] = phases[step] * c[on]
        cols.append(v)
    basis = np.concatenate(cols, axis=1)
    return basis.shape[1], basis


def integer_spectrum(chain: ChainHamiltonian, tol: float = INTEGER_TOL) -> dict[int, int]:
    """Eigenvalue multiplicities, requiring every eigenvalue to be integral.

    The eigenvalues are gathered sector by sector from the momentum blocks.
    A non-integral eigenvalue signals a non-commuting local term.
    """
    # One block at a time: only its eigenvalues are kept.
    w = np.concatenate(
        [np.linalg.eigvalsh(_real_if_exact(block)) for *_, block in _momentum_blocks(chain)]
    )
    rounded = np.rint(w)
    worst = float(np.max(np.abs(w - rounded)))
    if worst > tol:
        raise NonIntegerSpectrum(f"eigenvalue off integer by {worst:.3e}")
    out: dict[int, int] = {}
    for v in rounded.astype(int):
        out[int(v)] = out.get(int(v), 0) + 1
    return out


def kernel_check_length(d: int) -> int | None:
    """Chain length of a dense kernel check: 3 if d^3 fits the cap, else 2; None if d^2 does not."""
    n = 3 if d**3 <= KERNEL_CHECK_CAP else 2
    return n if d**n <= KERNEL_CHECK_CAP else None


def same_subspace(a: np.ndarray, b: np.ndarray, tol: float = KERNEL_TOL) -> bool:
    """Equal dimension and largest principal angle below ``tol`` (as a sine)."""
    if a.shape[1] != b.shape[1]:
        return False
    return la.subspace_angle_sin(a, b) < tol


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

"""Dense linear-algebra helpers shared across the package.

Everything here works on plain complex numpy arrays.  Matrices are small
(site dimension squared at most: three-site identities are reduced to
Schmidt factors before they get here), so null spaces and row spaces go
through a full SVD rather than iterative methods.  Identity checks take
no SVD: their defects are Frobenius norms (see the ``operators``
docstring).  The one spectral norm is ``subspace_angle_sin``'s, as the
sine of a principal angle is one by definition.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "dag",
    "hermiticity_defect",
    "nullspace",
    "orthonormalize_rows",
    "haar_unitary",
    "hermitian_basis",
    "cluster_eigenvalues",
    "complete_orthonormal",
    "subspace_angle_sin",
]

# Gap, relative to max(1, spread), that separates two eigenvalue clusters.
CLUSTER_RTOL = 1e-6
# Residual norm below which a completion candidate counts as dependent.
COMPLETION_TOL = 1e-7


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def hermiticity_defect(a: np.ndarray) -> float:
    """Frobenius norm of a - a^dag."""
    return float(np.linalg.norm(a - dag(a)))


def nullspace(a: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space of ``a``.

    Singular values below ``rtol * max(sigma_max, 1)`` count as zero; the
    floor of 1 keeps the threshold meaningful for small matrices.
    """
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    # Economy SVD already carries all right singular vectors when the
    # matrix is tall; only wide matrices need the full set.
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cut = rtol * max(float(s[0]) if s.size else 0.0, 1.0)
    rank = int(np.sum(s > cut))
    return vh[rank:].conj().T


def orthonormalize_rows(rows: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis for the row space of ``rows`` (stacked vectors).

    Returns the significant right singular vectors as rows, so the result
    spans the same space but with orthonormal rows.
    """
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    cut = rtol * max(float(s[0]) if s.size else 0.0, 1.0)
    rank = int(np.sum(s > cut))
    return vh[:rank]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # Fix the phase ambiguity of QR so the distribution is exactly Haar.
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


@functools.lru_cache(maxsize=32)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of hermitian d x d matrices.

    Ordering: normalized identity, then diagonal traceless combinations,
    then symmetric and antisymmetric off-diagonal pairs.  Shape (d*d, d, d).
    Built once per d and shared, so the array is read-only.
    """
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for k in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[:k, :k] = np.eye(k)
        m[k, k] = -k
        mats.append(m / np.sqrt(k * (k + 1)))
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2)
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / np.sqrt(2)
            m[j, i] = 1j / np.sqrt(2)
            mats.append(m)
    basis = np.array(mats)
    basis.flags.writeable = False
    return basis


def cluster_eigenvalues(w: np.ndarray) -> list[slice]:
    """Group sorted eigenvalues into clusters separated by a relative gap.

    The gap threshold is ``CLUSTER_RTOL`` times max(1, spread of the spectrum).
    Returns slices into the sorted array.
    """
    n = len(w)
    if n == 0:
        return []
    scale = max(1.0, float(w[-1] - w[0]), float(np.max(np.abs(w))))
    cuts = [0]
    for i in range(n - 1):
        if w[i + 1] - w[i] > CLUSTER_RTOL * scale:
            cuts.append(i + 1)
    cuts.append(n)
    return [slice(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def complete_orthonormal(v: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis whose first column is ``v/|v|``.

    Completes with standard basis vectors by Gram-Schmidt, skipping the
    ones that are nearly dependent on what was already collected.
    """
    n = v.shape[0]
    cols = [v / np.linalg.norm(v)]
    for k in range(n):
        if len(cols) == n:
            break
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        for c in cols:
            e = e - c * np.vdot(c, e)
        nrm = np.linalg.norm(e)
        if nrm > COMPLETION_TOL:
            cols.append(e / nrm)
    if len(cols) != n:
        raise RuntimeError("orthonormal completion failed")
    return np.column_stack(cols)


def subspace_angle_sin(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal-angle sine between the column spaces of a and b.

    Both inputs must have orthonormal columns.  Works down to angles of
    order 1e-12 (unlike the arccos-of-overlap formula).
    """
    if a.shape[1] != b.shape[1]:
        return 1.0
    if a.shape[1] == 0:
        return 0.0
    ra = a - b @ (dag(b) @ a)
    rb = b - a @ (dag(a) @ b)
    return float(max(np.linalg.norm(ra, 2), np.linalg.norm(rb, 2)))


"""Tests for the diagonalization oracle itself, against full-matrix references.

The oracle builds its momentum blocks from the orbit representatives;
``conftest.dense_chain``, the dense d^N x d^N scatter build, is the
reference.
"""

import tracemalloc

import numpy as np
import pytest

from commchain import canonical, ed, models
from commchain._linalg import haar_unitary
from commchain.canonical import Analysis, canonical_hamiltonian, prune_to_loops
from commchain.ed import (
    KERNEL_TOL,
    _momentum_blocks,
    _translation_orbits,
    apply_sitewise,
    build_chain,
    integer_spectrum,
    kernel_dim,
    same_chain_kernel,
    same_subspace,
)
from commchain.errors import CommchainError, NonIntegerSpectrum, TooLarge
from commchain.models import synthesize_local_term
from commchain.operators import LocalTerm, ProjectorTerm

from conftest import _build_defects, dense_chain, dense_kernel, dense_momentum_blocks


def dense_spectrum(matrix: np.ndarray) -> dict[int, int]:
    """Rounded eigenvalue multiplicities of the full matrix: the reference."""
    out: dict[int, int] = {}
    for v in np.rint(np.linalg.eigvalsh(matrix)).astype(int):
        out[int(v)] = out.get(int(v), 0) + 1
    return out


def kron_chain(op: np.ndarray, d: int, n: int) -> np.ndarray:
    """sum_j P_{j,j+1} by a kron with the identity and tensor transposes."""
    size = d**n
    base = (np.kron(op, np.eye(d ** (n - 2))) if n > 2 else op).reshape((d,) * (2 * n))
    h = np.zeros((size, size), dtype=complex)
    for j in range(n):
        # slot k of ``base`` sits on ring site (j + k) % n
        perm = list(np.argsort([(j + k) % n for k in range(n)]))
        h += base.transpose(perm + [n + q for q in perm]).reshape(size, size)
    return h


def synthesized_terms():
    """Complex synthesized commuting terms at d = 3..8."""
    specs = [
        ([(1, 1), (1, 2)], [[1, 1], [0, 1]]),
        ([(1, 2), (2, 1)], [[1, 2], [0, 1]]),
        ([(1, 1), (2, 2)], [[1, 1], [0, 2]]),
        ([(1, 2), (1, 1), (3, 1)], [[1, 1, 2], [0, 1, 1], [0, 0, 1]]),
        ([(1, 1), (1, 2), (2, 2)], [[1, 1, 1], [0, 1, 2], [0, 0, 1]]),
        ([(2, 2), (2, 2)], [[1, 2], [0, 1]]),
    ]
    return [
        (f"synth_d{sum(l * r for l, r in b)}", synthesize_local_term(b, kd, 11)) for b, kd in specs
    ]


def test_build_chain_ising_n2():
    assert np.allclose(dense_chain(models.ising(), 2), np.diag([0, 2, 2, 0]))
    ch = build_chain(models.ising(), 2)
    dim, basis = kernel_dim(ch)
    assert dim == 2
    assert {int(np.argmax(np.abs(basis[:, k]))) for k in range(2)} == {0, 3}


def test_build_chain_zero():
    assert np.linalg.norm(dense_chain(models.zero(2), 3)) == 0.0
    assert kernel_dim(build_chain(models.zero(2), 3))[0] == 8


def test_build_chain_fig2_integer_spectrum():
    w = np.linalg.eigvalsh(dense_chain(models.fig2(), 3))
    assert np.max(np.abs(w - np.rint(w))) < 1e-10


def test_build_chain_translation_covariance():
    # rebuild by hand with an explicit shift and compare
    p = models.fig2()
    h = dense_chain(p, 3)
    d, n = p.d, 3
    size = d**n
    idx = np.arange(size)
    digits = [(idx // d ** (n - 1 - k)) % d for k in range(n)]
    rot = sum(digits[(k - 1) % n] * d ** (n - 1 - k) for k in range(n))
    assert np.max(np.abs(h[np.ix_(rot, rot)] - h)) < 1e-12


def test_build_defects_flag_broken_matrices():
    h = dense_chain(models.fig2(), 5)  # 1024 x 1024: two tiles a side
    assert max(_build_defects(h, 4)) < 1e-12
    shifted = h.copy()
    shifted[601, 902] += 1e-6  # neither row has 0 as its first or last site digit
    shifted[902, 601] += 1e-6
    shift, herm = _build_defects(shifted, 4)
    assert shift >= 1e-6 and herm < 1e-12
    for i, j in ((1, 0), (1000, 0)):  # inside a diagonal tile, then an off-diagonal one
        skewed = h.copy()
        skewed[i, j] += 1e-6
        assert _build_defects(skewed, 4)[1] >= 1e-6


def test_build_chain_too_large():
    with pytest.raises(TooLarge):
        build_chain(models.fig2(), 7)


def test_kernel_dim_ising_n4():
    assert kernel_dim(build_chain(models.ising(), 4))[0] == 2


def test_integer_spectrum_ising_n3():
    assert integer_spectrum(build_chain(models.ising(), 3)) == {0: 2, 2: 6}


def test_integer_spectrum_zero():
    assert integer_spectrum(build_chain(models.zero(2), 3)) == {0: 8}


def test_integer_spectrum_rejects_non_commuting():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    _, v = np.linalg.eigh(z + z.conj().T)
    p = ProjectorTerm(2, v[:, :2] @ v[:, :2].conj().T)
    with pytest.raises(NonIntegerSpectrum):
        integer_spectrum(build_chain(p, 3))


def test_same_subspace_cases():
    rng = np.random.default_rng(0)
    a = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))[0]
    assert same_subspace(a, a)
    u = haar_unitary(3, rng)
    assert same_subspace(a, a @ u)
    b = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))[0]
    assert not same_subspace(a, b)
    assert not same_subspace(a, a[:, :2])


def test_ising_kernel_equals_canonical_kernel():
    n = 4
    ka = kernel_dim(build_chain(models.ising(), n))[1]
    kb = kernel_dim(build_chain(canonical_hamiltonian(2, 2), n))[1]
    assert same_subspace(ka, kb)


def test_apply_sitewise_matches_kron():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    full = np.kron(np.kron(x, x), x)
    assert np.allclose(apply_sitewise(x, 3, v), full @ v)


def test_chain_requires_two_sites():
    with pytest.raises(ValueError):
        build_chain(models.ising(), 1)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("name", ["ising", "fig2", "synth"])
def test_build_chain_matches_kron_reference(name, n):
    p = synthesized_terms()[0][1] if name == "synth" else models.builtin(name)
    assert np.max(np.abs(dense_chain(p, n) - kron_chain(p.op, p.d, n))) <= 1e-12


def test_build_chain_matches_kron_reference_complex_d6():
    _, p = synthesized_terms()[3]
    assert p.d == 6 and np.max(np.abs(p.op.imag)) > 0
    for n in (2, 3):
        assert np.max(np.abs(dense_chain(p, n) - kron_chain(p.op, p.d, n))) <= 1e-12


BUILTIN_CASES = [
    ("ising", range(2, 11)),  # N = 4, 6, 8, 10 have orbits of every period dividing N
    ("fig2", range(2, 6)),  # real and not diagonal
    ("zero(1)", range(2, 7)),  # d = 1: one orbit of period 1, only k = 0 has a state
    ("zero(3)", range(2, 6)),  # period-1 orbits |aa...a> have a k = 0 state only
]


def synthesized_cases():
    """(name, term, N) of the complex synthesized terms at d <= 6, N = 2..6, d^N <= 1296."""
    return [
        (name, p, n)
        for name, p in synthesized_terms()
        if p.d <= 6
        for n in range(2, 7)
        if p.d**n <= 1296  # keeps the dense reference quick
    ]


@pytest.mark.parametrize("name,ns", BUILTIN_CASES)
def test_sector_spectrum_matches_dense_builtins(name, ns):
    p = models.builtin(name)
    for n in ns:
        assert integer_spectrum(build_chain(p, n)) == dense_spectrum(dense_chain(p, n)), (name, n)


def test_sector_spectrum_matches_dense_synthesized():
    for name, p in synthesized_terms():
        assert np.max(np.abs(p.op.imag)) > 0, name
        for n in (2, 3, 4, 6):  # d = 3 reaches the composite N = 6
            if p.d**n > 1296:  # keeps the dense reference quick
                continue
            spec = integer_spectrum(build_chain(p, n))
            assert spec == dense_spectrum(dense_chain(p, n)), (name, n)


def assert_kernel_matches_dense(p, n: int) -> int:
    """Sector kernel against the dense reference: dimension, subspace, orthonormality."""
    dim, basis = kernel_dim(build_chain(p, n))
    ref_dim, ref = dense_kernel(dense_chain(p, n), KERNEL_TOL)
    assert dim == ref_dim == basis.shape[1]
    assert basis.shape[0] == p.d**n
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(dim)), initial=0.0) <= 1e-12
    assert same_subspace(basis, ref)
    return dim


@pytest.mark.parametrize("name,ns", BUILTIN_CASES)  # zero(3): every state is in the kernel
def test_sector_kernel_matches_dense_builtins(name, ns):
    p = models.builtin(name)
    for n in ns:
        assert_kernel_matches_dense(p, n)


def test_sector_kernel_matches_dense_synthesized():
    for name, p in synthesized_terms():
        assert np.max(np.abs(p.op.imag)) > 0, name
        for n in (2, 3, 4, 6):
            if p.d**n > 512:  # the limit of the kernel checks
                continue
            assert_kernel_matches_dense(p, n)
    assert p.d == 8  # the last term reaches d^N = 512
    for _, p, n in synthesized_cases():
        if p.d**n > 512:
            assert_kernel_matches_dense(p, n)


def assert_blocks_match_dense_gather(p, n: int) -> None:
    """Every H_k, its orbits, periods and phases against the blocks gathered from the dense H."""
    built = list(_momentum_blocks(build_chain(p, n)))
    ref = list(dense_momentum_blocks(dense_chain(p, n), p.d, n))
    assert len(built) == len(ref)
    for (orbits, periods, phases, block), (r_orbits, r_periods, r_phases, r_block) in zip(
        built, ref
    ):
        assert np.array_equal(orbits, r_orbits) and np.array_equal(periods, r_periods)
        assert np.array_equal(phases, r_phases)
        assert np.max(np.abs(block - r_block)) <= 1e-12
        # The same blocks take the real solver.
        assert (np.max(np.abs(block.imag)) == 0.0) == (np.max(np.abs(r_block.imag)) == 0.0)


@pytest.mark.parametrize("name,ns", BUILTIN_CASES)
def test_momentum_blocks_match_dense_gather_builtins(name, ns):
    p = models.builtin(name)
    for n in ns:
        assert_blocks_match_dense_gather(p, n)
    if name in ("ising", "fig2"):  # a real term reaches the real solver at k = 0 and k = N/2
        blocks = [block for *_, block in _momentum_blocks(build_chain(p, 4))]
        assert np.max(np.abs(blocks[0].imag)) == 0.0 and np.max(np.abs(blocks[2].imag)) == 0.0


def test_momentum_blocks_match_dense_gather_synthesized():
    for name, p, n in synthesized_cases():
        assert np.max(np.abs(p.op.imag)) > 0, name
        assert_blocks_match_dense_gather(p, n)


# --- the build checks, on deliberately broken builds -------------------------


def test_shift_check_catches_a_missing_wraparound_bond(monkeypatch):
    monkeypatch.setattr(ed, "_bonds", lambda n: [(j, j + 1) for j in range(n - 1)])
    with pytest.raises(AssertionError, match=r"chain build inconsistent \(shift [1-9]"):
        integer_spectrum(build_chain(models.ising(), 3))


def test_hermiticity_check_catches_a_non_hermitian_term():
    op = models.fig2().op.copy()
    op[0, 5] += 1e-6  # not mirrored at [5, 0]; LocalTerm.symmetrized would absorb it
    bad = LocalTerm(4, op)
    for check in (integer_spectrum, kernel_dim):
        with pytest.raises(AssertionError, match=r"\(shift 0\.000e\+00, herm [1-9]"):
            check(build_chain(bad, 3))
    with pytest.raises(AssertionError, match=r"herm [1-9]"):
        dense_chain(bad, 3)  # the reference agrees


def test_fig2_n6_spectrum_allocates_no_dense_matrix():
    # d^N = 4096: the dense chain matrix alone would take 268 MB.  zero(16)
    # at N=3 has 1376 orbits and blocks of 1376 and 1360 (30 MB each): each
    # block is dropped before the next one is allocated, so a block pass
    # holds one block and a few slabs of _SLAB_BINS entries.
    one_block = (1376**2 + 4 * ed._SLAB_BINS) * 16
    for p, n, limit, ground in ((models.fig2(), 6, 64 * 2**20, 64), (models.zero(16), 3, one_block, 4096)):
        tracemalloc.start()
        try:
            spec = integer_spectrum(build_chain(p, n))
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for *_, block in _momentum_blocks(build_chain(p, n)):
                del block
            bare = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit and bare < limit, (p.d, peak, bare)
        assert spec[0] == ground and sum(spec.values()) == p.d**n


def test_sector_kernel_holds_states_of_short_period():
    # Ising at N = 6: the kernel is |000000> and |111111>, both of period 1,
    # and the orbits of periods 2 and 3 (|010101>, |001001>) exist too.
    n = 6
    _, period = _translation_orbits(2, n)
    assert set(period.tolist()) == {1, 2, 3, 6}
    dim, basis = kernel_dim(build_chain(models.ising(), n))
    assert dim == 2
    assert {int(np.argmax(np.abs(basis[:, k]))) for k in range(2)} == {0, 2**n - 1}
    # zero(2) at N = 4 keeps every state, so every momentum sector and period.
    assert assert_kernel_matches_dense(models.zero(2), 4) == 16


def test_kernel_check_detects_a_kernel_off_by_1e_6(monkeypatch):
    p = synthesized_terms()[0][1]
    assert same_chain_kernel(p, p) == (3, True)
    assert same_chain_kernel(p, p, sitewise=np.eye(p.d)) == (3, True)
    rng = np.random.default_rng(4)
    z = rng.standard_normal((p.d, p.d)) + 1j * rng.standard_normal((p.d, p.d))
    w, v = np.linalg.eigh((z + z.conj().T) / 2.0)
    u = (v * np.exp(1e-6j * w)) @ v.conj().T  # a site rotation by about 1e-6
    uu = np.kron(u, u)
    moved = ProjectorTerm(p.d, uu @ p.op @ uu.conj().T)
    ka = kernel_dim(build_chain(p, 3))[1]
    kb = kernel_dim(build_chain(moved, 3))[1]
    assert 1e-7 < np.linalg.norm(kb - ka @ (ka.conj().T @ kb), 2) < 1e-5
    assert same_chain_kernel(p, moved) == (3, False)
    # the kernel of ``moved`` is u^(x N) times that of ``p``
    assert same_chain_kernel(p, moved, sitewise=u) == (3, True)
    assert same_chain_kernel(moved, p, sitewise=u.conj().T) == (3, True)
    assert same_chain_kernel(p, moved, sitewise=u.conj().T) == (3, False)
    # a failed comparison stops the prune
    monkeypatch.setattr(canonical, "same_chain_kernel", lambda a, b: (3, False))
    with pytest.raises(CommchainError, match="chain kernels differ at N=3 after pruning"):
        prune_to_loops(Analysis(models.ising()))

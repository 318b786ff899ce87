"""Tests for projectorization, commutativity, Schmidt factors, synthesis."""

import json

import numpy as np
import pytest

import commchain as cc
from commchain import _linalg as la
from commchain import cli, models, operators
from commchain.errors import InvalidSpec, NotHermitian, NotPSD
from commchain.models import synthesize_local_term
from commchain.operators import (
    LocalTerm,
    ProjectorTerm,
    check_commuting,
    commutator_residual,
    operator_schmidt,
    projectorize,
)

from conftest import dense_eqx_defect, full_pipeline, inner_factors, schmidt_sum


def _gate(term, tol=1e-9):
    return check_commuting(operator_schmidt(term, tol), tol)


def _residual(term):
    return commutator_residual(operator_schmidt(term))


def test_projectorize_spectral_truncation():
    h = LocalTerm(2, np.diag([0.0, 2.0, 3.0, 0.0]).astype(complex))
    p = projectorize(h)
    assert np.allclose(p.op, np.diag([0, 1, 1, 0]))


def test_projectorize_zero():
    h = LocalTerm(2, np.zeros((4, 4), dtype=complex))
    assert np.allclose(projectorize(h).op, 0)


def test_projectorize_fixes_projectors(ising):
    p = projectorize(ising)
    assert np.allclose(p.op, ising.op)
    # idempotent
    assert np.allclose(projectorize(p).op, p.op)


def test_projectorize_kernel_preserved():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        h = LocalTerm(3, a @ a.conj().T)  # PSD with a 5-dim kernel
        p = projectorize(h)
        w, v = np.linalg.eigh(h.op)
        kern_h = v[:, w < 1e-9]
        assert np.linalg.norm(p.op @ kern_h) < 1e-8
        assert int(round(np.trace(p.op).real)) == 4


def test_projectorize_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        projectorize(LocalTerm(2, bad))


def test_projectorize_rejects_frustrated():
    with pytest.raises(NotPSD):
        projectorize(LocalTerm(2, np.diag([-1.0, 1, 1, 1]).astype(complex)))


def test_check_commuting_builtins(ising, fig2):
    assert _gate(ising).commuting
    assert _gate(fig2).commuting
    assert _gate(models.zero(3)).commuting


def test_check_commuting_generic_projector_fails():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    _, v = np.linalg.eigh(z + z.conj().T)
    p = ProjectorTerm(2, v[:, :2] @ v[:, :2].conj().T)
    chk = _gate(p)
    assert not chk.commuting
    assert chk.residual > 0.1


def test_operator_schmidt_rank_one():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    a = a + a.T
    b = np.diag([1.0, -2.0, 0.5])
    p = LocalTerm(3, np.kron(a, b).astype(complex))
    left, right = operator_schmidt(p).folded
    assert len(left) == len(right) == 1
    assert np.linalg.norm(schmidt_sum(left, right) - p.op) < 1e-10


def _reshuffle_rank(op: np.ndarray, d: int) -> int:
    # independent oracle: singular values of the reshuffled d^2 x d^2 matrix
    r = op.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    s = np.linalg.svd(r, compute_uv=False)
    return int(np.sum(s > 1e-9 * max(s[0], 1.0)))


def test_operator_schmidt_ising(ising):
    # P = |0><0| (x) |1><1| + |1><1| (x) |0><0|, so the rank is 2 and the
    # factors span the diagonal matrices (which contain the identity).
    folded = operator_schmidt(ising).folded
    assert len(folded[0]) == _reshuffle_rank(ising.op, 2) == 2
    for fam in folded:
        span = np.array([f.reshape(-1) for f in fam])
        diag_basis = np.array([np.diag([1.0, 0]).reshape(-1), np.diag([0, 1.0]).reshape(-1)])
        q, _ = np.linalg.qr(diag_basis.T)
        for f in fam:
            v = f.reshape(-1)
            assert np.linalg.norm(v - q @ (q.conj().T @ v)) < 1e-10
            assert np.linalg.norm(f - f.conj().T) < 1e-10
        assert np.linalg.matrix_rank(span) == 2


def test_operator_schmidt_fig2(fig2):
    folded = operator_schmidt(fig2).folded
    assert len(folded[0]) == _reshuffle_rank(fig2.op, 4) == 2
    xx = np.kron(models.SIGMA_X, models.SIGMA_X)
    zz = np.kron(models.SIGMA_Z, models.SIGMA_Z)
    span_l = np.array([np.eye(4).reshape(-1), xx.reshape(-1)])
    span_r = np.array([np.eye(4).reshape(-1), zz.reshape(-1)])
    for fam, span in zip(folded, (span_l, span_r)):
        q, _ = np.linalg.qr(span.T)
        for f in fam:
            v = f.reshape(-1)
            assert np.linalg.norm(v - q @ (q.conj().T @ v)) < 1e-10


def test_operator_schmidt_reconstructs_corpus(small_corpus):
    for m in small_corpus:
        left, right = operator_schmidt(m.term).folded
        assert np.linalg.norm(schmidt_sum(left, right) - m.term.op) < 1e-9
        for f in np.concatenate([left, right]):
            assert np.linalg.norm(f - f.conj().T) < 1e-9
        flat = left.reshape(len(left), -1)
        gram = flat.conj() @ flat.T
        assert np.linalg.cond(gram) < 1e8


def test_operator_schmidt_factors_and_cuts(ising, fig2, small_corpus):
    # Hermitian, Hilbert-Schmidt orthonormal factors; the folded families
    # are the prefix above RANK_RTOL max(s_0, 1) of the same spectrum.
    terms = [ising, fig2, models.zero(3)] + [m.term for m in small_corpus]
    terms += [_generic(d, seed) for d, seed in ((3, 1), (5, 2))]
    for t in terms:
        f = operator_schmidt(t)
        r = len(f.s)
        assert np.all(np.diff(f.s) <= 0)
        a, b = f.factors
        assert np.linalg.norm(schmidt_sum(f.s[:, None, None] * a, b) - t.op) < 1e-9
        for fam in f.factors:
            assert fam.shape == (r, t.d, t.d)
            assert np.allclose(fam, np.swapaxes(fam, 1, 2).conj(), atol=1e-14)
            gram = np.einsum("aij,bij->ab", fam.conj(), fam)
            assert np.allclose(gram, np.eye(r), atol=1e-12)
        rank = int(np.sum(f.s > operators.RANK_RTOL * max(f.s[0] if r else 0.0, 1.0)))
        root = np.sqrt(f.s[:rank])[:, None, None]
        for folded, fam in zip(f.folded, f.factors):
            assert folded.shape == (rank, t.d, t.d)
            assert np.allclose(folded, root * fam[:rank], atol=1e-13)
        for inner, fam in zip(f.inner, f.factors):
            assert np.allclose(inner, f.s[:, None, None] * fam)


def test_operator_schmidt_refuses_non_hermitian_terms_relative_to_their_norm():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        operator_schmidt(LocalTerm(2, bad))
    # A hermitian term's rounding grows with its norm (2.3e-4 here, past the
    # absolute 3.2e-5) and is not refused.
    big = LocalTerm(5, _generic(5, 3).op * 1e12)
    f = operator_schmidt(big)
    a, b = f.factors
    err = np.linalg.norm(schmidt_sum(f.s[:, None, None] * a, b) - big.op)
    assert err <= 1e-12 * np.linalg.norm(big.op)


def test_synthesize_ising_like():
    term = synthesize_local_term([(1, 1), (1, 1)], [[1, 0], [0, 1]], seed=4)
    assert _gate(term).commuting
    # same spectrum as the Ising projector and the same graph
    assert sorted(np.linalg.eigvalsh(term.op).round(9)) == [0, 0, 1, 1]
    _, dec, _, g = full_pipeline(term)
    assert sorted(dec.block_dims) == [(1, 1), (1, 1)]
    assert np.array_equal(g.M, np.eye(2, dtype=int))


def test_synthesize_full_kernel_is_zero():
    term = synthesize_local_term([(1, 2)], [[2]], seed=1)
    assert np.linalg.norm(term.op) < 1e-12


def test_synthesize_fig2_adjacency_degeneracy():
    kd = [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0]]
    term = synthesize_local_term([(1, 1)] * 4, kd, seed=9)
    ch = cc.build_chain(term, 3)
    dim, _ = cc.kernel_dim(ch)
    assert dim == 8


def test_synthesize_always_commuting(small_corpus):
    for m in small_corpus:
        chk = _gate(m.term)
        assert chk.commuting, f"{m.name}: residual {chk.residual}"
        m.term.validate()


def test_validate_refuses_a_planted_defect_of_ten_projector_tol(ising, small_corpus):
    eps = 10 * operators.PROJECTOR_TOL
    for term in [ising] + [m.term for m in small_corpus]:
        term.validate()
        skew = term.op.copy()
        skew[0, 1] += eps
        with pytest.raises(ValueError, match="hermiticity defect 1.414e-07"):
            ProjectorTerm(term.d, skew).validate()
        with pytest.raises(ValueError, match=r"idempotency defect [1-9]\.\d{3}e-07"):
            ProjectorTerm(term.d, (1 + eps) * term.op).validate()


def test_synthesize_rejects_bad_speces():
    with pytest.raises(InvalidSpec):
        synthesize_local_term([(1, 1)], [[5]], seed=0)
    with pytest.raises(InvalidSpec):
        synthesize_local_term([(1, 1), (1, 1)], [[1, 0]], seed=0)
    with pytest.raises(InvalidSpec):
        synthesize_local_term([(0, 2)], [[0]], seed=0)


def test_local_term_json_round_trip(fig2):
    doc = json.loads(cli._dumps(fig2.to_dict()))
    back = cli._term(doc, operators.DEFAULT_TOL)
    assert back.d == 4
    assert np.allclose(back.op, fig2.op)


def test_symmetrized_absorbs_noise():
    op = np.diag([0.0, 1, 1, 0]).astype(complex)
    op[0, 1] = 1e-12
    t = LocalTerm.symmetrized(2, op, tol=1e-9)
    assert np.linalg.norm(t.op - t.op.conj().T) == 0
    with pytest.raises(NotHermitian):
        LocalTerm.symmetrized(2, op + np.triu(np.ones((4, 4)) * 1e-3, 1), tol=1e-9)


def test_commutator_residual_zero_for_diagonal():
    h = LocalTerm(2, np.diag([0.3, 1.2, 0.7, 0.0]).astype(complex))
    assert _residual(h) < 1e-12


def _noisy(term, eps, seed):
    rng = np.random.default_rng(seed)
    n = term.d * term.d
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return LocalTerm(term.d, term.op + eps * (z + z.conj().T) / 2.0)


def _dense_commutator(term):
    return dense_eqx_defect(term, np.eye(term.d))


def _gate_terms(ising, fig2, small_corpus):
    base = [ising, fig2, models.zero(3)] + [m.term for m in small_corpus]
    noisy = [
        _noisy(t, eps, seed)
        for seed, t in enumerate([ising, fig2, small_corpus[4].term, small_corpus[-1].term])
        for eps in (1e-12, 1e-6, 1e-3)
    ]
    return base, noisy


def test_commutator_residual_is_dense_frobenius_norm(ising, fig2, small_corpus):
    # Relative agreement 1e-10, above a floor at the rounding level of the
    # dense d^3 x d^3 product (planted terms read about 1e-15 either way).
    base, noisy = _gate_terms(ising, fig2, small_corpus)
    for t in base + noisy:
        dense = np.linalg.norm(_dense_commutator(t))
        floor = 64 * np.finfo(float).eps * max(1.0, np.linalg.norm(t.op) ** 2)
        assert abs(_residual(t) - dense) <= 1e-10 * dense + floor


def test_commutator_residual_bounds_spectral_norm(ising, fig2, small_corpus):
    # ||C||_2 <= ||C||_F <= sqrt(rank C) ||C||_2 with rank C <= d^3.
    _, noisy = _gate_terms(ising, fig2, small_corpus)
    for t in noisy:
        two = np.linalg.norm(_dense_commutator(t), 2)
        resid = _residual(t)
        assert two * (1 - 1e-10) <= resid <= t.d**1.5 * two


def test_commutator_residual_slabs_match_one_pass(monkeypatch, small_corpus):
    # Large d splits the defect into slabs over i; force that split here.
    term = _noisy(small_corpus[-1].term, 1e-3, seed=5)
    whole = _residual(term)
    monkeypatch.setattr(operators, "_SLAB_ENTRIES", 7 * term.d**2)
    assert abs(_residual(term) - whole) <= 1e-13 * whole


def _generic(d, seed):
    """A random hermitian two-site term: full Schmidt rank, far from commuting."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    return LocalTerm(d, (z + z.conj().T) / 2.0)


def _residual_terms(ising, fig2, small_corpus, acceptance_corpus):
    base, noisy = _gate_terms(ising, fig2, small_corpus)
    commuting = base + [m.term for m in acceptance_corpus]
    generic = [_generic(d, seed) for seed, d in enumerate((3, 5, 7))]
    for d in (2, 3, 5, 7):  # random projectors of rank d^2 / 2
        _, v = np.linalg.eigh(_generic(d, 10 + d).op)
        generic.append(ProjectorTerm(d, v[:, : d * d // 2] @ v[:, : d * d // 2].conj().T))
    return commuting, noisy + generic


def _reference_residual(term):
    return operators._defect_norm(*inner_factors(term), np.eye(term.d))


def test_commutator_residual_matches_complex_svd_reference(
    ising, fig2, small_corpus, acceptance_corpus
):
    # The hermitian factors and the complex SVD's factors span the same
    # operator spaces: equal ranks, and residuals equal up to rounding
    # (measured: 1.8e-15 relative on the generic terms, 3.5e-16 absolute on
    # the noisy ones, at most 1.3e-14 on the commuting ones).
    commuting, other = _residual_terms(ising, fig2, small_corpus, acceptance_corpus)
    for t in commuting:
        assert len(operator_schmidt(t).s) == len(inner_factors(t)[0])
        assert _residual(t) <= 5e-14 and _reference_residual(t) <= 5e-14
    for t in other:
        ref = _reference_residual(t)
        assert abs(_residual(t) - ref) <= 4e-15 * ref + 2e-15


def test_check_commuting_verdicts_match_the_reference_across_tol(
    ising, fig2, small_corpus, acceptance_corpus
):
    commuting, other = _residual_terms(ising, fig2, small_corpus, acceptance_corpus)
    for t in commuting + other:
        ref = _reference_residual(t)
        for tol in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
            assert _gate(t, tol).commuting == (ref <= tol), tol


def _hermitian_basis_loop(d: int) -> np.ndarray:
    """Reference: the hermitian basis built matrix by matrix, in the documented order."""
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
    return np.array(mats)


def test_hermitian_basis_is_cached_and_read_only():
    for d in range(1, 7):
        basis = la.hermitian_basis(d)
        assert basis is la.hermitian_basis(d)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 0.0
        assert np.array_equal(basis, _hermitian_basis_loop(d))
        gram = np.einsum("aij,bij->ab", basis.conj(), basis)
        assert np.allclose(gram, np.eye(d * d))

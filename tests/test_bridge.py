"""Tests for the intertwining condition, commutification, and MPS parents."""

import numpy as np
import pytest

from commchain import _linalg as la
from commchain import models
from commchain._linalg import haar_unitary
from commchain.bridge import (
    NULL_RTOL,
    _defect_gram,
    commutify,
    mps_parent,
    polar_normalize,
    random_injective_map,
    solve_x,
    verify_x,
)
from commchain.ed import apply_sitewise, build_chain, kernel_dim
from commchain.errors import CommutificationFailed, SingularS
from commchain.groundspace import loop_states, loop_mps_tensor
from commchain.models import synthesize_local_term
from commchain.operators import LocalTerm, commutator_residual, operator_schmidt

from conftest import assemble_state, dense_eqx_defect, full_pipeline, reference_solve_x


def test_solve_x_commuting_has_identity(ising):
    cand = solve_x(ising, seed=0)
    assert cand is not None
    assert cand.residual < 1e-10 and cand.min_eigenvalue > 0
    v = verify_x(ising, np.eye(2))
    assert v.residual < 1e-12 and v.pd


def test_solve_x_mps_parent():
    m = random_injective_map(2, seed=7)
    res = mps_parent(m)
    x = m.s @ m.s
    v = verify_x(res.h, x)
    assert v.residual < 1e-10 and v.pd
    cand = solve_x(res.h, seed=0)
    assert cand is not None and cand.min_eigenvalue > 0


def _generic_term():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return LocalTerm(2, (z + z.conj().T) / 2.0)


def test_solve_x_generic_not_found():
    assert solve_x(_generic_term(), seed=0) is None


def test_verify_x_negative_definite():
    v = verify_x(models.ising(), -np.eye(2))
    assert not v.pd


def test_defect_linearity():
    rng = np.random.default_rng(4)
    m = random_injective_map(2, seed=3)
    h = mps_parent(m).h
    x1 = rng.standard_normal((4, 4))
    x1 = x1 + x1.T
    x2 = rng.standard_normal((4, 4))
    x2 = x2 + x2.T
    a, b = 0.7, -1.3
    lhs = dense_eqx_defect(h, a * x1 + b * x2)
    rhs = a * dense_eqx_defect(h, x1) + b * dense_eqx_defect(h, x2)
    assert np.linalg.norm(lhs - rhs) < 1e-10
    for x in (x1, x2, a * x1 + b * x2):
        dense = np.linalg.norm(dense_eqx_defect(h, x))
        assert abs(verify_x(h, x).residual - dense) <= 1e-10 * dense


def _deformed(blocks, kdims, seed):
    """(S^-1 x S^-1) P (S^-1 x S^-1) for a planted commuting P; X = S^2 solves it."""
    rng = np.random.default_rng(seed)
    p = synthesize_local_term(blocks, kdims, seed)
    q = haar_unitary(p.d, rng)
    s_inv = (q / np.linspace(0.6, 1.8, p.d)) @ q.conj().T
    c = np.kron(s_inv, s_inv)
    h = c @ p.op @ c
    return LocalTerm(p.d, (h + h.conj().T) / 2.0)


def _deformed_terms():
    return [
        _deformed([(1, 1), (2, 2)], [[1, 1], [0, 1]], seed=5),
        _deformed([(1, 2), (2, 2)], [[1, 2], [0, 1]], seed=6),
    ]


def _dense_null_space(h):
    """Reference: SVD null space of the stacked dense defect columns."""
    basis = la.hermitian_basis(h.d)
    cols = np.array([dense_eqx_defect(h, g).reshape(-1) for g in basis]).T
    stacked = np.vstack([cols.real, cols.imag])
    return la.nullspace(stacked, rtol=1e-10).real, np.linalg.svd(stacked, compute_uv=False)


def test_defect_gram_matches_dense_null_space():
    chains = [mps_parent(random_injective_map(2, seed=s)).h for s in (3, 7, 11)]
    for h in chains + _deformed_terms():
        a, b = operator_schmidt(h).inner
        lam, vecs = np.linalg.eigh(_defect_gram(a, b, la.hermitian_basis(h.d)))
        ref_null, sigma = _dense_null_space(h)
        # Gram eigenvalues are the dense squared singular values.
        assert np.max(np.abs(lam - np.sort(sigma**2))) <= 1e-12 * lam[-1]
        null = vecs[:, lam <= NULL_RTOL * max(lam[-1], 1.0)]
        assert null.shape[1] >= 1
        assert la.subspace_angle_sin(null, ref_null) <= 1e-8


def test_solve_x_on_deformed_terms():
    for h in _deformed_terms():
        cand = solve_x(h, seed=0)
        assert cand is not None and cand.residual <= 1e-9
        dense = np.linalg.norm(dense_eqx_defect(h, cand.x))
        assert abs(cand.residual - dense) <= 1e-10 * dense + 1e-13
        out = commutify(h, cand.x)
        assert out.certificate["kernel_match"]
        assert out.certificate["x_residual"] <= 1e-9


def test_solve_x_on_a_deformed_term_of_large_norm():
    # Scaled by 1e12, the rounding in the term's hermitian coordinates
    # (5.8e-5 here) passes an absolute 3.2e-5; relative to its norm it is
    # rounding, and the term is solved as at unit scale.
    rng = np.random.default_rng(7)
    p = synthesize_local_term([(1, 1), (2, 2)], [[1, 1], [0, 1]], seed=5)
    q = haar_unitary(p.d, rng)
    s_inv = (q / np.linspace(0.6, 1.8, p.d)) @ q.conj().T
    c = np.kron(s_inv, s_inv)
    h = c @ p.op @ c * 1e12
    big = LocalTerm(p.d, (h + h.conj().T) / 2.0)
    cand = solve_x(big, seed=0)
    assert cand is not None and cand.min_eigenvalue > 0
    assert verify_x(big, cand.x).pd


def test_stacked_pd_search_matches_per_candidate_reference():
    # The deformed specs are the benchmark's d = 5 and d = 6 bridge terms.
    terms = [models.ising(), _generic_term()]
    terms += [mps_parent(random_injective_map(2, seed=s)).h for s in range(10)]
    for seed in (5, 6, 7):
        terms.append(_deformed([(1, 1), (2, 2)], [[1, 1], [0, 1]], seed=seed))
        terms.append(_deformed([(1, 2), (2, 2)], [[1, 2], [0, 1]], seed=seed))
    found = 0
    for i, h in enumerate(terms):
        for seed in range(4):
            got, ref = solve_x(h, seed=seed), reference_solve_x(h, seed=seed)
            assert (got is None) == (ref is None), (i, seed)
            if ref is None:
                continue
            found += 1
            # Candidates of a one-dimensional solution space tie to rounding,
            # so the winner, and X with it, may move by a few ulps.
            assert np.linalg.norm(got.x - ref.x) <= 1e-12 * np.linalg.norm(ref.x), (i, seed)
            assert abs(got.min_eigenvalue - ref.min_eigenvalue) <= 1e-12 * abs(ref.min_eigenvalue)
            # The residual is a rounding-level defect: compare it on the
            # scale of solve_x's acceptance bound, ||h||_F^2 ||X||_2.
            scale = np.linalg.norm(h.op) ** 2 * np.linalg.norm(ref.x, 2)
            assert abs(got.residual - ref.residual) <= 1e-12 * scale, (i, seed)
    assert found == 4 * (len(terms) - 1)  # every term but the generic one


def test_commutify_identity_on_commuting(ising):
    res = commutify(ising, np.eye(2))
    assert np.allclose(res.h_prime.op, ising.op)
    assert res.certificate["kernel_match"]


def test_commutify_mps_round_trip():
    for seed in (7, 8, 9):
        m = random_injective_map(2, seed=seed)
        res = mps_parent(m)
        out = commutify(res.h, m.s @ m.s)
        assert np.linalg.norm(out.h_prime.op - res.p.op) < 1e-9
        assert out.certificate["commutator_residual"] < 1e-9
        assert out.certificate["kernel_match"]


def test_commutify_diagonal_example():
    h = LocalTerm(2, np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex))
    x = np.diag([1.0, 2.0])
    res = commutify(h, x)
    assert commutator_residual(operator_schmidt(res.h_prime)) < 1e-10
    d1, _ = kernel_dim(build_chain(h, 3))
    d2, _ = kernel_dim(build_chain(res.h_prime, 3))
    assert d1 == d2 == 2


def test_commutify_rejects_bad_x():
    m = random_injective_map(2, seed=5)
    h = mps_parent(m).h
    with pytest.raises(CommutificationFailed):
        commutify(h, np.eye(4))  # identity violates the intertwining condition


def test_mps_parent_identity_map():
    m = polar_normalize(np.eye(4))
    res = mps_parent(m)
    assert np.allclose(res.h.op, res.p.op)
    dim, _ = kernel_dim(build_chain(res.h, 3))
    assert dim == 1


def test_mps_parent_diagonal_map():
    s = np.diag([1.0, 2.0, 2.0, 4.0]).astype(complex)
    m = polar_normalize(s)
    res = mps_parent(m)
    assert commutator_residual(operator_schmidt(res.h)) > 1e-3
    out = commutify(res.h, m.s @ m.s)
    assert np.linalg.norm(out.h_prime.op - res.p.op) < 1e-9


def test_mps_parent_unique_ground_state():
    m = random_injective_map(2, seed=13)
    res = mps_parent(m)
    n = 4
    dim, basis = kernel_dim(build_chain(res.h, n))
    assert dim == 1
    phi_chain = res.s_map.phi_max
    # entangled chain: bonds (r_j, l_j+1); assemble via the parent's blocks
    _, dec, bonds, _ = full_pipeline(res.p)
    st = loop_states(bonds)[0]
    base = assemble_state(dec, tuple([st.block] * n), [st.phi] * n)
    target = apply_sitewise(m.s, n, base)
    target /= np.linalg.norm(target)
    overlap = abs(np.vdot(target, basis[:, 0]))
    assert overlap > 1 - 1e-8


def test_mps_closure_under_sitewise_maps():
    # sitewise invertible maps keep the bond dimension of the descriptor
    m = random_injective_map(2, seed=3)
    res = mps_parent(m)
    _, dec, bonds, _ = full_pipeline(res.p)
    st = loop_states(bonds)[0]
    tensor = loop_mps_tensor(dec, st, bond_dim=4)
    deformed = np.einsum("ts,sxy->txy", m.s, tensor)
    assert deformed.shape == tensor.shape


def test_polar_normalize_unitary_gives_identity():
    rng = np.random.default_rng(2)
    u = haar_unitary(4, rng)
    m = polar_normalize(u)
    assert np.linalg.norm(m.s - np.eye(4)) < 1e-10


def test_polar_normalize_pd_fixed_point():
    m0 = random_injective_map(2, seed=1)
    m = polar_normalize(m0.s)
    assert np.linalg.norm(m.s - m0.s) < 1e-10


def test_polar_normalize_preserves_singular_values():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = polar_normalize(a)
    sa = np.linalg.svd(a, compute_uv=False)
    sm = np.linalg.svd(m.s, compute_uv=False)
    assert np.allclose(sorted(sa), sorted(sm))


def test_polar_normalize_rejects_singular():
    s = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(SingularS):
        polar_normalize(s)


def test_kernel_dims_match_under_x():
    m = random_injective_map(2, seed=21)
    res = mps_parent(m)
    out = commutify(res.h, m.s @ m.s)
    for n in (3, 4):
        d1, _ = kernel_dim(build_chain(res.h, n))
        d2, _ = kernel_dim(build_chain(out.h_prime, n))
        assert d1 == d2

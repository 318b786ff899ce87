"""Tests for pruning, the disentangler, the normal form, classification."""

import numpy as np
import pytest

import commchain as cc
from commchain import canonical, models
from commchain.bridge import mps_parent, random_injective_map
from commchain.canonical import (
    Analysis,
    canonical_chain,
    canonical_hamiltonian,
    check_normal_form_size,
    classify_phase,
    conjugate_term,
    disentangling_unitary,
    prune_to_loops,
)
from commchain.decomposition import Block, SiteDecomposition
from commchain.ed import build_chain, kernel_dim, same_subspace
from commchain.errors import CommchainError, InvalidK, NotScaleInvariant, TooLarge
from commchain.groundspace import check_scale_invariance, degeneracy, loop_states
from commchain.operators import LocalTerm, check_commuting, operator_schmidt

from conftest import full_pipeline


def test_prune_ising_unchanged(ising):
    pruned = prune_to_loops(Analysis(ising))
    assert np.allclose(pruned.op, ising.op)


def test_prune_removes_extra_edge():
    # two weight-1 loops plus one non-cycle edge 0 -> 1
    term = cc.synthesize_local_term([(1, 1), (1, 1)], [[1, 1], [0, 1]], seed=6)
    a = Analysis(term)
    assert a.graph.M.tolist() == [[1, 1], [0, 1]]
    pruned = prune_to_loops(a)
    _, _, _, g2 = full_pipeline(pruned)
    assert np.array_equal(g2.M, np.eye(2, dtype=int))
    # ground space unchanged at N = 3
    ka = kernel_dim(build_chain(term, 3))[1]
    kb = kernel_dim(build_chain(pruned, 3))[1]
    assert same_subspace(ka, kb)


def test_prune_zero_loop_model_is_frustrated():
    term = cc.synthesize_local_term([(1, 1), (1, 1)], [[0, 1], [0, 0]], seed=2)
    pruned = prune_to_loops(Analysis(term))
    dim, _ = kernel_dim(build_chain(pruned, 3))
    assert dim == 0


def test_prune_requires_scale_invariance(fig2):
    with pytest.raises(NotScaleInvariant):
        prune_to_loops(Analysis(fig2))


def test_disentangler_identity_for_product_loops(ising):
    _, dec, bonds, _ = full_pipeline(ising)
    u = disentangling_unitary(dec, loop_states(bonds))
    assert np.linalg.norm(u - np.eye(4)) < 1e-10


def test_disentangler_bell_case():
    res = mps_parent(random_injective_map(2, seed=7))
    _, dec, bonds, _ = full_pipeline(res.p)
    loops = loop_states(bonds)
    assert len(loops) == 1
    u = disentangling_unitary(dec, loops)
    d2 = res.p.d ** 2
    assert np.linalg.norm(u @ u.conj().T - np.eye(d2)) < 1e-10
    conj = conjugate_term(res.p, u)
    assert check_commuting(operator_schmidt(conj)).commuting
    # the conjugated chain has the product ground state
    chain = canonical_chain(Analysis(res.p))
    s = chain.site_states[0]
    target = np.kron(np.kron(s, s), s)[:, None]
    kb = kernel_dim(build_chain(chain.conjugated, 3))[1]
    assert same_subspace(kb, target)


def test_disentangler_checks_refuse_a_planted_defect_of_ten_sqrt_tol():
    eps = 10 * np.sqrt(1e-9)
    res = mps_parent(random_injective_map(2, seed=7))
    _, dec, bonds, _ = full_pipeline(res.p)
    loops = loop_states(bonds)
    disentangling_unitary(dec, loops)
    # a block isometry column scaled by sqrt(1 + eps): the assembled U is not unitary
    blocks = [Block(b.l, b.r, b.isometry.copy()) for b in dec.blocks]
    blocks[0].isometry[:, 0] *= np.sqrt(1 + eps)
    with pytest.raises(CommchainError, match="disentangler not unitary"):
        disentangling_unitary(SiteDecomposition(dec.d, blocks), loops)


def test_canonical_hamiltonian_is_ising_for_k2():
    rep = canonical_hamiltonian(2, 2)
    assert np.allclose(rep.op, models.ising().op)


def test_canonical_hamiltonian_k1():
    rep = canonical_hamiltonian(1, 2)
    dim, basis = kernel_dim(build_chain(rep, 3))
    assert dim == 1
    assert abs(abs(basis[0, 0]) - 1.0) < 1e-10  # |000>


def test_canonical_hamiltonian_k3_d4_degeneracy():
    rep = canonical_hamiltonian(3, 4)
    for n in (3, 4):
        dim, _ = kernel_dim(build_chain(rep, n))
        assert dim == 3


def test_canonical_hamiltonian_invalid_k():
    with pytest.raises(InvalidK):
        canonical_hamiltonian(0, 2)
    with pytest.raises(InvalidK):
        canonical_hamiltonian(3, 2)


def test_normal_form_bound_sits_between_d_45_and_46():
    assert canonical.MAX_NORMAL_FORM_ENTRIES == 1 << 22
    check_normal_form_size(45)
    with pytest.raises(TooLarge, match="d=46"):
        check_normal_form_size(46)
    with pytest.raises(TooLarge, match="d=46"):
        canonical_hamiltonian(1, 46)


def test_classify_ising(ising):
    rep = classify_phase(ising)
    assert rep.commuting and rep.scale_invariant
    assert rep.degeneracy == 2
    assert np.allclose(rep.canonical_rep.op, ising.op)
    assert rep.stage == "classified"


def test_classify_fig2(fig2):
    rep = classify_phase(fig2)
    assert rep.commuting and rep.scale_invariant is False
    assert rep.degeneracy is None
    assert rep.stage == "scale_invariance"
    assert rep.verdict.witness is not None


def test_classify_canonical_fixed_point():
    rep3 = classify_phase(canonical_hamiltonian(3, 4))
    assert rep3.degeneracy == 3
    assert np.allclose(rep3.canonical_rep.op, canonical_hamiltonian(3, 4).op)


def test_classify_non_commuting():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = LocalTerm(2, z @ z.conj().T)  # PSD, full rank is fine after shift
    _, v = np.linalg.eigh(h.op)
    p = cc.ProjectorTerm(2, v[:, :2] @ v[:, :2].conj().T)
    rep = classify_phase(p)
    assert rep.commuting is False
    assert rep.stage == "check_commuting"


def test_site_state_check_refuses_a_wrong_site_state(monkeypatch):
    # Every loop site state s = W_a[:, 0] must satisfy P (s x s) = 0 for the
    # disentangled term P.  A disentangler that sends the loop vector to the
    # second basis vector of its block instead of the first makes W_a[:, 0]
    # the wrong state: ||P (s x s)|| reads 1.
    res = mps_parent(random_injective_map(2, seed=7))
    chain = canonical_chain(Analysis(res.p))
    assert chain.k == 1
    for s in chain.site_states:
        assert np.linalg.norm(chain.conjugated.op @ np.kron(s, s)) < 1e-12
    real = canonical.disentangling_unitary

    def second_vector(dec, loops, tol):
        swaps = {}
        for st in loops:
            n = len(st.phi)
            assert n >= 2
            swaps[st.block, st.block] = np.eye(n)[[1, 0, *range(2, n)]]
        return dec.assemble(swaps) @ real(dec, loops, tol)

    monkeypatch.setattr(canonical, "disentangling_unitary", second_vector)
    with pytest.raises(CommchainError, match=r"site state of loop \d+ .* = 1\.000e\+00"):
        canonical_chain(Analysis(res.p))


def test_classify_non_hermitian_input():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    rep = classify_phase(LocalTerm(2, bad))
    assert rep.error is not None and rep.stage == "projectorize"


def test_conjugation_preserves_commutativity_and_graph(small_corpus):
    # The graph is compared in the inherited decomposition: the conjugation
    # is block-diagonal there, so the original blocks remain valid even
    # though the conjugated term's own finest decomposition may be finer.
    from commchain.graph import build_graph, extract_bond_projectors

    done = 0
    for m in small_corpus:
        _, _, _, g = full_pipeline(m.term)
        if not check_scale_invariance(g).scale_invariant:
            continue
        chain = canonical_chain(Analysis(m.term))
        assert check_commuting(operator_schmidt(chain.conjugated)).commuting
        bonds_pruned = extract_bond_projectors(chain.pruned, chain.dec)
        bonds_conj = extract_bond_projectors(chain.conjugated, chain.dec)
        g_pruned = build_graph(chain.dec, bonds_pruned)
        g_conj = build_graph(chain.dec, bonds_conj)
        assert np.array_equal(g_pruned.M, g_conj.M)
        assert np.array_equal(g_pruned.R, g_conj.R)
        # pruned graph keeps exactly the original loops and nothing else
        assert np.array_equal(np.diag(np.diagonal(g.M)), g_pruned.M)
        # loop states of the conjugated term are the reference products
        # xi_r (x) xi_l, the first basis vector of the bond block
        for st in loop_states(bonds_conj):
            assert abs(abs(st.phi[0]) - 1.0) < 1e-8
        # ground degeneracy is untouched for every chain length
        assert [degeneracy(g, n) for n in range(1, 7)] == [
            degeneracy(g_conj, n) for n in range(1, 7)
        ]
        done += 1
    assert done >= 2


def test_full_chain_ground_space(small_corpus):
    checked = 0
    for m in small_corpus:
        if m.d**3 > 512:
            continue
        _, _, _, g = full_pipeline(m.term)
        if not check_scale_invariance(g).scale_invariant:
            continue
        chain = canonical_chain(Analysis(m.term))
        n = 3
        korig = kernel_dim(build_chain(m.term, n))[1]
        kprun = kernel_dim(build_chain(chain.pruned, n))[1]
        assert same_subspace(korig, kprun)
        kconj = kernel_dim(build_chain(chain.conjugated, n))[1]
        if chain.k == 0:
            assert kconj.shape[1] == 0
            checked += 1
            continue
        cols = []
        for s in chain.site_states:
            v = s
            for _ in range(n - 1):
                v = np.kron(v, s)
            cols.append(v)
        target = np.column_stack(cols)
        assert same_subspace(kconj, target)
        checked += 1
    assert checked >= 2


def test_classify_mislabelled_projector_fails_at_projectorize():
    rep = classify_phase(cc.ProjectorTerm(2, 2 * np.eye(4)))
    assert rep.stage == "projectorize"
    assert "not a projector" in rep.error
    assert rep.commuting is None and rep.error is not None

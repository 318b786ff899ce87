"""Tests for commutants, the center, and the site decomposition.

The algebra closure (``generate_algebra``, ``center``) lives in conftest as
the reference the commutant path is checked against.
"""

import numpy as np
import pytest

from commchain import models
from commchain._linalg import dag
from commchain.canonical import Analysis
from commchain.decomposition import (
    SiteDecomposition,
    _center,
    _Retry,
    _verify_blocks,
    commutant,
    decompose_site,
)
from commchain.errors import DecompositionFailed
from commchain.graph import extract_bond_projectors, reconstruct_term
from commchain.models import synthesize_local_term
from commchain.operators import ProjectorTerm, operator_schmidt, projectorize

from conftest import (
    center,
    closure_commutant,
    closure_defect,
    generate_algebra,
    identifiable,
    span_distance,
)

SX = models.SIGMA_X
SZ = models.SIGMA_Z

# The classify workload's d = 7, 8, 9 block specs (perfbench/workloads.py).
D7_SI = ([(1, 1), (1, 2), (2, 2)], [[1, 1, 1], [0, 1, 2], [0, 0, 1]])
D8_SI = ([(2, 2), (2, 2)], [[1, 2], [0, 1]])
D8_NSI = ([(2, 2), (2, 2)], [[1, 2], [1, 1]])
D9_SI = ([(1, 1), (2, 2), (2, 2)], [[1, 1, 2], [0, 1, 2], [0, 0, 1]])


def test_generate_algebra_scalars():
    alg = generate_algebra([np.eye(2, dtype=complex)])
    assert alg.dim == 1


def test_generate_algebra_diagonal():
    alg = generate_algebra([np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)])
    assert alg.dim == 2
    assert closure_defect(alg) < 1e-10


def test_generate_algebra_full():
    alg = generate_algebra([SX, SZ])
    assert alg.dim == 4
    assert closure_defect(alg) < 1e-10


def test_commutant_of_scalars():
    alg = generate_algebra([np.eye(3, dtype=complex)])
    assert commutant(alg.basis).dim == 9


def test_commutant_of_full_algebra():
    alg = generate_algebra([SX, SZ])
    assert commutant(alg.basis).dim == 1


def test_commutant_of_diagonal():
    alg = generate_algebra([np.diag([1.0, -1.0]).astype(complex)])
    com = commutant(alg.basis)
    assert com.dim == 2
    for b in com.basis:
        assert np.linalg.norm(b - np.diag(np.diagonal(b))) < 1e-10


def test_commutant_of_nothing_is_everything():
    com = commutant(np.zeros((0, 3, 3)))
    assert com.dim == 9
    gram = np.einsum("aij,bij->ab", com.basis.conj(), com.basis)
    assert np.allclose(gram, np.eye(9))


def test_double_commutant(small_corpus):
    for m in small_corpus[:6]:
        _, right = operator_schmidt(m.term).folded
        if not len(right):
            continue
        alg = generate_algebra(list(right) + [np.eye(m.d, dtype=complex)])
        dc = commutant(commutant(alg.basis).basis)
        assert dc.dim == alg.dim
        assert span_distance(dc.basis, alg.basis) < 1e-8


def test_center_of_full_algebra_is_scalars():
    alg = generate_algebra([SX, SZ])
    z = center(alg)
    assert z.dim == 1


def test_decompose_ising(ising):
    dec = decompose_site(operator_schmidt(ising))
    assert dec.block_dims == [(1, 1), (1, 1)]
    # blocks are the two computational basis states, in some order
    supports = {int(np.argmax(np.abs(b.isometry[:, 0]))) for b in dec.blocks}
    assert supports == {0, 1}
    for b in dec.blocks:
        assert abs(np.max(np.abs(b.isometry[:, 0])) - 1.0) < 1e-10


def test_decompose_fig2_bell_blocks(fig2):
    dec = decompose_site(operator_schmidt(fig2))
    assert dec.block_dims == [(1, 1)] * 4
    bells = np.array(
        [
            [1, 0, 0, 1],
            [0, 1, -1, 0],
            [1, 0, 0, -1],
            [0, 1, 1, 0],
        ],
        dtype=complex,
    ) / np.sqrt(2)
    found = set()
    for b in dec.blocks:
        col = b.isometry[:, 0]
        for i, bell in enumerate(bells):
            if abs(abs(np.vdot(bell, col)) - 1.0) < 1e-9:
                found.add(i)
    assert found == {0, 1, 2, 3}


def test_decompose_zero_term():
    dec = decompose_site(operator_schmidt(models.zero(3)))
    assert dec.block_dims == [(1, 3)]


# Specs that fail the corpus identifiability rule (a partial bond of kernel
# dim k and full dim f carries only opposite_dim * min(k, f - k) random
# component vectors): the library correctly returns the finer blocks.
@pytest.mark.parametrize(
    "blocks,kdims,seed,finer",
    [
        ([(2, 3)], [[5]], 881738886, [(2, 1), (2, 2)]),
        (
            [(1, 2), (1, 1), (3, 1)],
            [[2, 0, 5], [0, 0, 3], [1, 0, 3]],
            1911487024,
            [(1, 1), (1, 1), (1, 2), (2, 1)],
        ),
    ],
)
def test_unidentifiable_spec_decomposes_finer(blocks, kdims, seed, finer):
    assert not identifiable(blocks, kdims)
    p = synthesize_local_term(blocks, kdims, seed)
    dec = decompose_site(operator_schmidt(p))
    assert sorted(dec.block_dims) == sorted(finer)
    assert dec.completeness_defect() < 1e-10
    bonds = extract_bond_projectors(p, dec)
    assert np.linalg.norm(reconstruct_term(dec, bonds) - p.op) < 1e-8


def test_decompose_identity_term():
    p = ProjectorTerm(2, np.eye(4, dtype=complex))
    dec = decompose_site(operator_schmidt(p))
    assert dec.block_dims == [(1, 2)]


def test_decompose_completeness(small_corpus):
    for m in small_corpus:
        dec = decompose_site(operator_schmidt(m.term))
        assert dec.completeness_defect() < 1e-10
        for i, bi in enumerate(dec.blocks):
            assert np.linalg.norm(dag(bi.isometry) @ bi.isometry - np.eye(bi.l * bi.r)) < 1e-10
            for j, bj in enumerate(dec.blocks):
                if i != j:
                    assert np.linalg.norm(dag(bi.isometry) @ bj.isometry) < 1e-10


def test_decompose_postcondition_residuals(small_corpus):
    for m in small_corpus:
        dec = decompose_site(operator_schmidt(m.term))
        left, right = operator_schmidt(m.term).folded
        worst = 0.0
        for b in dec.blocks:
            w = b.isometry
            for s in right:  # act as s~ (x) 1_r
                c = dag(w) @ s @ w
                t = c.reshape(b.l, b.r, b.l, b.r)
                stilde = np.einsum("axbx->ab", t) / b.r
                worst = max(worst, np.linalg.norm(c - np.kron(stilde, np.eye(b.r))))
            for s in left:  # act as 1_l (x) c~
                c = dag(w) @ s @ w
                t = c.reshape(b.l, b.r, b.l, b.r)
                ctilde = np.einsum("xaxb->ab", t) / b.l
                worst = max(worst, np.linalg.norm(c - np.kron(np.eye(b.l), ctilde)))
        assert worst < 1e-8, f"{m.name}: residual {worst}"


def test_decompose_determinism(small_corpus):
    m = small_corpus[0]
    a = decompose_site(operator_schmidt(m.term), seed=12)
    b = decompose_site(operator_schmidt(m.term), seed=12)
    assert a.block_dims == b.block_dims
    for x, y in zip(a.blocks, b.blocks):
        assert np.array_equal(x.isometry, y.isometry)


def test_decompose_round_trip(small_corpus):
    for m in small_corpus:
        dec = decompose_site(operator_schmidt(m.term))
        assert sorted(dec.block_dims) == sorted(m.blocks), m.name


def test_decompose_rejects_non_commuting():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    _, v = np.linalg.eigh(z + dag(z))
    p = ProjectorTerm(2, v[:, :2] @ dag(v[:, :2]))
    # decompose_site has no commutator gate: the block checks refuse the factors
    with pytest.raises(DecompositionFailed, match="after 8 attempts"):
        decompose_site(operator_schmidt(p))


# --- the commutant path against the closure reference ------------------------


def _reference_terms(small_corpus, acceptance_corpus):
    terms = [("ising", models.ising()), ("fig2", models.fig2())]
    terms += [(f"zero({d})", models.zero(d)) for d in (1, 2, 3)]
    terms += [(m.name, m.term) for m in small_corpus + acceptance_corpus]
    for name, spec in (("d7", D7_SI), ("d8", D8_SI), ("d8n", D8_NSI), ("d9", D9_SI)):
        terms += [(f"{name}-{seed}", synthesize_local_term(*spec, seed)) for seed in (5, 6)]
    return terms


def test_commutant_path_matches_closure_reference(small_corpus, acceptance_corpus):
    for name, term in _reference_terms(small_corpus, acceptance_corpus):
        right, left = operator_schmidt(term).folded
        joint = commutant(np.concatenate([left, right]))
        zc = _center(joint, np.random.default_rng(0), 1e-9)
        ops = list(left) + list(right) + [np.eye(term.d, dtype=complex)]
        ref = center(generate_algebra(ops))
        assert zc.dim == ref.dim, name
        assert span_distance(zc.basis, ref.basis) <= 1e-8, name
        for i, b in enumerate(decompose_site(operator_schmidt(term)).blocks):
            gens = dag(b.isometry) @ left @ b.isometry
            comm = commutant(gens)
            n = b.l * b.r
            ref = closure_commutant(generate_algebra(list(gens) or [np.eye(n, dtype=complex)]))
            assert comm.dim == ref.dim == b.r**2, (name, i)
            assert span_distance(comm.basis, ref.basis) <= 1e-8, (name, i)


def _verify_blocks_loop(dec, left_family, right_family, thresh):
    """The per-(factor, block, block) check, one Frobenius norm each: the reference."""
    blocks = dec.blocks

    def left_defect(m, l, r):
        stilde = np.einsum("axbx->ab", m.reshape(l, r, l, r)) / r
        return np.linalg.norm(m - np.kron(stilde, np.eye(r)))

    def right_defect(m, l, r):
        ctilde = np.einsum("xaxb->ab", m.reshape(l, r, l, r)) / l
        return np.linalg.norm(m - np.kron(np.eye(l), ctilde))

    for name, family, defect in (
        ("left-neighbor factors (must act on H_l)", left_family, left_defect),
        ("right-neighbor factors (must act on H_r)", right_family, right_defect),
    ):
        for op in family:
            for i, bi in enumerate(blocks):
                resid = defect(dag(bi.isometry) @ op @ bi.isometry, bi.l, bi.r)
                if resid > thresh:
                    raise _Retry(f"{name}: in-block residual {resid:.3e} at block {i}")
                for j, bj in enumerate(blocks):
                    if i == j:
                        continue
                    cross = np.linalg.norm(dag(bi.isometry) @ op @ bj.isometry)
                    if cross > thresh:
                        raise _Retry(f"{name}: cross-block residual {cross:.3e} at ({i},{j})")


def _rotated(blocks, i, j, angle, cols=(0, 0)):
    """Copies of ``blocks`` with a column of block i turned toward one of block j.

    With i == j the two columns ``cols`` of one block are turned instead.
    """
    out = [type(b)(b.l, b.r, b.isometry.copy()) for b in blocks]
    a, b = blocks[i].isometry[:, cols[0]], blocks[j].isometry[:, cols[1]]
    c, s = np.cos(angle), np.sin(angle)
    out[i].isometry[:, cols[0]] = c * a + s * b
    out[j].isometry[:, cols[1]] = c * b - s * a
    return out


def _messages(blocks, left, right):
    dec = SiteDecomposition(blocks[0].isometry.shape[0], blocks)
    got = []
    for check in (_verify_blocks, _verify_blocks_loop):
        with pytest.raises(_Retry) as exc:
            check(dec, left, right, np.sqrt(1e-9))
        got.append(str(exc.value))
    return got


def test_verify_blocks_reports_the_loops_first_failure(small_corpus):
    seen = set()
    terms = [(m.name, m.term) for m in small_corpus] + [("d9", synthesize_local_term(*D9_SI, 5))]
    for name, term in terms:
        dec = decompose_site(operator_schmidt(term))
        right, left = operator_schmidt(term).folded
        _verify_blocks(dec, left, right, np.sqrt(1e-9))
        _verify_blocks_loop(dec, left, right, np.sqrt(1e-9))
        nb = len(dec.blocks)
        # a turn of 10 sqrt(tol) is refused too: the Frobenius check is not vacuous
        angles = (1e-3, 10 * np.sqrt(1e-9))
        mutants = [
            _rotated(dec.blocks, i, j, angle)
            for i, j in ((0, 1), (nb - 1, 0))
            if nb > 1
            for angle in angles
        ]
        # within a block with l, r >= 2, turning (a=0, b=0) toward (a=0, b=1)
        # breaks the tensor structure: an in-block failure
        mutants += [
            _rotated(dec.blocks, i, i, angle, cols=(0, 1))
            for i, b in enumerate(dec.blocks)
            if b.l >= 2 and b.r >= 2
            for angle in angles
        ]
        for blocks in mutants:
            # without the left family, the right family's check reports
            for families in ((left, right), (left[:0], right)):
                new, old = _messages(blocks, *families)
                assert new == old, name
                seen.add((new.split("-")[0], new.split(": ")[1].split("-")[0]))
    assert seen == {(side, kind) for side in ("left", "right") for kind in ("in", "cross")}


def test_completeness_refuses_a_planted_defect(small_corpus):
    thresh = np.sqrt(1e-9)
    for m in small_corpus:
        dec = decompose_site(operator_schmidt(m.term))
        assert dec.completeness_defect() <= thresh, m.name
        # one column scaled by sqrt(1 + eps): U U^dag - 1 = eps |w><w|
        eps = 10 * thresh
        blocks = [type(b)(b.l, b.r, b.isometry.copy()) for b in dec.blocks]
        blocks[-1].isometry[:, 0] *= np.sqrt(1 + eps)
        bad = type(dec)(dec.d, blocks).completeness_defect()
        assert bad == pytest.approx(eps, rel=1e-6), m.name


# --- canonical vertex order ---------------------------------------------------


def _graph_and_witness(term, seed):
    a = Analysis(term, 1e-9, seed)
    w = a.verdict.witness
    return a.graph.M.tolist(), a.graph.R.tolist(), w.to_dict() if w else None


def test_vertex_order_does_not_depend_on_the_seed(small_corpus):
    terms = [m.term for m in small_corpus]
    terms += [synthesize_local_term(*spec, 5) for spec in (D7_SI, D8_SI, D8_NSI, D9_SI)]
    for term in terms:
        first = _graph_and_witness(term, 0)
        for seed in range(1, 5):
            assert _graph_and_witness(term, seed) == first


def test_vertex_order_survives_rounding_of_the_projector():
    fig2 = models.fig2()
    p = projectorize(fig2)
    assert 0 < np.max(np.abs(p.op - fig2.op)) < 1e-12
    assert _graph_and_witness(p, 0) == _graph_and_witness(fig2, 0)

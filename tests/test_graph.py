"""Tests for bond projector extraction and the interaction graph."""

import ast
from pathlib import Path

import numpy as np
import pytest

import commchain
from commchain import models
from commchain._linalg import subspace_angle_sin
from commchain.decomposition import Block, SiteDecomposition, decompose_site
from commchain.errors import FactorizationFailed
from commchain.graph import export_dot, extract_bond_projectors, reconstruct_term
from commchain.operators import ProjectorTerm, operator_schmidt

from conftest import full_pipeline, reference_assemble_two_site, reference_bond_projectors

# Bell-type states of the four fig2 blocks, in the paper's (a, b, g, t) order.
FIG2_BELLS = np.array(
    [[1, 0, 0, 1], [0, 1, -1, 0], [1, 0, 0, -1], [0, 1, 1, 0]], dtype=complex
).T / np.sqrt(2)

FIG2_M_EXPECTED = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=int
)


def fig2_block_permutation(dec):
    """perm[paper_label] = our block index."""
    perm = []
    for i in range(4):
        target = FIG2_BELLS[:, i]
        for j, b in enumerate(dec.blocks):
            if abs(abs(np.vdot(target, b.isometry[:, 0])) - 1.0) < 1e-9:
                perm.append(j)
                break
    assert len(perm) == 4
    return perm


def test_ising_bond_projectors(ising):
    _, dec, bonds, g = full_pipeline(ising)
    assert np.array_equal(g.M, np.eye(2, dtype=int))
    assert np.array_equal(g.R, 1 - np.eye(2, dtype=int))
    for a in range(2):
        for b in range(2):
            q = bonds[a][b].q
            assert q.shape == (1, 1)
            assert abs(q[0, 0] - (0.0 if a == b else 1.0)) < 1e-10


def test_fig2_graph_matches_sign_table(fig2):
    _, dec, bonds, g = full_pipeline(fig2)
    perm = fig2_block_permutation(dec)
    m = g.M[np.ix_(perm, perm)]
    assert np.array_equal(m, FIG2_M_EXPECTED)
    # independent oracle: Q_vw = (1 - A(v) B(w)) / 2 from the Pauli sign table
    xx = np.kron(models.SIGMA_X, models.SIGMA_X)
    zz = np.kron(models.SIGMA_Z, models.SIGMA_Z)
    signs_a = [np.vdot(FIG2_BELLS[:, i], xx @ FIG2_BELLS[:, i]).real for i in range(4)]
    signs_b = [np.vdot(FIG2_BELLS[:, i], zz @ FIG2_BELLS[:, i]).real for i in range(4)]
    oracle = np.array(
        [[1 if signs_a[v] * signs_b[w] > 0 else 0 for w in range(4)] for v in range(4)]
    )
    assert np.array_equal(oracle, FIG2_M_EXPECTED)


def test_zero_d2_graph():
    _, dec, bonds, g = full_pipeline(models.zero(2))
    assert dec.block_dims == [(1, 2)]
    assert g.M.tolist() == [[2]]
    assert g.R.tolist() == [[0]]


def test_row_dimension_audit(small_corpus):
    for m in small_corpus:
        _, dec, bonds, g = full_pipeline(m.term)
        total_l = sum(l for l, _ in g.block_dims)
        for a, (_, ra) in enumerate(g.block_dims):
            assert int((g.M[a] + g.R[a]).sum()) == ra * total_l


def test_reconstruction_residual(small_corpus):
    for m in small_corpus:
        _, dec, bonds, _ = full_pipeline(m.term)
        recon = reconstruct_term(dec, bonds)
        assert np.linalg.norm(recon - m.term.op) < 1e-8, m.name


def test_kernel_bases_annihilated(small_corpus):
    for m in small_corpus[:6]:
        _, _, bonds, _ = full_pipeline(m.term)
        for row in bonds:
            for bf in row:
                assert bf.kernel_dim + round(np.trace(bf.q).real) == bf.q.shape[0]
                if bf.kernel_dim:
                    assert np.linalg.norm(bf.q @ bf.kernel_basis) < 1e-9


def test_extract_rejects_foreign_decomposition(ising, fig2):
    dec_other = decompose_site(operator_schmidt(models.zero(2)))
    with pytest.raises(FactorizationFailed):
        extract_bond_projectors(ising, dec_other)


def _first_bond_failure(p, dec, thresh):
    """The per-pair loop with one Frobenius norm per check: the reference message."""
    for a, ba in enumerate(dec.blocks):
        for b, bb in enumerate(dec.blocks):
            w = np.kron(ba.isometry, bb.isometry)
            comp = w.conj().T @ p.op @ w
            t = comp.reshape(ba.l, ba.r, bb.l, bb.r, ba.l, ba.r, bb.l, bb.r)
            q = np.einsum("xabyxcdy->abcd", t).reshape(ba.r * bb.l, -1) / (ba.l * bb.r)
            resid = np.linalg.norm(comp - np.kron(np.kron(np.eye(ba.l), q), np.eye(bb.r)))
            if resid > thresh:
                return (
                    f"bond ({a},{b}) does not factor with identity outer slots "
                    f"(residual {resid:.3e})"
                )
            q = (q + q.conj().T) / 2.0
            idem = np.linalg.norm(q @ q - q)
            if idem > thresh:
                return f"bond ({a},{b}) compression is not a projector (defect {idem:.3e})"
    return None


def test_extract_reports_the_first_failing_pair(small_corpus):
    angle, checked = 0.3, 0
    for m in small_corpus:
        _, dec, _, _ = full_pipeline(m.term)
        if len(dec.blocks) < 2:
            continue
        # turn the last block's first column toward the one before it, so
        # the first failing pair is not always (0, 0)
        blocks = [Block(b.l, b.r, b.isometry.copy()) for b in dec.blocks]
        x, y = blocks[-1].isometry[:, 0].copy(), blocks[-2].isometry[:, 0].copy()
        blocks[-1].isometry[:, 0] = np.cos(angle) * x + np.sin(angle) * y
        blocks[-2].isometry[:, 0] = np.cos(angle) * y - np.sin(angle) * x
        bad = SiteDecomposition(dec.d, blocks)
        expected = _first_bond_failure(m.term, bad, np.sqrt(1e-9))
        with pytest.raises(FactorizationFailed) as exc:
            extract_bond_projectors(m.term, bad)
        if expected is None:  # every pair factors; the reconstruction does not
            assert str(exc.value).startswith("reconstruction residual"), m.name
        else:
            assert str(exc.value) == expected, m.name
            checked += 1
    assert checked >= 3


def test_bond_checks_refuse_a_planted_defect_of_ten_sqrt_tol(ising, small_corpus):
    eps = 10 * np.sqrt(1e-9)
    # ising: two (1, 1) blocks, so every compression factors
    _, dec, _, _ = full_pipeline(ising)
    extract_bond_projectors(ising, dec)
    with pytest.raises(FactorizationFailed, match="is not a projector"):
        extract_bond_projectors(ProjectorTerm(2, (1 + eps) * ising.op), dec)
    # a coupling between the (0, 0) and (1, 1) pairs, which no compression sees
    v0, v1 = (np.kron(b.isometry[:, 0], b.isometry[:, 0]) for b in dec.blocks)
    off = eps * (np.outer(v0, v1.conj()) + np.outer(v1, v0.conj())) / np.sqrt(2)
    with pytest.raises(FactorizationFailed, match=r"reconstruction residual 3\.162e-04"):
        extract_bond_projectors(ProjectorTerm(2, ising.op + off), dec)
    # a traceless Z (x) 1 on pair (a, a) of a block with l >= 2: Q is unchanged
    checked = 0
    for m in small_corpus:
        _, dec, _, _ = full_pipeline(m.term)
        extract_bond_projectors(m.term, dec)
        for a, b in enumerate(dec.blocks):
            if b.l < 2:
                continue
            z = np.kron(np.diag([1.0, -1.0] + [0.0] * (b.l - 2)), np.eye(b.r * b.l * b.r))
            w = np.kron(b.isometry, b.isometry)
            bad = ProjectorTerm(m.d, m.term.op + eps / np.linalg.norm(z) * w @ z @ w.conj().T)
            expected = rf"bond \({a},{a}\) does not factor .* \(residual 3\.162e-04\)"
            with pytest.raises(FactorizationFailed, match=expected):
                extract_bond_projectors(bad, dec)
            checked += 1
    assert checked >= 3


def test_export_dot_ising(ising):
    _, _, _, g = full_pipeline(ising)
    dot = export_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    assert 'a0 -> a0 [label="k=1"]' in dot


def test_export_dot_fig2(fig2):
    _, _, _, g = full_pipeline(fig2)
    dot = export_dot(g)
    assert dot.count("->") == 8
    assert dot.count('label="k=1"') == 8


def test_export_dot_edgeless():
    p = ProjectorTerm(2, np.eye(4, dtype=complex))
    _, _, _, g = full_pipeline(p)
    dot = export_dot(g)
    assert "->" not in dot
    assert "a0" in dot



def test_bond_projectors_match_the_per_pair_reference(ising, fig2, small_corpus, acceptance_corpus):
    # One compression onto U x U, sliced per pair, against each pair's own
    # (W_a x W_b)^dag P (W_a x W_b); and ``dec.assemble`` in the block basis
    # against each pair's kron and conjugation, on the bonds, on random
    # middle operators and on the empty dict (every pair the identity).
    rng = np.random.default_rng(15)
    terms = [ising, fig2] + [m.term for m in small_corpus + acceptance_corpus]
    for term in terms:
        p, dec, bonds, g = full_pipeline(term)
        for a, row in enumerate(reference_bond_projectors(p, dec)):
            for b, (q, kernel_dim, kernel, resid) in enumerate(row):
                bf = bonds[a][b]
                assert np.linalg.norm(bf.q - q) < 1e-12
                assert bf.kernel_dim == kernel_dim == g.M[a, b]
                assert q.shape[0] - kernel_dim == g.R[a, b]
                assert subspace_angle_sin(bf.kernel_basis, kernel) < 1e-10
                assert resid < 1e-12
        isos = [blk.isometry for blk in dec.blocks]
        mids = {
            (a, b): rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for a, row in enumerate(bonds)
            for b, n in enumerate(bf.q.shape[0] for bf in row)
        }
        qs = {(a, b): bf.q for a, row in enumerate(bonds) for b, bf in enumerate(row)}
        for ops in (qs, mids):
            got = dec.assemble(ops)
            ref = reference_assemble_two_site(dec.block_dims, isos, lambda a, b: ops[a, b])
            assert np.linalg.norm(got - ref) < 1e-12 * max(np.linalg.norm(ref), 1.0)
        assert np.linalg.norm(dec.assemble({}) - np.eye(p.d**2)) < 1e-12


def test_extract_bond_projectors_makes_no_per_pair_kron(fig2, monkeypatch):
    # fig2 has 4 blocks, 16 pairs: one U x U for the compression, one for
    # the reconstruction.
    p, dec, bonds, _ = full_pipeline(fig2)
    real = np.kron
    calls = []
    monkeypatch.setattr(np, "kron", lambda *args: calls.append(1) or real(*args))
    again = extract_bond_projectors(p, dec)
    assert len(dec.blocks) == 4 and len(calls) == 2
    assert all(np.array_equal(x.q, y.q) for rx, ry in zip(bonds, again) for x, y in zip(rx, ry))


def _block_basis_sites() -> list[tuple[str, str, str]]:
    """(module, enclosing class or else top-level function, what) of every block-basis build.

    "hstack" is a column stack of isometries into U, "cumsum" a running sum
    (a block-offset table), "def" a function whose name holds "offset".
    """
    sites = []

    def visit(node: ast.AST, module: str, owner: str | None) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            if isinstance(node, ast.FunctionDef) and "offset" in node.name:
                sites.append((module, owner, "def"))
            owner = node.name if isinstance(node, ast.ClassDef) or owner is None else owner
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("hstack", "cumsum"):
                sites.append((module, owner, name))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(commchain.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def test_only_site_decomposition_builds_the_block_basis():
    # The ED's cumsum numbers the kept momentum states; it is no block offset.
    allowed = {("decomposition", "SiteDecomposition"), ("ed", "_momentum_blocks")}
    sites = _block_basis_sites()
    owned = {("decomposition", "SiteDecomposition", what) for what in ("hstack", "cumsum", "def")}
    assert owned <= set(sites)
    assert {(module, owner) for module, owner, _ in sites} <= allowed, sites
    operators = ast.parse((Path(commchain.__file__).parent / "operators.py").read_text())
    names = {n.name for n in ast.walk(operators) if isinstance(n, ast.FunctionDef)}
    assert not names & {"assemble_two_site", "_block_offsets"}

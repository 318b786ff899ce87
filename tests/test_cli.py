"""CLI subcommand tests: formats, exit codes, determinism, piping."""

import argparse
import ast
import itertools
import json
import math
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import commchain as cc
from commchain import cli, decomposition, ed, groundspace, models, operators
from commchain.cli import main
from commchain.groundspace import degeneracy

from conftest import graph_of, pairs_list


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_ising(capsys):
    code, out = run_cli(capsys, ["analyze", "--model", "ising"])
    assert code == 0
    doc = json.loads(out)
    assert doc["commuting"] is True
    assert doc["scale_invariant"] is True
    assert doc["degeneracy"] == 2
    assert doc["blocks"] == [[1, 1], [1, 1]]
    assert doc["seed"] == 0 and doc["tol"] == 1e-9


def test_analyze_fig2_exit_code(capsys):
    code, out = run_cli(capsys, ["analyze", "--model", "fig2"])
    assert code == 3
    doc = json.loads(out)
    assert doc["scale_invariant"] is False
    assert doc["witness"]["kind"] in ("cycle", "heavy_loop")
    assert len(doc["witness"]["vertices"]) >= 2


def test_analyze_non_hermitian_file(tmp_path, capsys):
    mat = [[[0.0, 0.0]] * 4 for _ in range(4)]
    mat[0][1] = [1.0, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "matrix": mat}))
    code, out = run_cli(capsys, ["analyze", "--input", str(path)])
    assert code == 1
    assert "error" in json.loads(out)


def test_analyze_missing_input(capsys):
    code, out = run_cli(capsys, ["analyze"])
    assert code == 1


def test_graph_dot_and_json(tmp_path, capsys):
    dot_path = tmp_path / "g.dot"
    json_path = tmp_path / "g.json"
    code, _ = run_cli(
        capsys,
        ["graph", "--model", "ising", "--dot", str(dot_path), "--json", str(json_path)],
    )
    assert code == 0
    dot = dot_path.read_text()
    assert "a0 -> a0" in dot and "a1 -> a1" in dot
    doc = json.loads(json_path.read_text())
    assert doc["M"] == [[1, 0], [0, 1]]
    assert doc["R"] == [[0, 1], [1, 0]]
    assert doc["blocks"] == [[1, 1], [1, 1]]


def test_degeneracy_range(capsys):
    code, out = run_cli(capsys, ["degeneracy", "--model", "ising", "--N", "2..8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["degeneracy"] == {str(n): 2 for n in range(2, 9)}


def test_census_ising(capsys):
    code, out = run_cli(capsys, ["census", "--model", "ising", "--N", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["census"]["3"]["dims"] == {"0": 2, "1": 0, "2": 6, "3": 0}


def test_census_past_the_bound_is_a_json_error(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, ["census", "--model", "fig2", "--N", "1000000"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert "N=1000000" in json.loads(out)["error"]
    assert elapsed < 1.0


def test_ground_past_the_bound_is_a_json_error(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, ["ground", "--model", "ising", "--N", "1000000"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert "N=1000000" in json.loads(out)["error"]
    assert elapsed < 1.0
    # 2 states x N x d^2 = 8N entries: N = 131072 is the longest ising chain.
    limit = groundspace.MAX_GROUND_ENTRIES
    assert 8 * 131072 <= limit < 8 * 131073
    code, out = run_cli(capsys, ["ground", "--model", "ising", "--N", "131073"])
    assert code == 1 and "131073" in json.loads(out)["error"]
    # The bound is on the whole report: every listed N counts, and nothing is built first.
    code, out = run_cli(capsys, ["ground", "--model", "ising", "--N", "2..600"])
    assert code == 1 and "599 lengths up to N=600" in json.loads(out)["error"]
    # fig2 is not scale invariant: the cap bounds its states, 2^N at the default.
    code, out = run_cli(capsys, ["ground", "--model", "fig2", "--N", "13"])
    assert code == 1
    code, out = run_cli(capsys, ["ground", "--model", "fig2", "--N", "13", "--cap", "16"])
    assert code == 0 and len(json.loads(out)["ground_states"]["13"]["states"]) == 16
    assert "131072" in cli.build_parser()._subparsers._group_actions[0].choices[
        "ground"
    ].format_help()


def test_integer_past_the_print_limit_is_a_json_error(capsys):
    # The fig2 degeneracy at N=20000 is about 2^20000, 6021 digits: past
    # Python's default int-to-str limit of 4300.
    code, out = run_cli(capsys, ["degeneracy", "--model", "fig2", "--N", "20000"])
    assert code == 1
    assert json.loads(out)["error"].startswith("report not written")


def test_degeneracy_far_past_the_print_limit_is_refused_fast(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, ["degeneracy", "--model", "fig2", "--N", "10000000"])
    elapsed = time.perf_counter() - start
    assert code == 1
    error = json.loads(out)["error"]
    assert error.startswith("report not written") and "N=10000000" in error
    assert elapsed < 1.0


def test_degeneracy_at_the_print_limit_stays_exact(capsys):
    # fig2 has Tr(M^N) = 2^N.  N = 14284 has 4300 digits, the most that
    # prints; N = 14285 has 4301, within the estimate's one-decade margin,
    # so the exact value is computed and the writer refuses it.
    code, out = run_cli(capsys, ["degeneracy", "--model", "fig2", "--N", "14284"])
    assert code == 0
    assert json.loads(out)["degeneracy"]["14284"] == 2**14284
    code, out = run_cli(capsys, ["degeneracy", "--model", "fig2", "--N", "14285"])
    assert code == 1
    assert json.loads(out)["error"].startswith("report not written: Exceeds the limit")


def test_degeneracy_estimate_tracks_the_exact_value():
    fig2_m = [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0]]
    # fig2, a nilpotent edge, one heavy loop, a transient edge, mixed weights
    for m in (fig2_m, [[0, 1], [0, 0]], [[3]], [[1, 0], [2, 1]], [[81, 0], [0, 2]]):
        g = graph_of(m)
        for n in (1, 2, 7, 64, 1001):
            exact = degeneracy(g, n)
            estimate = cli._log10_degeneracy(g.M, n)
            if exact == 0:
                assert estimate == -math.inf
            else:
                assert abs(estimate - math.log10(exact)) < 1e-9, (m, n)


def test_scale_invariant_degeneracy_at_large_n_is_exact(capsys):
    code, out = run_cli(capsys, ["degeneracy", "--model", "ising", "--N", "10000000,10000001"])
    assert code == 0
    assert json.loads(out)["degeneracy"] == {"10000000": 2, "10000001": 2}


_ISING_MATRIX = cli._dumps(models.builtin("ising").to_dict()["matrix"])

# Every reader of an input document: the --input of each subcommand, and
# the S matrix of mps-parent.
_READERS = [
    ["analyze", "--input"],
    ["graph", "--input"],
    ["degeneracy", "--N", "3", "--input"],
    ["census", "--N", "3", "--input"],
    ["ground", "--N", "3", "--input"],
    ["canonical", "--input"],
    ["verify", "--N", "2", "--input"],
    ["bridge", "solve-x", "--input"],
    ["bridge", "commutify", "--input"],
    ["bridge", "polar-normalize", "--input"],
    ["bridge", "mps-parent", "--s-matrix"],
]


def _malformed_documents() -> list[tuple[str, list[list[str]]]]:
    """(JSON text, the readers it goes through) of documents no reader may take.

    A JSON value that is not an object, a d that is not a JSON integer
    (1e400 reads as inf, true as a bool) and an "h" that is not an object
    fail every reader.  The x_candidate document holds a valid term; only
    commutify, which reads past the term, must refuse it.
    """
    bad_d = ("null", "[2]", "2.5", "1e400", "true", '"2"')
    terms = [f'{{"d": {d}, "matrix": {_ISING_MATRIX}}}' for d in bad_d]
    every = [(text, _READERS) for text in ["[1, 2]", "5", *terms, '{"h": 5}']]
    ising = cli._dumps(models.builtin("ising").to_dict())
    return every + [(f'{{"h": {ising}, "x_candidate": 5}}', [["bridge", "commutify", "--input"]])]


def test_malformed_documents_are_json_errors(tmp_path, capsys):
    path = tmp_path / "doc.json"
    runs = 0
    for text, readers in _malformed_documents():
        path.write_text(text)
        for reader in readers:
            code = main(reader + [str(path)])  # a traceback would raise here
            captured = capsys.readouterr()
            assert code == 1, (reader, text[:40])
            doc = json.loads(captured.out)  # one JSON object and nothing else
            assert {"error", "seed", "tol"} <= set(doc), (reader, text[:40])
            assert "Traceback" not in captured.err
            runs += 1
    assert runs == 9 * len(_READERS) + 1


def test_only_the_writer_stamps_seed_and_tol():
    # A "seed" dict key appears only in cli._emit, and only main calls _emit.
    keys, emits = set(), set()

    def visit(node: ast.AST, module: str, owner: str | None) -> None:
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if isinstance(node, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value == "seed" for k in node.keys
        ):
            keys.add((module, owner))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_emit":
            emits.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(cc.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert keys == {("cli", "_emit")}
    assert emits == {("cli", "main")}


def test_only_cli_holds_the_json_layout():
    # Only cli imports json or defines a name with "json" in it; reports
    # carry arrays, and no report type reads itself back.
    imports, names = set(), set()
    for path in sorted(Path(cc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "json" for m in modules):
                imports.add(path.stem)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined = node.id
            else:
                defined = ""
            if "json" in defined.lower():
                names.add(path.stem)
    assert imports == {"cli"}
    assert names <= {"cli"}
    assert not hasattr(operators.LocalTerm, "from_dict")
    assert not hasattr(groundspace.ScaleInvarianceVerdict, "to_dict")


def test_unwritable_report_path_is_a_json_error_on_stdout(tmp_path, capsys):
    # The report, or the error report of a missing input, cannot be written
    # to a path in a missing directory or to a directory: the error goes to stdout.
    (tmp_path / "adir").mkdir()
    sources = (["--model", "ising"], ["--input", str(tmp_path / "missing.json")])
    for target in (tmp_path / "nodir" / "x.json", tmp_path / "adir"):
        for source in sources:
            # A traceback would raise here.
            code = main(["analyze", *source, "--json", str(target)])
            captured = capsys.readouterr()
            assert code == 1, (target, source)
            doc = json.loads(captured.out)  # one JSON object and nothing else
            assert str(target) in doc["error"] and list(doc)[-2:] == ["seed", "tol"]
            assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir"]


def test_malformed_matrix_is_a_json_error(tmp_path, capsys):
    for matrix in ([[["1", "0"]] * 4] * 4, [[[1.0, 0.0, 0.0]] * 4] * 4, [[None] * 4] * 4):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 2, "matrix": matrix}))
        code, out = run_cli(capsys, ["analyze", "--input", str(path)])
        assert code == 1
        assert "[re, im]" in json.loads(out)["error"]


def test_term_shape_and_finiteness_are_checked_before_hermiticity(tmp_path, capsys):
    # Checked before the hermiticity defect: an Infinity entry makes the
    # defect NaN, which passes a `> tol` gate with numpy RuntimeWarnings, and
    # a 4x3 matrix fails in numpy's broadcast.
    infinite = [[[0.0, 0.0]] * 4 for _ in range(4)]
    infinite[0][0] = [math.inf, 0.0]
    cases = [
        (infinite, "operator entries must be finite"),
        ([[[0.0, 0.0]] * 3] * 4, "operator must be 4x4 for site dimension 2"),
    ]
    path = tmp_path / "term.json"
    for matrix, message in cases:
        path.write_text(json.dumps({"d": 2, "matrix": matrix}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and json.loads(captured.out)["error"] == message
        assert captured.err == "" and caught == []


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["analyze", "--input"], f'{{"matrix": {_ISING_MATRIX}}}', "local term has no 'd' key"),
        (["analyze", "--input"], '{"d": 2}', "local term has no 'matrix' key"),
        (
            ["bridge", "commutify", "--input"],
            '{"x_candidate": {"X": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}',
            "commutify input has no 'h' key",
        ),
        (["bridge", "polar-normalize", "--input"], '{"chi": 2}', "S-matrix document has no 'S' key"),
        (
            ["analyze", "--model", "foo"],
            None,
            "unknown builtin model 'foo' (try ising, fig2, zero(d))",
        ),
    ],
    ids=["d", "matrix", "h", "S", "model"],
)
def test_errors_name_the_missing_key_or_model(tmp_path, capsys, argv, text, message):
    if text is not None:
        path = tmp_path / "doc.json"
        path.write_text(text)
        argv = argv + [str(path)]
    code, out = run_cli(capsys, argv)
    assert code == 1 and json.loads(out)["error"] == message


def test_commutify_refuses_an_x_of_the_wrong_shape(tmp_path, capsys):
    ising = models.builtin("ising").to_dict()
    path = tmp_path / "x.json"
    for x in (np.eye(3), np.ones((1, 2))):
        path.write_text(cli._dumps({"h": ising, "x_candidate": {"X": x}}))
        code, out = run_cli(capsys, ["bridge", "commutify", "--input", str(path)])
        assert code == 1
        assert json.loads(out)["error"] == f"X has shape {x.shape}, not (2, 2) for site dimension 2"


def test_ground_states_ising(capsys):
    code, out = run_cli(capsys, ["ground", "--model", "ising", "--N", "4"])
    assert code == 0
    doc = json.loads(out)
    rec = doc["ground_states"]["4"]
    assert len(rec["states"]) == 2 and rec["truncated"] is False
    assert rec["states"][0]["mps"]["bond_dim"] == 1


def test_canonical_k_d(capsys):
    code, out = run_cli(capsys, ["canonical", "--k", "2", "--d", "2"])
    assert code == 0
    doc = json.loads(out)
    mat = np.array(
        [[complex(re, im) for re, im in row] for row in doc["canonical_rep"]["matrix"]]
    )
    assert np.allclose(mat, models.ising().op)


def test_canonical_pipeline_fig2_exit(capsys):
    code, _ = run_cli(capsys, ["canonical", "--model", "fig2"])
    assert code == 3


def test_verify_ising(capsys):
    code, out = run_cli(capsys, ["verify", "--model", "ising", "--N", "2..6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True


def test_verify_all_skipped_is_not_a_pass(capsys):
    code = main(["verify", "--model", "ising", "--N", "13"])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["all_pass"] is False
    assert doc["verify"] == [{"N": 13, "skipped": "d^N exceeds ed cap 4096"}]
    assert "N=13" in captured.err and "SKIPPED" in captured.err


def test_verify_partly_skipped_is_not_a_pass(capsys):
    code = main(["verify", "--model", "ising", "--N", "2,13"])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["all_pass"] is False
    assert doc["verify"][0]["census_match"] and doc["verify"][0]["degeneracy_match"]
    assert "skipped" in doc["verify"][1]
    assert "N=2" in captured.err and "PASS" in captured.err
    assert "N=13" in captured.err and "SKIPPED" in captured.err


def test_ground_long_chain_truncates(capsys):
    code, out = run_cli(capsys, ["ground", "--model", "fig2", "--N", "1200", "--cap", "2"])
    assert code == 0
    row = json.loads(out)["ground_states"]["1200"]
    assert row["truncated"] is True
    assert 1 <= len(row["states"]) <= 2
    assert all(len(state["cycle"]) == 1200 for state in row["states"])


def test_zero_model_parsing(capsys):
    code, out = run_cli(capsys, ["degeneracy", "--model", "zero(3)", "--N", "2"])
    assert code == 0
    assert json.loads(out)["degeneracy"]["2"] == 9


def test_bridge_pipe_chain(tmp_path, capsys):
    parent_path = tmp_path / "parent.json"
    code, _ = run_cli(
        capsys,
        ["bridge", "mps-parent", "--chi", "2", "--seed", "7", "--json", str(parent_path)],
    )
    assert code == 0
    solved_path = tmp_path / "solved.json"
    code, _ = run_cli(
        capsys,
        ["bridge", "solve-x", "--input", str(parent_path), "--json", str(solved_path)],
    )
    assert code == 0
    solved = json.loads(solved_path.read_text())
    assert solved["x_candidate"]["status"] == "found"
    assert solved["x_candidate"]["residual"] < 1e-10
    out_path = tmp_path / "commutified.json"
    code, _ = run_cli(
        capsys,
        ["bridge", "commutify", "--input", str(solved_path), "--json", str(out_path)],
    )
    assert code == 0
    cert = json.loads(out_path.read_text())["certificate"]
    assert cert["commutator_residual"] < 1e-9
    assert cert["kernel_match"] is True


@pytest.mark.parametrize("tol", ["1e-12"])
def test_prune_and_commutify_gates_hold_at_small_tol(tmp_path, capsys, small_corpus, tol):
    # The pruned term's commutator gate and commutify's zero-eigenvalue cut
    # once had floors (1e-10 and 1e-9); they now read sqrt(tol) and tol,
    # down to the smallest tol the command line accepts.
    assert float(tol) == operators.MIN_TOL
    sources = [["--model", "ising"]]
    for m in small_corpus:
        if m.scale_invariant_planted:
            path = tmp_path / f"{m.name}.json"
            path.write_text(cli._dumps(m.term.to_dict()))
            sources.append(["--input", str(path)])
    for source in sources:
        gate, _ = run_cli(capsys, ["analyze", *source, "--tol", tol])
        code, out = run_cli(capsys, ["canonical", *source, "--tol", tol])
        assert (gate, code) == (0, 0), (source, json.loads(out).get("error"))
    for seed in ("1", "2", "3"):
        parent, solved = tmp_path / "parent.json", tmp_path / "solved.json"
        for argv in (
            ["bridge", "mps-parent", "--chi", "2", "--seed", seed, "--json", str(parent)],
            ["bridge", "solve-x", "--input", str(parent), "--seed", seed, "--json", str(solved)],
        ):
            assert run_cli(capsys, [*argv, "--tol", tol])[0] == 0
        code, out = run_cli(capsys, ["bridge", "commutify", "--input", str(solved), "--tol", tol])
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["kernel_n"] == 3 and cert["kernel_match"] is True, seed


def test_bridge_solve_x_not_found(tmp_path, capsys):
    rng = np.random.default_rng(11)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (z + z.conj().T) / 2.0
    doc = {"d": 2, "matrix": [[[x.real, x.imag] for x in row] for row in h]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, ["bridge", "solve-x", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["x_candidate"]["status"] == "not_found"


def test_determinism_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, ["analyze", "--model", "fig2", "--seed", "5"])
        assert code == 3
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        _, out = run_cli(capsys, ["census", "--model", "fig2", "--N", "2..5"])
        outs.append(out)
    assert outs[0] == outs[1]


def test_determinism_synthesized_input(tmp_path, capsys):
    import commchain as cc

    term = cc.synthesize_local_term([(1, 2), (1, 1)], [[1, 1], [1, 1]], seed=12)
    path = tmp_path / "term.json"
    path.write_text(cli._dumps(term.to_dict()))
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, ["analyze", "--input", str(path), "--seed", "3"])
        outs.append((code, out))
    assert outs[0] == outs[1]


def test_every_report_file_equals_json_dumps(tmp_path, monkeypatch, capsys):
    emitted = []
    emit = cli._emit

    def spy(doc, args):
        emitted.append((doc, args))
        emit(doc, args)

    monkeypatch.setattr(cli, "_emit", spy)
    s_path = tmp_path / "s.json"
    s_path.write_text(cli._dumps({"S": np.diag([2.0, 1j, 1.0, 0.5])}))
    parent, solved = tmp_path / "parent.json", tmp_path / "solved.json"
    runs = [
        ["analyze", "--model", "ising"],
        ["analyze", "--model", "fig2"],
        ["analyze", "--model", "nosuch"],
        ["graph", "--model", "zero(3)"],
        ["degeneracy", "--model", "fig2", "--N", "2..6"],
        ["census", "--model", "ising", "--N", "3,5"],
        ["ground", "--model", "zero(2)", "--N", "3"],
        ["canonical", "--model", "ising"],
        ["canonical", "--k", "2", "--d", "3"],
        ["verify", "--model", "fig2", "--N", "2..3"],
        ["bridge", "mps-parent", "--chi", "2", "--seed", "3", "--json", str(parent)],
        ["bridge", "solve-x", "--input", str(parent), "--json", str(solved)],
        ["bridge", "commutify", "--input", str(solved)],
        ["bridge", "polar-normalize", "--input", str(s_path)],
    ]
    for i, argv in enumerate(runs):
        main(argv if "--json" in argv else argv + ["--json", str(tmp_path / f"out{i}.json")])
    capsys.readouterr()
    assert len(emitted) == len(runs)
    for doc, args in emitted:
        # Subcommands leave the seed and tolerance to the writer, which puts them last.
        assert "seed" not in doc and "tol" not in doc, args.json
        stamped = {**doc, "seed": args.seed, "tol": args.tol}
        with open(args.json) as fh:
            text = fh.read()
        assert text == json.dumps(stamped, indent=2, default=pairs_list) + "\n", args.json
        assert list(json.loads(text))[-2:] == ["seed", "tol"], args.json


def _write_term(tmp_path, term):
    path = tmp_path / "term.json"
    path.write_text(cli._dumps(term.to_dict()))
    return str(path)


def test_subcommands_agree_on_graph_and_witness(tmp_path, capsys):
    # Neither term is scale invariant, so canonical refuses with the witness.
    term = cc.synthesize_local_term([(1, 2), (1, 1)], [[1, 1], [1, 1]], seed=12)
    for source in (["--model", "fig2"], ["--input", _write_term(tmp_path, term)]):
        code, out = run_cli(capsys, ["analyze", *source])
        assert code == 3
        report = json.loads(out)
        m = report["graph"]["M"]
        code, out = run_cli(capsys, ["graph", *source])
        graph = json.loads(out)
        assert {k: graph[k] for k in ("M", "R", "blocks")} == report["graph"], source
        assert graph["blocks"] == report["blocks"]
        code, out = run_cli(capsys, ["canonical", *source])
        assert code == 3
        assert json.loads(out)["error"] == f"witness: {report['witness']}", source
        # ground at N=3: one state per kernel vector choice on each closed walk of M
        code, out = run_cli(capsys, ["ground", *source, "--N", "3"])
        assert code == 0
        states = json.loads(out)["ground_states"]["3"]["states"]
        walks = {}
        for w in itertools.product(range(len(m)), repeat=3):
            weight = m[w[0]][w[1]] * m[w[1]][w[2]] * m[w[2]][w[0]]
            if weight:
                walks[w] = weight
        assert Counter(tuple(st["cycle"]) for st in states) == walks, source


def test_one_analysis_per_job(tmp_path, monkeypatch, capsys):
    stages = {
        "decompose_site": decomposition.decompose_site,
        "build_graph": cc.build_graph,
        "check_scale_invariance": cc.check_scale_invariance,
        "commutator_residual": operators.commutator_residual,
    }
    calls = Counter()
    residual_factors = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "commutator_residual":
                residual_factors.append(args[0])
            return fn(*args, **kwargs)

        return counted

    # Every commchain namespace that holds a stage function gets the spy.
    for modname, mod in list(sys.modules.items()):
        if modname == "commchain" or modname.startswith("commchain."):
            for name, fn in stages.items():
                if vars(mod).get(name) is fn:
                    monkeypatch.setattr(mod, name, spy(name, fn))
    # An operator-Schmidt factorization is an SVD taken in ``operators``.
    factorizations = []
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "commchain.operators":
            factorizations.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    term = cc.synthesize_local_term([(1, 1), (1, 1)], [[1, 1], [0, 1]], seed=6)
    path = _write_term(tmp_path, term)
    for argv, pruned in (
        (["canonical", "--input", path], 1),
        (["ground", "--input", path, "--N", "2..4"], 0),
        (["analyze", "--input", path], 0),
    ):
        calls.clear()
        residual_factors.clear()
        factorizations.clear()
        code, _ = run_cli(capsys, argv)
        assert code == 0
        # the residual of p once (the gate), plus the pruned term's once
        expected = {name: 1 for name in stages}
        expected["commutator_residual"] += pruned
        assert calls == expected, (argv, calls)
        assert len({id(f) for f in residual_factors}) == len(residual_factors), argv
        # one factorization of p, read by the gate and the decomposition,
        # plus the pruned term's: 1 / 1 / 2 for analyze / ground / canonical
        assert factorizations == [(term.d**2, term.d**2)] * (1 + pruned), (argv, factorizations)


# --- the parser: one subcommand built per job ---------------------------------

SAMPLE_ARGV = {
    "analyze": ["analyze", "--model", "ising", "--seed", "3"],
    "graph": ["graph", "--input", "term.json", "--dot", "-"],
    "degeneracy": ["degeneracy", "--model", "fig2", "--N", "2..6", "--tol", "1e-7"],
    "census": ["census", "--model", "ising", "--N", "3,5", "--json", "out.json"],
    "ground": ["ground", "--model", "zero(2)", "--N", "3", "--cap", "4"],
    "canonical": ["canonical", "--k", "2", "--d", "3"],
    "verify": ["verify", "--model", "fig2", "--N", "2..3", "--ed-cap", "100"],
    "bridge": ["bridge", "solve-x", "--input", "parent.json", "--seed", "7"],
}


def _subparsers(parser):
    return parser._subparsers._group_actions[0].choices


def test_one_subcommand_parser_equals_the_full_one():
    full = cli.build_parser()
    assert list(_subparsers(full)) == list(SAMPLE_ARGV)
    assert list(_subparsers(cli.build_parser("nosuch"))) == list(SAMPLE_ARGV)
    for name, argv in SAMPLE_ARGV.items():
        one = cli.build_parser(name)
        assert list(_subparsers(one)) == [name]
        assert _subparsers(one)[name].format_help() == _subparsers(full)[name].format_help()
        assert _subparsers(one)[name].format_usage() == _subparsers(full)[name].format_usage()
        for args in (argv, argv + ["--tol", "1e-3", "--seed", "9"]):
            assert one.parse_args(args) == full.parse_args(args), args


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == cli.build_parser().format_help()
    for name in SAMPLE_ARGV:
        assert name in out
    with pytest.raises(SystemExit) as exc:
        main(["census", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _subparsers(cli.build_parser())["census"].format_help()


def test_main_builds_only_the_named_subparser(monkeypatch, capsys):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["analyze", "--model", "ising"]) == 0
    assert added == ["analyze"]
    added.clear()
    assert main(["nosuch"]) == 1
    assert added == list(SAMPLE_ARGV)
    capsys.readouterr()


def test_usage_errors_exit_1_with_a_json_error(capsys):
    for argv, expect in (
        (["census", "--model", "ising"], "the following arguments are required: --N"),
        (["nosuch"], "invalid choice: 'nosuch'"),
        ([], "the following arguments are required: command"),
        (["analyze", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["bridge", "solve-y"], "argument action: invalid choice: 'solve-y'"),
        (["analyze", "--model", "ising", "--bogus"], "unrecognized arguments: --bogus"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        doc = json.loads(captured.out)
        assert expect in doc["error"], argv
        assert doc["seed"] == 0 and doc["tol"] == operators.DEFAULT_TOL
        # argparse's usage text and error line stay on stderr.
        assert captured.err.startswith("usage: commchain")
        assert captured.err.endswith(doc["error"] + "\n")


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def test_bad_tol_chi_and_cap_are_usage_errors(capsys):
    # Past the parser, a nan or negative tol reads ising as non-commuting
    # (exit 2) and writes a NaN into the report; inf fails every reseed.
    bad = []
    # Below operators.MIN_TOL, rounding alone fails the commutator gate.
    for value in ("nan", "inf", "-1", "0", "-0.0", "1e-300", "1e-15", "9.9e-13"):
        bad += [[name, "--model", "ising", "--tol", value] for name in ("analyze", "graph")]
        bad.append(["census", "--model", "ising", "--N", "3", "--tol", value])
        bad.append(["bridge", "mps-parent", "--tol", value])
    bad += [["bridge", "mps-parent", "--chi", v] for v in ("0", "-2")]
    bad += [["ground", "--model", "ising", "--N", "3", "--cap", v] for v in ("0", "-1")]
    bad += [["verify", "--model", "ising", "--N", "3", "--ed-cap", v] for v in ("0", "-1")]
    for argv in bad:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        doc = json.loads(captured.out, parse_constant=_not_json)
        option = argv[-2]
        assert f"argument {option}: must be " in doc["error"], argv
        assert repr(argv[-1]) in doc["error"], argv
        assert doc["seed"] == 0 and doc["tol"] == operators.DEFAULT_TOL
        assert captured.err.startswith("usage: commchain")
    for argv in (
        ["analyze", "--tol", "x"],
        ["ground", "--cap", "x"],
        ["bridge", "solve-x", "--chi", "1.5"],
    ):
        code = main(argv)
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        kind = "float" if argv[-2] == "--tol" else "int"
        assert f"argument {argv[-2]}: invalid {kind} value: {argv[-1]!r}" in doc["error"]
    code, out = run_cli(capsys, ["analyze", "--model", "ising", "--tol", "1e-12"])
    assert code == 0 and json.loads(out)["tol"] == operators.MIN_TOL == 1e-12
    assert "at least 1e-12" in _subparsers(cli.build_parser())["analyze"].format_help()


def test_verify_ed_cap_defaults_to_the_oracle_cap():
    verify = _subparsers(cli.build_parser("verify"))["verify"]
    assert verify.get_default("ed_cap") == ed.DEFAULT_CAP
    assert "largest d^N" in verify.format_help()


def test_tol_floor_sits_a_decade_above_rounding(tmp_path, capsys):
    # Scale-invariant terms at d = 6, 7 and 9 (those of the benchmark) and up
    # to d = 16: rounding gives residuals of 5e-15 to 2.4e-14, which --tol
    # 1e-15 read as non-commuting (exit 2).  MIN_TOL is 10x above them all.
    specs = [
        ([(1, 2), (2, 2)], [[1, 2], [0, 1]]),
        ([(1, 1), (1, 2), (2, 2)], [[1, 1, 1], [0, 1, 2], [0, 0, 1]]),
        ([(1, 1), (2, 2), (2, 2)], [[1, 1, 2], [0, 1, 2], [0, 0, 1]]),
        ([(2, 2), (2, 4)], [[1, 3], [0, 1]]),
        ([(2, 4), (2, 4)], [[1, 5], [0, 1]]),
    ]
    for seed, (blocks, kdims) in enumerate(specs):
        term = models.synthesize_local_term(blocks, kdims, seed)
        residual = operators.commutator_residual(operators.operator_schmidt(term))
        assert 10 * residual <= operators.MIN_TOL, (term.d, residual)
        if term.d > 9:
            continue
        path = tmp_path / f"d{term.d}.json"
        path.write_text(cli._dumps(term.to_dict()))
        code, out = run_cli(capsys, ["analyze", "--input", str(path), "--tol", "1e-12"])
        assert code == 0 and json.loads(out)["commuting"] is True, term.d


# --- chain length lists -------------------------------------------------------


def test_n_list_length_is_bounded_before_expanding():
    limit = cli.MAX_N_LENGTHS
    assert cli._parse_n_list(f"1..{limit}") == list(range(1, limit + 1))
    assert cli._parse_n_list("2, 5,7..9") == [2, 5, 7, 8, 9]
    for spec in (f"1..{limit + 1}", f"1..{limit // 2},1..{limit // 2 + 1}", "2..20000000"):
        with pytest.raises(cli.TooLarge, match=f"past the limit {limit}"):
            cli._parse_n_list(spec)
    for spec in ("0..3", "5..2", "abc", "1..2..3", ""):
        with pytest.raises(ValueError):
            cli._parse_n_list(spec)


def test_long_n_lists_are_refused_fast_and_small(capsys):
    for argv in (
        ["census", "--model", "ising", "--N", "2..20000000"],
        ["degeneracy", "--model", "ising", "--N", "2..20000000"],
        # fig2's census is bounded at N=2047: nothing is computed before the refusal.
        ["census", "--model", "fig2", "--N", "2047,2048"],
    ):
        tracemalloc.start()
        start = time.perf_counter()
        code, out = run_cli(capsys, argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 1, argv
        assert "past the limit" in json.loads(out)["error"], argv
        assert elapsed < 1.0 and peak < 100 * 2**20, (argv, elapsed, peak)


def test_normal_form_is_refused_past_its_bound_before_any_allocation(capsys):
    # d = 3000 asks for a 9e6 x 9e6 matrix: numpy's MemoryError used to end
    # the command in a traceback with no report.
    tracemalloc.start()
    code = main(["canonical", "--k", "1", "--d", "3000"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert "past the limit" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err
    assert peak < 2**20
    assert "d <= 45" in _subparsers(cli.build_parser())["canonical"].format_help()


def test_census_checks_every_length_before_the_first(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "spectral_census", lambda t, n: calls.append(n))
    code, out = run_cli(capsys, ["census", "--model", "fig2", "--N", "3,4,5000"])
    assert code == 1
    assert "N=5000" in json.loads(out)["error"]
    assert calls == []

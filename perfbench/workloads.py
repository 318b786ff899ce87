"""The four workloads: seeded inputs, the CLI jobs of one item, and answer checks.

Each workload is a fixed cycle of items.  The seed moves only the Haar
rotations, the kernel subspaces and the MPS maps; block specs, d, N and chi
are fixed here, so every seed gives a workload of the same cost.  The
program sees only the JSON files written by ``build``.

Planted block specs are not assumed to be recovered (a spec can decompose
more finely than planted).  Checks rely only on properties of the operator:
scale invariance, the energy census and ground-space identities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

# ED reference sizes stay small: the check runs once per distinct input.
REF_MAX_DIM = 1024


@dataclass
class Job:
    argv: list[str]
    expect: int  # exit code
    out: Path


@dataclass
class Item:
    key: str
    jobs: list[Job]
    d: int
    n: int | None = None
    op: np.ndarray | None = None  # the two-site term, for reference checks
    scale_invariant: bool | None = None
    # Untimed jobs run once per distinct item in the check phase.
    ref_jobs: list[Job] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    why: str
    # Predicted dominant function: its spans, children included, take more
    # than half of the traced item time.
    dominant: str
    build: Callable[[Path, int], list[Item]]
    check: Callable[[Item, list[dict], list[dict]], str | None]
    warmup: int  # index of the cheap item run during set-up


# --- inputs -----------------------------------------------------------------


def _write_term(path: Path, op: np.ndarray, d: int) -> None:
    mat = [[[float(z.real), float(z.imag)] for z in row] for row in op]
    path.write_text(json.dumps({"d": d, "matrix": mat}))


def _matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _term(spec, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """A synthesized term, or a builtin rotated by a seeded real O(d) x O(d)."""
    import commchain  # each set-up re-imports the package; use the current copy

    if isinstance(spec, str):
        p = commchain.models.builtin(spec)
        q, r = np.linalg.qr(rng.standard_normal((p.d, p.d)))
        o = np.kron(q * np.sign(np.diag(r)), q * np.sign(np.diag(r)))
        # Real rotations keep builtins on the real eigvalsh path.
        return o @ p.op @ o.T, p.d
    blocks, kdims = spec
    p = commchain.synthesize_local_term(blocks, kdims, int(rng.integers(2**31)))
    return p.op, p.d


def _ref_n(d: int) -> int:
    n = 2
    while n < 6 and d ** (n + 1) <= REF_MAX_DIM:
        n += 1
    return n


# Block specs and kernel dimensions; "si" marks scale-invariant plantings
# (self-loops of weight at most 1, acyclic otherwise), which fixes the
# expected verdict whatever decomposition is recovered.
D5_SI = ([(1, 1), (2, 2)], [[1, 1], [0, 1]])
D6_SI = ([(1, 2), (2, 2)], [[1, 2], [0, 1]])
D6_NSI = ([(1, 2), (2, 2)], [[2, 2], [1, 1]])
D7_SI = ([(1, 1), (1, 2), (2, 2)], [[1, 1, 1], [0, 1, 2], [0, 0, 1]])
D8_SI = ([(2, 2), (2, 2)], [[1, 2], [0, 1]])
D8_NSI = ([(2, 2), (2, 2)], [[1, 2], [1, 1]])
D9_SI = ([(1, 1), (2, 2), (2, 2)], [[1, 1, 2], [0, 1, 2], [0, 0, 1]])


def _out(work: Path, key: str, j: int) -> Path:
    return work / f"{key}.{j}.json"


# --- classify ---------------------------------------------------------------

CLASSIFY = [
    # (key, term, scale invariant).  The heaviest kind comes three times a
    # cycle so that item_tail_s, the 11th slowest item, stays within it.
    ("d9-si-a", D9_SI, True),
    ("d6-si", D6_SI, True),
    ("d8-nsi", D8_NSI, False),
    ("d9-si-b", D9_SI, True),
    ("fig2", "fig2", False),
    ("d7-si", D7_SI, True),
    ("d9-si-c", D9_SI, True),
    ("d6-nsi", D6_NSI, False),
    ("d8-si", D8_SI, True),
]


def build_classify(work: Path, seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 1])
    items = []
    for key, spec, si in CLASSIFY:
        op, d = _term(spec, rng)
        src = work / f"{key}.term.json"
        _write_term(src, op, d)
        code = 0 if si else 3
        jobs = [
            Job(["analyze", "--input", str(src), "--json", str(_out(work, key, 0))], code, _out(work, key, 0)),
            Job(["canonical", "--input", str(src), "--json", str(_out(work, key, 1))], code, _out(work, key, 1)),
        ]
        items.append(Item(key, jobs, d, op=op, scale_invariant=si))
    return items


def check_classify(item: Item, docs: list[dict], refs: list[dict]) -> str | None:
    rep, canon = docs
    if rep.get("commuting") is not True:
        return "analyze: term reported non-commuting"
    if rep.get("graph") is None:
        return "analyze: no interaction graph"
    n0 = _ref_n(item.d)
    census = reference.census_poly(rep["graph"]["M"], rep["graph"]["R"], n0)
    ed = reference.ring_spectrum(item.op, item.d, n0)
    if census != ed:
        return f"analyze: census from the graph at N={n0} differs from dense ED"
    if rep.get("scale_invariant") is not item.scale_invariant:
        return f"analyze: scale_invariant {rep.get('scale_invariant')}, expected {item.scale_invariant}"
    if not item.scale_invariant:
        if rep.get("witness") is None:
            return "analyze: no witness for a non-scale-invariant term"
        return None if "error" in canon else "canonical: no error for a non-scale-invariant term"
    k = rep.get("degeneracy")
    if k != ed.get(0, 0):
        return f"analyze: degeneracy {k}, dense ED kernel at N={n0} is {ed.get(0, 0)}"
    if canon.get("k") != k:
        return f"canonical: k {canon.get('k')}, analyze degeneracy {k}"
    normal = np.eye(item.d * item.d)
    for a in range(k):
        normal[a * item.d + a, a * item.d + a] = 0.0
    if canon["canonical_rep"]["d"] != item.d or not np.allclose(_matrix(canon["canonical_rep"]["matrix"]), normal):
        return "canonical: canonical_rep is not the normal form for k"
    return None


# --- oracle -----------------------------------------------------------------

ORACLE = [
    # (key, term, N): d^N from 64 to 1296.  The complex d^N=1296 kind, twice
    # a cycle, holds the 11th slowest item; the real d^N=1024 fig2 kind, twice
    # a cycle, holds the median.
    ("d6-n4-a", D6_SI, 4),
    ("ising-n10", "ising", 10),
    ("d4-n5", ([(1, 2), (2, 1)], [[1, 2], [0, 1]]), 5),
    ("fig2-n5-a", "fig2", 5),
    ("d3-n6", ([(1, 1), (1, 2)], [[1, 1], [0, 1]]), 6),
    ("d6-n4-b", D6_NSI, 4),
    ("d2-n9", ([(1, 1), (1, 1)], [[1, 1], [0, 1]]), 9),
    ("fig2-n5-b", "fig2", 5),
    ("d5-n4", D5_SI, 4),
    ("d6-n3", D6_NSI, 3),
    ("ising-n6", "ising", 6),
]


def build_oracle(work: Path, seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 2])
    items = []
    for key, spec, n in ORACLE:
        op, d = _term(spec, rng)
        src = work / f"{key}.term.json"
        _write_term(src, op, d)
        out = _out(work, key, 0)
        argv = ["verify", "--input", str(src), "--N", str(n), "--json", str(out)]
        items.append(Item(key, [Job(argv, 0, out)], d, n, op=op))
    return items


def check_oracle(item: Item, docs: list[dict], refs: list[dict]) -> str | None:
    (doc,) = docs
    rows = doc.get("verify", [])
    if [row.get("N") for row in rows] != [item.n]:
        return f"verify: rows for N={[row.get('N') for row in rows]}, expected [{item.n}]"
    for row in rows:
        # A skipped row is reported as passing by the program; it is not an answer.
        if "skipped" in row:
            return f"verify: N={row['N']} skipped ({row['skipped']})"
        if not (row["degeneracy_match"] and row["census_match"]):
            return f"verify: N={row['N']} does not match dense ED"
        if row["degeneracy"] != row["ed_kernel_dim"]:
            return f"verify: N={row['N']} degeneracy {row['degeneracy']} vs ED {row['ed_kernel_dim']}"
    return None if doc.get("all_pass") is True else "verify: all_pass is not true"


# --- census -----------------------------------------------------------------

DENSE4 = ([(1, 1)] * 4, [[1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 1, 0]])

CENSUS = [
    # (key, term, N): dense graphs (fig2, a 4-vertex term) and a sparse one
    # (ising); fig2 at N=300, twice a cycle, holds the 11th slowest item.
    ("fig2-n300-a", "fig2", 300),
    ("ising-n1000", "ising", 1000),
    ("dense4-n250", DENSE4, 250),
    ("fig2-n300-b", "fig2", 300),
    ("fig2-n150", "fig2", 150),
    ("ising-n400", "ising", 400),
    ("dense4-n120", DENSE4, 120),
]


def build_census(work: Path, seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 3])
    items = []
    for key, spec, n in CENSUS:
        op, d = _term(spec, rng)
        src = work / f"{key}.term.json"
        _write_term(src, op, d)
        jobs = [
            Job([cmd, "--input", str(src), "--N", str(n), "--json", str(_out(work, key, j))], 0, _out(work, key, j))
            for j, cmd in enumerate(("census", "degeneracy"))
        ]
        graph = work / f"{key}.graph.json"
        ref = Job(["graph", "--input", str(src), "--json", str(graph)], 0, graph)
        items.append(Item(key, jobs, d, n, op=op, ref_jobs=[ref]))
    return items


def check_census(item: Item, docs: list[dict], refs: list[dict]) -> str | None:
    cen, deg = docs
    n = item.n
    dims = {int(k): v for k, v in cen["census"][str(n)]["dims"].items()}
    if sorted(dims) != list(range(n + 1)):
        return "census: energies are not 0..N"
    if sum(dims.values()) != item.d**n:
        return f"census: total {sum(dims.values())} is not d^N"
    if dims[0] != deg["degeneracy"][str(n)]:
        return f"census: dims[0] {dims[0]} differs from degeneracy {deg['degeneracy'][str(n)]}"
    if not refs:
        return "graph: the untimed graph call failed"
    m, r = refs[0]["M"], refs[0]["R"]
    n0 = _ref_n(item.d)
    if reference.census_poly(m, r, n0) != reference.ring_spectrum(item.op, item.d, n0):
        return f"graph: census at N={n0} differs from dense ED"
    for x in (-1, 2):
        if sum(c * x**k for k, c in dims.items()) != reference.census_at(m, r, n, x):
            return f"census: polynomial differs from Tr((M + xR)^N) at x={x}"
    return None


# --- bridge -----------------------------------------------------------------

BRIDGE_CHI = 2
# mps-parent chains at chi=2, and S-deformed commuting terms written here:
# (S^-1 x S^-1) P (S^-1 x S^-1) has X = S^2 among its solutions.  The d=6
# kind, once a cycle, holds the 11th slowest item; the d=5 kind, eight times
# a cycle, holds the median.  Chain times vary from process to process more
# than the others, so they do not hold either.
BRIDGE = [
    ("deformed6", D6_SI), ("chain", None), ("deformed5", D5_SI), ("deformed5", D5_SI), ("chain", None),
    ("deformed5", D5_SI), ("deformed5", D5_SI), ("chain", None), ("deformed5", D5_SI), ("chain", None),
    ("deformed5", D5_SI), ("deformed5", D5_SI), ("chain", None), ("deformed5", D5_SI), ("chain", None),
]


def _deformed(spec, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    p, d = _term(spec, rng)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    # Only the eigenbasis of S is drawn; its spectrum is fixed.
    s_inv = (q / np.linspace(0.6, 1.8, d)) @ q.conj().T
    c = np.kron(s_inv, s_inv)
    h = c @ p @ c
    return (h + h.conj().T) / 2, d


def build_bridge(work: Path, seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 4])
    items = []
    for i, (kind, spec) in enumerate(BRIDGE):
        key = f"{kind}-{i}"
        solved, out = _out(work, key, 1), _out(work, key, 2)
        s = str(int(rng.integers(2**31)))
        if kind == "chain":
            src = _out(work, key, 0)
            jobs = [Job(["bridge", "mps-parent", "--chi", str(BRIDGE_CHI), "--seed", s, "--json", str(src)], 0, src)]
            d = BRIDGE_CHI**2
        else:
            op, d = _deformed(spec, rng)
            src = work / f"{key}.term.json"
            _write_term(src, op, d)
            jobs = []
        jobs += [
            Job(["bridge", "solve-x", "--input", str(src), "--seed", s, "--json", str(solved)], 0, solved),
            Job(["bridge", "commutify", "--input", str(solved), "--json", str(out)], 0, out),
        ]
        items.append(Item(key, jobs, d, 3))
    return items


def _range_projector(op: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((op + op.conj().T) / 2)
    keep = v[:, w > 1e-9 * max(1.0, float(np.max(np.abs(w))))]
    return keep @ keep.conj().T


def check_bridge(item: Item, docs: list[dict], refs: list[dict]) -> str | None:
    solved, out = docs[-2:]
    if solved["x_candidate"].get("status") != "found":
        return "solve-x: no X found"
    if out["certificate"].get("kernel_match") is not True:
        return "commutify: kernel_match is not true"
    if len(docs) == 3:  # an mps-parent chain: h_prime must give back its parent P
        p = _matrix(docs[0]["P"]["matrix"])
        if not np.allclose(_range_projector(_matrix(out["h_prime"]["matrix"])), p, atol=1e-6):
            return "commutify: h_prime is not the commuting parent P"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify",
            "analyze+canonical at d=4..9: commutator_residual and decomposition dominate, ED only the small prune check",
            "operators.commutator_residual",
            build_classify, check_classify, warmup=1,
        ),
        Workload(
            "oracle",
            "verify at d^N=64..1296, real and complex terms: dense ED build and eigvalsh dominate, decomposition negligible",
            "ed.integer_spectrum",
            build_oracle, check_oracle, warmup=10,
        ),
        Workload(
            "census",
            "census+degeneracy at N=120..1000 on dense and sparse graphs: big-integer polynomial products, no ED",
            "groundspace.spectral_census",
            build_census, check_census, warmup=5,
        ),
        Workload(
            "bridge",
            "mps-parent, solve-x, commutify at chi=2, and solve-x, commutify on S-deformed d=5,6 terms: the only non-commuting inputs",
            "bridge.solve_x",
            build_bridge, check_bridge, warmup=1,
        ),
    )
}

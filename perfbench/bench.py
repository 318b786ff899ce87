"""One workload in this process: set-up, the timed or traced phase, checks, metrics.

Items run closed loop from a single client, one after another, by calling
``commchain.cli.main`` in process with JSON files in and out.  The timed
phase runs whole cycles of the workload until ``seconds`` have passed, so
every run sees the same mix.  Answers are checked after the timed phase.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

SETUP_REPEATS = 9
MIN_TRACED_PASSES = 2
# item_tail_s is the highest percentile that still has this many items above it.
TAIL_BEYOND = 10

# Per-layer metrics: (name, unit, better, the end-to-end metric it should move).
PER_LAYER = [
    ("operators.commutator_residual.self_s", "s/item", "lower", "classify items_per_s/item_tail_s; bridge a little; oracle not at all"),
    ("operators.commutator_residual.calls", "calls/item", "lower", "classify items_per_s/item_tail_s"),
    ("operators.projectorize.self_s", "s/item", "lower", "classify item_p50_s"),
    ("operators.operator_schmidt.self_s", "s/item", "lower", "classify item_p50_s"),
    ("decomposition.decompose_site.self_s", "s/item", "lower", "classify items_per_s"),
    ("decomposition.decompose_site.calls", "calls/item", "lower", "classify items_per_s"),
    ("decomposition.generate_algebra.self_s", "s/item", "lower", "classify items_per_s"),
    ("decomposition.center.self_s", "s/item", "lower", "classify items_per_s"),
    ("decomposition.commutant.self_s", "s/item", "lower", "classify items_per_s"),
    ("graph.extract_bond_projectors.self_s", "s/item", "lower", "classify item_p50_s"),
    ("canonical.classify_phase.self_s", "s/item", "lower", "classify items_per_s"),
    ("canonical.canonical_chain.self_s", "s/item", "lower", "classify items_per_s"),
    ("canonical.prune_to_loops.self_s", "s/item", "lower", "classify items_per_s"),
    ("groundspace.spectral_census.self_s", "s/item", "lower", "census items_per_s/item_tail_s; oracle a little"),
    ("groundspace.degeneracy.self_s", "s/item", "lower", "census item_p50_s"),
    ("groundspace.check_scale_invariance.self_s", "s/item", "lower", "census item_p50_s"),
    ("ed.build_chain.self_s", "s/item", "lower", "oracle item_p50_s and items_per_s"),
    ("ed.integer_spectrum.self_s", "s/item", "lower", "oracle item_tail_s, peak_rss_mb"),
    ("ed.kernel_dim.self_s", "s/item", "lower", "classify and bridge, a little"),
    ("bridge.solve_x.self_s", "s/item", "lower", "bridge items_per_s, peak_rss_mb"),
    ("bridge.commutify.self_s", "s/item", "lower", "bridge items_per_s, peak_rss_mb"),
    ("bridge.mps_parent.self_s", "s/item", "lower", "bridge items_per_s, peak_rss_mb"),
    ("bridge.solve_x.found_ratio", "ratio", "higher", "bridge fail_frac"),
    ("linalg.op_norm.self_s", "s/item", "lower", "classify items_per_s; bridge"),
    ("linalg.op_norm.calls", "calls/item", "lower", "classify items_per_s; bridge"),
    ("linalg.op_norm.elements", "entries/item", "lower", "classify items_per_s; bridge"),
    ("linalg.nullspace.self_s", "s/item", "lower", "bridge items_per_s; classify"),
    ("linalg.nullspace.elements", "entries/item", "lower", "bridge items_per_s; classify"),
    ("linalg.orthonormalize_rows.self_s", "s/item", "lower", "bridge items_per_s; classify"),
] + [
    (f"{tracer.layer_label(layer)}.self_s", "s/item", "lower", "the workload where this layer dominates")
    for layer in tracer.LAYERS
] + [
    ("trace.overhead_frac", "ratio", "lower", "none: cost of the tracing itself"),
]

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_s", "s"),
    ("item_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ``beyond`` items above it.

    With n sorted times that is the (n - beyond)-th smallest, at percentile
    100 * (n - beyond) / n.  With too few items no percentile qualifies and
    the maximum is returned at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n


@dataclass
class Outcome:
    index: int  # position in the cycle
    seconds: float
    codes: list[int]
    outputs: list[bytes]
    digest: str
    error: str | None = None


def run_item(cli_main, item: workloads.Item, index: int) -> Outcome:
    """Run the jobs of one item; only the CLI calls are timed."""
    for job in item.jobs:
        job.out.unlink(missing_ok=True)
    codes: list[int] = []
    error = None
    sink = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        for job in item.jobs:
            try:
                codes.append(cli_main(job.argv))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 1)
            except Exception:  # an item that raises counts as failed; the run goes on
                error = traceback.format_exc().strip().splitlines()[-1]
                break
    seconds = time.perf_counter() - start
    outputs = [job.out.read_bytes() if job.out.exists() else b"" for job in item.jobs]
    h = hashlib.sha256()
    for out in outputs:
        h.update(hashlib.sha256(out).digest())
    return Outcome(index, seconds, codes, outputs, h.hexdigest(), error)


def score(items: list[workloads.Item], outcomes: list[Outcome], check, refs) -> list[str | None]:
    """Cause of failure per outcome, or None.

    Fails: an exception, an unexpected exit code, unparsable output, a failed
    answer check, or output bytes that differ between runs of the same item.
    """
    digests: dict[int, set[str]] = {}
    for o in outcomes:
        digests.setdefault(o.index, set()).add(o.digest)
    verdicts: dict[tuple[int, str], str | None] = {}
    causes = []
    for o in outcomes:
        item = items[o.index]
        expected = [job.expect for job in item.jobs]
        if o.error is not None:
            causes.append(f"raised {o.error}")
            continue
        if o.codes != expected:
            causes.append(f"exit codes {o.codes}, expected {expected}")
            continue
        if len(digests[o.index]) > 1:
            causes.append("report bytes differ between runs of this item")
            continue
        key = (o.index, o.digest)
        if key not in verdicts:
            try:
                docs = [json.loads(out) for out in o.outputs]
                verdicts[key] = check(item, docs, refs.get(o.index, []))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                verdicts[key] = f"malformed report: {type(exc).__name__}: {exc}"
        causes.append(verdicts[key])
    return causes


def reference_docs(cli_main, items: list[workloads.Item]) -> dict[int, list[dict]]:
    """Untimed reference jobs, once per item of the cycle."""
    refs = {}
    for i, item in enumerate(items):
        if item.ref_jobs:
            ref = workloads.Item(item.key, item.ref_jobs, item.d)
            out = run_item(cli_main, ref, i)
            refs[i] = [json.loads(b) for b in out.outputs] if out.error is None and not any(out.codes) else []
    return refs


def setup(wl: workloads.Workload, work: Path, seed: int):
    """Import, generate the inputs and warm up; repeated, the median is setup_s."""
    times = []
    for k in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "commchain" or m.startswith("commchain.")]:
            del sys.modules[name]
        # A fresh directory each time: on ext4, truncating a just-written file
        # waits for its write-back (tens of ms).
        inputs = work / f"setup{k}"
        inputs.mkdir()
        start = time.perf_counter()
        cli = importlib.import_module("commchain.cli")
        items = wl.build(inputs, seed)
        run_item(cli.main, items[wl.warmup], wl.warmup)
        times.append(time.perf_counter() - start)
    # Look ``main`` up on each call, so the traced run goes through the tracer's wrapper.
    return times, lambda argv: cli.main(argv), items


def run_cycles(cli_main, items, seconds: float, trc: tracer.Tracer | None = None, start_id: int = 0):
    """Whole cycles until ``seconds`` have passed (at least one cycle).

    Returns the outcomes, the wall time and the wall time of each cycle.
    """
    outcomes: list[Outcome] = []
    cycle_walls: list[float] = []
    # Repeats share one copy of their report bytes, so memory does not grow with the run.
    distinct: dict[str, list[bytes]] = {}
    start = time.perf_counter()
    while True:
        for i, item in enumerate(items):
            if trc is not None:
                trc.set_item(start_id + len(outcomes), item.d, item.n)
            o = run_item(cli_main, item, i)
            o.outputs = distinct.setdefault(o.digest, o.outputs)
            outcomes.append(o)
        wall = time.perf_counter() - start
        cycle_walls.append(wall - sum(cycle_walls))
        if wall >= seconds:
            return outcomes, wall, cycle_walls


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failures(items, outcomes, causes) -> list[str]:
    groups: dict[tuple[str, str], int] = {}
    for o, cause in zip(outcomes, causes):
        if cause is not None:
            k = (items[o.index].key, cause)
            groups[k] = groups.get(k, 0) + 1
    return [f"  FAILED {key} x{count}: {cause}" for (key, cause), count in sorted(groups.items())]


def timed(wl, seconds: float, setup_times, cli_main, items) -> tuple[dict, list[str], int, int]:
    outcomes, wall, cycle_walls = run_cycles(cli_main, items, seconds)
    # Read before the checks: ru_maxrss never goes down, and the reference jobs
    # and checks below can use more memory than the program did.
    peak_mb = peak_rss_mb()
    refs = reference_docs(cli_main, items)
    causes = score(items, outcomes, wl.check, refs)
    failed = sum(c is not None for c in causes)
    attempted = len(outcomes)
    times = [o.seconds for o in outcomes]
    tail_s, pct = tail(times)
    n = len(items)
    # Median over cycles, so a burst of load from elsewhere moves it less.
    correct = [sum(c is None for c in causes[k * n:(k + 1) * n]) for k in range(len(cycle_walls))]
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": statistics.median([c / w for c, w in zip(correct, cycle_walls)]),
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail_s,
        "peak_rss_mb": peak_mb,
    }
    lines = [
        f"closed loop, 1 client: {attempted // len(items)} cycles of {len(items)} items in {wall:.2f} s",
        f"  setup_s      {values['setup_s']:.4f} s    median of {len(setup_times)} set-ups "
        f"(import, inputs, warm-up): {', '.join(f'{t:.4f}' for t in setup_times)}",
        f"  items_per_s  {values['items_per_s']:.4f} 1/s  correct items per second, median over the cycles",
        f"  item_p50_s   {values['item_p50_s']:.4f} s    median of {attempted} items",
        f"  item_tail_s  {tail_s:.4f} s    p{pct:.1f} of {attempted} items "
        f"({TAIL_BEYOND} items beyond it)",
        f"  fail_frac    {failed / attempted:.4f}      {failed} of {attempted} items failed",
        f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB",
    ] + _failures(items, outcomes, causes)
    return values, lines, attempted, failed


def traced(wl, seconds: float, cli_main, items) -> tuple[dict, list[str], int, int, bool, list[tracer.Span]]:
    """Alternate untraced and traced passes over one cycle until ``seconds`` have passed."""
    trc = tracer.Tracer()
    outcomes: list[Outcome] = []
    walls = {False: [], True: []}
    profiles: list[tracer.Profile] = []
    start = time.perf_counter()
    tracing = False
    while time.perf_counter() - start < seconds or len(walls[True]) < MIN_TRACED_PASSES:
        first = len(trc.spans)
        if tracing:
            trc.install()
        try:
            got, wall, _ = run_cycles(cli_main, items, 0.0, trc if tracing else None, len(outcomes))
        finally:
            trc.uninstall()
        outcomes += got
        walls[tracing].append(wall)
        if tracing:
            profiles.append(tracer.profile(trc.spans[first:]))
        tracing = not tracing
    refs = reference_docs(cli_main, items)
    causes = score(items, outcomes, wl.check, refs)
    failed = sum(c is not None for c in causes)
    n = len(items)

    exact = all(
        (p.calls, p.elements, p.found) == (profiles[0].calls, profiles[0].elements, profiles[0].found)
        for p in profiles
    )
    identical = all(
        len({o.digest for o in outcomes if o.index == i}) == 1 for i in range(n)
    )

    def self_s(name):
        return statistics.median([p.self_s.get(name, 0.0) for p in profiles]) / n

    prof = profiles[0]
    values = {}
    for name, *_ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = self_s(base)
        elif kind == "calls":
            values[name] = prof.calls.get(base, 0) / n
        elif kind == "elements":
            values[name] = prof.elements.get(base, 0) / n
        elif kind == "found_ratio":
            calls = prof.calls.get(base, 0)
            values[name] = prof.found.get(base, 0) / calls if calls else 0.0
    # Fastest pass of each kind: the first pass after set-up runs slower.
    overhead = min(walls[True]) / min(walls[False]) - 1.0
    values["trace.overhead_frac"] = overhead

    def inclusive_s(name):
        return statistics.median([p.inclusive_s.get(name, 0.0) for p in profiles]) / n

    # Dominant: the function's spans, children included, take most of the item time.
    traced_item_s = statistics.median(walls[True]) / n
    share = inclusive_s(wl.dominant) / traced_item_s
    top = max((k for k in prof.self_s if "." in k), key=self_s)
    lines = [
        f"traced: {len(walls[True])} traced and {len(walls[False])} untraced passes of {n} items; "
        f"overhead {overhead:+.2%} of untraced wall time",
        f"  report bytes identical with and without tracing: {'yes' if identical else 'NO'}",
        f"  calls and elements repeat exactly across traced passes: {'yes' if exact else 'NO'}",
        f"  predicted dominant function {wl.dominant}: {share:.1%} of traced item time with its children; "
        f"prediction {'holds' if share > 0.5 else 'DOES NOT hold'}; "
        f"top by self time is {top} ({self_s(top) / traced_item_s:.1%})",
    ]
    for name, unit, _, moves in PER_LAYER:
        lines.append(f"  {name:<44} {values[name]:>14.6g} {unit:<12} moves: {moves}")
    lines += _failures(items, outcomes, causes)
    return values, lines, len(outcomes), failed, exact and identical, trc.spans


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, env_lines: list[str]) -> int:
    wl = workloads.WORKLOADS[name]
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        setup_times, cli_main, items = setup(wl, work, seed)
        print(f"perfbench {name}: seed {seed}, {seconds:g} s, trace {int(trace)}; why: {wl.why}")
        for line in env_lines:
            print(line)
        if trace:
            values, lines, attempted, failed, sound, spans = traced(wl, seconds, cli_main, items)
            trace_path = out_dir / f"trace-{name}-seed{seed}.jsonl"
            with open(trace_path, "w") as fh:
                for span in spans:
                    fh.write(json.dumps(span.to_dict()) + "\n")
            lines.append(f"  {len(spans)} spans written to {trace_path.relative_to(root)}")
            units = {m: u for m, u, *_ in PER_LAYER}
        else:
            values, lines, attempted, failed = timed(wl, seconds, setup_times, cli_main, items)
            sound = True
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    result = {
        "correct": sound and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0

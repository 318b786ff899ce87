"""Command-line front end.

Subcommands read the stages of one ``canonical.Analysis`` of a builtin
model or a JSON local term.  Every report embeds the seed and tolerance,
all integers are exact, and outputs are byte-deterministic for a fixed
(input, seed, tol).

Exit codes: 0 success / classified, 2 non-commuting input, 3 commuting but
not scale invariant, 1 I/O or numerical failure.

One way in: ``_read_doc`` reads every input document and refuses any JSON
value that is not an object; ``_term`` reads the local term of a term
document or of a report's ``"h"``.  One way out: each subcommand returns
its report and exit code, and writes only DOT (``graph --dot``) and
``verify``'s progress lines on stderr; ``main`` hands the report, or the
``error`` report of a raised or usage error, to ``_emit``, the one writer,
which puts the seed and tolerance last.  An error report that cannot be
written to the ``--json`` path goes to stdout.

The JSON layout of complex arrays lives here alone.  Every ndarray in a
report is complex and is printed as nested ``[re, im]`` float pairs;
``complex_from_json`` reads them back.  Reports are written as
``json.dumps(doc, indent=2)`` writes them with arrays as those pairs, byte
for byte.  The indented encoder is pure Python, so arrays are printed from
one cached ``%``-template per shape and depth, filled with the
``float.__repr__`` of their entries, and flat dicts of str keys and int
values (census ``dims``, the degeneracy map) from one ``%``-template per
size and depth; everything else goes through ``json.dumps``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bridge as bridge_mod
from . import models
from .canonical import (
    MAX_NORMAL_FORM_ENTRIES,
    Analysis,
    canonical_chain,
    canonical_hamiltonian,
    classify_phase,
)
from .ed import DEFAULT_CAP as DEFAULT_ED_CAP, build_chain, integer_spectrum
from .errors import CommchainError, NotCommuting, NotScaleInvariant, TooLarge
from .graph import export_dot
from .groundspace import (
    DEFAULT_STATE_CAP,
    check_census_size,
    check_ground_size,
    degeneracy,
    ground_states,
    spectral_census,
)
from .operators import DEFAULT_TOL, MIN_TOL, LocalTerm

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NOT_COMMUTING = 2
EXIT_NOT_SCALE_INVARIANT = 3

# Most chain lengths one --N list may name.
MAX_N_LENGTHS = 10_000


class _ReportTooLarge(CommchainError):
    """An exact integer in the report is past the interpreter's int-to-str limit."""


@functools.lru_cache(maxsize=64)
def _array_template(shape: tuple[int, ...], depth: int) -> str:
    """Indented layout of a nested list of this shape opened at ``depth``, a %s per entry."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    inner = _array_template(shape[1:], depth + 1)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + "\n" + "  " * depth + "]"


def _pairs(a: np.ndarray) -> np.ndarray:
    """The [re, im] float pairs of a complex array, shape ``a.shape + (2,)``."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1)


def _plain(obj, depth: int) -> str:
    text = json.dumps(obj, indent=2, default=lambda a: _pairs(a).tolist())
    return text.replace("\n", "\n" + "  " * depth)


def _templated(obj, depth: int) -> str | None:
    """``_dumps(obj, depth)`` if ``obj`` holds an array or an int dict, else None.

    Each value is visited once; the values that hold neither go through
    ``json.dumps``.
    """
    if isinstance(obj, np.ndarray):
        pairs = _pairs(obj)
        flat = pairs.ravel().tolist()
        # json.dumps spells non-finite floats NaN, Infinity and -Infinity.
        text = map(float.__repr__ if np.isfinite(pairs).all() else json.dumps, flat)
        return _array_template(pairs.shape, depth) % tuple(text)
    pad = "\n" + "  " * (depth + 1)
    is_dict = isinstance(obj, dict) and all(isinstance(k, str) for k in obj)
    if is_dict and obj and all(type(v) is int for v in obj.values()):  # bools excluded
        # Census dims, the degeneracy map.  Keys through json's own string
        # encoder, which is what json.dumps returns for a str; %d raises
        # ValueError past the int-to-str limit.
        keys = map(encode_basestring_ascii, obj)
        template = "{" + pad + ("," + pad).join(["%s: %d"] * len(obj)) + "\n" + "  " * depth + "}"
        return template % tuple(chain.from_iterable(zip(keys, obj.values())))
    if is_dict:
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return None
    texts = [_templated(v, depth + 1) for v in values]
    if all(t is None for t in texts):
        return None
    items = [_plain(v, depth + 1) if t is None else t for v, t in zip(values, texts)]
    if is_dict:
        items = [f"{json.dumps(k)}: {t}" for k, t in zip(obj, items)]
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _dumps(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)``, arrays as [re, im] pairs, for a value opened at ``depth``."""
    text = _templated(obj, depth)
    return _plain(obj, depth) if text is None else text


def _write(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit(doc: dict, args) -> None:
    """Write ``doc``, with the run's seed and tolerance last, to ``--json`` or stdout."""
    try:
        text = _dumps({**doc, "seed": args.seed, "tol": args.tol}) + "\n"
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise _ReportTooLarge(f"report not written: {exc}") from exc
    _write(text, getattr(args, "json", None))


def _read_doc(path: str | None) -> dict:
    """The JSON object in ``path`` ('-' or None for stdin); any other JSON value is refused."""
    if path in (None, "-"):
        doc = json.load(sys.stdin)
    else:
        with open(path) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CommchainError("input document is not a JSON object")
    return doc


def complex_from_json(rows) -> np.ndarray:
    """Complex array from its nested [re, im] number pairs."""
    a = np.asarray(rows)
    if a.dtype.kind not in "biuf" or a.ndim == 0 or a.shape[-1] != 2:
        raise ValueError("complex entries must be nested [re, im] number pairs")
    out = np.empty(a.shape[:-1], dtype=complex)
    out.real = a[..., 0]
    out.imag = a[..., 1]
    return out


def _key(doc: dict, key: str, what: str):
    """``doc[key]``; a missing key is a ValueError naming it and the document ``what``."""
    if key not in doc:
        raise ValueError(f"{what} has no {key!r} key")
    return doc[key]


def _term(data, tol: float) -> LocalTerm:
    """The local term of a term object; ``d`` must be a JSON integer."""
    if not isinstance(data, dict):
        raise ValueError("local term is not a JSON object")
    d = _key(data, "d", "local term")
    if type(d) is not int:  # not a float, a bool or a string either
        raise ValueError(f"site dimension d must be a JSON integer, got {d!r}")
    return LocalTerm.symmetrized(d, complex_from_json(_key(data, "matrix", "local term")), tol)


def _s_map(path: str, tol: float) -> bridge_mod.InjectiveMpsMap:
    """The polar-normalized map of the ``"S"`` matrix in the document at ``path``."""
    s = _key(_read_doc(path), "S", "S-matrix document")
    return bridge_mod.polar_normalize(complex_from_json(s), tol)


def _load_term(args) -> LocalTerm:
    if args.model and args.input:
        raise CommchainError("give either --model or --input, not both")
    if args.model:
        return models.builtin(args.model)
    if args.input:
        doc = _read_doc(args.input)
        return _term(doc.get("h", doc), args.tol)
    raise CommchainError("an input is required: --model NAME or --input PATH")


def _parse_n_list(spec: str) -> list[int]:
    """Chain lengths of ``2,5,7..9``; past ``MAX_N_LENGTHS`` lengths it refuses before expanding."""
    parts: list[range] = []
    for part in spec.split(","):
        part = part.strip()
        lo, hi = part.split("..") if ".." in part else (part, part)
        parts.append(range(int(lo), int(hi) + 1))
    count = sum(len(r) for r in parts)
    if count > MAX_N_LENGTHS:
        raise TooLarge(
            f"chain length list {spec!r} has {count} lengths, past the limit {MAX_N_LENGTHS}"
        )
    out = [n for r in parts for n in r]
    if not out or any(n < 1 for n in out):
        raise ValueError(f"bad chain length list {spec!r}")
    return out


def _checked(kind, ok, rule: str):
    """An argparse ``type``: ``kind`` of the text, a usage error unless ``ok``."""

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <__name__> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


_tolerance = _checked(
    float, lambda v: math.isfinite(v) and v >= MIN_TOL, f"must be finite and >= {MIN_TOL:g}"
)
_count = _checked(int, lambda v: v >= 1, "must be >= 1")


def _add_common(sub, needs_input=True):
    if needs_input:
        sub.add_argument("--model", help="builtin model: ising, fig2, zero(d)")
        sub.add_argument("--input", help="local term JSON file ('-' for stdin)")
    rule = f"at least {MIN_TOL:g}, below which rounding alone fails the commutator gate"
    sub.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help=f"default %(default)g; {rule}")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", help="output path (default stdout)")


# Exit code of each stage at which classify_phase stops.
_STAGE_EXIT_CODES = {
    "projectorize": EXIT_FAILURE,
    "check_commuting": EXIT_NOT_COMMUTING,
    "decomposition": EXIT_FAILURE,
    "scale_invariance": EXIT_NOT_SCALE_INVARIANT,
    "classified": EXIT_OK,
}


def cmd_analyze(args) -> tuple[dict, int]:
    report = classify_phase(_load_term(args), args.tol, args.seed)
    return report.to_dict(), _STAGE_EXIT_CODES[report.stage]


def cmd_graph(args) -> tuple[dict | None, int]:
    g = Analysis(_load_term(args), args.tol, args.seed).graph
    if args.dot:
        _write(export_dot(g), args.dot)
    # With DOT on stdout, the report is written only where --json asks for it.
    return (g.to_dict() if args.dot != "-" or args.json else None), EXIT_OK


def _log10_degeneracy(m: np.ndarray, n: int) -> float:
    """Float64 estimate of log10 Tr(M^N) (-inf for a zero trace), in O(nv^3 log N).

    Binary powering with every product rescaled to a largest entry of 1.
    M is nonnegative, so no sum cancels and every entry keeps a relative
    error of order nv * eps per product; entries that underflow only lower
    the estimate.
    """

    def rescaled(a: np.ndarray, log_scale: float) -> tuple[np.ndarray, float]:
        top = float(a.max())
        return (a / top, log_scale + math.log10(top)) if top > 0 else (a, log_scale)

    base, result = np.asarray(m, dtype=float), np.eye(len(m))
    log_base = log_result = 0.0
    while n:
        if n & 1:
            result, log_result = rescaled(result @ base, log_result + log_base)
        n >>= 1
        if n:
            base, log_base = rescaled(base @ base, 2.0 * log_base)
    trace = float(np.trace(result))
    return log_result + math.log10(trace) if trace > 0 else -math.inf


def cmd_degeneracy(args) -> tuple[dict, int]:
    a = Analysis(_load_term(args), args.tol, args.seed)
    n_list = _parse_n_list(args.N)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python < 3.10.7 has no limit
    for n in n_list:
        # Refuse before the exact powering when the float estimate of
        # log10 Tr(M^N) is a decade past the print limit (0 means no limit).
        estimate = _log10_degeneracy(a.graph.M, n) if limit else -math.inf
        if estimate >= limit + 1:
            digits = math.floor(estimate) + 1
            raise _ReportTooLarge(
                f"report not written: the degeneracy at N={n} has about {digits} "
                f"digits, past the {limit}-digit limit for integer string conversion"
            )
    return {"degeneracy": {str(n): degeneracy(a.graph, n) for n in n_list}}, EXIT_OK


def cmd_census(args) -> tuple[dict, int]:
    a = Analysis(_load_term(args), args.tol, args.seed)
    n_list = _parse_n_list(args.N)
    check_census_size(a.graph, n_list)
    return {"census": {str(n): spectral_census(a.graph, n).to_dict() for n in n_list}}, EXIT_OK


def cmd_ground(args) -> tuple[dict, int]:
    a = Analysis(_load_term(args), args.tol, args.seed)
    n_list = _parse_n_list(args.N)
    check_ground_size(a, n_list, args.cap)
    results = {}
    for n in n_list:
        gs = ground_states(a, n, args.cap)
        results[str(n)] = {
            "N": n,
            "truncated": gs.truncated,
            "states": [s.to_dict() for s in gs.states],
        }
    return {"ground_states": results}, EXIT_OK


def cmd_canonical(args) -> tuple[dict, int]:
    if args.k is not None or args.d is not None:
        if args.k is None or args.d is None:
            raise CommchainError("--k and --d must be given together")
        rep = canonical_hamiltonian(args.k, args.d)
        return {"canonical_rep": rep.to_dict(), "k": args.k}, EXIT_OK
    chain = canonical_chain(Analysis(_load_term(args), args.tol, args.seed))
    doc = {
        "k": chain.k,
        "canonical_rep": chain.canonical.to_dict() if chain.canonical else None,
        "pruned": chain.pruned.to_dict(),
        "disentangler": chain.disentangler,
        "site_states": chain.site_states,
    }
    return doc, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    a = Analysis(_load_term(args), args.tol, args.seed)
    n_list = _parse_n_list(args.N)
    all_ok = True
    rows = []
    for n in n_list:
        if a.p.d**n > args.ed_cap:
            # An unchecked length is not a pass.
            all_ok = False
            rows.append({"N": n, "skipped": f"d^N exceeds ed cap {args.ed_cap}"})
            sys.stderr.write(f"N={n}: d^N = {a.p.d**n} exceeds ed cap {args.ed_cap} -> SKIPPED\n")
            continue
        spec = integer_spectrum(build_chain(a.p, n, cap=args.ed_cap))
        census = spectral_census(a.graph, n)
        deg = degeneracy(a.graph, n)
        ed_deg = spec.get(0, 0)
        census_ok = {k: v for k, v in census.dims.items() if v} == spec
        deg_ok = deg == ed_deg
        all_ok = all_ok and census_ok and deg_ok
        rows.append(
            {
                "N": n,
                "degeneracy": deg,
                "ed_kernel_dim": ed_deg,
                "degeneracy_match": deg_ok,
                "census_match": census_ok,
            }
        )
        status = "PASS" if (census_ok and deg_ok) else "FAIL"
        sys.stderr.write(
            f"N={n}: degeneracy {deg} vs ED {ed_deg}, census "
            f"{'ok' if census_ok else 'MISMATCH'} -> {status}\n"
        )
    return {"verify": rows, "all_pass": all_ok}, EXIT_OK if all_ok else EXIT_FAILURE


def _mps_parent(args) -> dict:
    if args.s_matrix:
        m = _s_map(args.s_matrix, args.tol)
    else:
        m = bridge_mod.random_injective_map(args.chi, args.seed)
    res = bridge_mod.mps_parent(m)
    return {
        "h": res.h.to_dict(),
        "P": res.p.to_dict(),
        "S": res.s_map.to_dict(),
        "layout": res.layout,
    }


def _polar_normalize(args) -> dict:
    return _s_map(args.input, args.tol).to_dict()


def _solve_x(args) -> dict:
    doc = _read_doc(args.input)
    h = _term(doc.get("h", doc), args.tol)
    cand = bridge_mod.solve_x(h, args.tol, args.seed)
    return {"h": h.to_dict(), "x_candidate": cand.to_dict() if cand else {"status": "not_found"}}


def _commutify(args) -> dict:
    doc = _read_doc(args.input)
    h = _term(_key(doc, "h", "commutify input"), args.tol)
    xc = doc.get("x_candidate", doc)
    if not isinstance(xc, dict) or "X" not in xc or xc.get("status") == "not_found":
        raise CommchainError("no X candidate in input document")
    res = bridge_mod.commutify(h, complex_from_json(xc["X"]), args.tol)
    return {"h_prime": res.h_prime.to_dict(), "certificate": res.certificate}


# The bridge actions; the keys, in this order, are the parser's choices.
_BRIDGE_ACTIONS = {
    "mps-parent": _mps_parent,
    "solve-x": _solve_x,
    "commutify": _commutify,
    "polar-normalize": _polar_normalize,
}


def cmd_bridge(args) -> tuple[dict, int]:
    return _BRIDGE_ACTIONS[args.action](args), EXIT_OK


def _add_analyze(subs) -> None:
    sp = subs.add_parser("analyze", help="full phase classification report")
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)


def _add_graph(subs) -> None:
    sp = subs.add_parser("graph", help="interaction graph (JSON and DOT)")
    _add_common(sp)
    sp.add_argument("--dot", help="write DOT here ('-' for stdout)")
    sp.set_defaults(func=cmd_graph)


def _add_degeneracy(subs) -> None:
    sp = subs.add_parser("degeneracy", help="exact ground degeneracy over N")
    _add_common(sp)
    sp.add_argument("--N", required=True, help="chain lengths, e.g. 3 or 2..8")
    sp.set_defaults(func=cmd_degeneracy)


def _add_census(subs) -> None:
    sp = subs.add_parser(
        "census",
        help="exact energy census over N (bounded: fig2 up to N=2047, ising up to N=6208)",
    )
    _add_common(sp)
    sp.add_argument("--N", required=True, help="chain lengths, e.g. 3 or 2..8")
    sp.set_defaults(func=cmd_census)


def _add_ground(subs) -> None:
    bound = (
        "bounded: at most 2^20 bond-vector entries, min(cap, degeneracy) x N x d^2 "
        "summed over N (ising up to N=131072)"
    )
    sp = subs.add_parser(
        "ground",
        help=f"explicit ground states ({bound})",
        description=f"Explicit ground states, {bound}.",
    )
    _add_common(sp)
    sp.add_argument("--N", required=True, help="chain lengths, e.g. 4")
    sp.add_argument(
        "--cap", type=_count, default=DEFAULT_STATE_CAP, help="most states per chain length"
    )
    sp.set_defaults(func=cmd_ground)


def _add_canonical(subs) -> None:
    sp = subs.add_parser("canonical", help="canonicalization pipeline / normal form")
    _add_common(sp)
    sp.add_argument("--k", type=int, help="emit the normal form for degeneracy k")
    sp.add_argument(
        "--d",
        type=int,
        help=f"site dimension for --k (bounded: d^4 <= {MAX_NORMAL_FORM_ENTRIES}, so d <= 45)",
    )
    sp.set_defaults(func=cmd_canonical)


def _add_verify(subs) -> None:
    sp = subs.add_parser("verify", help="cross-check against exact diagonalization")
    _add_common(sp)
    sp.add_argument("--N", required=True, help="chain lengths, e.g. 2..6")
    sp.add_argument(
        "--ed-cap",
        type=_count,
        default=DEFAULT_ED_CAP,
        dest="ed_cap",
        help="largest d^N checked by exact diagonalization; a longer chain is skipped "
        "(default %(default)s)",
    )
    sp.set_defaults(func=cmd_verify)


def _add_bridge(subs) -> None:
    sp = subs.add_parser("bridge", help="non-commuting to commuting bridge tools")
    sp.add_argument("action", choices=_BRIDGE_ACTIONS)
    sp.add_argument("--input", help="input JSON document ('-' for stdin)")
    sp.add_argument("--chi", type=_count, default=2, help="bond dimension for mps-parent")
    sp.add_argument("--s-matrix", dest="s_matrix", help="JSON file with an S matrix")
    _add_common(sp, needs_input=False)
    sp.set_defaults(func=cmd_bridge)


# One builder per subcommand, in help order.
_SUBCOMMANDS = {
    "analyze": _add_analyze,
    "graph": _add_graph,
    "degeneracy": _add_degeneracy,
    "census": _add_census,
    "ground": _add_ground,
    "canonical": _add_canonical,
    "verify": _add_verify,
    "bridge": _add_bridge,
}


class _UsageError(CommchainError):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """Writes usage and error to stderr as argparse does, then raises instead of exiting 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        text = f"{self.prog}: error: {message}"
        sys.stderr.write(text + "\n")
        raise _UsageError(text)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; for a known ``command``, with only that subcommand.

    Subcommand parsers are equal either way; the full parser (no or an
    unknown ``command``) is what top-level help and errors need.
    """
    parser = _Parser(
        prog="commchain",
        description="Analyze translation-invariant commuting spin-chain terms.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, add in _SUBCOMMANDS.items():
        if command not in _SUBCOMMANDS or command == name:
            add(subs)
    return parser


# Exit code of each error a subcommand may raise, in the order of the
# checks: NotCommuting and NotScaleInvariant are CommchainErrors, and so is
# _UsageError; JSONDecodeError is a ValueError.
_EXIT_CODES = {
    NotCommuting: EXIT_NOT_COMMUTING,
    NotScaleInvariant: EXIT_NOT_SCALE_INVARIANT,
    CommchainError: EXIT_FAILURE,
    OSError: EXIT_FAILURE,
    ValueError: EXIT_FAILURE,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = argparse.Namespace(seed=0, tol=DEFAULT_TOL)  # what a usage error reports
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        doc, code = args.func(args)
        if doc is not None:
            _emit(doc, args)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        try:
            _emit({"error": str(exc)}, args)
        except OSError as unwritable:  # the --json path: the error report goes to stdout
            code = EXIT_FAILURE
            to_stdout = argparse.Namespace(seed=args.seed, tol=args.tol)
            _emit({"error": f"report not written: {unwritable}"}, to_stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())

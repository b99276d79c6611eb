"""Command-line interface: JSON in, JSON out, deterministic.

Every command prints a CommandResult object: the command echo, parsed
inputs, the result payload, and timing.  All numbers in payloads are
decimal strings.  Exit codes: 0 success, 2 input error, 3 budget refusal
or undecided-at-budget.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from importlib import resources

from . import generic, hn, oracle, roots, series, words
from .errors import BudgetExceeded, InputError
from .quiver import DimVector, Quiver, Stability


def _load_json_arg(text, what):
    if text is None:
        raise InputError(f"missing {what}")
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad {what} JSON: {exc}") from None


def _quiver(args):
    return Quiver.from_json(_load_json_arg(args.quiver, "quiver"))


def _dimvec(text, what="dimension vector"):
    return _dimvec_data(_load_json_arg(text, what), what)


def _int(value):
    """A JSON integer or decimal-integer string; floats and booleans are
    refused rather than truncated or read as 0/1."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{json.dumps(value)} is not an integer")
    return int(value)


def _dimvec_data(data, what):
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    try:
        return DimVector({k: _int(v) for k, v in data.items()})
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {what}: {exc}") from None


def _theta(text):
    data = _load_json_arg(text, "theta")
    if not isinstance(data, dict):
        raise InputError("theta must be a JSON object")
    try:
        return Stability({k: _int(v) for k, v in data.items()})
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad theta: {exc}") from None


def _stringify(obj):
    """Replace every int (except bool) in a JSON-like tree by its decimal
    string."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, list):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    return obj


def _mats_arg(text):
    data = _load_json_arg(text, "matrix tuple")
    if not isinstance(data, list):
        raise InputError("matrix tuple must be a JSON list")
    try:
        return [[[_int(x) for x in row] for row in m] for m in data]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad matrix tuple: {exc}") from None


# ---------------------------------------------------------------------------
# command implementations; each returns (payload, inputs_echo)

def _cmd_euler(args):
    Q = _quiver(args)
    d, e = _dimvec(args.d, "--d"), _dimvec(args.e, "--e")
    return ({"value": Q.euler(d, e)},
            {"quiver": Q.to_json(), "d": d.to_json(), "e": e.to_json()})


def _cmd_root_classify(args):
    Q = _quiver(args)
    d = _dimvec(args.dim, "--dim")
    return (roots.classify_root(Q, d).to_json(),
            {"quiver": Q.to_json(), "dim": d.to_json()})


def _cmd_root_list(args):
    Q = _quiver(args)
    bound = _dimvec(args.bound, "--bound")
    found = [{"dim": d.to_json(), "kind": kind}
             for d, kind in roots.positive_roots_up_to(Q, bound)]
    return ({"roots": found},
            {"quiver": Q.to_json(), "bound": bound.to_json()})


def _cmd_ext(args):
    Q = _quiver(args)
    d, e = _dimvec(args.d, "--d"), _dimvec(args.e, "--e")
    return ({"value": generic.generic_ext(Q, d, e)},
            {"quiver": Q.to_json(), "d": d.to_json(), "e": e.to_json()})


def _cmd_hom(args):
    Q = _quiver(args)
    d, e = _dimvec(args.d, "--d"), _dimvec(args.e, "--e")
    return ({"value": generic.generic_hom(Q, d, e)},
            {"quiver": Q.to_json(), "d": d.to_json(), "e": e.to_json()})


def _cmd_schur(args):
    Q = _quiver(args)
    d = _dimvec(args.dim, "--dim")
    return ({"schur": generic.schur_test(Q, d)},
            {"quiver": Q.to_json(), "dim": d.to_json()})


def _cmd_decompose(args):
    Q = _quiver(args)
    d = _dimvec(args.dim, "--dim")
    parts = generic.generic_decomposition(Q, d)
    return ({"parts": [p.to_json() for p in parts]},
            {"quiver": Q.to_json(), "dim": d.to_json()})


def _cmd_ss_nonempty(args):
    Q = _quiver(args)
    d, th = _dimvec(args.dim, "--dim"), _theta(args.theta)
    return ({"nonempty": hn.ss_nonempty(Q, th, d)},
            {"quiver": Q.to_json(), "dim": d.to_json(), "theta": th.to_json()})


def _cmd_hn_types(args):
    Q = _quiver(args)
    d, th = _dimvec(args.dim, "--dim"), _theta(args.theta)
    types = [t.to_json() for t in hn.hn_types(Q, th, d)]
    return ({"types": types},
            {"quiver": Q.to_json(), "dim": d.to_json(), "theta": th.to_json()})


def _cmd_mass(args):
    Q = _quiver(args)
    d = _dimvec(args.dim, "--dim")
    return ({"mass": hn.mass(Q, d).to_json(variable="q")},
            {"quiver": Q.to_json(), "dim": d.to_json()})


def _cmd_mass_ss(args):
    Q = _quiver(args)
    d, th = _dimvec(args.dim, "--dim"), _theta(args.theta)
    fn = hn.mass_ss_closed if args.method == "closed" else hn.mass_ss
    return ({"mass_ss": fn(Q, th, d).to_json(variable="q"),
             "method": args.method},
            {"quiver": Q.to_json(), "dim": d.to_json(), "theta": th.to_json()})


def _cmd_betti(args):
    Q = _quiver(args)
    d, th = _dimvec(args.dim, "--dim"), _theta(args.theta)
    coeffs = hn.betti_coefficients(Q, th, d, method=args.method)
    return ({"coefficients": coeffs, "method": args.method},
            {"quiver": Q.to_json(), "dim": d.to_json(), "theta": th.to_json()})


def _word_arg(text):
    """A word is spelled 'iij' for single-letter vertices or 'a,a,b' in
    general."""
    if text == "":
        return ()
    return tuple(text.split(",")) if "," in text else tuple(text)


def _cmd_word_leq(args):
    Q = _quiver(args)
    return ({"leq": words.word_leq(Q, _word_arg(args.w), _word_arg(args.w2))},
            {"quiver": Q.to_json(), "w": args.w, "w2": args.w2})


def _cmd_monoid_equal(args):
    Q = _quiver(args)
    budget = words.DEFAULT_WORD_BUDGET if args.budget is None else args.budget
    if budget <= 0:
        raise InputError(f"--budget must be positive, got {budget}")
    outcome = words.monoid_equal(Q, _word_arg(args.w), _word_arg(args.w2),
                                 budget=budget)
    if outcome is words.MonoidOutcome.UNDECIDED:
        raise BudgetExceeded("congruence closure exceeded the word budget",
                             budget=budget)
    return ({"outcome": outcome.value,
             "equal": outcome is words.MonoidOutcome.EQUAL},
            {"quiver": Q.to_json(), "w": args.w, "w2": args.w2})


def _cmd_monoid_normalize(args):
    Q = _quiver(args)
    data = _load_json_arg(args.parts, "--parts")
    if not isinstance(data, list):
        raise InputError("--parts must be a JSON list of dimension vectors")
    parts = [_dimvec_data(p, "--parts entry") for p in data]
    out = words.schur_normal_form(Q, parts)
    return ({"parts": [p.to_json() for p in out]},
            {"quiver": Q.to_json(), "parts": [p.to_json() for p in parts]})


def _cmd_oracle_count(args, which):
    Q = _quiver(args)
    d = _dimvec(args.dim, "--dim")
    q = args.q
    if which == "count-indec":
        count = oracle.count_indecomposable(Q, d, q, budget=args.budget)
        inputs = {"quiver": Q.to_json(), "dim": d.to_json(), "q": q}
    else:
        th = _theta(args.theta)
        fn = oracle.count_semistable if which == "count-ss" else oracle.count_stable
        count = fn(Q, th, d, q, budget=args.budget)
        inputs = {"quiver": Q.to_json(), "dim": d.to_json(),
                  "theta": th.to_json(), "q": q}
    return ({"count": count, "total": oracle.rep_count(Q, d, q)}, inputs)


def _cmd_oracle_generic_ext(args):
    Q = _quiver(args)
    d, e = _dimvec(args.d, "--d"), _dimvec(args.e, "--e")
    val = oracle.min_generic_ext(Q, d, e, args.q, budget=args.budget)
    return ({"min_ext": val},
            {"quiver": Q.to_json(), "d": d.to_json(), "e": e.to_json(),
             "q": args.q})


def _cmd_oracle_kron_quadric(args):
    mats = _mats_arg(args.mats)
    coeffs, rank = oracle.kronecker_quadratic_form(mats, args.q)
    return ({"coefficients": {f"{k},{l}": c for (k, l), c in sorted(coeffs.items())},
             "rank": rank},
            {"mats": mats, "q": args.q})


def _cmd_oracle_comp_series(args):
    Q = _quiver(args)
    word = _word_arg(args.word)
    pts = oracle.comp_series_point_set(Q, word, args.q, budget=args.budget)
    d = words.word_weight(Q, word)
    return ({"count": len(pts), "total": oracle.rep_count(Q, d, args.q)},
            {"quiver": Q.to_json(), "word": args.word, "q": args.q})


def _cmd_series_two_row(args):
    out = series.two_row_partition_series(args.n)
    return ({"coefficients": list(out.coeffs)}, {"n": args.n})


def _cmd_series_drezet(args):
    out = series.drezet_series(args.d_size, args.e_size, args.n)
    return ({"coefficients": list(out.coeffs)},
            {"d": args.d_size, "e": args.e_size, "n": args.n})


def _load_fixtures(path):
    """The fixture list at ``path`` (the bundled table when None), checked
    for shape: a JSON list of objects, each with an "argv" list of strings."""
    if path:
        try:
            with open(path) as fh:
                fixtures = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read fixture file: {exc}") from None
        except ValueError as exc:  # bad JSON or bad encoding
            raise InputError(f"bad fixture JSON: {exc}") from None
    else:
        ref = resources.files("quivermoduli").joinpath("fixtures/k3_tables.json")
        fixtures = json.loads(ref.read_text())
    if not isinstance(fixtures, list):
        raise InputError("fixture file must be a JSON list of fixtures")
    for i, fx in enumerate(fixtures):
        argv = fx.get("argv") if isinstance(fx, dict) else None
        if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
            raise InputError(f'fixture {i} must be an object with an "argv" list '
                             f"of strings")
    return fixtures


def _parse_fixture_argv(name, argv):
    """Parse a fixture's argv; a parse error is an input error, not an exit."""
    usage = io.StringIO()
    try:
        with contextlib.redirect_stdout(usage), contextlib.redirect_stderr(usage):
            args = _parse(argv)
    except InputError as exc:
        raise InputError(f"fixture {name!r}: bad argv: {exc}") from None
    except SystemExit:  # --help
        raise InputError(f"fixture {name!r}: bad argv: exited") from None
    if args.fn is _cmd_fixtures_run:
        raise InputError(f"fixture {name!r}: fixtures cannot run fixtures")
    return args


def _cmd_fixtures_run(args):
    fixtures = _load_fixtures(args.path)
    report = []
    failures = 0
    for fx in fixtures:
        name = fx.get("name", " ".join(fx["argv"]))
        payload, _ = _dispatch(_parse_fixture_argv(name, fx["argv"]))
        payload = _stringify(payload)
        ok = True
        detail = None
        if "expected" in fx:
            want = _stringify(fx["expected"])
            ok = payload == want
            if not ok:
                detail = {"expected": want, "got": payload}
        if ok and "expected_prefix" in fx:
            want = [str(x) for x in fx["expected_prefix"]]
            got = payload.get("coefficients", [])[: len(want)]
            ok = got == want
            if not ok:
                detail = {"expected_prefix": want, "got": got}
        if not ok:
            failures += 1
        entry = {"name": name, "pass": ok}
        if detail:
            entry["diff"] = detail
        report.append(entry)
    payload = {"fixtures": report, "total": len(report), "failed": failures}
    if failures:
        raise _FixtureFailure(payload)
    return payload, {"path": args.path or "bundled k3_tables.json"}


class _FixtureFailure(Exception):
    def __init__(self, payload):
        super().__init__("fixture failures")
        self.payload = payload


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are input errors: exit 2 with JSON, like
    every other bad input.  Subcommand parsers are of the same class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _build_parser():
    ap = _Parser(
        prog="quivermoduli",
        description="Exact invariants of quiver representation varieties")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    qf = {"required": True, "help": "quiver JSON (inline or a file path)"}
    add("euler", _cmd_euler, **{"--quiver": qf, "--d": {"required": True},
                                "--e": {"required": True}})

    root = sub.add_parser("root").add_subparsers(dest="sub", required=True)
    p = root.add_parser("classify")
    p.add_argument("--quiver", **qf)
    p.add_argument("--dim", required=True)
    p.set_defaults(fn=_cmd_root_classify)
    p = root.add_parser("list")
    p.add_argument("--quiver", **qf)
    p.add_argument("--bound", required=True)
    p.set_defaults(fn=_cmd_root_list)

    add("ext", _cmd_ext, **{"--quiver": qf, "--d": {"required": True},
                            "--e": {"required": True}})
    add("hom", _cmd_hom, **{"--quiver": qf, "--d": {"required": True},
                            "--e": {"required": True}})
    add("schur", _cmd_schur, **{"--quiver": qf, "--dim": {"required": True}})
    add("decompose", _cmd_decompose,
        **{"--quiver": qf, "--dim": {"required": True}})
    add("ss-nonempty", _cmd_ss_nonempty,
        **{"--quiver": qf, "--dim": {"required": True},
           "--theta": {"required": True}})
    add("hn-types", _cmd_hn_types,
        **{"--quiver": qf, "--dim": {"required": True},
           "--theta": {"required": True}})
    add("mass", _cmd_mass, **{"--quiver": qf, "--dim": {"required": True}})
    p = add("mass-ss", _cmd_mass_ss,
            **{"--quiver": qf, "--dim": {"required": True},
               "--theta": {"required": True}})
    p.add_argument("--method", choices=["recursive", "closed"],
                   default="recursive")
    p = add("betti", _cmd_betti,
            **{"--quiver": qf, "--dim": {"required": True},
               "--theta": {"required": True}})
    p.add_argument("--method", choices=["closed", "mass"], default="closed")

    word = sub.add_parser("word").add_subparsers(dest="sub", required=True)
    p = word.add_parser("leq")
    p.add_argument("--quiver", **qf)
    p.add_argument("--w", required=True)
    p.add_argument("--w2", required=True)
    p.set_defaults(fn=_cmd_word_leq)

    monoid = sub.add_parser("monoid").add_subparsers(dest="sub", required=True)
    p = monoid.add_parser("equal")
    p.add_argument("--quiver", **qf)
    p.add_argument("--w", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=_cmd_monoid_equal)
    p = monoid.add_parser("normalize")
    p.add_argument("--quiver", **qf)
    p.add_argument("--parts", required=True)
    p.set_defaults(fn=_cmd_monoid_normalize)

    orc = sub.add_parser("oracle").add_subparsers(dest="sub", required=True)
    for which in ("count-ss", "count-stable", "count-indec"):
        p = orc.add_parser(which)
        p.add_argument("--quiver", **qf)
        p.add_argument("--dim", required=True)
        if which != "count-indec":
            p.add_argument("--theta", required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--budget", type=int)
        p.set_defaults(fn=lambda a, w=which: _cmd_oracle_count(a, w))
    p = orc.add_parser("generic-ext")
    p.add_argument("--quiver", **qf)
    p.add_argument("--d", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=_cmd_oracle_generic_ext)
    p = orc.add_parser("kron-quadric")
    p.add_argument("--mats", required=True,
                   help="JSON list of 2x2 integer matrices")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_oracle_kron_quadric)
    p = orc.add_parser("comp-series")
    p.add_argument("--quiver", **qf)
    p.add_argument("--word", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=_cmd_oracle_comp_series)

    ser = sub.add_parser("series").add_subparsers(dest="sub", required=True)
    p = ser.add_parser("two-row")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_series_two_row)
    p = ser.add_parser("drezet")
    p.add_argument("--d", dest="d_size", type=int, required=True)
    p.add_argument("--e", dest="e_size", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_series_drezet)

    fix = sub.add_parser("fixtures").add_subparsers(dest="sub", required=True)
    p = fix.add_parser("run")
    p.add_argument("path", nargs="?")
    p.set_defaults(fn=_cmd_fixtures_run)

    return ap


_PARSER = None


def _parse(argv):
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER.parse_args(argv)


def _dispatch(args):
    return args.fn(args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = None  # until argv parses
    try:
        args = _parse(argv)
        started = time.perf_counter()
        command = " ".join(
            [args.command] + ([args.sub] if getattr(args, "sub", None) else []))
        payload, inputs = _dispatch(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BudgetExceeded as exc:
        err = {"command": command, "error": str(exc),
               "error_class": "budget"}
        if exc.required is not None:
            err["required"] = str(exc.required)
        if exc.budget is not None:
            err["budget"] = str(exc.budget)
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 3
    except _FixtureFailure as exc:
        result = {"command": command, "inputs": {},
                  "result": _stringify(exc.payload),
                  "timing_ms": f"{(time.perf_counter() - started) * 1000:.1f}"}
        print(json.dumps(result, sort_keys=True))
        return 1
    except InputError as exc:
        err = {"command": command, "error": str(exc), "error_class": "input"}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 2
    result = {
        "command": command,
        "inputs": _stringify(inputs),
        "result": _stringify(payload),
        "timing_ms": f"{(time.perf_counter() - started) * 1000:.1f}",
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

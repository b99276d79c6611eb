"""Command-line interface: JSON in, JSON out, deterministic.

Every command prints a CommandResult object: the command echo, parsed
inputs, the result payload, and timing.  All numbers in payloads are
decimal strings.  Exit codes: 0 success, 2 input error, 3 budget refusal
or undecided-at-budget.

Commands and their flags are declared once, in ``_COMMANDS``, and what
``_parse`` needs of each command (its flag index, positional slot and
defaults) is built from that table at import.  ``_parse`` reads argv in
one walk, converting and checking each value when it reaches it, so the
first usage error in argv order is the one reported.  ``_read`` reads a
parsed command's flags in declared order with their echoes, which ``main``
prints as the inputs (on exit 1 from failing fixtures too), and
``_answer`` encodes the result of its payload function.  ``main`` joins the printed
object from JSON texts: the echo of each input (encoded once per inline
JSON text and per value of a plain flag, and on every call for the other
flags) and the encoded result.

In a long-lived process the encoded result of each ``--quiver`` command
outside the ``oracle`` group is kept in the quiver's memo store, keyed by
the command and the echo of every other input (``--method`` and
``--budget`` by value), so ``clear_caches`` empties it with every other
memo.  Argv reading and every flag's checks still run on every call, and
a refusal is never kept, so it repeats.  ``oracle`` commands read
``QI_BUDGET`` on every call, ``fixtures run`` reads a file and ``series``
has no quiver: none of them is kept.
``--help`` or ``-h`` prints the table as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import namedtuple
from functools import lru_cache
from importlib import resources

from . import generic, hn, oracle, roots, series, words
from .errors import BudgetExceeded, InputError
from .quiver import DimVector, Quiver, Stability, _context


def _inline(text):
    """Whether ``text`` is inline JSON: its first non-blank character is { or [."""
    return text.lstrip()[:1] in ("{", "[")


def _int(value):
    """A JSON integer or decimal-integer string; floats and booleans are
    refused rather than truncated or read as 0/1."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{json.dumps(value)} is not an integer")
    return int(value)


def _vector_data(cls, data, what):
    """A DimVector or Stability (``cls``) from a JSON object of integers."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    try:
        return cls({k: _int(v) for k, v in data.items()})
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {what}: {exc}") from None


def _stringify(obj):
    """Replace every int (except bool) in a JSON-like tree by its decimal
    string.  A list or dict converts its int leaves itself, with no call
    per leaf."""
    kind = type(obj)
    if kind is list:
        return [str(x) if type(x) is int else _stringify(x) for x in obj]
    if kind is dict:
        return {k: str(v) if type(v) is int else _stringify(v) for k, v in obj.items()}
    if kind is bool or not isinstance(obj, int):
        return obj
    return str(obj)


def _encode(obj):
    """``obj`` as printed: JSON text with every int a decimal string and
    keys sorted."""
    return json.dumps(_stringify(obj), sort_keys=True)


def _mats(data):
    if not isinstance(data, list):
        raise InputError("matrix tuple must be a JSON list")
    try:
        return tuple(tuple(tuple(_int(x) for x in row) for row in m) for m in data)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad matrix tuple: {exc}") from None


def _parts(data):
    if not isinstance(data, list):
        raise InputError("--parts must be a JSON list of dimension vectors")
    return tuple(_vector_data(DimVector, p, "--parts entry") for p in data)


def _word(text):
    """A word is spelled 'iij' for single-letter vertices or 'a,a,b' in
    general."""
    if text == "":
        return ()
    return tuple(text.split(",")) if "," in text else tuple(text)


def _budget(value):
    if value is not None and value <= 0:
        raise InputError(f"--budget must be positive, got {value}")
    return value


def _same(value):
    return value


# ---------------------------------------------------------------------------
# flags: each is declared once and shared by the commands that take it

_Flag = namedtuple("_Flag", "name kw read")


def _flag(name, read=_same, echo=None, **kw):
    """The flag ``name`` with keywords ``kw``: ``type`` converts its text,
    ``choices`` lists the values allowed, ``default`` stands in when it is
    absent, ``required`` makes it compulsory and ``help`` describes it in
    --help.  A name without dashes is the command's one optional
    positional.  After parsing, the flag's ``read`` turns its text into a
    pair: the value the payload function gets, ``read(text)``, and its entry
    of the inputs, ``echo`` of that value encoded by :func:`_encode` (None
    when ``echo`` is None).  A plain flag, whose value and echo are its
    converted text, reads through :func:`_plain`."""
    if read is _same and echo is _same:
        load = _plain
    else:
        def load(text):
            value = read(text)
            return value, None if echo is None else _encode(echo(value))

    return _Flag(name, kw, load)


@lru_cache(maxsize=1024)
def _plain(value):
    """The value of a plain flag and its echo, encoded once per value (a
    string or an int, both immutable)."""
    return value, _encode(value)


@lru_cache(maxsize=1024)
def _inline_json(load, text):
    """``load(text)`` for inline JSON ``text``, computed once per loader and
    text; an error is raised again on every call, as lru_cache keeps only
    returns."""
    return load(text)


def _json_flag(name, parse, what, echo=lambda value: value.to_json(), **kw):
    """A required flag of JSON, inline or a file path, that ``parse`` turns
    into an immutable value, whose ``echo`` is its entry of the inputs.
    Inline text is parsed and its echo encoded once per text, with no file
    lookup; a file path is read on every call, as the file may change."""
    def load(text):
        if not _inline(text) and os.path.exists(text):
            try:
                with open(text) as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:  # a directory, bad bytes
                raise InputError(f"cannot read {what} file: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad {what} JSON: {exc}") from None
        value = parse(data)
        return value, _encode(echo(value))

    return _Flag(name, dict(kw, required=True),
                 lambda text: _inline_json(load, text) if _inline(text) else load(text))


def _vector(name, cls=DimVector, what=None):
    what = what or name
    return _json_flag(name, lambda data: _vector_data(cls, data, what), what)


def _method(*choices):
    return _flag("--method", choices=list(choices), default=choices[0])


# a Quiver is immutable and keeps the arrow order of its text
_QUIVER = _json_flag("--quiver", Quiver.from_json, "quiver",
                     help="quiver JSON (inline or a file path)")
_D, _E, _DIM, _BOUND = map(_vector, ("--d", "--e", "--dim", "--bound"))
_THETA = _vector("--theta", Stability, "theta")
_W, _W2 = (_flag(name, echo=_same, required=True) for name in ("--w", "--w2"))
_Q = _flag("--q", echo=_same, type=int, required=True)
_N = _flag("--n", echo=_same, type=int, required=True)
_BUDGET = _flag("--budget", _budget, type=int)


# ---------------------------------------------------------------------------
# payload functions that do more than one call

def _monoid_equal(Q, w, w2, budget):
    budget = words.DEFAULT_WORD_BUDGET if budget is None else budget
    outcome = words.monoid_equal(Q, _word(w), _word(w2), budget=budget)
    if outcome is words.MonoidOutcome.UNDECIDED:
        raise BudgetExceeded("congruence closure exceeded the word budget",
                             budget=budget)
    return {"outcome": outcome.value,
            "equal": outcome is words.MonoidOutcome.EQUAL}


def _counted(count, Q, d, q):
    return {"count": count, "total": oracle.rep_count(Q, d, q)}


def _kron_quadric(mats, q):
    coeffs, rank = oracle.kronecker_quadratic_form(mats, q)
    return {"coefficients": {f"{k},{l}": c for (k, l), c in sorted(coeffs.items())},
            "rank": rank}


def _comp_series(Q, text, q, budget):
    word = _word(text)
    count = oracle.count_comp_series(Q, word, q, budget=budget)
    return _counted(count, Q, words.word_weight(Q, word), q)


def _load_fixtures(path):
    """The fixture list at ``path`` (the bundled table when None), checked
    for shape: a JSON list of objects, each with an "argv" list of strings
    and, if any, a "name" string and an "expected_prefix" list."""
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
        if not isinstance(fx.get("name", ""), str):
            raise InputError(f'fixture {i}: "name" must be a string')
        if not isinstance(fx.get("expected_prefix", []), list):
            raise InputError(f'fixture {i}: "expected_prefix" must be a list')
    return fixtures


def _parse_fixture_argv(name, argv):
    """Parse a fixture's argv; a usage error or a request for help is an
    input error of the fixture file."""
    try:
        key, values = _parse(argv)
    except InputError as exc:
        raise InputError(f"fixture {name!r}: bad argv: {exc}") from None
    except _Help:
        raise InputError(f"fixture {name!r}: bad argv: asks for help") from None
    if key == "fixtures run":
        raise InputError(f"fixture {name!r}: fixtures cannot run fixtures")
    return key, values


def _fixtures_run(path):
    report = []
    failures = 0
    for fx in _load_fixtures(path):
        name = fx.get("name", " ".join(fx["argv"]))
        key, texts = _parse_fixture_argv(name, fx["argv"])
        try:
            payload = _stringify(_COMMANDS[key][1](*_read(key, texts)[0]))
        except InputError as exc:
            raise InputError(f"fixture {name!r}: {exc}") from None
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"fixture {name!r}: {exc}", exc.required,
                                 exc.budget) from None
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
    return payload


class _FixtureFailure(Exception):
    def __init__(self, payload):
        super().__init__("fixture failures")
        self.payload = payload


# ---------------------------------------------------------------------------
# the command table: name -> (flags in parse and read order, payload function
# of their values).  A two-word name is a subcommand of its first word.

_COMMANDS = {
    "euler": ((_QUIVER, _D, _E), lambda Q, d, e: {"value": Q.euler(d, e)}),
    "root classify": ((_QUIVER, _DIM),
                      lambda Q, d: roots.classify_root(Q, d).to_json()),
    "root list": ((_QUIVER, _BOUND), lambda Q, bound: {"roots": [
        {"dim": d.to_json(), "kind": kind}
        for d, kind in roots.positive_roots_up_to(Q, bound)]}),
    "ext": ((_QUIVER, _D, _E),
            lambda Q, d, e: {"value": generic.generic_ext(Q, d, e)}),
    "hom": ((_QUIVER, _D, _E),
            lambda Q, d, e: {"value": generic.generic_hom(Q, d, e)}),
    "schur": ((_QUIVER, _DIM), lambda Q, d: {"schur": generic.schur_test(Q, d)}),
    "decompose": ((_QUIVER, _DIM), lambda Q, d: {
        "parts": [p.to_json() for p in generic.generic_decomposition(Q, d)]}),
    "ss-nonempty": ((_QUIVER, _DIM, _THETA),
                    lambda Q, d, th: {"nonempty": hn.ss_nonempty(Q, th, d)}),
    "hn-types": ((_QUIVER, _DIM, _THETA), lambda Q, d, th: {
        "types": [t.to_json() for t in hn.hn_types(Q, th, d)]}),
    "mass": ((_QUIVER, _DIM),
             lambda Q, d: {"mass": hn.mass(Q, d).to_json(variable="q")}),
    "mass-ss": ((_QUIVER, _DIM, _THETA, _method("recursive", "closed")),
                lambda Q, d, th, method: {
                    "mass_ss": (hn.mass_ss_closed if method == "closed" else hn.mass_ss)(
                        Q, th, d).to_json(variable="q"),
                    "method": method}),
    "betti": ((_QUIVER, _DIM, _THETA, _method("closed", "mass")),
              lambda Q, d, th, method: {
                  "coefficients": hn.betti_coefficients(Q, th, d, method=method),
                  "method": method}),
    "word leq": ((_QUIVER, _W, _W2),
                 lambda Q, w, w2: {"leq": words.word_leq(Q, _word(w), _word(w2))}),
    "monoid equal": ((_QUIVER, _W, _W2, _BUDGET), _monoid_equal),
    "monoid normalize": (
        (_QUIVER, _json_flag("--parts", _parts, "--parts",
                             lambda parts: [p.to_json() for p in parts])),
        lambda Q, parts: {"parts": [p.to_json()
                                    for p in words.schur_normal_form(Q, parts)]}),
    "oracle count-ss": ((_QUIVER, _DIM, _THETA, _Q, _BUDGET),
                        lambda Q, d, th, q, budget: _counted(
                            oracle.count_semistable(Q, th, d, q, budget=budget), Q, d, q)),
    "oracle count-stable": ((_QUIVER, _DIM, _THETA, _Q, _BUDGET),
                            lambda Q, d, th, q, budget: _counted(
                                oracle.count_stable(Q, th, d, q, budget=budget), Q, d, q)),
    "oracle count-indec": ((_QUIVER, _DIM, _Q, _BUDGET),
                           lambda Q, d, q, budget: _counted(
                               oracle.count_indecomposable(Q, d, q, budget=budget),
                               Q, d, q)),
    "oracle generic-ext": ((_QUIVER, _D, _E, _Q, _BUDGET),
                           lambda Q, d, e, q, budget: {
                               "min_ext": oracle.min_generic_ext(Q, d, e, q,
                                                                 budget=budget)}),
    "oracle kron-quadric": ((_json_flag("--mats", _mats, "matrix tuple",
                                        lambda mats: [list(map(list, m)) for m in mats],
                                        help="JSON list of 2x2 integer matrices"), _Q),
                            _kron_quadric),
    "oracle comp-series": ((_QUIVER, _flag("--word", echo=_same, required=True), _Q,
                            _BUDGET), _comp_series),
    "series two-row": ((_N,), lambda n: {
        "coefficients": list(series.two_row_partition_series(n))}),
    "series drezet": ((_flag("--d", echo=_same, type=int, required=True),
                       _flag("--e", echo=_same, type=int, required=True),
                       _N),
                      lambda d, e, n: {
                          "coefficients": list(series.drezet_series(d, e, n))}),
    "fixtures run": ((_flag("path", echo=lambda path: path or "bundled k3_tables.json",
                            help="fixture file (the bundled table when omitted)"),),
                     _fixtures_run),
}


# ---------------------------------------------------------------------------
# argv reader and runner

_PROG = "quivermoduli"
# the commands whose encoded result the quiver's memo keeps: those on a
# quiver, but not the oracle's, which read QI_BUDGET on every call
_KEPT = frozenset(key for key, (flags, _) in _COMMANDS.items()
                  if flags[0] is _QUIVER and key.partition(" ")[0] != "oracle")
_HELP = ("--help", "-h")
_GROUPS = {key.partition(" ")[0] for key in _COMMANDS if " " in key}


def _reader(key, flags):
    """What ``_parse`` reads the command ``key`` by: its usage prefix,
    {flag name: (its position, name, type, choices)}, that entry of its
    positional or None, its defaults, and (position, name) of each required
    flag."""
    entries = [(i, f.name, f.kw.get("type"), f.kw.get("choices"))
               for i, f in enumerate(flags)]
    return (f"{_PROG} {key}", {e[1]: e for e in entries},
            next((e for e in entries if not e[1].startswith("-")), None),
            [f.kw.get("default") for f in flags],
            [e[:2] for f, e in zip(flags, entries) if f.kw.get("required")])


_READERS = {key: _reader(key, flags) for key, (flags, _) in _COMMANDS.items()}


class _Help(Exception):
    """Raised by ``_parse`` on --help or -h; ``doc`` is the JSON to print."""

    def __init__(self, doc):
        super().__init__("help")
        self.doc = doc


def _commands_help(group=None):
    """The commands, or those of one group word."""
    return {"commands": [key for key in _COMMANDS
                         if group is None or key.partition(" ")[0] == group]}


def _flags_help(key):
    return {"command": key, "flags": [
        {"name": f.name, "required": f.kw.get("required", False),
         "choices": f.kw.get("choices"), "default": f.kw.get("default"),
         "help": f.kw.get("help")}
        for f in _COMMANDS[key][0]]}


def _command(argv):
    """The command key that ``argv`` starts with, and its number of words."""
    word = argv[0] if argv else None
    if word in _COMMANDS and " " not in word:
        return word, 1
    if word in _GROUPS:
        sub = argv[1] if len(argv) > 1 else None
        key = f"{word} {sub}"
        if key in _COMMANDS:
            return key, 2
        if sub in _HELP:
            raise _Help(_commands_help(word))
        if sub is None:
            raise InputError(f"{_PROG} {word}: the following arguments are required: "
                             f"subcommand")
        raise InputError(f"{_PROG} {word}: unknown subcommand {sub!r}; "
                         f"--help lists the commands")
    if word in _HELP:
        raise _Help(_commands_help())
    if word is None:
        raise InputError(f"{_PROG}: the following arguments are required: command")
    raise InputError(f"{_PROG}: unknown command {word!r}; --help lists the commands")


def _parse(argv):
    """The command key of ``argv`` and the text of its flags in declared
    order, each converted by its type, checked against its choices, and
    the default where absent.  Flag names are exact; ``--flag value`` and
    ``--flag=value`` both set a flag, the word after a flag is its value
    even when it starts with a dash, and a repeated flag keeps its last
    value, though every value given is converted and checked.  One walk
    over argv converts and checks each value when it reaches it, and
    raises ``_Help`` on --help or -h, else InputError on the first usage
    error in argv order."""
    key, i = _command(argv)
    prog, index, positional, defaults, required = _READERS[key]
    values = defaults.copy()
    given = set()
    n = len(argv)
    while i < n:
        word = argv[i]
        i += 1
        if word[:1] != "-":
            entry = positional
            if entry is None or entry[0] in given:
                raise InputError(f"{prog}: unrecognized arguments: {word}")
            value = word
        elif word in _HELP:
            raise _Help(_flags_help(key))
        elif word[1:2] != "-":
            raise InputError(f"{prog}: unrecognized arguments: {word}")
        else:
            name, eq, value = word.partition("=")
            entry = index.get(name)
            if entry is None:
                raise InputError(f"{prog}: unrecognized arguments: {name}")
            if not eq:
                if i == n:
                    raise InputError(f"{prog}: argument {name}: expected one argument")
                value = argv[i]
                i += 1
        j, name, convert, choices = entry
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                raise InputError(f"{prog}: argument {name}: invalid "
                                 f"{convert.__name__} value: {value!r}") from None
        if choices is not None and value not in choices:
            raise InputError(f"{prog}: argument {name}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        values[j] = value
        given.add(j)
    missing = [name for j, name in required if j not in given]
    if missing:
        raise InputError(f"{prog}: the following arguments are required: "
                         f"{', '.join(missing)}")
    return key, values


def _read(key, texts):
    """The values of the flags of the command ``key`` that ``_parse`` read
    as ``texts``, and their encoded echoes (None for a flag with no echo)."""
    values, echoes = [], []
    for f, text in zip(_COMMANDS[key][0], texts):
        value, echo = f.read(text)
        values.append(value)
        echoes.append(echo)
    return values, echoes


def _answer(key, values, echoes):
    """The encoded result of the command ``key`` on the flag values and
    echoes that ``_read`` gives.  The result of a command of ``_KEPT`` is
    encoded once per quiver context and echo of the other inputs, a flag
    with no echo by its value."""
    payload = _COMMANDS[key][1]
    if key not in _KEPT:
        return _encode(payload(*values))
    memo = _context(values[0]).memo
    memo_key = (_answer, key, *[value if echo is None else echo
                                for value, echo in zip(values[1:], echoes[1:])])
    result = memo.get(memo_key)
    if result is None:
        result = memo[memo_key] = _encode(payload(*values))
    return result


def _render(command, inputs, result, started):
    """The printed CommandResult, equal to ``json.dumps`` with sorted keys of
    {"command": command, "inputs": {name: echo}, "result": result,
    "timing_ms": ...}, joined from the encoded echoes of the (name, echo)
    pairs ``inputs`` and the encoded ``result``.  Command keys and flag
    names need no JSON escapes."""
    fields = ", ".join(f'"{name}": {echo}' for name, echo in sorted(inputs))
    ms = (time.perf_counter() - started) * 1000
    return (f'{{"command": "{command}", "inputs": {{{fields}}}, "result": {result}, '
            f'"timing_ms": "{ms:.1f}"}}')


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = None  # until argv parses
    try:
        command, texts = _parse(argv)
        started = time.perf_counter()
        values, echoes = _read(command, texts)
        inputs = [(f.name.lstrip("-"), echo)
                  for f, echo in zip(_COMMANDS[command][0], echoes) if echo is not None]
        result = _answer(command, values, echoes)
    except _Help as exc:
        print(json.dumps(exc.doc, sort_keys=True))
        return 0
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
        print(_render(command, inputs, _encode(exc.payload), started))
        return 1
    except InputError as exc:
        err = {"command": command, "error": str(exc), "error_class": "input"}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 2
    print(_render(command, inputs, result, started))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

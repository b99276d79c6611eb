import contextlib
import io
import itertools
import json
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quivermoduli import generic, hn, oracle, roots, series
from quivermoduli import words as word_module  # ``words`` names a strategy below
from quivermoduli.cli import (_COMMANDS, _DIM, _QUIVER, _THETA, _FixtureFailure, _Help,
                              _answer, _inline_json, _parse, main)
from quivermoduli.errors import InputError
from quivermoduli.quiver import VECTOR_BUDGET, Quiver, _contexts

from conftest import reference_echo, reference_parse, reference_render

K3 = json.dumps({"vertices": ["i", "j"],
                 "arrows": [{"from": "i", "to": "j"}] * 3})
A2 = json.dumps({"vertices": ["i", "j"],
                 "arrows": [{"from": "i", "to": "j"}]})
K2 = json.dumps({"vertices": ["i", "j"],
                 "arrows": [{"from": "i", "to": "j"}] * 2})
D11 = '{"i": 1, "j": 1}'
THETA = '{"i": 1}'


def assert_canonical(text):
    """``text`` is one JSON object as ``json.dumps`` with sorted keys prints
    it, and a newline."""
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert_canonical(captured.err if code in (2, 3) else captured.out)
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert set(doc) == {"command", "inputs", "result", "timing_ms"}
    return doc


def value_key(flag):
    """The key of ``flag`` in the tables of flag values below: its name
    without dashes, but d_size and e_size for the integer --d and --e of
    series drezet, which are not dimension vectors."""
    key = flag.name.lstrip("-")
    return f"{key}_size" if flag.kw.get("type") is int and key in ("d", "e") else key


# valid flag values, by value_key
VALID = {"quiver": A2, "d": D11, "e": D11, "dim": D11, "bound": D11, "theta": THETA,
         "q": "3", "w": "ij", "w2": "ji", "word": "ij", "parts": '[{"i": 1}]',
         "mats": "[[[1, 0], [0, 1]]]", "n": "5", "d_size": "1", "e_size": "1"}
BUDGETED = [key for key, (flags, _) in _COMMANDS.items()
            if any(flag.name == "--budget" for flag in flags)]


def valid_pairs(key, budget=None):
    """[flag, value] pairs of a valid argv for the command ``key``: a flag
    with choices at its last choice, and --budget only when given."""
    pairs = []
    for flag in _COMMANDS[key][0]:
        if flag.name == "--budget":
            if budget is not None:
                pairs.append([flag.name, budget])
        elif "choices" in flag.kw:
            pairs.append([flag.name, flag.kw["choices"][-1]])
        else:
            pairs.append([flag.name, VALID[value_key(flag)]])
    return pairs


def as_words(pairs):
    return [word for pair in pairs for word in pair]


def valid_argv(key, budget=None):
    return key.split() + as_words(valid_pairs(key, budget))


class TestBasicCommands:
    def test_euler(self, capsys):
        doc = run_json(capsys, "euler", "--quiver", K3, "--d", D11, "--e", D11)
        assert doc["command"] == "euler"
        assert doc["result"]["value"] == "-1"

    def test_root_classify(self, capsys):
        doc = run_json(capsys, "root", "classify", "--quiver", K3,
                       "--dim", '{"i": 2, "j": 3}')
        assert doc["result"]["kind"] == "imaginary"
        assert doc["command"] == "root classify"

    def test_ext_and_schur(self, capsys):
        doc = run_json(capsys, "ext", "--quiver", K3,
                       "--d", '{"i": 1}', "--e", '{"j": 1}')
        assert doc["result"]["value"] == "3"
        doc = run_json(capsys, "schur", "--quiver", K3,
                       "--dim", '{"i": 2, "j": 3}')
        assert doc["result"]["schur"] is True

    def test_decompose(self, capsys):
        doc = run_json(capsys, "decompose", "--quiver", A2,
                       "--dim", '{"i": 2, "j": 1}')
        parts = [{k: v for k, v in p.items() if v != "0"}
                 for p in doc["result"]["parts"]]
        assert parts == [{"i": "1"}, {"i": "1", "j": "1"}]

    def test_decompose_spelling_does_not_depend_on_cache(self, capsys):
        # parts are written over every vertex, cold and warm, whichever
        # spelling of the zero entry came first
        sparse, full = '{"i": 1}', '{"i": 1, "j": 0}'
        for order in ((sparse, full), (full, sparse)):
            generic.clear_caches()
            for dim in order:
                doc = run_json(capsys, "decompose", "--quiver", A2, "--dim", dim)
                assert doc["result"] == {"parts": [{"i": "1", "j": "0"}]}

    def test_mass_and_betti(self, capsys):
        doc = run_json(capsys, "mass", "--quiver", K3, "--dim", D11)
        assert doc["result"]["mass"]["num"]["variable"] == "q"
        closed = run_json(capsys, "betti", "--quiver", K3, "--dim", D11,
                          "--theta", THETA)
        via_mass = run_json(capsys, "betti", "--quiver", K3, "--dim", D11,
                            "--theta", THETA, "--method", "mass")
        assert closed["result"]["coefficients"] == ["1", "1", "1"]
        assert closed["result"]["coefficients"] == \
            via_mass["result"]["coefficients"]

    def test_mass_ss_methods_agree(self, capsys):
        rec = run_json(capsys, "mass-ss", "--quiver", K3, "--dim",
                       '{"i": 2, "j": 3}', "--theta", THETA)
        clo = run_json(capsys, "mass-ss", "--quiver", K3, "--dim",
                       '{"i": 2, "j": 3}', "--theta", THETA,
                       "--method", "closed")
        assert rec["result"]["mass_ss"] == clo["result"]["mass_ss"]

    @pytest.mark.parametrize("dim, nonempty", [('{"i": 20, "j": 21}', True),
                                               ('{"i": 30, "j": 8}', False)],
                             ids=["20-21", "30-8"])
    def test_ss_nonempty_on_k3(self, capsys, dim, nonempty):
        # King's criterion answers these cold in well under a second
        generic.clear_caches()
        doc = run_json(capsys, "ss-nonempty", "--quiver", K3, "--dim", dim,
                       "--theta", THETA)
        assert doc["result"] == {"nonempty": nonempty}

    def test_word_and_monoid(self, capsys):
        doc = run_json(capsys, "word", "leq", "--quiver", A2,
                       "--w", "ij", "--w2", "ji")
        assert doc["result"]["leq"] is True
        doc = run_json(capsys, "monoid", "equal", "--quiver", A2,
                       "--w", "iij", "--w2", "iji")
        assert doc["result"]["equal"] is True

    def test_long_word_leq(self, capsys):
        # i^n j^n <= j^n i^n is decided by counting, with no search
        n = 200
        start = time.perf_counter()
        doc = run_json(capsys, "word", "leq", "--quiver", K3,
                       "--w", "i" * n + "j" * n, "--w2", "j" * n + "i" * n)
        assert time.perf_counter() - start < 1
        assert doc["result"]["leq"] is True

    def test_oracle_count(self, capsys):
        doc = run_json(capsys, "oracle", "count-ss", "--quiver", A2,
                       "--dim", D11, "--theta", THETA, "--q", "3")
        assert doc["result"] == {"count": "2", "total": "3"}

    def test_series(self, capsys):
        doc = run_json(capsys, "series", "two-row", "--n", "6")
        assert doc["result"]["coefficients"] == \
            ["1", "1", "3", "5", "10", "16", "29"]

    def test_all_numbers_are_strings(self, capsys):
        doc = run_json(capsys, "hn-types", "--quiver", A2, "--dim", D11,
                       "--theta", THETA)

        def only_strings(obj):
            if isinstance(obj, bool) or obj is None:
                return True
            if isinstance(obj, (int, float)):
                return False
            if isinstance(obj, list):
                return all(only_strings(x) for x in obj)
            if isinstance(obj, dict):
                return all(only_strings(v) for v in obj.values())
            return True

        assert only_strings(doc)


D23 = '{"i": 2, "j": 3}'  # theta(d) = 2 and dim d = 5 are coprime
WARM_ARGVS = [
    ["mass", "--quiver", K3, "--dim", D23],
    ["mass-ss", "--quiver", K3, "--dim", D23, "--theta", THETA],
    ["mass-ss", "--quiver", K3, "--dim", D23, "--theta", THETA, "--method", "closed"],
    ["betti", "--quiver", K3, "--dim", D23, "--theta", THETA],
    ["betti", "--quiver", K3, "--dim", D23, "--theta", THETA, "--method", "mass"],
    ["hn-types", "--quiver", K3, "--dim", D23, "--theta", THETA],
    ["decompose", "--quiver", K3, "--dim", D23],
]


class TestWarmSession:
    @pytest.mark.parametrize("argv", WARM_ARGVS,
                             ids=[" ".join(a[:1] + a[7:]) for a in WARM_ARGVS])
    def test_second_answer_equals_first(self, capsys, argv):
        # one process, as a catalog session runs: the first query is cold,
        # the second answers from the memo and must print the same object
        generic.clear_caches()
        first = run_json(capsys, *argv)
        second = run_json(capsys, *argv)
        del first["timing_ms"], second["timing_ms"]
        assert second == first


def rendered():
    """The encoded results that the memo store keeps."""
    return [text for ctx in _contexts.values() for key, text in ctx.memo.items()
            if key[0] is _answer]


def quiver_text(vertices, arrows):
    return json.dumps({"vertices": vertices,
                       "arrows": [{"from": s, "to": t} for s, t in arrows]})


# A3 and the D4 star: vertices, arrows, and the flag values of memo_argvs
MEMO_CASES = {
    "A3": (["1", "2", "3"], [("1", "2"), ("2", "3")], '{"1": 1, "2": 1, "3": 1}',
           '{"1": 1}', "123", "321", '[{"1": 1}, {"2": 1, "3": 1}]'),
    "D4": (["a", "b", "c", "d"], [("a", "d"), ("b", "d"), ("c", "d")],
           '{"a": 1, "b": 1, "c": 1, "d": 1}', '{"a": 1, "b": 1, "c": 1}', "abd", "dba",
           '[{"d": 1}, {"a": 1, "b": 0}]'),
}


def memo_argvs(dim, theta, w, w2, parts):
    """An argv without its --quiver for every command that keeps its result."""
    return [["euler", "--d", dim, "--e", theta], ["root", "classify", "--dim", dim],
            ["root", "list", "--bound", dim], ["ext", "--d", theta, "--e", dim],
            ["hom", "--d", dim, "--e", dim], ["schur", "--dim", dim],
            ["decompose", "--dim", dim],
            ["ss-nonempty", "--dim", dim, "--theta", theta],
            ["hn-types", "--dim", dim, "--theta", theta], ["mass", "--dim", dim],
            ["mass-ss", "--dim", dim, "--theta", theta],
            ["mass-ss", "--dim", dim, "--theta", theta, "--method", "closed"],
            ["betti", "--dim", dim, "--theta", theta],
            ["betti", "--dim", dim, "--theta", theta, "--method", "mass"],
            ["word", "leq", "--w", w, "--w2", w2],
            ["monoid", "equal", "--w", w, "--w2", w2],
            ["monoid", "equal", "--w", w, "--w2", w2, "--budget", "7"],
            ["monoid", "normalize", "--parts", parts]]


class TestRenderedMemo:
    """A kept result prints what the reference renderer prints, cold and
    warm, and only a successful answer is kept."""

    def assert_reference(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == reference_output(argv, json.loads(out)["timing_ms"])

    def test_every_kept_command_is_covered(self):
        kept = {key for key in _COMMANDS
                if _COMMANDS[key][0][0] is _QUIVER and not key.startswith("oracle")}
        argvs = memo_argvs(*MEMO_CASES["A3"][2:])
        assert kept == {" ".join(w for w in argv[:2] if not w.startswith("-"))
                        for argv in argvs}

    @pytest.mark.parametrize("dims", [('{"i": 0, "j": 1}', '{"j": 1}'),
                                      ('{"j": 1}', '{"i": 0, "j": 1}')])
    def test_zero_entries_are_kept_apart(self, capsys, dims):
        # the endpoint of classify keeps the keys it was given, so the two
        # spellings print different results though their DimVectors are equal
        generic.clear_caches()
        for dim in dims + dims:
            self.assert_reference(capsys, ["root", "classify", "--quiver", K2,
                                           "--dim", dim])
        assert len(rendered()) == 2

    @pytest.mark.parametrize("name", list(MEMO_CASES))
    def test_arrow_orders_share_a_result(self, capsys, name):
        vertices, arrows, *values = MEMO_CASES[name]
        texts = [quiver_text(vertices, arrows), quiver_text(vertices, arrows[::-1])]
        argvs = memo_argvs(*values)
        for order in (texts, texts[::-1]):
            generic.clear_caches()
            for text in order:
                for argv in argvs:
                    self.assert_reference(capsys, argv + ["--quiver", text])
            # the two quivers are equal: one context, one entry per argv
            assert len(rendered()) == len(argvs)

    @pytest.mark.parametrize("name", list(MEMO_CASES))
    def test_warm_pass_computes_nothing(self, capsys, monkeypatch, name):
        # a warm pass answers every kept command from the rendered result
        # alone: no public function below the CLI runs
        vertices, arrows, *values = MEMO_CASES[name]
        argvs = [argv + ["--quiver", quiver_text(vertices, arrows)]
                 for argv in memo_argvs(*values)]

        def answers():
            out = [run_json(capsys, *argv) for argv in argvs]
            for doc in out:
                del doc["timing_ms"]
            return out

        def refuse(*args, **kwargs):
            raise AssertionError("a warm answer computed")

        generic.clear_caches()
        cold = answers()
        for module in (hn, generic, roots, word_module):
            for attr in module.__all__:
                if attr != "clear_caches" and not isinstance(getattr(module, attr), type):
                    monkeypatch.setattr(module, attr, refuse)
        monkeypatch.setattr(Quiver, "euler", refuse)
        assert answers() == cold

    def test_clear_caches_empties_the_memo(self, capsys, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return classify(*args)

        classify = roots.classify_root
        monkeypatch.setattr(roots, "classify_root", spy)
        generic.clear_caches()
        argv = ["root", "classify", "--quiver", K3, "--dim", D23]
        self.assert_reference(capsys, argv)
        self.assert_reference(capsys, argv)
        # one call for each reference render, one for the cold answer
        assert len(calls) == 3 and len(rendered()) == 1
        generic.clear_caches()
        assert rendered() == []
        run_json(capsys, *argv)
        assert len(calls) == 4 and len(rendered()) == 1

    @pytest.mark.parametrize("argv, code, error", [
        (["betti", "--dim", '{"i": 2, "j": 2}', "--theta", THETA], 2,
         "theta(d) = 2 and dim d = 4 are not coprime"),
        (["mass", "--dim", '{"i": 1000}'], 3, "has a denominator of degree 500500"),
        (["betti", "--dim", '{"i": 0}', "--theta", THETA], 2,
         "the zero vector has no moduli space"),
    ], ids=["non-coprime", "over-budget", "zero-vector"])
    def test_refusals_repeat_and_are_not_kept(self, capsys, argv, code, error):
        generic.clear_caches()
        argv = argv + ["--quiver", K3]
        cold = run(capsys, *argv)
        assert cold[0] == code and error in json.loads(cold[2])["error"]
        assert rendered() == []
        # the same refusal once the quiver's context holds a kept answer
        run_json(capsys, "mass", "--quiver", K3, "--dim", D11)
        kept = rendered()
        assert run(capsys, *argv) == cold
        assert run(capsys, *argv) == cold
        assert rendered() == kept

    def test_oracle_reads_its_budget_on_every_call(self, capsys, monkeypatch):
        generic.clear_caches()
        argv = ["oracle", "count-ss", "--quiver", A2, "--dim", D11, "--theta", THETA,
                "--q", "3"]
        assert run_json(capsys, *argv)["result"] == {"count": "2", "total": "3"}
        monkeypatch.setenv("QI_BUDGET", "1")
        code, out, err = run(capsys, *argv)
        assert code == 3 and json.loads(err)["budget"] == "1"
        assert rendered() == []


class TestExitCodes:
    def test_input_error_is_2(self, capsys):
        code, out, err = run(capsys, "euler", "--quiver", K3,
                             "--d", '{"i": -1}', "--e", D11)
        assert code == 2
        assert json.loads(err)["error_class"] == "input"

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["betti", "--quiver", A2, "--dim", D11, "--theta", '{"I": 1}'],
                     "unknown vertex 'I'", id="betti-theta-vertex"),
        pytest.param(["oracle", "count-ss", "--quiver", A2, "--dim", D11,
                      "--theta", '{"I": 1}', "--q", "3"],
                     "unknown vertex 'I'", id="count-ss-theta-vertex"),
        pytest.param(["monoid", "normalize", "--quiver", A2, "--parts", "[3]"],
                     "must be a JSON object", id="normalize-part-not-object"),
        pytest.param(["monoid", "normalize", "--quiver", A2,
                      "--parts", '[{"i": "x"}]'],
                     "bad --parts entry", id="normalize-part-not-integer"),
        pytest.param(["oracle", "kron-quadric", "--mats", '[[["a", 0], [0, 1]]]',
                      "--q", "3"], "bad matrix tuple", id="kron-quadric-entry"),
        # floats are not truncated and booleans are not read as 0/1
        pytest.param(["mass", "--quiver", A2, "--dim", '{"i": 1.9, "j": true}'],
                     "bad --dim: 1.9 is not an integer", id="dim-float"),
        pytest.param(["mass", "--quiver", A2, "--dim", '{"i": 1, "j": true}'],
                     "bad --dim: true is not an integer", id="dim-bool"),
        pytest.param(["betti", "--quiver", A2, "--dim", D11, "--theta", '{"i": 1.0}'],
                     "bad theta: 1.0 is not an integer", id="theta-float"),
        pytest.param(["oracle", "count-ss", "--quiver", A2, "--dim", D11,
                      "--theta", '{"i": false}', "--q", "3"],
                     "bad theta: false is not an integer", id="theta-bool"),
        pytest.param(["oracle", "kron-quadric", "--mats", '[[[0.5, 0], [0, 1]]]',
                      "--q", "3"], "bad matrix tuple: 0.5 is not an integer",
                     id="mats-float"),
        pytest.param(["oracle", "kron-quadric", "--mats", '[[[1, 0], [0, true]]]',
                      "--q", "3"], "bad matrix tuple: true is not an integer",
                     id="mats-bool"),
        pytest.param(["monoid", "equal", "--quiver", A2, "--w", "ij", "--w2", "ji",
                      "--budget", "0"], "--budget must be positive, got 0",
                     id="monoid-budget-zero"),
        pytest.param(["monoid", "equal", "--quiver", A2, "--w", "ij", "--w2", "ji",
                      "--budget", "-1"], "--budget must be positive, got -1",
                     id="monoid-budget-negative"),
        # usage errors are input errors too, reported as JSON
        pytest.param(["oracle", "count-indec", "--quiver", A2, "--dim", D11,
                      "--q", "x"], "argument --q: invalid int value: 'x'",
                     id="usage-bad-int"),
        pytest.param(["betti", "--quiver", A2, "--dim", D11],
                     "the following arguments are required: --theta",
                     id="usage-missing-flag"),
        # flag names are exact: an abbreviation is an unknown flag
        pytest.param(["betti", "--quiver", A2, "--dim", D11, "--th", THETA],
                     "unrecognized arguments: --th", id="usage-abbreviated-flag"),
        pytest.param(["series", "two-row", "--n", "6", "stray"],
                     "unrecognized arguments: stray", id="usage-stray-word"),
        pytest.param(["series", "two-row", "--n"],
                     "argument --n: expected one argument", id="usage-no-value"),
        pytest.param(["betti", "--quiver", A2, "--dim", D11, "--theta", THETA,
                      "--method", "recursive"],
                     "argument --method: invalid choice: 'recursive' "
                     "(choose from 'closed', 'mass')", id="usage-bad-choice"),
        # vertex names and arrow ends are JSON strings, nothing else
        pytest.param(["mass", "--quiver", '{"vertices": "ij", "arrows": []}',
                      "--dim", D11], "vertices must be a list of strings",
                     id="quiver-vertices-string"),
        pytest.param(["mass", "--quiver", '{"vertices": [["a"], ["b"]], "arrows": []}',
                      "--dim", D11], "vertices must be a list of strings",
                     id="quiver-vertices-lists"),
        pytest.param(["mass", "--quiver", '{"vertices": {"i": 0, "j": 1}, "arrows": []}',
                      "--dim", D11], "vertices must be a list of strings",
                     id="quiver-vertices-object"),
        pytest.param(["mass", "--quiver",
                      '{"vertices": [1, 2], "arrows": [{"from": 1, "to": 2}]}',
                      "--dim", D11], "vertices must be a list of strings",
                     id="quiver-vertices-numbers"),
        pytest.param(["mass", "--quiver",
                      '{"vertices": ["1", "2"], "arrows": [{"from": 1, "to": 2}]}',
                      "--dim", D11], "from and to are strings",
                     id="quiver-arrow-ends-numbers"),
        pytest.param(["nosuch"], "unknown command 'nosuch'", id="usage-unknown-command"),
        pytest.param(["series two-row", "--n", "6"], "unknown command 'series two-row'",
                     id="usage-joined-command"),
        pytest.param(["oracle"], "required: subcommand", id="usage-no-subcommand"),
        pytest.param([], "required: command", id="usage-empty"),
    ])
    def test_more_input_errors_are_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error_class"] == "input"
        assert message in doc["error"]

    def test_integer_strings_still_accepted(self, capsys):
        as_ints = run_json(capsys, "mass", "--quiver", A2, "--dim", D11)
        as_strings = run_json(capsys, "mass", "--quiver", A2,
                              "--dim", '{"i": "1", "j": "1"}')
        assert as_strings["result"] == as_ints["result"]
        doc = run_json(capsys, "oracle", "kron-quadric", "--q", "3",
                       "--mats", '[[["1", "0"], ["0", "-1"]]]')
        assert doc["result"] == {"coefficients": {"0,0": "2"}, "rank": "1"}
        doc = run_json(capsys, "monoid", "equal", "--quiver", A2,
                       "--w", "ij", "--w2", "ji", "--budget", "1000")
        assert doc["result"]["outcome"] == "not-equal"

    def test_budget_error_is_3(self, capsys):
        code, out, err = run(capsys, "oracle", "count-ss", "--quiver", K3,
                             "--dim", '{"i": 3, "j": 3}', "--theta", THETA,
                             "--q", "5", "--budget", "10")
        assert code == 3
        doc = json.loads(err)
        assert doc["error_class"] == "budget"
        assert doc["budget"] == "10"

    # an entry of 10^30 is refused before any enumeration below d starts
    HUGE = json.dumps({"i": 10 ** 30, "j": 1})

    @pytest.mark.parametrize("argv", [
        ["decompose", "--dim", HUGE], ["schur", "--dim", HUGE],
        ["ext", "--d", HUGE, "--e", D11], ["hom", "--d", HUGE, "--e", D11],
        ["ss-nonempty", "--dim", HUGE, "--theta", THETA],
        ["hn-types", "--dim", HUGE, "--theta", THETA],
        ["mass-ss", "--dim", HUGE, "--theta", THETA],
        ["mass-ss", "--dim", HUGE, "--theta", THETA, "--method", "closed"],
        ["betti", "--dim", HUGE, "--theta", THETA],
        ["betti", "--dim", HUGE, "--theta", THETA, "--method", "mass"],
        ["monoid", "normalize", "--parts", f"[{HUGE}]"],
        ["root", "list", "--bound", HUGE],
    ], ids=lambda argv: " ".join(w for w in argv if w[0] not in "{["))
    def test_huge_entry_is_3(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--quiver", A2)
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error_class"] == "budget"
        assert doc["required"] == str((10 ** 30 + 1) * 2)
        assert doc["budget"] == str(VECTOR_BUDGET)

    # mass and the oracle's subspace count walk range(1, n + 1) and n + 1
    # steps at an entry n; they refuse on the total dimension first
    HUGE_TOTAL = json.dumps({"i": 10 ** 30})

    @pytest.mark.parametrize("argv", [
        ["mass", "--dim", HUGE_TOTAL],
        ["oracle", "count-ss", "--dim", HUGE_TOTAL, "--theta", THETA, "--q", "2"],
    ], ids=["mass", "oracle count-ss"])
    def test_huge_total_dimension_is_3(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--quiver", A2)
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error_class"] == "budget"
        assert doc["required"] == str(10 ** 30)
        assert doc["budget"] == str(VECTOR_BUDGET)

    # K2 at (n, n + 1) reaches a simple root in n reflections; the witness may
    # hold VECTOR_BUDGET of them
    def test_longest_witness_is_classified(self, capsys):
        n = VECTOR_BUDGET
        doc = run_json(capsys, "root", "classify", "--quiver", K2,
                       "--dim", json.dumps({"i": n, "j": n + 1}))
        assert doc["result"]["kind"] == "real"
        assert len(doc["result"]["witness"]) == n

    @pytest.mark.parametrize("n", [VECTOR_BUDGET + 1, 10 ** 30],
                             ids=["budget+1", "10^30"])
    def test_longer_descent_is_3(self, capsys, n):
        start = time.perf_counter()
        code, out, err = run(capsys, "root", "classify", "--quiver", K2,
                             "--dim", json.dumps({"i": n, "j": n + 1}))
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error_class"] == "budget"
        assert doc["budget"] == str(VECTOR_BUDGET)

    # refused on the size of what they would build: the mass's canonical
    # denominator of degree sum d_i (d_i + 1) / 2, and the hyperplanes of
    # F_q^n at the head of the word with q^(n - 1) members each
    @pytest.mark.parametrize("argv, required, budget, seconds", [
        (["mass", "--dim", '{"i": 1000}'], 500500, VECTOR_BUDGET, 1),
        (["oracle", "comp-series", "--word", "i" * 16, "--q", "2"],
         (2 ** 16 - 1) * 2 ** 15, oracle.default_budget("subspace"), 5),
        (["oracle", "comp-series", "--word", "i" * 30, "--q", "2"],
         (2 ** 30 - 1) * 2 ** 29, oracle.default_budget("subspace"), 5),
    ], ids=["mass i=1000", "comp-series i^16", "comp-series i^30"])
    def test_large_result_is_3(self, capsys, argv, required, budget, seconds):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--quiver", A2)
        assert time.perf_counter() - start < seconds
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error_class"] == "budget"
        assert doc["required"] == str(required)
        assert doc["budget"] == str(budget)

    # counts too wide to build or to print are refused on a lower bound:
    # at least 2^cells representations, 2^(dim d) subspace tuples
    @pytest.mark.parametrize("dim, q", [(HUGE, "2"), ('{"i": 100, "j": 100}', "5"),
                                        ('{"i": 3000}', "2")],
                             ids=["2^(10^30) reps", "5^10000 reps", "F_2^3000"])
    def test_unprintable_count_is_3(self, capsys, dim, q):
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "count-ss", "--quiver", A2, "--dim", dim,
                             "--theta", THETA, "--q", q)
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error_class"] == "budget"
        assert doc["error"].startswith("at least 2^")
        assert "required" not in doc

    # 3^12 reps on each side, within the budget; the 3^24 pairs are not, and
    # the generic Ext there (2) is above the bound (1) that ends the search
    def test_generic_ext_pairs_are_budgeted(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "generic-ext", "--quiver", K3,
                             "--d", '{"i": 2, "j": 2}', "--e", '{"i": 2, "j": 2}',
                             "--q", "3")
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error_class"] == "budget"
        assert doc["required"] == str(3 ** 24)
        assert doc["budget"] == str(oracle.default_budget("rep"))

    # n (n + 1) coefficient updates for the two-row series, and
    # n (min(d, n) + min(e, n)) for Drezet's
    @pytest.mark.parametrize("argv, required", [
        (["two-row", "--n", "1000"], 1000 * 1001),
        (["two-row", "--n", "1000000"], 10 ** 6 * (10 ** 6 + 1)),
        (["drezet", "--d", "3", "--e", str(10 ** 9), "--n", "10000000"],
         10 ** 7 * (3 + 10 ** 7)),
    ], ids=["two-row n=1000", "two-row n=10^6", "drezet n=10^7"])
    def test_long_series_is_3(self, capsys, argv, required):
        start = time.perf_counter()
        code, out, err = run(capsys, "series", *argv)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error_class"] == "budget"
        assert doc["required"] == str(required)
        assert doc["budget"] == str(series.UPDATE_BUDGET)

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize("key", BUDGETED)
    def test_nonpositive_budget_is_2(self, capsys, key, budget):
        code, out, err = run(capsys, *valid_argv(key, budget))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == f"--budget must be positive, got {budget}"

    @pytest.mark.parametrize("key", [key for key in BUDGETED if key.startswith("oracle")])
    def test_nonpositive_qi_budget_is_2(self, capsys, monkeypatch, key):
        monkeypatch.setenv("QI_BUDGET", "0")
        code, out, err = run(capsys, *valid_argv(key))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "QI_BUDGET must be positive, got 0"

    def test_monoid_undecided_is_3(self, capsys):
        code, out, err = run(capsys, "monoid", "equal", "--quiver", A2,
                             "--w", "iijj", "--w2", "jjii", "--budget", "1")
        assert code == 3

    def test_bad_json_is_2(self, capsys):
        code, out, err = run(capsys, "euler", "--quiver", "{oops",
                             "--d", D11, "--e", D11)
        assert code == 2


class TestReader:
    def test_repeated_flag_keeps_last_value(self, capsys):
        doc = run_json(capsys, "series", "two-row", "--n", "2", "--n=6")
        assert doc["inputs"] == {"n": "6"}
        assert len(doc["result"]["coefficients"]) == 7

    def test_value_may_start_with_a_dash(self, capsys):
        code, out, err = run(capsys, "series", "two-row", "--n", "-1")
        assert code == 2
        assert json.loads(err) == {"command": "series two-row", "error_class": "input",
                                   "error": "cutoff must be nonnegative"}

    @pytest.mark.parametrize("argv, group", [(["--help"], None), (["-h"], None),
                                             (["oracle", "--help"], "oracle")])
    def test_help_lists_commands_as_json(self, capsys, argv, group):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        commands = json.loads(out)["commands"]
        assert commands == [key for key in _COMMANDS
                            if group is None or key.split()[0] == group]

    @pytest.mark.parametrize("key", list(_COMMANDS))
    def test_help_lists_flags_as_json(self, capsys, key):
        code, out, err = run(capsys, *key.split(), "--help")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["command"] == key
        flags = _COMMANDS[key][0]
        assert [f["name"] for f in doc["flags"]] == [flag.name for flag in flags]
        for entry, flag in zip(doc["flags"], flags):
            assert entry["required"] is flag.kw.get("required", False)
            assert entry["choices"] == flag.kw.get("choices")
            assert entry["default"] == flag.kw.get("default")

    def test_help_after_flags(self, capsys):
        assert run(capsys, "betti", "--quiver", A2, "-h") == run(capsys, "betti", "--help")


class TestFixtures:
    def test_bundled_fixtures_pass(self, capsys):
        code, out, err = run(capsys, "fixtures", "run")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["failed"] == "0"
        assert int(doc["result"]["total"]) >= 10

    def test_failing_fixture_file(self, capsys, tmp_path):
        path = tmp_path / "fx.json"
        path.write_text(json.dumps([{
            "name": "wrong",
            "argv": ["euler", "--quiver", K3, "--d", D11, "--e", D11],
            "expected": {"value": "999"}}]))
        code, out, err = run(capsys, "fixtures", "run", str(path))
        assert code == 1
        doc = json.loads(out)
        assert doc["result"]["failed"] == "1"
        assert doc["inputs"] == {"path": str(path)}

    def test_missing_fixture_file_is_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "fixtures", "run", str(tmp_path / "none.json"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_class"] == "input"

    @pytest.mark.parametrize("text", [
        "{oops",
        '{"argv": ["euler"]}',
        '[{"name": "no argv"}]',
        '[{"argv": "euler"}]',
        '[{"argv": [1, 2]}]',
        '[3]',
        '[{"argv": ["nosuch"]}]',
        '[{"argv": []}]',
        '[{"argv": ["--help"]}]',
        '[{"argv": ["fixtures", "run"]}]',
        *(f'[{{"argv": ["series", "two-row", "--n", "3"], "expected_prefix": {prefix}}}]'
          for prefix in ("5", "null", '{"a": 1}', '"12"')),
        # a name that is not a string, on a fixture that passes and on one
        # whose command fails
        '[{"name": ["x"], "argv": ["series", "two-row", "--n", "3"], '
        '"expected": {"coefficients": [1]}}]',
        '[{"name": 7, "argv": ["series", "two-row", "--n", "10000"]}]',
    ])
    def test_malformed_fixture_file_is_2(self, capsys, tmp_path, text):
        path = tmp_path / "fx.json"
        path.write_text(text)
        code, out, err = run(capsys, "fixtures", "run", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_class"] == "input"

    @pytest.mark.parametrize("argv", [
        ["schur", "--quiver", K3, "--dim", '{"k": 1}'],
        ["series", "two-row", "--n", "10000"],
    ])
    def test_command_error_names_the_fixture(self, capsys, tmp_path, argv):
        # the error object of the command run alone, under "fixtures run"
        # and with the fixture's name before the message
        path = tmp_path / "fx.json"
        path.write_text(json.dumps([{"name": "bad", "argv": argv}]))
        alone, _, err = run(capsys, *argv)
        want = dict(json.loads(err), command="fixtures run")
        want["error"] = f"fixture 'bad': {want['error']}"
        code, out, err = run(capsys, "fixtures", "run", str(path))
        assert code == alone and alone in (2, 3) and out == ""
        assert json.loads(err) == want


class TestFormats:
    def test_quiver_from_file(self, capsys, tmp_path):
        path = tmp_path / "quiver.json"
        path.write_text(K3)
        doc = run_json(capsys, "euler", "--quiver", str(path),
                       "--d", D11, "--e", D11)
        assert doc["result"]["value"] == "-1"

    def test_inline_json_is_not_a_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / D11).write_text('{"i": 2}')
        (tmp_path / K3).write_text(A2)
        doc = run_json(capsys, "euler", "--quiver", K3, "--d", D11, "--e", D11)
        assert doc["inputs"]["d"] == {"i": "1", "j": "1"}
        assert doc["result"]["value"] == "-1"

    def test_inline_quiver_is_parsed_once(self):
        assert _QUIVER.read(A2) is _QUIVER.read(A2)
        assert _QUIVER.read(" " + A2) is not _QUIVER.read(A2)

    def test_quiver_file_is_read_on_every_call(self, capsys, tmp_path):
        path = tmp_path / "quiver.json"
        path.write_text(A2)
        doc = run_json(capsys, "euler", "--quiver", str(path), "--d", D11, "--e", D11)
        assert doc["result"]["value"] == "1"
        path.write_text(K3)
        doc = run_json(capsys, "euler", "--quiver", str(path), "--d", D11, "--e", D11)
        assert len(doc["inputs"]["quiver"]["arrows"]) == 3
        assert doc["result"]["value"] == "-1"

    def test_inline_vector_is_parsed_once(self):
        assert _DIM.read(D11) is _DIM.read(D11)
        assert _DIM.read(D11)[0] is _DIM.read(D11)[0]
        assert _DIM.read(" " + D11)[0] is not _DIM.read(D11)[0]
        # the flags keep their own entries of one text
        assert _THETA.read(D11)[0] is not _DIM.read(D11)[0]
        assert _DIM.read(D11)[1] == '{"i": "1", "j": "1"}'

    def test_vector_file_is_read_on_every_call(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(D11)
        doc = run_json(capsys, "euler", "--quiver", K3, "--d", str(path), "--e", D11)
        assert doc["inputs"]["d"] == {"i": "1", "j": "1"}
        assert doc["result"]["value"] == "-1"
        path.write_text('{"i": 2}')
        doc = run_json(capsys, "euler", "--quiver", K3, "--d", str(path), "--e", D11)
        assert doc["inputs"]["d"] == {"i": "2"}
        assert doc["result"]["value"] == "-4"

    @pytest.mark.parametrize("flag, text", [("--dim", '{"i": 1.5}'), ("--dim", "{oops"),
                                            ("--dim", "[1]"), ("--theta", '{"i": true}'),
                                            ("--quiver", '{"vertices": ["i"]}')])
    def test_bad_inline_text_is_2_every_time(self, capsys, flag, text):
        argv = dict(zip(["--quiver", "--dim", "--theta"], [A2, D11, THETA]))
        argv[flag] = text
        argv = ["ss-nonempty", *itertools.chain.from_iterable(argv.items())]
        first = run(capsys, *argv)
        assert first[0] == 2 and first == run(capsys, *argv)

    @pytest.mark.parametrize("bad", ["directory", "non-utf-8"])
    @pytest.mark.parametrize("flag", ["--quiver", "--dim", "--mats", "--parts"])
    def test_unreadable_json_file_is_2(self, capsys, tmp_path, flag, bad):
        path = tmp_path / "arg.json"
        if bad == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{")
        argv = {"--quiver": ["schur", "--quiver", str(path), "--dim", D11],
                "--dim": ["schur", "--quiver", K3, "--dim", str(path)],
                "--mats": ["oracle", "kron-quadric", "--mats", str(path), "--q", "3"],
                "--parts": ["monoid", "normalize", "--quiver", K3, "--parts", str(path)],
                }[flag]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error_class"] == "input"

    def test_caches_are_bounded(self, capsys):
        size = _inline_json.cache_info().maxsize
        assert size is not None
        for n in range(size + 10):
            assert _DIM.read(f'{{"i": {n}}}')[0]["i"] == n
        assert _inline_json.cache_info().currsize == size
        # an evicted text still reads right
        doc = run_json(capsys, "euler", "--quiver", K3, "--d", '{"i": 0}', "--e", D11)
        assert doc["inputs"]["d"] == {"i": "0"}


# argv fuzzing: small quivers, acyclic or with loops and cycles; dimension
# vectors and theta either well formed (nonzero integer entries on the
# quiver's own vertices) or with stray vertices and non-integer entries; and
# flag values outside their ranges
VERTICES = ["i", "j", "k"]


def quivers(vertices):
    ends = st.sampled_from(vertices)
    forward = list(itertools.combinations(vertices, 2))
    acyclic = st.lists(st.sampled_from(forward), max_size=3) if forward else st.just([])
    return st.one_of(acyclic, st.lists(st.tuples(ends, ends), max_size=3)).map(
        lambda arrows: json.dumps({"vertices": vertices, "arrows": [
            {"from": s, "to": t} for s, t in arrows]}))


def vectors(vertices, values, min_size=0):
    return st.dictionaries(st.sampled_from(vertices), values, min_size=min_size,
                           max_size=3).map(json.dumps)


def dims(vertices):
    return st.one_of(vectors(vertices, st.integers(1, 2), min_size=1),
                     vectors(VERTICES + ["x"], st.one_of(
                         st.integers(-1, 2), st.sampled_from(["1", "x", 1.5, True, None]))))


def thetas(vertices):
    return st.one_of(vectors(vertices, st.integers(-2, 2)),
                     vectors(VERTICES + ["x"], st.one_of(
                         st.integers(-2, 2), st.sampled_from(["-1", 0.5, False]))))


# words of at most 3 letters: a longer comp-series word admits far more
# representations within the budget
words = st.builds(str.join, st.sampled_from(["", ","]),
                  st.lists(st.sampled_from(VERTICES + ["x"]), max_size=3))
entries = st.one_of(st.integers(-2, 2), st.sampled_from(["1", 0.5, True]))
mats = st.lists(st.lists(st.lists(entries, min_size=2, max_size=2), min_size=1,
                         max_size=2), max_size=3).map(json.dumps)


def flag_values(vertices):
    """One strategy per flag, by value_key, for a quiver on ``vertices``."""
    dim = dims(vertices)
    return {"quiver": quivers(vertices), "d": dim, "e": dim, "dim": dim, "bound": dim,
            "theta": thetas(vertices), "w": words, "w2": words, "word": words,
            "parts": st.one_of(st.lists(dim.map(json.loads), max_size=3).map(json.dumps),
                               st.just('{"i": 1}')),
            "mats": mats,
            "q": st.sampled_from(["2", "3", "4", "0", "x"]),
            "budget": st.sampled_from(["50", "1", "0", "-1", "x"]),
            "method": st.sampled_from(["closed", "mass", "recursive", "bogus"]),
            "n": st.sampled_from(["-1", "0", "1", "7", "x"]),
            "d_size": st.sampled_from(["0", "1", "3", "x"]),
            "e_size": st.sampled_from(["0", "1", "3", "x"])}


# every command of the table but fixtures run, which has its own tests
COMMANDS = {key: flags for key, (flags, _) in _COMMANDS.items() if key != "fixtures run"}


@st.composite
def argvs(draw):
    key = draw(st.sampled_from(sorted(COMMANDS)))
    values = flag_values(VERTICES[:draw(st.integers(1, 3))])
    argv = key.split()
    for flag in COMMANDS[key]:
        argv += [flag.name, draw(values[value_key(flag)])]
    return argv


def main_once(argv):
    """Exit code and the one JSON object that ``main(argv)`` printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    text = (err if code else out).getvalue()
    assert (out if code else err).getvalue() == ""
    assert_canonical(text)
    doc = json.loads(text)
    assert isinstance(doc, dict) and ("error" in doc) == (code != 0)
    return code, doc


def json_numbers(doc):
    """The JSON numbers (booleans aside) anywhere in the parsed ``doc``."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in json_numbers(item)]
    return [doc] if type(doc) in (int, float) else []


# reader fuzzing: a valid argv whose flags are shuffled, given as one word
# --flag=value, dropped, repeated, abbreviated, or joined by an unknown flag or a
# stray word
@st.composite
def reordered(draw):
    """A command, its valid argv, and that argv with its flags in another
    order, some given as --flag=value."""
    key = draw(st.sampled_from(sorted(COMMANDS)))
    pairs = valid_pairs(key, budget="1000")
    shuffled = [[f"{name}={value}"] if draw(st.booleans()) else [name, value]
                for name, value in draw(st.permutations(pairs))]
    return key, key.split() + as_words(pairs), key.split() + as_words(shuffled)


def accepts(flag, text):
    """Whether the argv reader takes ``text`` as the value of ``flag``."""
    try:
        value = flag.kw.get("type", str)(text)
    except ValueError:
        return False
    return value in flag.kw.get("choices", [value])


@st.composite
def mangled(draw):
    """A valid argv after a few edits, and whether they made it a usage
    error (exit 2 with command null)."""
    if draw(st.integers(0, 20)) == 0:
        return [], True
    key = draw(st.sampled_from(sorted(COMMANDS)))
    pairs = draw(st.permutations(valid_pairs(key, budget="1000")))
    flags = {flag.name: flag for flag in COMMANDS[key]}
    bad = False
    for edit in draw(st.lists(st.sampled_from(["drop", "repeat", "equals", "abbreviate",
                                               "unknown", "stray"]), max_size=3)):
        if edit in ("unknown", "stray"):
            at = draw(st.integers(0, len(pairs)))
            pairs.insert(at, ["--x", "1"] if edit == "unknown" else ["stray"])
            bad = True
            continue
        known = [i for i, pair in enumerate(pairs) if pair[0] in flags]
        if not known:
            continue
        i = draw(st.sampled_from(known))
        name = pairs[i][0]
        if edit == "drop":
            del pairs[i]
        elif edit == "repeat":
            pairs.insert(draw(st.integers(0, len(pairs))), list(pairs[i]))
        elif edit == "equals":
            pairs[i] = [f"{name}={pairs[i][1]}"]
        elif len(name) > 3:
            # --w2 shortens to --w, another flag of the same command: that
            # is no usage error when the value suits the flag it now names
            short = pairs[i][0] = name[:draw(st.integers(3, len(name) - 1))]
            bad = bad or short not in flags or not accepts(flags[short], pairs[i][1])
    given = {pair[0].partition("=")[0] for pair in pairs}
    bad = bad or any(flag.kw.get("required") and name not in given
                     for name, flag in flags.items())
    return key.split() + as_words(pairs), bad


class TestArgvFuzz:
    @settings(deadline=None, max_examples=250)
    @given(argvs())
    def test_exit_code_and_one_json_object(self, argv):
        main_once(argv)

    @settings(deadline=None, max_examples=150)
    @given(argvs())
    def test_numbers_are_decimal_strings(self, argv):
        code, doc = main_once(argv)
        if code == 0:
            assert not json_numbers(doc)

    @settings(deadline=None, max_examples=150)
    @given(reordered())
    def test_flag_order_and_spelling_do_not_matter(self, case):
        key, argv, shuffled = case
        code, doc = main_once(argv)
        assert code == 0 and doc["command"] == key
        code, same = main_once(shuffled)
        assert code == 0
        del same["timing_ms"], doc["timing_ms"]
        assert same == doc

    @settings(deadline=None, max_examples=250)
    @given(mangled())
    def test_mangled_argv(self, case):
        argv, bad = case
        code, doc = main_once(argv)
        if bad:
            assert code == 2 and doc["command"] is None
        else:
            assert code == 0


def parsed(parse, argv):
    """What ``parse`` makes of ``argv``: its command key and flag values, or
    the class and text of its error."""
    try:
        return parse(argv)
    except (InputError, _Help) as exc:
        return type(exc), str(exc)


class TestArgvPlan:
    """An argv reads as the word-by-word reference walk reads it, and prints
    the same with the caches cold and warm."""

    def assert_cold_equals_warm(self, argv):
        generic.clear_caches()
        assert parsed(_parse, argv) == parsed(reference_parse, argv)
        cold = main_once(argv)
        warm = main_once(argv)
        assert parsed(_parse, argv) == parsed(reference_parse, argv)
        for code, doc in (cold, warm):
            doc.pop("timing_ms", None)
        assert warm == cold

    @settings(deadline=None, max_examples=100)
    @given(argvs())
    # a bad value before an unknown flag is the error reported
    @example(["oracle", "count-ss", "--quiver", A2, "--dim", D11, "--theta", THETA,
              "--q", "x", "--x", "1"])
    @example(["fixtures", "run", "a.json", "b.json"])
    def test_drawn_argv(self, argv):
        self.assert_cold_equals_warm(argv)

    @settings(deadline=None, max_examples=100)
    @given(reordered())
    def test_reordered_argv(self, case):
        key, argv, shuffled = case
        self.assert_cold_equals_warm(argv)
        self.assert_cold_equals_warm(shuffled)

    @settings(deadline=None, max_examples=100)
    @given(mangled())
    @example((["euler", "--quiver", K3, "-x", "--d", D11, "--e", D11], True))
    @example((["oracle", "count-ss", "--quiver", A2, "--dim", D11, "--theta", THETA,
               "--q="], True))
    def test_mangled_argv(self, case):
        self.assert_cold_equals_warm(case[0])

    @pytest.mark.parametrize("good, bad, error", [
        (["--method", "closed"], ["--method", "bogus"],
         "quivermoduli betti: argument --method: invalid choice: 'bogus' "
         "(choose from 'closed', 'mass')"),
        (["--method=mass"], ["--method=bogus"],
         "quivermoduli betti: argument --method: invalid choice: 'bogus' "
         "(choose from 'closed', 'mass')"),
        (["--q", "3"], ["--q", "x"],
         "quivermoduli oracle count-ss: argument --q: invalid int value: 'x'"),
        # every value given is converted, not only the last one kept
        (["--q", "2", "--q", "3"], ["--q", "x", "--q", "3"],
         "quivermoduli oracle count-ss: argument --q: invalid int value: 'x'"),
        # the error names the word of this argv, not of one read before
        (["stray"], ["other"], "quivermoduli betti: unrecognized arguments: other"),
    ], ids=["choice", "choice-equals", "int", "int-repeated", "stray-word"])
    def test_same_shape_other_values(self, capsys, good, bad, error):
        if good[0] == "--q":
            argv = ["oracle", "count-ss", "--quiver", A2, "--dim", D11, "--theta", THETA]
        else:
            argv = ["betti", "--quiver", A2, "--dim", D11, "--theta", THETA]
        code = run(capsys, *argv, *good)[0]
        assert code == (2 if good == ["stray"] else 0)
        for _ in range(2):
            code, out, err = run(capsys, *argv, *bad)
            assert code == 2 and out == ""
            assert json.loads(err) == {"command": None, "error": error,
                                       "error_class": "input"}
        assert parsed(reference_parse, argv + bad) == (InputError, error)


def readme_examples():
    """The quivermoduli lines of README's CLI example, as argv lists."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S)
                 if "quivermoduli " in b)
    q3 = re.search(r"Q3='(.*?)'", block, re.S).group(1)
    return [shlex.split(line.replace('"$Q3"', shlex.quote(q3)))[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("quivermoduli ")]


def test_readme_examples_run(capsys):
    examples = readme_examples()
    assert examples
    for argv in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert isinstance(json.loads(out), dict), argv


def reference_output(argv, timing_ms):
    """What ``main(argv)`` prints on standard output, by the reference
    renderer of conftest, with ``timing_ms`` for the timing."""
    key, texts = _parse(argv)
    flags, payload = _COMMANDS[key]
    values = [flag.read(text)[0] for flag, text in zip(flags, texts)]
    inputs = {flag.name.lstrip("-"): echo for flag, value in zip(flags, values)
              if (echo := reference_echo(flag.name, value)) is not None}
    try:
        result = payload(*values)
    except _FixtureFailure as exc:
        result = exc.payload
    return reference_render(key, inputs, result, timing_ms) + "\n"


BUNDLED = json.loads((Path(__file__).resolve().parent.parent
                      / "src/quivermoduli/fixtures/k3_tables.json").read_text())


class TestOutput:
    """Standard output is the reference renderer's apart from timing_ms."""

    def assert_reference(self, capsys, argv, code=0):
        got, out, err = run(capsys, *argv)
        assert got == code and err == ""
        assert out == reference_output(argv, json.loads(out)["timing_ms"])

    @pytest.mark.parametrize("argv", [fx["argv"] for fx in BUNDLED],
                             ids=[fx["name"] for fx in BUNDLED])
    def test_bundled_fixture_argv(self, capsys, argv):
        self.assert_reference(capsys, argv)

    @pytest.mark.parametrize("key", list(_COMMANDS))
    def test_each_command(self, capsys, key):
        self.assert_reference(capsys, ["fixtures", "run"] if key == "fixtures run"
                              else valid_argv(key, budget="1000"))

    def test_fixture_failure_is_1(self, capsys, tmp_path):
        path = tmp_path / "fx.json"
        path.write_text(json.dumps([
            {"name": "wrong", "argv": ["euler", "--quiver", K3, "--d", D11, "--e", D11],
             "expected": {"value": "999"}},
            {"argv": ["series", "two-row", "--n", "3"], "expected_prefix": [1, 2]}]))
        self.assert_reference(capsys, ["fixtures", "run", str(path)], code=1)

    @pytest.mark.parametrize("argv, code, keys", [
        (["euler", "--quiver", "{oops", "--d", D11, "--e", D11], 2, set()),
        (["euler", "--quiver", A2, "--d", '{"x": 1}', "--e", D11], 2, set()),
        (["nosuch"], 2, set()),
        (["series", "two-row", "--n", "1000000"], 3, {"required", "budget"}),
        (["monoid", "equal", "--quiver", A2, "--w", "iijj", "--w2", "jjii",
          "--budget", "1"], 3, {"budget"}),
        # a JSON string literal is not a quiver, not even one holding quiver JSON
        (["euler", "--quiver", json.dumps(K3), "--d", D11, "--e", D11], 2, set()),
    ])
    def test_error_objects(self, capsys, argv, code, keys):
        got, out, err = run(capsys, *argv)
        assert got == code and out == ""
        doc = json.loads(err)
        assert set(doc) == {"command", "error", "error_class"} | keys
        assert doc["error_class"] == ("input" if code == 2 else "budget")

import ast
import importlib
from collections import Counter
from pathlib import Path

import quivermoduli


def test_no_assert_statements():
    # `python -O` strips assert statements, so the package's invariants are
    # checks that raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(quivermoduli.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_all_names_are_defined():
    # the bench tracer looks up every name in __all__, so a stale entry
    # breaks a traced run
    missing = []
    for path in sorted(Path(quivermoduli.__file__).parent.glob("*.py")):
        name = "quivermoduli" if path.stem == "__init__" else f"quivermoduli.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []


def _loads(node):
    """Counts of the Name ids and Attribute names loaded in ``node``."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs[n.attr] += 1
    return names, attrs


def _private_defs(tree):
    """(name, node, is a method) for the private functions, classes and
    constants at module level and the private methods of its classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item, True) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(t.id, node) for t in targets if isinstance(t, ast.Name)]
        else:
            found = []
        yield from ((name, n, False) for name, n in found)


def test_every_private_name_has_a_caller():
    # each private helper, constant and method is used in the package beyond
    # its own definition: by name in its module or in a module importing it
    # from there, or as an attribute anywhere, so none outlives its last
    # caller
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(quivermoduli.__file__).parent.glob("*.py"))}
    loads = {stem: _loads(tree) for stem, tree in trees.items()}
    attrs = sum((a for _, a in loads.values()), Counter())
    importers = {}
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                for alias in node.names:
                    importers.setdefault((source, alias.name), []).append(stem)
    unused = []
    for stem, tree in trees.items():
        for name, node, method in _private_defs(tree):
            if not name.startswith("_") or name.endswith("__"):
                continue
            own_names, own_attrs = _loads(node)
            uses = attrs[name] - own_attrs[name]
            if not method:
                uses += loads[stem][0][name] - own_names[name]
                uses += sum(loads[other][0][name]
                            for other in importers.get((stem, name), ()))
            if not uses:
                unused.append(f"{stem}.{name}")
    assert unused == []


# Public names that no command, recursion or benchmark workload reaches,
# each with the reason it stays.
RESERVED = {
    "hn.poincare": "the paper's P(v)",
    "generic.generic_subrep": "the generic-subrepresentation test in the README, "
                              "and the King's-criterion reference in test_hn",
    "oracle.enumerate_reps": "the full enumeration that the tests check the slices against",
    "oracle.is_stable": "an oracle predicate that the tests verify against",
    "oracle.is_simple_tuple": "an oracle predicate that the tests verify against",
    "oracle.has_comp_series": "an oracle predicate that the tests verify against",
    "quiver.LoopReduction": "ROADMAP item 14",
    "quiver.birational_type": "ROADMAP item 14",
    "quiver.local_quiver": "ROADMAP item 15",
}


def test_every_public_name_has_a_caller():
    # each name in a module's __all__ is loaded in the package or in the
    # benchmark's modules beyond its own definition, or RESERVED says why it
    # stays; the tests alone are no caller
    package = Path(quivermoduli.__file__).parent
    bench = Path(__file__).resolve().parent.parent / "bench"
    trees = {path: ast.parse(path.read_text())
             for path in [*sorted(package.glob("*.py")), *sorted(bench.glob("*.py"))]}
    loads = Counter()
    for tree in trees.values():
        names, attrs = _loads(tree)
        loads += names + attrs
    unreached = []
    for path in sorted(package.glob("*.py")):
        name = "quivermoduli" if path.stem == "__init__" else f"quivermoduli.{path.stem}"
        defs = {node.name: node for node in trees[path].body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for attr in getattr(importlib.import_module(name), "__all__", ()):
            own = sum(_loads(defs[attr]), Counter())[attr] if attr in defs else 0
            if loads[attr] == own:
                unreached.append(f"{path.stem}.{attr}")
    assert sorted(unreached) == sorted(RESERVED)

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


def _package_and_bench():
    """The package and benchmark directories, the tree of each of their
    modules by path, and the counts of the names loaded over all of them."""
    package = Path(quivermoduli.__file__).parent
    bench = Path(__file__).resolve().parent.parent / "bench"
    trees = {path: ast.parse(path.read_text())
             for path in [*sorted(package.glob("*.py")), *sorted(bench.glob("*.py"))]}
    loads = Counter()
    for tree in trees.values():
        names, attrs = _loads(tree)
        loads += names + attrs
    return package, bench, trees, loads


def test_every_public_name_has_a_caller():
    # each name in a module's __all__ is loaded in the package or in the
    # benchmark's modules beyond its own definition, or RESERVED says why it
    # stays; the tests alone are no caller
    package, _, trees, loads = _package_and_bench()
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


# Methods of the result types that no name in the package or the benchmark
# loads and no tracer entry patches, each with the reason it stays.  The
# interpreter calls a dunder method, so only the tracer's table or this dict
# accounts for one.
KEPT_METHODS = {
    "LaurentPoly.__init__": "a polynomial from a dict of terms, for hn.poincare, "
                            "_as_poly, RationalFunc on an int and bench/test_bench.py",
    "LaurentPoly.__rmul__": "bench/test_bench.py checks that the tracer patches it "
                            "beside __mul__",
    "LaurentPoly.__eq__": "to_polynomial's test for the denominator 1, and "
                          "bench/test_bench.py",
    "RationalFunc.__eq__": "the acceptance criteria compare results with ==",
    "LaurentPoly.__setattr__": "the immutability guard",
    "RationalFunc.__setattr__": "the immutability guard",
    "CycloFrac.__setattr__": "the immutability guard",
}

RESULT_TYPES = {"laurent": ("LaurentPoly", "RationalFunc"), "hn": ("CycloFrac",)}


def _methods(tree, name):
    """(method name, node) for each def in the body of the class ``name`` and
    each alias such as ``__rmul__ = __mul__``."""
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == name)
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name, item
        elif isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
            yield from ((t.id, item) for t in item.targets)


def _traced(tree):
    """(class, attribute) of each entry of the tracer's METHODS table."""
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["METHODS"])
    return {(entry.elts[1].value, entry.elts[2].value) for entry in table.elts}


def test_every_result_type_method_has_a_caller():
    # a method of LaurentPoly, RationalFunc or CycloFrac is loaded by name
    # in the package or the benchmark beyond its own definition, or the
    # benchmark's tracer patches it, or KEPT_METHODS says why it stays; the
    # tests alone are no caller, and neither is a load of a dunder name such
    # as object.__setattr__
    package, bench, trees, loads = _package_and_bench()
    traced = _traced(trees[bench / "tracing.py"])
    unreached = []
    for stem, classes in RESULT_TYPES.items():
        for cls in classes:
            for name, node in _methods(trees[package / f"{stem}.py"], cls):
                dunder = name.startswith("__") and name.endswith("__")
                own = sum(_loads(node), Counter())[name]
                if (dunder or loads[name] == own) and (cls, name) not in traced:
                    unreached.append(f"{cls}.{name}")
    assert sorted(unreached) == sorted(KEPT_METHODS)


def test_only_laurent_imports_fractions():
    # the recursions and the oracle run on integers; Fraction serves only
    # the evaluation at rational points that the benchmark's oracle-verify
    # check reads
    found = [path.stem
             for path in sorted(Path(quivermoduli.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import)
             and any(alias.name == "fractions" for alias in node.names)]
    assert found == ["laurent"]

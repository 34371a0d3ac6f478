"""Tooling guard: each input rule is checked in one place.

- A missing target is rejected only by ``data.py`` (``Dataset.numeric_target``).
- A feature value (a data column, a grid point, a replacement value, an
  explained point, a training or user matrix) passes one rule,
  ``data._codes``: the real-number rule for a continuous feature, a
  registered level (``data._level_codes``, called nowhere else and imported
  by no other module) for a categorical one.  A dataset's columns and its
  numeric target pass only that rule and the real-number rule: neither
  ``Dataset._build`` nor ``_build_target`` holds a finite check of its own.
- A real number (a feature value, an observed range, a real argument or a
  model parameter) is checked by the real-number rule, ``data._real`` and
  its vectorized form ``data._reals``: in every module only they and
  ``data._all_numbers`` ask whether a value is a number, and no other
  module imports ``_is_number``.  ``_all_numbers`` answers for a whole
  column, for ``_infer_meta`` (the one place a column's kind is picked)
  and ``_build_target``.
- A categorical feature where a continuous one is needed is rejected only by
  ``data.py`` (``Dataset.continuous_index``, ``data._reals``);
  ``core.finite_difference`` asks the dataset it builds from its raw vector.
- An integer (a feature index, a row, a count or a seed) is checked only by
  ``data._integer``: no other function names ``numbers.Integral``.
- A seed enters numpy only through ``core._seed_sequence``, which rejects
  negative seeds: no other function builds a ``SeedSequence``, the one
  ``PCG64`` (in ``core.make_rng``) is built from its result, and
  ``default_rng`` is not used.
- A package error becomes an exit status only in ``cli.main``, which reads
  the error type's ``exit_code``: no other function catches a package error
  type, and none sorts errors with ``isinstance``.

A copy of a rule elsewhere would drift from these, as the copies this
guard replaced had.
"""

import ast
from pathlib import Path

from boxprobe import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "boxprobe"
MODULES = sorted(SRC.glob("*.py"))


def _sites(path):
    """Yield ``(enclosing function, node)`` for every node of the module."""

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield inner, child
            yield from walk(child, inner)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), None)


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _raises(path, error):
    for function, node in _sites(path):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _name(exc) == error:
                yield function


def _calls(path, name):
    for function, node in _sites(path):
        if isinstance(node, ast.Call) and _name(node.func) == name:
            yield function, node


def _constructs(path, name):
    return (function for function, _ in _calls(path, name))


def _where(finder, *args):
    return {(path.name, function) for path in MODULES for function in finder(path, *args)}


def test_modules_are_found():
    assert {"core.py", "data.py", "importance.py"} <= {path.name for path in MODULES}


def test_only_data_rejects_a_missing_target():
    assert {module for module, _ in _where(_raises, "MissingTargetError")} == {"data.py"}


def _imports(path, name):
    for function, node in _sites(path):
        if isinstance(node, ast.ImportFrom) and name in {alias.name for alias in node.names}:
            yield function


def test_only_codes_holds_the_value_rule():
    assert _where(_constructs, "_is_number") == {
        ("data.py", "_real"),
        ("data.py", "_reals"),
        ("data.py", "_all_numbers"),
    }
    assert _where(_constructs, "_all_numbers") == {("data.py", "_infer_meta"), ("data.py", "_build_target")}
    assert ("data.py", "_codes") in _where(_constructs, "_reals")
    assert _where(_constructs, "_level_codes") == {("data.py", "_codes")}
    assert _where(_imports, "_is_number") == _where(_imports, "_level_codes") == set()


def test_a_dataset_checks_its_columns_and_target_only_by_the_value_rule():
    builders = {("data.py", "_build"), ("data.py", "_build_target")}
    assert not builders & _where(_constructs, "isfinite")
    assert ("data.py", "_build") in _where(_constructs, "_codes")
    assert ("data.py", "_build_target") in _where(_constructs, "_reals")


def test_only_data_rejects_a_wrong_kind():
    sites = _where(_raises, "UnsupportedKindError")
    assert {module for module, _ in sites} == {"data.py"}
    assert ("data.py", "continuous_index") in sites


def _names(path, name):
    for function, node in _sites(path):
        if _name(node) == name:
            yield function


def test_only_the_integer_rule_names_integral():
    assert _where(_names, "Integral") == {("data.py", "_integer")}


def test_seeds_enter_numpy_in_one_function():
    assert _where(_constructs, "SeedSequence") == {("core.py", "_seed_sequence")}
    assert _where(_constructs, "PCG64") == {("core.py", "make_rng")}
    assert _where(_constructs, "default_rng") == set()
    [(_, call)] = _calls(SRC / "core.py", "PCG64")
    assert len(call.args) == 1 and not call.keywords
    assert _name(getattr(call.args[0], "func", None)) == "_seed_sequence"


ERROR_TYPES = {name for name, obj in vars(errors).items() if isinstance(obj, type)}


def _handled(path):
    for function, node in _sites(path):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for name in map(_name, types):
                yield function, name


def test_package_errors_are_caught_only_in_main():
    sites = {
        (path.name, function)
        for path in MODULES
        for function, name in _handled(path)
        if name in ERROR_TYPES
    }
    assert sites == {("cli.py", "main")}


def _names_in(node, aliases):
    """Names under ``node``, with module-level aliases (``X = (A, B)``) expanded."""
    names = {_name(n) for n in ast.walk(node)}
    return names.union(*(aliases.get(name, ()) for name in names))


def test_no_module_sorts_errors_with_isinstance():
    sorted_by_type = []
    for path in MODULES:
        aliases = {
            target.id: {_name(n) for n in ast.walk(node.value)}
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        sorted_by_type += [
            (path.name, function)
            for function, call in _calls(path, "isinstance")
            if len(call.args) == 2 and _names_in(call.args[1], aliases) & ERROR_TYPES
        ]
    assert sorted_by_type == []

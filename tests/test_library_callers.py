"""Every function and method of the package has a caller outside the tests.

Library code that only tests reach is kept in step with nothing the
pipelines run.  This test parses ``src/`` and ``perfbench/`` and fails on a
module-level function or a method of a module-level class whose name is
referenced nowhere in them: no name, no attribute, and no dotted string in
``perfbench/`` (``perfbench/spans.py`` wraps its targets by strings such as
``"HeatModel.metric"``).  Names are matched alone, so a method counts as
called when any object's method of that name is; dunder methods are called
by Python itself.  It only reads files.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names kept without a program caller, each with the ROADMAP item that keeps it
ALLOWED = {
    "kernel_from_gauge": "direction 4, the hitting-bounds pipeline, takes capacities under it",
    "GaugeSystem.hausdorff_gauge": "direction 4: the gauge kernel evaluates it",
    "HeatModel.metric": "Fix first 2: perfbench/spans.py wraps it by name",
}


def _defined(tree: ast.Module):
    """Qualified names of module-level functions and of module-level classes' methods."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{sub.name}" for sub in node.body if isinstance(sub, funcs))


def _referenced(tree: ast.Module, strings: bool) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def _scan():
    defined, referenced = set(), set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(_defined(tree))
        referenced |= _referenced(tree, strings=False)
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        referenced |= _referenced(ast.parse(path.read_text(), filename=str(path)), strings=True)
    return defined, referenced


def test_every_library_function_has_a_program_caller():
    defined, referenced = _scan()
    uncalled = sorted(
        name
        for name in defined
        if name not in ALLOWED
        and not (name.split(".")[-1].startswith("__") and name.endswith("__"))
        and name.split(".")[-1] not in referenced
    )
    assert uncalled == [], f"defined in src/ but referenced only by tests: {uncalled}"


def test_allowed_names_still_exist():
    defined, _ = _scan()
    assert sorted(set(ALLOWED) - defined) == []

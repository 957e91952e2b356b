"""The benchmark's traced names still exist in the package.

``perfbench/spans.py`` wraps package functions and methods by name, its
count functions bind call arguments by parameter name, and some read
attributes of those arguments or of the call's result.  A rename or a
deletion in the package would therefore only surface in a traced benchmark
run; this test resolves every target the way ``Tracer.patched`` does and
checks every name a count function reads.  It only reads ``perfbench/``.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import textwrap
import typing
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
if not SPANS.is_file():
    pytest.skip("this checkout has no perfbench directory", allow_module_level=True)


def _load_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


def _resolve(module_name: str, attr: str):
    """The callable ``Tracer.patched`` wraps for one target."""
    owner = importlib.import_module(module_name)
    if "." not in attr:
        return getattr(owner, attr)
    cls_name, meth = attr.split(".")
    raw = getattr(owner, cls_name).__dict__[meth]
    return raw.__func__ if isinstance(raw, classmethod) else raw


def _names_read(count):
    """Parameters a count function binds by name, the attributes it reads
    from them, and the attributes it reads from the call's result."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(count)))
    params, param_attrs, result_attrs = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            if isinstance(node.slice.value, str):
                params.add(node.slice.value)
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id == "result":
            result_attrs.add(node.attr)
        elif isinstance(base, ast.Subscript) and isinstance(base.slice, ast.Constant):
            param_attrs.add((base.slice.value, node.attr))
    return params, param_attrs, result_attrs


def _has(cls, attr: str) -> bool:
    if hasattr(cls, attr):
        return True
    return dataclasses.is_dataclass(cls) and attr in {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize(
    "module_name, attr, count", [(t[0], t[1], t[4]) for t in TARGETS], ids=[f"{t[0]}:{t[1]}" for t in TARGETS]
)
def test_traced_target_and_the_names_its_count_reads_exist(module_name, attr, count):
    fn = _resolve(module_name, attr)
    assert callable(fn)
    if count is None:
        return
    params, param_attrs, result_attrs = _names_read(count)
    signature = inspect.signature(fn).parameters
    hints = typing.get_type_hints(fn)
    for name in params:
        assert name in signature, f"{attr} has no parameter {name!r}"
    for name, field in param_attrs:
        assert _has(hints[name], field), f"{attr}: {name}.{field} does not exist"
    for field in result_attrs:
        assert _has(hints["return"], field), f"{attr}: result.{field} does not exist"

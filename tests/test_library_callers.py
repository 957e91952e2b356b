"""Every function and method of the package has a caller outside the tests,
and every dataclass field a reader.

Library code that only tests reach is kept in step with nothing the
pipelines run.  The first test parses ``src/`` and ``perfbench/`` and fails
on a module-level function or a method of a module-level class whose name
is referenced nowhere in them: no name, no attribute, and no dotted string
in ``perfbench/`` (``perfbench/spans.py`` wraps its targets by strings such
as ``"HeatModel.metric"``).  Names are matched alone, so a method counts as
called when any object's method of that name is; dunder methods are called
by Python itself.

A field is a name too common to match alone (``name`` is read off paths,
syntax nodes and log records), so the field test types the receiver of
each attribute read in ``src/``, ``tests/`` and ``perfbench/``, and fails
on a field of a ``src/`` dataclass that no read of that class reaches.  It
only reads files.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names kept without a program caller, each with the ROADMAP item that keeps it
ALLOWED = {
    "kernel_from_gauge": "direction 6, the hitting-bounds pipeline, takes capacities under it",
    "GaugeSystem.hausdorff_gauge": "direction 5: small-ball reads its reference slope from it",
    "HeatModel.metric": "Fix first 1: perfbench/spans.py wraps it by name until it traces HeatModel.metrics",
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


# -- dataclass fields --------------------------------------------------------------
#
# A small flow-insensitive typing of names, per function scope: a name is of
# a dataclass C when every binding of it in its scope gives C.  The bindings
# typed are a parameter annotated C (or "C", C | None), the first parameter
# of C's own methods, an assignment from C(...) or from a call of a function
# or method whose return annotation names C, a field or property of such a
# value, and a loop over, an item of, or an unpacking of a value annotated
# list[C], tuple[C, ...] or Sequence[C].  Any other binding makes the name
# untyped, and a read through an untyped name counts for no class.


def _named_class(node, classes):
    """("one", C) or ("seq", C) for an annotation naming dataclass C, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.Name) and node.id in classes:
        return ("one", node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # C | None
        return _named_class(node.left, classes) or _named_class(node.right, classes)
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        if node.value.id in ("list", "tuple", "Sequence"):
            inner = node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice
            got = _named_class(inner, classes)
            return ("seq", got[1]) if got and got[0] == "one" else None
    return None


def _dataclass_fields(trees) -> dict:
    """Module-level dataclass name -> {field: its annotation}."""
    out = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in {getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None)}
                for d in node.decorator_list
            ):
                out[node.name] = {
                    sub.target.id: sub.annotation
                    for sub in node.body
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
                }
    return out


def _return_types(trees, classes) -> dict:
    """Function or method name -> the type its return annotation names, for
    the names whose every definition names the same dataclass type."""
    seen = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                seen.setdefault(node.name, set()).add(node.returns and _named_class(node.returns, classes))
    return {name: kinds.pop() for name, kinds in seen.items() if len(kinds) == 1 and None not in kinds}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _walk_scope(body):
    """Nodes of a scope, not entering the functions and classes it defines;
    those are yielded but not entered."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


class _Scope:
    def __init__(self, classes, returns, env=None):
        self.classes, self.returns, self.env = classes, returns, dict(env or {})

    def type_of(self, node):
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in self.classes:
                return ("one", func.id)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            return self.returns.get(name)
        if isinstance(node, ast.Attribute):
            owner = self.type_of(node.value)
            if owner and owner[0] == "one":
                ann = self.classes[owner[1]].get(node.attr)
                return _named_class(ann, self.classes) if ann is not None else self.returns.get(node.attr)
        if isinstance(node, ast.Subscript):
            owner = self.type_of(node.value)
            if owner and owner[0] == "seq":
                return owner if isinstance(node.slice, ast.Slice) else ("one", owner[1])
        return None

    @staticmethod
    def bind(env: dict, target, kind) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = kind if env.get(target.id, kind) == kind else None
        elif isinstance(target, (ast.Tuple, ast.List)):
            item = ("one", kind[1]) if kind and kind[0] == "seq" else None
            for elt in target.elts:
                _Scope.bind(env, elt, item)

    def scan(self, body, reads: set, owner=None) -> None:
        """Add the (class, field) of every typed field read in the scope's
        body and in the scopes it defines; ``owner`` is the class whose body
        this is."""
        nodes = list(_walk_scope(body))
        outer = dict(self.env)
        for _ in range(3):  # a binding may use one that comes later in the walk
            local = {}  # a local binding shadows the enclosing one
            for node in nodes:
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        self.bind(local, target, self.type_of(node.value))
                elif isinstance(node, ast.AnnAssign):
                    self.bind(local, node.target, _named_class(node.annotation, self.classes))
                elif isinstance(node, (ast.For, ast.comprehension)):
                    kind = self.type_of(node.iter)
                    self.bind(local, node.target, ("one", kind[1]) if kind and kind[0] == "seq" else None)
            self.env = {**outer, **local}
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                kind = self.type_of(node.value)
                if kind and kind[0] == "one" and node.attr in self.classes[kind[1]]:
                    reads.add((kind[1], node.attr))
            elif isinstance(node, ast.ClassDef):
                _Scope(self.classes, self.returns, self.env).scan(node.body, reads, node.name)
            elif isinstance(node, _SCOPES):
                inner = _Scope(self.classes, self.returns, self.env)
                args = node.args
                for k, arg in enumerate([*args.posonlyargs, *args.args, *args.kwonlyargs]):
                    typed = owner in self.classes and k == 0 and not isinstance(node, ast.Lambda)
                    inner.env[arg.arg] = ("one", owner) if typed else arg.annotation and _named_class(arg.annotation, self.classes)
                inner.scan(node.body if isinstance(node.body, list) else [node.body], reads)


def _unread_fields() -> list:
    src = [ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))]
    classes = _dataclass_fields(src)
    returns = _return_types(src, classes)
    reads = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            _Scope(classes, returns).scan(ast.parse(path.read_text()).body, reads)
    return sorted(f"{cls}.{field}" for cls, fields in classes.items() for field in fields if (cls, field) not in reads)


def test_every_dataclass_field_has_a_reader():
    assert _unread_fields() == [], "dataclass fields that nothing reads as an attribute"

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import killingcalc
from killingcalc import killing, kostant, young


def test_public_names_are_the_defining_modules_objects():
    for name in killingcalc.__all__:
        value = getattr(killingcalc, name)
        if name == "__version__":
            assert value == "0.1.0"
            continue
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from killingcalc import *", namespace)
    for name in killingcalc.__all__:
        assert namespace[name] is getattr(killingcalc, name)


def test_dir_lists_every_public_name():
    assert set(killingcalc.__all__) <= set(dir(killingcalc))


@pytest.mark.parametrize(
    "modname", sorted(m.name for m in pkgutil.iter_modules(killingcalc.__path__))
)
def test_every_exported_name_is_defined(modname):
    """Each module's ``__all__`` names only what the module defines, so an
    export cannot outlive its definition."""
    module = importlib.import_module(f"killingcalc.{modname}")
    missing = [name for name in getattr(module, "__all__", ()) if name not in vars(module)]
    assert missing == [], modname


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        killingcalc.no_such_name  # noqa: B018
    assert not hasattr(killingcalc, "rank")


ROOT = Path(__file__).resolve().parent.parent


def _variable_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        names.update(re.findall(r"KILLINGCALC_[A-Z0-9_]+", path.read_text(encoding="utf-8")))
    return names


def test_environment_variables_in_code_are_the_documented_ones():
    read = _variable_names((ROOT / "src" / "killingcalc").glob("*.py"))
    documented = _variable_names([ROOT / "docs" / "report_schema.md", ROOT / "README.md"])
    assert read == documented


def _package_imports_and_uses(tree: ast.Module):
    """(names bound by ``from killingcalc... import``, names the module
    reads, string constants of its ``__all__``)."""
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "killingcalc":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return imported, used, exported


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "killingcalc").glob("*.py")), ids=lambda p: p.name
)
def test_every_package_import_is_used_or_exported(path):
    """Each name a module imports from ``killingcalc`` is read in that
    module or listed in its ``__all__``, so a helper moved to another
    module leaves no dead import behind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used, exported = _package_imports_and_uses(tree)
    assert sorted(imported - used - exported) == [], path.name


def _guarded_memo_returns(tree: ast.Module) -> list[str]:
    """Functions that return ``obj._name`` under ``if obj._name is not None``:
    a memo slot kept by hand."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            test = node.test if isinstance(node, ast.If) else None
            if not (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Attribute)
                and test.left.attr.startswith("_")
                and [type(op) for op in test.ops] == [ast.IsNot]
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
            ):
                continue
            slot = ast.dump(test.left)
            if any(
                isinstance(r, ast.Return) and r.value is not None and ast.dump(r.value) == slot
                for stmt in node.body
                for r in ast.walk(stmt)
            ):
                found.append(f"{func.name}:{node.lineno}")
    return found


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "killingcalc").glob("*.py")), ids=lambda p: p.name
)
def test_no_hand_rolled_memo_slots(path):
    """Memos are ``functools`` memos (``cache``, ``cached_property``), not
    attributes tested against None before they are returned."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _guarded_memo_returns(tree) == [], path.name


def _cap_policy_breaches(path: Path) -> list[str]:
    """``raise CapExceeded(...)`` outside ``cap.py``, and every function
    parameter named ``cap`` or ``degree_cap``: the size policy lives in
    ``cap``, applied by the commands, never by the library's callers."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None and path.name != "cap.py":
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc).endswith("CapExceeded"):
                found.append(f"raise CapExceeded:{node.lineno}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.arg in ("cap", "degree_cap"):
                    found.append(f"parameter {arg.arg}:{node.lineno}")
    return found


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "killingcalc").glob("*.py")), ids=lambda p: p.name
)
def test_only_cap_refuses_a_size(path):
    assert _cap_policy_breaches(path) == [], path.name


def _trusted_constructor_uses(tree: ast.AST) -> list[str]:
    """Every ``._of`` attribute, called or not: the constructors that wrap
    arithmetic results with none of the checks."""
    return [
        f"{ast.unparse(node)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_of"
    ]


def test_document_input_passes_the_checking_constructors():
    """The commands and the field-document reader never use ``_of``, so
    what a caller or a document gives always passes the checks."""
    src = ROOT / "src" / "killingcalc"
    for name in ("cli.py", "jobs.py"):
        tree = ast.parse((src / name).read_text(encoding="utf-8"))
        assert _trusted_constructor_uses(tree) == [], name
    poly = ast.parse((src / "poly.py").read_text(encoding="utf-8"))
    (reader,) = [
        node for node in ast.walk(poly)
        if isinstance(node, ast.FunctionDef) and node.name == "from_json_dict"
    ]
    assert _trusted_constructor_uses(reader) == []
    assert _trusted_constructor_uses(poly) != []  # the search finds the arithmetic's uses


def test_no_package_module_imports_the_command_line():
    """``python -m killingcalc.cli`` runs ``cli`` as ``__main__``, so a
    package module importing ``killingcalc.cli`` would compile and run it
    a second time."""
    found = []
    for path in sorted((ROOT / "src" / "killingcalc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
                if node.module == "killingcalc.cli" or "killingcalc.cli" in names:
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import):
                if any(a.name == "killingcalc.cli" for a in node.names):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _unreferenced_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Every module-level private function or class that no ``Name`` or
    ``Attribute`` of any of the trees reads outside its own definition."""
    reads = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and id(n) not in inside for n, name in reads):
                found.append(f"{module}:{node.name}")
    return found


def test_every_private_helper_is_used():
    """Each module-level private function or class is read somewhere in
    the package outside its own definition (recursion does not count), so
    a change that stops calling a helper deletes it too."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "killingcalc").glob("*.py"))
    }
    assert _unreferenced_private_definitions(trees) == []
    trees["dead.py"] = ast.parse("def _dead(n):\n    return _dead(n - 1) if n else 0\n")
    assert _unreferenced_private_definitions(trees) == ["dead.py:_dead"]


_PAIR = young.YoungDiagram((2,))


@pytest.mark.parametrize("call, args", [
    pytest.param(f, args, id=f.__name__)
    for f, args in [
        (kostant.lie_algebra_cohomology, (2, 1)),
        (killing.killing_kernel_vectors, (2, 1, 1)),
        (killing.killing_kernel, (2, 1, 1)),
        (killing.symmetric_coordinates, (2, 1, 1)),
        (killing.integrability_kernel, (2, 2)),
        (young.weight_multiplicities, (_PAIR, 2)),
        (young.realize_irreducible, (_PAIR, 2, [(1, 1)])),
    ]
])
def test_a_size_that_is_no_integer_is_refused_after_the_integer_ran(call, args):
    """A memo keyed by value would hand the answer for 2 to 2.0; each size
    that is not an integer raises TypeError however the memos are filled."""
    call(*args)
    for i, v in enumerate(args):
        if type(v) is int:
            for bad in (float(v), v + 0.5):
                with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                    call(*args[:i], bad, *args[i + 1:])

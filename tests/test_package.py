from __future__ import annotations

import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import killingcalc


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

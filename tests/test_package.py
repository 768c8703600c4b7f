from __future__ import annotations

import sys

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


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        killingcalc.no_such_name  # noqa: B018
    assert not hasattr(killingcalc, "rank")

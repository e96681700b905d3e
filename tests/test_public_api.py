"""The public export lists: every name resolves and none repeats."""

import pytest

import repro
import repro.core


@pytest.mark.parametrize("module", [repro, repro.core], ids=["repro", "repro.core"])
def test_every_exported_name_resolves_once(module):
    names = list(module.__all__)
    repeated = sorted({name for name in names if names.count(name) > 1})
    assert not repeated, f"{module.__name__}.__all__ repeats {repeated}"
    dangling = []
    for name in names:
        try:
            getattr(module, name)
        except AttributeError:
            dangling.append(name)
    assert not dangling, f"{module.__name__}.__all__ names missing objects: {dangling}"

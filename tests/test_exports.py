"""Every name a dualflow module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import dualflow


def _modules():
    yield dualflow
    for info in pkgutil.walk_packages(dualflow.__path__, "dualflow."):
        yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    exported, dangling = 0, []
    for mod in _modules():
        for name in getattr(mod, "__all__", []):
            exported += 1
            if not hasattr(mod, name):
                dangling.append(f"{mod.__name__}.{name}")
    assert dangling == []
    assert exported > 100

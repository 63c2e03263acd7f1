"""Every module's public names resolve."""

import importlib
import pkgutil

import iga_asp


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"iga_asp.{info.name}")
               for info in pkgutil.iter_modules(iga_asp.__path__)]
    assert len(modules) == 8
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in m.__all__ if not hasattr(m, name)]
    assert missing == []

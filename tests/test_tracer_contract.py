"""The names the benchmark's tracer wraps exist once ``tssid.cli`` is imported.

``perfbench/tracer.py`` imports ``tssid.cli``, then looks every module of
its ``WRAPPED`` table up in ``sys.modules`` and every listed function up by
name.  A refactor that makes a module import lazily or renames one of
those functions would break ``perfbench/run.py --trace 1``; this test
fails first.  The tracer file is loaded as a module and not changed.
"""

import importlib.util
import sys

from conftest import REPO

import tssid.cli  # noqa: F401  (the import the tracer makes before wrapping)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists_after_importing_the_cli():
    wrapped = _tracer().WRAPPED
    assert wrapped
    for mod_name, names in wrapped.items():
        module = sys.modules.get(f"tssid.{mod_name}")
        assert module is not None, f"tssid.{mod_name} is not imported by tssid.cli"
        for name in names:
            assert callable(getattr(module, name, None)), f"tssid.{mod_name}.{name}"

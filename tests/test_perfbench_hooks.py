"""Guard for the benchmark's tracing hooks: every function they wrap must
still exist under the name and in the module they name, so a refactor
cannot silently leave a traced layer without spans."""

import importlib
import importlib.util
import inspect
import pathlib
import sys

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_resolves_to_a_callable(monkeypatch):
    hooks = _load_tracing(monkeypatch).HOOKS
    assert hooks
    for hook in hooks:
        fn = getattr(importlib.import_module(hook.module), hook.attr, None)
        assert callable(fn), (hook.module, hook.attr)
        # a generator hook counts yielded items; a plain one times one call
        assert inspect.isgeneratorfunction(fn) == hook.generator, \
            (hook.module, hook.attr)

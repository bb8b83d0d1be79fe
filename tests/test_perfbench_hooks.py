"""Guard for the benchmark's tracing hooks: every function they wrap must
still exist under the name and in the module they name, and a pullback
round trip must still pass through each hook on its path, so a refactor
cannot silently leave a traced layer without spans."""

import importlib
import importlib.util
import inspect
import pathlib
import sys
from collections import Counter

from polyposet.polygon import DissectionClass, enumerate_dissections

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

# the spans one pullback round trip opens, one each
PULLBACK_SPANS = ("bijection.phi_inverse", "poset.validate_interval_family",
                  "census.realize", "poset.poset_of", "perm.all_intervals",
                  "poset.is_tree", "perm.is_block_wise_simple")


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    # the workloads module puts the source tree on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_resolves_to_a_callable(monkeypatch):
    hooks = _load(monkeypatch, "tracing").HOOKS
    assert hooks
    for hook in hooks:
        fn = getattr(importlib.import_module(hook.module), hook.attr, None)
        assert callable(fn), (hook.module, hook.attr)
        # a generator hook counts yielded items; a plain one times one call
        assert inspect.isgeneratorfunction(fn) == hook.generator, \
            (hook.module, hook.attr)


def test_a_pullback_round_trip_opens_every_span_on_its_path(monkeypatch):
    """The benchmark's own round trip under its own hooks, on a
    tri/quad-free dissection, so the tree and block-wise checks run too."""
    tracing = _load(monkeypatch, "tracing")
    workloads = _load(monkeypatch, "workloads")
    clazz = DissectionClass.NONCROSSING_TRI_QUAD_FREE
    D = next(D for D in enumerate_dissections(8, clazz) if D.diagonals)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert workloads.round_trip(clazz, D)
    opened = Counter(s.name for s in tracer.spans)
    assert {name: opened[name] for name in PULLBACK_SPANS} \
        == dict.fromkeys(PULLBACK_SPANS, 1)

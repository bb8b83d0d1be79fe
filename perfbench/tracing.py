"""Spans around polyposet's public functions, and the per-layer metrics
derived from them.

Each hook replaces one function as it is bound in the module that calls it,
so calls made inside that module are caught as well as calls from outside.
Spans stay in memory until the run ends.  Only the calling process is
traced: the scans' per-permutation work runs in private helpers and in pool
workers, which no hook reaches.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import math
import statistics
import time
from typing import Callable, Iterator


@dataclasses.dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                **self.attrs}


class Tracer:
    """Collects spans for one workload run; `run` tags the pass they
    belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[int] = []

    def open(self, name: str, attrs: dict) -> Span:
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, time.perf_counter(), math.nan,
                 parent, self.run, attrs)
        self.spans.append(s)
        self._open.append(s.sid)
        return s

    def close(self, s: Span) -> None:
        s.end = time.perf_counter()
        if self._open[-1] == s.sid:
            self._open.pop()
        else:
            # a suspended generator's span may close out of stack order
            self._open.remove(s.sid)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.as_dict()) + "\n")


@dataclasses.dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    span: str
    tag: Callable[[tuple, dict], dict] | None = None
    size: Callable[[object], int] | None = None
    generator: bool = False


def _second_arg(name: str):
    """Tag a span with the enum value of the call's second parameter."""
    def tag(args, kwargs) -> dict:
        return {name: (args[1] if len(args) > 1 else kwargs[name]).value}
    return tag


_family, _clazz = _second_arg("family"), _second_arg("clazz")


def _size(result) -> int:
    return result if isinstance(result, int) else len(result)


_ENUMERATE = "polygon.enumerate_dissections"

HOOKS = (
    Hook("polyposet.cli", "run", "cli.run"),
    Hook("polyposet.cli", "check_identities", "census.check_identities"),
    Hook("polyposet.cli", "check_images", "census.check_images"),
    Hook("polyposet.census", "distinct_posets", "census.poset_side",
         _family, _size),
    Hook("polyposet.census", "poset_census", "census.poset_side",
         _family, _size),
    Hook("polyposet.census", "count_dissections", "census.count_dissections"),
    Hook("polyposet.census", "enumerate_dissections", _ENUMERATE, _clazz,
         generator=True),
    Hook("polyposet.census", "classify_image", "bijection.classify_image"),
    Hook("polyposet.census", "realize", "census.realize"),
    Hook("polyposet.polygon", "enumerate_dissections", _ENUMERATE, _clazz,
         generator=True),
    Hook("polyposet.polygon", "empty_faces", "polygon.empty_faces"),
    Hook("polyposet.polygon", "is_diagonally_framed",
         "polygon.is_diagonally_framed"),
    Hook("polyposet.bijection", "empty_faces", "polygon.empty_faces"),
    Hook("polyposet.bijection", "is_diagonally_framed",
         "polygon.is_diagonally_framed"),
    Hook("polyposet.bijection", "phi_inverse", "bijection.phi_inverse"),
    Hook("polyposet.poset", "validate_interval_family",
         "poset.validate_interval_family"),
    Hook("polyposet.poset", "is_tree", "poset.is_tree"),
    Hook("polyposet.poset", "poset_of", "poset.poset_of"),
    Hook("polyposet.poset", "all_intervals", "perm.all_intervals"),
    Hook("polyposet.perm", "is_block_wise_simple",
         "perm.is_block_wise_simple"),
)


def _wrap(tracer: Tracer, hook: Hook, fn):
    if hook.generator:
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            s = tracer.open(hook.span, {**hook.tag(args, kwargs), "size": 0})
            try:
                for item in fn(*args, **kwargs):
                    s.attrs["size"] += 1
                    yield item
            finally:
                tracer.close(s)
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        s = tracer.open(hook.span, hook.tag(args, kwargs) if hook.tag else {})
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(s)
        if hook.size:
            s.attrs["size"] = hook.size(result)
        return result
    return traced


def span_cost(calls: int = 20000, rounds: int = 7) -> float:
    """Seconds one span adds to a call: a no-op function wrapped like the
    hooked ones against the bare function, median over rounds."""
    def noop():
        return None

    hook = Hook("", "", "calibration")
    costs = []
    for _ in range(rounds):
        wrapped = _wrap(Tracer(), hook, noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Every hook in place for the duration of the block."""
    saved = []
    try:
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            fn = getattr(module, hook.attr)
            saved.append((module, hook.attr, fn))
            setattr(module, hook.attr, _wrap(tracer, hook, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of it its children cover."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


FAMILIES = ("all", "tree", "blockwise")
CLASSES = ("framed-quad-free", "noncrossing-quad-free",
           "noncrossing-tri-quad-free")
_PREDICATES = ("polygon.empty_faces", "polygon.is_diagonally_framed")

# name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    **{f"census.poset_side_s.{f}": ("s", "lower") for f in FAMILIES},
    "census.poset_side_calls": ("count", "lower"),
    "census.families": ("count", "higher"),
    "census.dissection_side_s": ("s", "lower"),
    "census.dissection_side_calls": ("count", "lower"),
    "census.identities_s": ("s", "lower"),
    "census.images_self_s": ("s", "lower"),
    "census.realize_s": ("s", "lower"),
    "census.realize_calls": ("count", "lower"),
    "census.realize_p50_ms": ("ms", "lower"),
    "census.realize_p99_ms": ("ms", "lower"),
    **{f"polygon.search_s.{c}": ("s", "lower") for c in CLASSES},
    "polygon.dissections": ("count", "higher"),
    "polygon.leaf_check_s": ("s", "lower"),
    "polygon.leaf_checks": ("count", "lower"),
    "polygon.leaf_checks_per_dissection": ("ratio", "lower"),
    "polygon.face_check_s": ("s", "lower"),
    "bijection.classify_image_s": ("s", "lower"),
    "bijection.classify_image_calls": ("count", "lower"),
    "bijection.phi_inverse_s": ("s", "lower"),
    "poset.validate_s": ("s", "lower"),
    "poset.is_tree_s": ("s", "lower"),
    "poset.poset_of_self_s": ("s", "lower"),
    "perm.all_intervals_s": ("s", "lower"),
    "perm.all_intervals_calls": ("count", "lower"),
    "perm.block_wise_check_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, from the spans of
    one pass.  A layer that did not run reads 0."""
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def ancestors(s: Span) -> Iterator[Span]:
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    def under(s: Span, name: str) -> bool:
        return any(a.name == name for a in ancestors(s))

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(group: list[Span]) -> float:
        return sum(s.duration for s in group)

    def self_total(name: str) -> float:
        return sum(self_time(s, children.get(s.sid, [])) for s in named(name))

    poset_side = [s for s in named("census.poset_side")
                  if not under(s, "census.poset_side")]
    searches = [s for s in named(_ENUMERATE) if not under(s, _ENUMERATE)]
    predicates = [s for s in spans if s.name in _PREDICATES]
    leaf_checks = [s for s in predicates if under(s, _ENUMERATE)]
    leaf_tests = [s for s in leaf_checks
                  if s.name == "polygon.is_diagonally_framed"]
    checked_searches = {a.sid for s in leaf_tests for a in ancestors(s)
                        if a.name == _ENUMERATE}
    checked_yield = sum(by_id[sid].attrs["size"] for sid in checked_searches)
    realize_ms = [s.duration * 1000.0 for s in named("census.realize")]

    out = {f"census.poset_side_s.{f}":
           total([s for s in poset_side if s.attrs["family"] == f])
           for f in FAMILIES}
    out["census.poset_side_calls"] = len(poset_side)
    out["census.families"] = sum(s.attrs["size"] for s in poset_side)
    out["census.dissection_side_s"] = total(named("census.count_dissections"))
    out["census.dissection_side_calls"] = len(named("census.count_dissections"))
    out["census.identities_s"] = total(named("census.check_identities"))
    out["census.images_self_s"] = self_total("census.check_images")
    out["census.realize_s"] = sum(realize_ms) / 1000.0
    out["census.realize_calls"] = len(realize_ms)
    out["census.realize_p50_ms"] = statistics.median(realize_ms) if realize_ms else 0.0
    out["census.realize_p99_ms"] = _percentile(realize_ms, 0.99)
    for c in CLASSES:
        out[f"polygon.search_s.{c}"] = total(
            [s for s in searches if s.attrs["clazz"] == c])
    out["polygon.dissections"] = sum(s.attrs["size"] for s in searches)
    out["polygon.leaf_check_s"] = total(leaf_checks)
    out["polygon.leaf_checks"] = len(leaf_tests)
    # leaf checks per dissection emitted by the searches that ran them:
    # 1.0 when every leaf is re-validated, 0 when no search checks leaves
    out["polygon.leaf_checks_per_dissection"] = (
        len(leaf_tests) / max(1, checked_yield) if leaf_tests else 0.0)
    out["polygon.face_check_s"] = total(
        [s for s in predicates if under(s, "bijection.classify_image")])
    out["bijection.classify_image_s"] = total(named("bijection.classify_image"))
    out["bijection.classify_image_calls"] = len(named("bijection.classify_image"))
    out["bijection.phi_inverse_s"] = total(named("bijection.phi_inverse"))
    out["poset.validate_s"] = total(named("poset.validate_interval_family"))
    out["poset.is_tree_s"] = total(named("poset.is_tree"))
    out["poset.poset_of_self_s"] = self_total("poset.poset_of")
    out["perm.all_intervals_s"] = total(named("perm.all_intervals"))
    out["perm.all_intervals_calls"] = len(named("perm.all_intervals"))
    out["perm.block_wise_check_s"] = total(named("perm.is_block_wise_simple"))
    out["cli.self_s"] = self_total("cli.run")
    return out

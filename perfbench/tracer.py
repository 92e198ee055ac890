"""In-memory span tracer for the traced benchmark run.

`Tracer` replaces the public functions and methods of the dirspec modules
with wrappers.  Each wrapper opens a span on entry and closes it on exit;
spans nest through a stack, so a span's self time is its duration minus the
time its child spans cover.  Spans are folded into per-name totals as they
close (calls, total time, self time), because the hot paths make millions
of calls and a list of every span would not fit in memory.  A hook may look
at a call's arguments and result to keep extra counters; its run time is
in no span's self time.

A module-level function is replaced in every module that holds it, since
dirspec modules bind each other's functions with `from ... import`.
`restore()` (or leaving the `with` block) puts every original back.

Run this file to self-test the tracer:

    python3 perfbench/tracer.py
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import types


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        # one entry per open span: the time its children have covered
        self._child_time: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """A wrapper that records a span called `name` around `fn`."""
        stats = self.stats.setdefault(name, SpanStats())
        child_time = self._child_time
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            child_time.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child_time.pop()
                if child_time:
                    child_time[-1] += dt
            if hook is not None:
                h0 = clock()
                hook(self, result, args)
                if child_time:
                    # the hook is tracer work inside the parent's interval
                    child_time[-1] += clock() - h0
            return result

        return wrapper

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def high_water(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- installing wrappers ---------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def patch_function(self, module: types.ModuleType, attr: str, name: str,
                       holders: list[types.ModuleType], hook=None) -> None:
        """Wrap `module.attr` and every binding of the same object in
        `holders` (modules that imported it by name, under any alias)."""
        original = module.__dict__[attr]
        wrapper = self.wrap(name, original, hook)
        for holder in holders:
            for key, value in list(holder.__dict__.items()):
                if value is original:
                    self._set(holder, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, hook=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self.wrap(name, raw.__func__, hook)))
        elif isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, hook)))
        else:
            self._set(cls, attr, self.wrap(name, raw, hook))

    def patch_module(self, module: types.ModuleType, prefix: str,
                     holders: list[types.ModuleType], hooks: dict,
                     extra: tuple[str, ...] = ()) -> None:
        """Wrap the public functions defined in `module`, the public methods
        (static and class methods too, properties not) of its public
        classes, and the dotted names in `extra` (such as
        `FieldScalar.__mul__`).  Span names are `prefix.name` and
        `prefix.Class.method`."""
        targets = []
        for attr, value in list(module.__dict__.items()):
            if attr.startswith("_") and attr not in extra:
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                targets.append((attr, None))
            elif inspect.isclass(value) and not attr.startswith("_"):
                for mattr, raw in list(value.__dict__.items()):
                    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
                        else raw
                    dotted = f"{attr}.{mattr}"
                    if inspect.isfunction(fn) and (not mattr.startswith("_")
                                                   or dotted in extra):
                        targets.append((dotted, value))
        for dotted, cls in targets:
            name = f"{prefix}.{dotted}"
            if cls is None:
                self.patch_function(module, dotted, name, holders, hooks.get(name))
            else:
                self.patch_method(cls, dotted.split(".", 1)[1], name, hooks.get(name))

    def restore(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def selftest() -> None:
    """Known self times on a synthetic call tree, then restore-on-exit.

    outer spends 3 s itself and calls inner twice; inner spends 2 s itself
    and calls leaf once; leaf spends 0.5 s.  A hook on leaf advances the
    clock by 100 s, which must be in no span's self time (it stays in the
    totals of the spans around it, like all tracing overhead).
    """
    clock = _FakeClock()
    mod = types.ModuleType("tracer_selftest_mod")
    alias = types.ModuleType("tracer_selftest_alias")

    def leaf():
        clock.now += 0.5
        return 7

    def inner():
        clock.now += 1.0
        mod.leaf()
        clock.now += 1.0

    def outer():
        clock.now += 1.0
        alias.inner_alias()
        clock.now += 1.0
        alias.inner_alias()
        clock.now += 1.0

    class Box:
        def public(self):
            clock.now += 4.0

        def _private(self):
            return None

    for fn in (leaf, inner, outer):
        fn.__module__ = mod.__name__
        setattr(mod, fn.__name__, fn)
    Box.__module__ = mod.__name__
    mod.Box = Box
    alias.inner_alias = inner          # bound by "from mod import inner as ..."
    originals = {"leaf": leaf, "inner": inner, "outer": outer,
                 "public": Box.__dict__["public"]}

    def leaf_hook(tracer, result, args):
        tracer.count("leaf.results", result)
        clock.now += 100.0

    with Tracer(clock) as tr:
        tr.patch_module(mod, "m", [mod, alias], {"m.leaf": leaf_hook})
        if alias.inner_alias is inner or mod.outer is outer:
            raise AssertionError("aliased binding was not wrapped")
        mod.outer()
        Box().public()
        Box()._private()
        got = {k: (v.calls, round(v.total_s, 9), round(v.self_s, 9))
               for k, v in tr.stats.items()}
        want = {"m.outer": (1, 208.0, 3.0), "m.inner": (2, 205.0, 4.0),
                "m.leaf": (2, 1.0, 1.0), "m.Box.public": (1, 4.0, 4.0)}
        if got != want:
            raise AssertionError(f"span stats {got} != {want}")
        if tr.counters != {"leaf.results": 14}:
            raise AssertionError(f"counters {tr.counters}")
    restored = {"leaf": mod.leaf, "inner": mod.inner, "outer": mod.outer,
                "public": Box.__dict__["public"]}
    if restored != originals or alias.inner_alias is not inner:
        raise AssertionError("restore() left a wrapper installed")


if __name__ == "__main__":
    selftest()
    print("tracer self-test passed")
    sys.exit(0)

"""Per-function timing of the mlde modules, patched in from outside the package.

``Tracer.install`` replaces every public function of each traced module with
a timing wrapper.  Intra-module calls look module globals up at call time, so
patching the module attribute catches them too; a function brought in with
``from ... import`` (``montecarlo.block_rng``) is patched in the importing
module as well, under its home module's name.  Functions called once per
lattice atom get an aggregate counter (``LEAVES``) instead of a span, which
keeps the tracing overhead bounded; their time is still charged to the
calling span's children.

Counts are kept per thread and merged on read.  A span's self time is its
duration minus that of the traced calls it made on the same thread, so time
that worker threads spend in traced functions shows in those functions and
also as waiting in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

LEAVES = {"bounds.gaussian_tail"}


class _ScipyProxy:
    """Stands in for scipy's ``binom`` inside montecarlo, timing sf and cdf."""

    def __init__(self, target, timed):
        self._target = target
        self.sf = timed(target.sf)
        self.cdf = timed(target.cdf)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self, modules: dict):
        """modules: short layer name -> module object."""
        self.modules = modules
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # stats: name -> [calls, total_s, self_s], and (caller, callee) ->
            # [calls, 0, 0]; stack: [child time, name] per open span
            state = self._local.state = (defaultdict(lambda: [0, 0.0, 0.0]), [], defaultdict(int))
            with self._lock:
                self._threads.append(state)
        return state

    def reset(self) -> None:
        with self._lock:
            for stats, _, _ in self._threads:
                stats.clear()

    def snapshot(self) -> dict:
        """name or (caller, callee) -> (calls, total_s, self_s), summed over threads."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            for stats, _, _ in self._threads:
                for name, rec in list(stats.items()):
                    acc = out[name]
                    for i in range(3):
                        acc[i] += rec[i]
        return {name: tuple(rec) for name, rec in out.items()}

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats, stack, depth = self._state()
            if stack:
                stats[(stack[-1][1], name)][0] += 1
            stack.append([0.0, name])
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()[0]
                depth[name] -= 1
                rec = stats[name]
                rec[0] += 1
                if not depth[name]:  # count a recursive span's time once
                    rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def _leaf(self, name, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats, stack, _ = self._state()
                rec = stats[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def _wrap(self, name, fn):
        return (self._leaf if name in LEAVES else self._span)(name, fn)

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, key, value, as_item=False):
        old = owner[key] if as_item else getattr(owner, key)
        self._patches.append((owner, key, old, as_item))
        if as_item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> list:
        """Patch the modules; returns the traced names."""
        wrapped, names = {}, set()
        by_module = {mod.__name__: short for short, mod in self.modules.items()}
        for mod in self.modules.values():
            for key, fn in list(vars(mod).items()):
                if key.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ not in by_module:
                    continue
                if fn not in wrapped:
                    name = f"{by_module[fn.__module__]}.{fn.__name__}"
                    wrapped[fn] = self._wrap(name, fn)
                    names.add(name)
                self._set(mod, key, wrapped[fn])
        cli = self.modules["cli"]
        for sub, fn in list(cli._COMMANDS.items()):
            names.add(f"cli.{sub}")
            self._set(cli._COMMANDS, sub, self._span(f"cli.{sub}", fn), as_item=True)
        mc = self.modules["montecarlo"]
        names.add("montecarlo.binom")
        self._set(mc, "binom",
                  _ScipyProxy(mc.binom, functools.partial(self._leaf, "montecarlo.binom")))
        return sorted(names)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, old, as_item = self._patches.pop()
            if as_item:
                owner[key] = old
            else:
                setattr(owner, key, old)

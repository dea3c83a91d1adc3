"""Spans around the library's public functions, recorded at their binding sites.

A function is wrapped in every orbk module that binds it, so a call made from
`sections` to `integrate_radial` and a call made from `asymptotics` are both
seen.  Functions traced are the ones the `orbk` package exports plus the ones
`orbk.cli` imports from the library.  A site that no longer exists is skipped
and the metrics that need it are reported as missing, never as zero.

Each span is (id, name, start, end, parent id, op id); self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import math
import pkgutil
import time
from collections import defaultdict

LAYERS = ("groups", "models", "quadrature", "sections", "bergman", "index",
          "asymptotics", "localmodel", "cli")


def _counter_hooks():
    """Per-function counters taken from arguments and results, not internals."""

    def radial(args, kwargs, counters, call):
        f = args[0] if args else kwargs.pop("f")
        calls = [0]

        def counted(r):
            calls[0] += 1
            counters["quadrature.nodes"] += len(r)
            return f(r)

        try:
            return call((counted,) + tuple(args[1:]), kwargs)
        finally:
            counters["quadrature.doublings"] += max(calls[0] - 1, 0)

    def space(args, kwargs, counters, call):
        result = call(args, kwargs)
        counters["sections.basis_elements"] += result.dim
        return result

    def charsum(args, kwargs, counters, call):
        action = args[0] if args else kwargs["action"]
        m = args[2] if len(args) > 2 else kwargs["m"]
        counters["asymptotics.charsum_lattice_points"] += math.comb(m + action.dim, action.dim)
        return call(args, kwargs)

    def identities(args, kwargs, counters, call):
        grid = args[0] if args else kwargs["grid"]
        counters["localmodel.grid_points"] += grid.x_points * grid.y_points
        return call(args, kwargs)

    return {
        "quadrature.integrate_radial": (radial, ("quadrature.nodes", "quadrature.doublings")),
        "sections.build_section_space": (space, ("sections.basis_elements",)),
        "sections.build_perturbed_space": (space, ("sections.basis_elements",)),
        "asymptotics.character_sum_bound": (charsum, ("asymptotics.charsum_lattice_points",)),
        "localmodel.check_identities": (identities, ("localmodel.grid_points",)),
    }


class Tracer:
    """Installs wrappers on enter, restores the original bindings on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.available: set[str] = set()  # traced function names and counters
        self.op_id = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple] = []
        self._hooks = _counter_hooks()

    def _targets(self):
        import orbk

        targets = {}
        modules = {}
        for info in pkgutil.iter_modules(orbk.__path__):
            try:
                modules[info.name] = importlib.import_module(f"orbk.{info.name}")
            except ImportError:
                continue
        exported = [getattr(orbk, name) for name in dir(orbk)]
        cli = modules.get("cli")
        if cli is not None:
            exported += list(vars(cli).values())
        for fn in exported:
            if not inspect.isfunction(fn) or fn.__name__.startswith("_"):
                continue
            layer = fn.__module__.rpartition(".")[2]
            if fn.__module__.startswith("orbk.") and layer in LAYERS and layer != "cli":
                targets[fn] = f"{layer}.{fn.__name__}"
        return modules, targets

    def __enter__(self):
        modules, targets = self._targets()
        for module in [importlib.import_module("orbk"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                name = targets.get(value) if inspect.isfunction(value) else None
                if name is None:
                    continue
                setattr(module, attr, self._wrap(value, name))
                self._restore.append((module, attr, value))
                self.available.add(name)
                hook = self._hooks.get(name)
                if hook:
                    self.available.update(hook[1])
        if "cli" in modules:
            self.available.update(("cli", "cli.report_bytes"))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        return False

    def _wrap(self, fn, name):
        hook = self._hooks.get(name, (None,))[0]

        def call(args, kwargs):
            return fn(*args, **kwargs)

        def traced(*args, **kwargs):
            with self.span(name):
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(args, kwargs, self.counters, call)

        traced.__wrapped__ = fn
        return traced

    def span(self, name):
        return _Span(self, name)

    def summary(self, passes: int) -> dict[str, dict]:
        """calls and self seconds per span name, per pass."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, name, start, end, _, _ in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child_time[sid]
        return {name: {k: v / passes for k, v in row.items()} for name, row in out.items()}


class _Span:
    __slots__ = ("tracer", "name", "sid", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.sid = next(t._ids)
        t._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        parent = t._stack[-1] if t._stack else None
        t.spans.append((self.sid, self.name, self.start, end, parent, t.op_id))
        return False

"""In-memory span tracing for the benchmark's traced runs.

The package source is never edited.  :meth:`Tracer.install` wraps the public
functions of each traced module, plus ``ScoreVector.__init__`` and
``DataMatrix.__init__``, and rebinds every reference to them that a
``kemeny_stat`` module holds: module attributes imported by name and values
of module-level dicts such as ``multivar.CORRELATION_METHODS`` and
``cli._ESTIMATORS``.  :meth:`Tracer.uninstall` puts every original back.

A span is ``[name, start, end, parent, op, extra]``; ``parent`` is the index
of the enclosing span (-1 at top level) and ``extra`` is a per-function
count (pairs, table entries, bytes, vectors, replications).
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import sys
import time

MODULES = (
    "rank_core",
    "null_models",
    "multivar",
    "dataio",
    "enum_oracle",
    "consistency",
    "simulate",
    "cli",
)
INIT_CLASSES = (("rank_core", "ScoreVector"), ("multivar", "DataMatrix"))


def _pairs(args, kwargs, result, before):
    return result.n * (result.n - 1) // 2


def _csv_bytes(args, kwargs, result, before):
    source = args[0] if args else kwargs.get("source")
    return os.path.getsize(source) if isinstance(source, str) else None


def _vectors(args, kwargs, result, before):
    return result.total


def _replications(args, kwargs, result, before):
    config = args[0] if args else kwargs["config"]
    return config.replications * len(config.n_values)


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self.estimator_names: set[str] = set()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, extra=None, before=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            state = before() if before is not None else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result, state)
            return result

        traced.__bench_traced__ = True
        return traced

    def _targets(self):
        """(span name, original, extra, before) for every function to wrap."""
        null_models = importlib.import_module(f"{self.package.__name__}.null_models")
        table = null_models.null_table

        def built_entries(args, kwargs, result, misses_before):
            built = table.cache_info().misses > misses_before
            return int(result.support.size) if built else None

        special = {
            "rank_core.pair_stats": (_pairs, None),
            "null_models.null_table": (built_entries, lambda: table.cache_info().misses),
            "dataio.load_csv": (_csv_bytes, None),
            "enum_oracle.exact_distance_distribution": (_vectors, None),
            "simulate.run_simulation": (_replications, None),
        }
        for short in MODULES:
            module = importlib.import_module(f"{self.package.__name__}.{short}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                yield (name, obj, *special.get(name, (None, None)))

    def install(self) -> None:
        multivar = importlib.import_module(f"{self.package.__name__}.multivar")
        self.estimator_names = {
            f"rank_core.{fn.__name__}" for fn in multivar.CORRELATION_METHODS.values()
        }
        for name, original, extra, before in self._targets():
            self._wrappers[id(original)] = (original, self._wrap(name, original, extra, before))
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == self.package.__name__
                                  or key.startswith(self.package.__name__ + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((setattr, module, attr, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = self._wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]
                            self._restore.append((dict.__setitem__, value, key, item))
        for short, cls_name in INIT_CLASSES:
            cls = getattr(importlib.import_module(f"{self.package.__name__}.{short}"), cls_name)
            original = cls.__dict__["__init__"]
            setattr(cls, "__init__", self._wrap(f"{short}.{cls_name}", original))
            self._restore.append((setattr, cls, "__init__", original))

    def uninstall(self) -> None:
        while self._restore:
            setter, target, key, original = self._restore.pop()
            setter(target, key, original)

    def leftovers(self) -> list[str]:
        """Names still bound to a wrapper; empty after a clean uninstall."""
        found = []
        for key, module in list(sys.modules.items()):
            if module is None or not key.startswith(self.package.__name__):
                continue
            for attr, value in vars(module).items():
                values = value.values() if isinstance(value, dict) else [value]
                if any(getattr(v, "__bench_traced__", False) for v in values):
                    found.append(f"{key}.{attr}")
                if isinstance(value, type) and getattr(
                    value.__dict__.get("__init__"), "__bench_traced__", False
                ):
                    found.append(f"{key}.{attr}.__init__")
        return found

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy and self seconds, and the extra counts.

        ``extra`` sums the per-call counts, ``extra_calls`` and ``extra_busy_s``
        cover only the calls that returned one (for ``null_table``: builds),
        and ``estimator_calls`` counts estimator spans directly under a
        ``correlation_matrix`` span.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, extra in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = collections.defaultdict(lambda: {
            "calls": 0, "busy_s": 0.0, "self_s": 0.0, "extra": 0, "extra_calls": 0,
            "extra_busy_s": 0.0, "extra_max": 0, "estimator_calls": 0,
        })
        for index, (name, start, end, parent, op, extra) in enumerate(self.spans):
            entry = stats[name]
            duration = end - start
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child[index]
            if extra is not None:
                entry["extra"] += extra
                entry["extra_calls"] += 1
                entry["extra_busy_s"] += duration
                entry["extra_max"] = max(entry["extra_max"], extra)
            if name in self.estimator_names and parent >= 0:
                parent_name = self.spans[parent][0]
                if parent_name == "multivar.correlation_matrix":
                    stats[parent_name]["estimator_calls"] += 1
        return stats

    def calls_by_op(self, name: str) -> dict[int, int]:
        counts: dict[int, int] = {}
        for span in self.spans:
            if span[0] == name:
                counts[span[4]] = counts.get(span[4], 0) + 1
        return counts

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one ``[name, start, end, parent, op]``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, op, extra in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")

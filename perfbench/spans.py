"""Per-layer spans recorded from outside the program.

``Tracer.patched()`` wraps public functions and methods of the anisohit
modules for the duration of a ``with`` block.  A module-level function is
replaced under every name it is bound to in any loaded anisohit module
(``mc`` binds ``covariance_matrix`` at import, ``potential`` binds
``check_monotonicity``), so calls through any of them are timed.  Each span
records its total time and its self time, which is the total minus the time
of the wrapped spans it encloses.  Counts are derived from the calls'
arguments and results, never from program internals.

``import_times`` reads ``python -X importtime`` output for the start-up
figures.
"""

from __future__ import annotations

import contextlib
import inspect
import subprocess
import sys
import time
from collections import defaultdict


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _time_pair_rules(fn, args, kwargs, result) -> int:
    nt = len(_arguments(fn, args, kwargs)["times"])
    return nt * (nt + 1) // 2


def _field_values(fn, args, kwargs, result) -> int:
    a = _arguments(fn, args, kwargs)
    return a["n_samples"] * a["model"].components * a["grid"].n_points


def _calls(fn, args, kwargs, result) -> int:
    return 1


def _rows(fn, args, kwargs, result) -> int:
    return len(result)


def _iterations(fn, args, kwargs, result) -> int:
    return result.iterations


def _value(fn, args, kwargs, result) -> int:
    return int(result)


_DISTANCE = ("potential.distance", "potential.distance_points", _rows)
_COVER = ("potential.cover", "potential.cover_cells", _value)
_NONE = (None, None)

# module, attribute or Class.method, span name, count name, count function
TARGETS = (
    ("anisohit.heat", "covariance_matrix", "heat.covariance_matrix", "heat.cov_rules", _time_pair_rules),
    ("anisohit.heat", "HeatModel.metric", "heat.metric", "heat.metric_calls", _calls),
    ("anisohit.heat", "HeatModel.variance_direct", "heat.variance_direct", *_NONE),
    ("anisohit.heat", "temporal_slope", "heat.slope", *_NONE),
    ("anisohit.heat", "spatial_slope", "heat.slope", *_NONE),
    ("anisohit.heat", "spatial_gauge_residual", "heat.slope", *_NONE),
    ("anisohit.mc", "factor_covariance", "mc.factor", *_NONE),
    ("anisohit.mc", "small_ball_slope", "mc.sampler", "mc.field_values", _field_values),
    ("anisohit.mc", "estimate_hit_prob", "mc.sampler", "mc.field_values", _field_values),
    ("anisohit.potential", "Ball.distance", *_DISTANCE),
    ("anisohit.potential", "Box.distance", *_DISTANCE),
    ("anisohit.potential", "PointSet.distance", *_DISTANCE),
    ("anisohit.potential", "CantorDust.distance", *_DISTANCE),
    ("anisohit.potential", "capacity", "potential.capacity", "potential.fw_iterations", _iterations),
    ("anisohit.potential", "hausdorff_upper", "potential.hausdorff", *_NONE),
    ("anisohit.potential", "TargetSet.dyadic_count", *_COVER),
    ("anisohit.potential", "Box.dyadic_count", *_COVER),
    ("anisohit.potential", "CantorDust.dyadic_count", *_COVER),
    ("anisohit.gauges", "check_growth", "gauges.growth", *_NONE),
    ("anisohit.gauges", "check_monotonicity", "gauges.monotonicity", *_NONE),
    ("anisohit.cli", "ConfigReader.load", "cli.config", *_NONE),
    ("anisohit.cli", "emit_csv", "cli.emit_csv", *_NONE),
)


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [span name, time of enclosed spans]

    def _wrap(self, name, fn, count_name, count):
        def wrapper(*args, **kwargs):
            # a span nested in one of its own name (a subclass method calling
            # its base) is already inside the outer span's time
            if any(frame[0] == name for frame in self._stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
            if count is not None:
                self.counts[count_name] += count(fn, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        undo = []
        modules = [m for n, m in list(sys.modules.items()) if n == "anisohit" or n.startswith("anisohit.")]
        try:
            for module_name, attr, span, count_name, count in TARGETS:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span, raw.__func__, count_name, count))
                    else:
                        new = self._wrap(span, raw, count_name, count)
                    setattr(cls, meth, new)
                    undo.append((cls, meth, raw))
                    continue
                original = getattr(owner, attr)
                new = self._wrap(span, original, count_name, count)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, new)
                            undo.append((module, key, original))
            yield self
        finally:
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)


def import_times(python: str, modules, env: dict) -> dict:
    """Start-up figures from one fresh ``python -X importtime`` interpreter.

    A package's figure is the cumulative time of every logged import of it
    or its submodules that is not nested in another one: scipy loads
    ``scipy.special`` through ``importlib``, which logs only the submodules.
    """
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import " + ", ".join(modules)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    entries = []  # (depth, name, self us, cumulative us), children first
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, field = line[len("import time:") :].split("|")
        name = field.strip()
        entries.append(((len(field) - len(field.lstrip())) // 2, name, int(own), int(cumulative)))

    def subtree_s(package: str) -> float:
        inside = lambda name: name == package or name.startswith(package + ".")
        total, ancestors = 0, []
        for depth, name, _, cumulative in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            if inside(name) and not any(inside(a) for _, a in ancestors):
                total += cumulative
            ancestors.append((depth, name))
        return total / 1e6

    return {
        "import.total_s": sum(e[2] for e in entries) / 1e6,
        "import.numpy_s": subtree_s("numpy"),
        "import.scipy_special_s": subtree_s("scipy.special"),
        "import.scipy_stats_s": subtree_s("scipy.stats"),
        "import.anisohit_s": sum(e[2] for e in entries if e[1].split(".")[0] == "anisohit") / 1e6,
    }

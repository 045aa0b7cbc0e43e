"""In-memory span tracing for the ksblow benchmark.

A ``Tracer`` wraps the public ksblow functions that ``ksblow.cli``,
``ksblow.solver`` and ``ksblow.analysis`` call, by rebinding the names in
those module namespaces.  Each call records a span (name, start, end,
parent, run id); spans stay in memory until ``write`` is called at the end
of the iteration.  ``solve_banded`` runs once per time step, so it is
aggregated into a call count and a total time instead of one span per call.

Per-layer metrics are computed from the spans by ``layer_metrics``.  A name
that a later version of ksblow no longer has is simply not wrapped, and the
metrics that depend on it are left out.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time

TRACED_MODULES = ("ksblow.cli", "ksblow.solver", "ksblow.analysis")
HOT = {("ksblow.solver", "solve_banded"): "solver.solve_banded"}


class Tracer:
    def __init__(self, run_id=0):
        self.spans = []          # [name, start, end, parent index, info]
        self.totals = {}         # hot name -> [calls, seconds]
        self.run_id = run_id
        self.wrapped = set()     # span names that exist in this ksblow
        self._stack = []

    def _span(self, name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            record = [name, time.perf_counter(), None, parent, None]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                record[4] = info(result, args, kwargs)
            return result

        self.wrapped.add(name)
        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = tracer.totals.setdefault(name, [0, 0.0])
                slot[0] += 1
                slot[1] += time.perf_counter() - started

        self.wrapped.add(name)
        return wrapper

    def install(self):
        """Wrap the traced names in place; returns a function that undoes it."""
        import importlib

        from ksblow.signal import SignalProfile

        saved = []
        wrappers = {}
        for mod_name in TRACED_MODULES:
            module = importlib.import_module(mod_name)
            for attr, obj in list(vars(module).items()):
                hot = HOT.get((mod_name, attr))
                if hot is not None:
                    wrapper = self._counter(hot, obj)
                elif (inspect.isfunction(obj) and not attr.startswith("_")
                      and obj.__module__.startswith("ksblow.")):
                    if id(obj) not in wrappers:
                        name = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
                        wrappers[id(obj)] = self._span(name, obj, _INFO.get(name))
                    wrapper = wrappers[id(obj)]
                else:
                    continue
                saved.append((module, attr, obj))
                setattr(module, attr, wrapper)
        # every SignalProfile construction, wherever it happens, builds the cache
        if "__post_init__" in vars(SignalProfile):
            original = SignalProfile.__post_init__
            saved.append((SignalProfile, "__post_init__", original))
            SignalProfile.__post_init__ = self._span("signal.SignalProfile", original)

        def undo():
            for owner, attr, obj in reversed(saved):
                setattr(owner, attr, obj)

        return undo

    def write(self, path):
        """Append the spans and counters to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id, "info": info}) + "\n")
            for name, (calls, seconds) in self.totals.items():
                fh.write(json.dumps({"counter": name, "run": self.run_id,
                                     "calls": calls, "seconds": seconds}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics; metrics whose span is missing are absent."""
        # calls are nested and sequential, so the children of a span never overlap
        child_time = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        by_name = {}
        for index, (name, start, end, _, info) in enumerate(self.spans):
            self_s = (end - start) - child_time.get(index, 0.0)
            by_name.setdefault(name, []).append((end - start, self_s, info or {}))

        def calls(name):
            return len(by_name.get(name, ()))

        def total(name):
            return sum((d for d, _, _ in by_name.get(name, ())), 0.0)

        def mean_ms(name):
            n = calls(name)
            return 1e3 * total(name) / n if n else 0.0

        def infos(name, key):
            return [i[key] for _, _, i in by_name.get(name, ()) if i.get(key) is not None]

        out = {}

        def put(metric, needs, value):
            if all(n in self.wrapped for n in needs):
                out[metric] = value()

        cli_names = [n for n in self.wrapped if n.startswith("cli.")]
        put("cli.self_s", ["cli.main"],
            lambda: sum((s for n in cli_names for _, s, _ in by_name.get(n, ())), 0.0))
        put("config.load_s", ["config.load_config"], lambda: total("config.load_config"))
        put("signal.profile_builds", ["signal.SignalProfile"],
            lambda: calls("signal.SignalProfile"))
        put("signal.profile_build_ms", ["signal.SignalProfile"],
            lambda: mean_ms("signal.SignalProfile"))

        solve = "solver.solve_regularized"
        steps = sum(infos(solve, "steps"))
        put("solver.runs", [solve], lambda: calls(solve))
        put("solver.steps", [solve], lambda: steps)
        put("solver.solve_s", [solve], lambda: total(solve))
        put("solver.us_per_step", [solve], lambda: 1e6 * total(solve) / steps if steps else 0.0)
        put("solver.dt_min", [solve], lambda: min(infos(solve, "dt_min"), default=0.0))
        put("solver.dt_mean", [solve], lambda: sum(infos(solve, "t_end")) / steps if steps else 0.0)
        put("solver.sweep_s", ["solver.proper_sweep"], lambda: total("solver.proper_sweep"))
        tridiag = self.totals.get("solver.solve_banded", [0, 0.0])
        put("solver.tridiag_us_per_step", ["solver.solve_banded"],
            lambda: 1e6 * tridiag[1] / tridiag[0] if tridiag[0] else 0.0)

        put("transform.w0_s", ["transform.w0_from_density"],
            lambda: total("transform.w0_from_density"))
        put("transform.csv_files", ["transform.write_csv"], lambda: calls("transform.write_csv"))
        put("transform.csv_bytes", ["transform.write_csv"],
            lambda: sum(infos("transform.write_csv", "bytes")))
        put("transform.write_csv_s", ["transform.write_csv"], lambda: total("transform.write_csv"))

        ode, integral = "analysis.verify_ode_inequality", "analysis.verify_integral_bound"
        put("analysis.tuples", [ode], lambda: calls(ode))
        put("analysis.ode_check_ms", [ode], lambda: mean_ms(ode))
        put("analysis.integral_check_ms", [integral], lambda: mean_ms(integral))
        put("analysis.select_s", ["analysis.select_blowup_params"],
            lambda: total("analysis.select_blowup_params"))
        put("analysis.y_s", ["analysis.y_functional"], lambda: total("analysis.y_functional"))
        put("analysis.indicator_s", ["analysis.blowup_indicator"],
            lambda: total("analysis.blowup_indicator"))

        put("weakform.fields", ["weakform.weak_residual"], lambda: calls("weakform.weak_residual"))
        put("weakform.residual_s", ["weakform.weak_residual"],
            lambda: total("weakform.weak_residual"))
        return out


def _solve_info(traj, _args, _kwargs):
    meta = traj.metadata
    steps = meta.get("n_steps")
    dt = meta.get("dt_history", {})
    return {"steps": steps, "dt_min": dt.get("min"),
            "t_end": dt["mean"] * steps if steps and dt.get("mean") is not None else None}


def _csv_info(_result, args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)} if path is not None else {}


_INFO = {"solver.solve_regularized": _solve_info, "transform.write_csv": _csv_info}


def median_metrics(per_run: list) -> dict:
    """Median over runs of each metric present in every run."""
    if not per_run:
        return {}
    names = set.intersection(*(set(m) for m in per_run))
    return {name: statistics.median(m[name] for m in per_run) for name in sorted(names)}

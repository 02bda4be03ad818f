"""In-memory spans around calls into ferrocal's modules.

Spans are recorded from the benchmark's side: ``installed`` replaces each
listed function in its defining module with a wrapper, so calls that look
the name up in that module (the benchmark's own, and the program's internal
ones such as ``fit_family`` -> ``fit_lorentzian_cdf``) are timed, and the
originals are restored afterwards. Nothing under ``src/`` changes.
"""

import statistics
import time
from contextlib import contextmanager

# (module, function) pairs wrapped in a traced pass; the span name is
# "<module>.<function>", except that fit_family with share_offsets=True is
# recorded as "fitting.fit_family_shared"
TRACED = (
    ("simulate", "sample_ensemble"),
    ("simulate", "thresholds_at"),
    ("simulate", "run_protocol_sweep"),
    ("sweepio", "emit_sweep_csv"),
    ("sweepio", "parse_sweep_csv"),
    ("sweepio", "emit_fit_report"),
    ("sweepio", "parse_fit_report"),
    ("fitting", "fit_family"),
    ("fitting", "fit_lorentzian_cdf"),
    ("fitting", "curve_markers"),
    ("kinetics", "fit_merz_nested"),
    ("kinetics", "collapse_transform"),
    ("kinetics", "collapse_rms"),
    ("levels", "s0_filter_with_margin"),
    ("levels", "count_dac_levels"),
    ("levels", "program_voltage_for_weight"),
)


class Tracer:
    """Spans as dicts: name, start, end, parent index, pass label, error."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_label = None

    @contextmanager
    def span(self, name):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "pass": self.pass_label, "error": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, module_name, func):
        name = f"{module_name}.{func.__name__}"

        def traced(*args, **kwargs):
            span_name = name
            if func.__name__ == "fit_family" and kwargs.get("share_offsets"):
                span_name = "fitting.fit_family_shared"
            with self.span(span_name):
                return func(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every TRACED function of ``package`` for the duration."""
        saved = []
        try:
            for module_name, func_name in TRACED:
                module = getattr(package, module_name)
                func = getattr(module, func_name)
                saved.append((module, func_name, func))
                setattr(module, func_name, self._wrap(module_name, func))
            yield self
        finally:
            for module, func_name, func in saved:
                setattr(module, func_name, func)

    def self_time(self, index):
        """Span duration minus the part of it its child spans cover."""
        rec = self.spans[index]
        covered = 0.0
        cursor = rec["start"]
        children = sorted((s["start"], s["end"]) for s in self.spans if s["parent"] == index)
        for start, end in children:
            start, end = max(start, cursor), min(end, rec["end"])
            if end > start:
                covered += end - start
                cursor = end
        return rec["end"] - rec["start"] - covered

    def layer_value(self, name, value):
        """Sum of value(span index) over the spans called ``name`` in each
        pass, median over the traced passes of each workload, summed over
        workloads."""
        totals = {}
        for i, rec in enumerate(self.spans):
            if rec["name"] == name:
                totals[rec["pass"]] = totals.get(rec["pass"], 0.0) + value(i)
        by_workload = {}
        for (workload, _), total in totals.items():
            by_workload.setdefault(workload, []).append(total)
        return sum(statistics.median(v) for v in by_workload.values())

    def duration(self, index):
        rec = self.spans[index]
        return rec["end"] - rec["start"]

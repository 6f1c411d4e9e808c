"""Span recorder for the traced benchmark run.

The program has no tracing of its own, so the benchmark wraps the public
functions of each module and records a span around every call: name,
start, end, parent span and job id.  Spans stay in memory and are written
out when the run ends.  Times are CPU time of the process
(``process_time``), the clock the worker times whole jobs with.  Size
counters are taken from the return values at the same boundaries.

A wrapped function is replaced in every loaded ``wittdeg`` module that
holds it, so calls through imported names and aliases are traced too.
"""

from __future__ import annotations

import functools
import sys
from time import process_time

# (module, function, counter) for every public call on a job's path.  The
# counter, if any, adds size data from the return value to the job's counts.
TRACED = (
    ("groebner", "buchberger", lambda c, gb: _bump(c, "basis_size", len(gb.basis))),
    ("groebner", "standard_monomials", None),
    ("groebner", "supported_only_at_origin", None),
    ("groebner", "normal_form", None),
    ("groebner", "contains_one_with_certificate", None),
    ("degree", "degree_of", None),
    ("degree", "validate", None),
    ("degree", "bezoutian", lambda c, p: _bump(c, "bezoutian_terms", len(p.terms))),
    ("witt", "diagonalize", None),
    ("witt", "invariants", None),
    ("witt", "is_witt_zero", None),
    ("umrow", "compose_with_endo", None),
    ("umrow", "is_unimodular", None),
)


def _bump(counts: dict, key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


class Tracer:
    """Spans as lists ``[name, start, end, parent, job]``; parent is an index
    into ``spans`` or None for a job's root span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = None
        self._counts: dict = {}
        self._raised = None

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._counts = {}
        self._raised = None

    def end_job(self) -> tuple[dict, str | None]:
        """Counts of the job, and the innermost span an exception left."""
        return self._counts, self._raised

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, process_time(), None, parent, self._job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if self._raised is None:
                    self._raised = name
                raise
            finally:
                span[2] = process_time()
                stack.pop()
            if counter is not None:
                counter(self._counts, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in all loaded wittdeg modules."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "wittdeg"]
        for module_name, func_name, counter in TRACED:
            original = getattr(sys.modules[f"wittdeg.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    self_t = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            self_t[parent] -= end - start
    return self_t

"""Span tracer that times bikoeff's layers from outside the package.

Every wrapper is installed at the name where its caller looks the function
up (``bikoeff.oracle.minimize``, ``bikoeff.classes.compose``, ...), so the
package itself is not modified.  A wrapper records one span (name, start,
end, parent span, op id) in growing arrays and bumps counters at the same
boundary; self times are derived from the spans after the run.

A few functions are also called one row at a time from inside the
Nelder-Mead objective.  For those the wrapper splits by batch size: bulk
calls get a span, one-row calls of ``solve_fast``/``implied_q_fast``/
``a5_chain`` pass straight through (their time stays in the refine span),
and one-row ``eigvalsh`` calls get a ``caratheodory.psd_single`` span.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.fired: Counter = Counter()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def span(self, key, name, fn, before=None, after=None, traced_if=None):
        """Wrap ``fn``; ``traced_if(args)`` False means pass through untimed.

        ``fired`` counts calls under ``key``, and pass-throughs under
        ``key + "/pass"``, for the wrapper coverage check.
        """
        nid = self._nid(name)
        fired = self.fired
        passed = key + "/pass"

        def wrapper(*args, **kwargs):
            if traced_if is not None and not traced_if(args):
                fired[passed] += 1
                return fn(*args, **kwargs)
            fired[key] += 1
            state = before(self, args) if before else None
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after:
                after(self, args, result, state)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, target: str, name: str, **hooks):
        """Replace ``module.attr`` (or ``module.Class.attr``) by a traced wrapper."""
        path, _, attr = target.rpartition(".")
        try:
            owner = importlib.import_module(path)
        except ImportError:
            path, _, cls = path.rpartition(".")
            owner = getattr(importlib.import_module(path), cls)
        original = getattr(owner, attr)
        setattr(owner, attr, self.span(target, name, original, **hooks))
        self._undo.append((owner, attr, original))

    def install(self):
        for target, name, hooks in WRAPS:
            self.patch(target, name, **hooks)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return {"names": np.array(self.names), "name_id": np.array(self.name_id),
                "parent": np.array(self.parent), "op": np.array(self.op),
                "start": np.array(self.start), "end": np.array(self.end)}

    def self_times(self, upto: int | None = None):
        """(self time by span name, calls by span name, time covered by root spans).

        ``upto`` limits the analysis to the first ``upto`` spans, such as
        those of pass 0; a span's parent always precedes it.
        """
        a = self.arrays()
        nid, parent = a["name_id"][:upto], a["parent"][:upto]
        dur = a["end"][:upto] - a["start"][:upto]
        inside = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[inside], dur[inside])
        own = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        return ({n: float(own[k]) for k, n in enumerate(self.names)},
                {n: int(calls[k]) for k, n in enumerate(self.names)},
                float(dur[~inside].sum()))


# ---------------------------------------------------------------------------
# What is wrapped, under which span name, and which counters it feeds
# ---------------------------------------------------------------------------


def _rows(arr) -> int:
    return arr.shape[0] if getattr(arr, "ndim", 0) >= 2 else 1


def _bulk_p(args):
    return _rows(args[1]) > 1


def _bulk_a(args):
    return getattr(args[1], "ndim", 0) >= 1 and args[1].shape[0] > 1


def _eig_single(args):
    a = args[0]
    return a.ndim == 2 or a.shape[0] == 1


def _after_moments(t, args, result, state):
    t.counts["caratheodory.samples"] += args[1]


def _after_mask(t, args, result, state):
    t.counts["caratheodory.psd_rows"] += len(result)
    t.counts["caratheodory.feasible_rows"] += int(result.sum())


def _after_minimize(t, args, result, state):
    t.counts["oracle.refine_calls"] += 1
    t.counts["oracle.refine_nfev"] += int(result.nfev)
    t.counts["oracle.refine_success"] += bool(result.success)


def _before_search(t, args):
    return t.counts["oracle.refine_calls"]


def _after_search(t, args, result, state):
    if t.counts["oracle.refine_calls"] > state:
        t.counts["oracle.refined_reports"] += 1
        t.counts["oracle.refine_wins"] += bool(result.argmax.get("refined"))


def _after_eig(t, args, result, state):
    t.counts["caratheodory.psd_single_calls"] += 1


WRAPS = [
    ("bikoeff.cli.main", "cli.main", {}),
    ("bikoeff.cli.parse_spec", "classes.parse", {}),
    ("bikoeff.classes.parse_spec", "classes.parse", {}),
    ("bikoeff.classes.solve_coefficients", "classes.solve_exact", {}),
    ("bikoeff.classes.implied_q", "classes.implied_q_exact", {}),
    ("bikoeff.classes.apply_operator", "classes.apply_operator", {}),
    ("bikoeff.cli.apply_operator", "classes.apply_operator", {}),
    ("bikoeff.classes.compose", "series.compose", {}),
    ("bikoeff.classes.revert", "series.revert", {}),
    ("bikoeff.cli.revert", "series.revert", {}),
    ("bikoeff.cli.class_bounds", "bounds", {}),
    ("bikoeff.cli.st_rho_a5", "bounds", {}),
    ("bikoeff.cli.ss_beta_a5", "bounds", {}),
    ("bikoeff.oracle.class_bounds", "bounds", {}),
    ("bikoeff.oracle.st_rho_a5", "bounds", {}),
    ("bikoeff.oracle.ss_beta_a5", "bounds", {}),
    ("bikoeff.bounds.class_bounds", "bounds", {}),
    ("bikoeff.cli.max_coeff", "oracle.search",
     {"before": _before_search, "after": _after_search}),
    ("bikoeff.cli.check_a5_system", "oracle.search",
     {"before": _before_search, "after": _after_search}),
    ("bikoeff.oracle.solve_fast", "oracle.solve_bulk", {"traced_if": _bulk_p}),
    ("bikoeff.oracle.a5_chain", "oracle.solve_bulk", {"traced_if": _bulk_p}),
    ("bikoeff.oracle.implied_q_fast", "oracle.implied_q_bulk", {"traced_if": _bulk_a}),
    ("bikoeff.oracle.minimize", "oracle.refine", {"after": _after_minimize}),
    ("bikoeff.caratheodory.MeasureSampler.moments", "caratheodory.sample",
     {"after": _after_moments}),
    ("bikoeff.oracle.admissible_mask", "caratheodory.psd_bulk", {"after": _after_mask}),
    ("bikoeff.oracle.smallest_eigenvalue", "caratheodory.psd_single", {}),
    ("bikoeff.caratheodory.smallest_eigenvalue", "caratheodory.psd_single", {}),
    ("numpy.linalg.eigvalsh", "caratheodory.psd_single",
     {"traced_if": _eig_single, "after": _after_eig}),
]

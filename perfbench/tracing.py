"""Per-layer tracing of odefilter, installed from outside the package.

``Tracer.install`` replaces public functions of each module, and a few
internal ones, with timing wrappers, each where its caller looks the name up
(``cli`` imports ``solve`` and ``get_problem`` by name, so those are patched
on ``odefilter.cli``).  Nothing in ``src/`` changes.  A target that no longer
exists is skipped and every metric that needs it is reported absent, so a
refactor that removes, say, ``predict_covariance`` does not break the run.

Calls come in two sizes:

* spans: cells, solves, diagnostics, set-up, order-bound fits, output.  Each
  keeps name, start, end, parent span, thread and cell id.  Spans opened on a
  sweep-pool thread take the active ``cli.main`` span as their parent.
* leaf calls: ``f``, exact solutions, derivative maps, covariance kernels,
  prior transitions, noise parsing, closed forms.  There are millions of
  them, so each adds its count and time to the innermost span of its thread
  instead of recording a span of its own.

Spans stay in memory and are written out once, when the traced pass ends.
Self times are computed per thread, because the sweep pool overlaps cells.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import threading
import time

#: Leaf names whose time counts as covariance-kernel time.
COV_LEAVES = ("filtering.predict_covariance", "filtering.update_covariance")

# name -> (module, attribute path, wrapper kind)
TARGETS = {
    "cli.get_problem": ("odefilter.cli", "get_problem", "problem"),
    "cli.solve": ("odefilter.cli", "solve", "solve"),
    "cli._execute": ("odefilter.cli", "_execute", "cell"),
    "noise.parse_noise": ("odefilter.cli", "parse_noise", "leaf"),
    "cli._write_csv": ("odefilter.cli", "_write_csv", "span"),
    "svgchart.render_loglog": ("odefilter.svgchart", "render_loglog", "span"),
    "diagnostics.global_error": ("odefilter.diagnostics", "global_error", "span"),
    "diagnostics.credible_width": ("odefilter.diagnostics", "credible_width", "span"),
    "diagnostics.misalignment": ("odefilter.diagnostics", "misalignment", "span"),
    "steady_state.verify_order_bounds": (
        "odefilter.steady_state",
        "verify_order_bounds",
        "span",
    ),
    "steady_state.orbit_limit": ("odefilter.steady_state", "orbit_limit", "span"),
    "steady_state.closed_form": ("odefilter.steady_state", "closed_form", "leaf"),
    "filtering.predict_covariance": ("odefilter.filtering", "predict_covariance", "leaf"),
    "filtering.update_covariance": ("odefilter.filtering", "update_covariance", "leaf"),
    "priors.PriorSpec.transition": ("odefilter.priors", "PriorSpec.transition", "transition"),
    "steady_state.ibm_transition": ("odefilter.steady_state", "ibm_transition", "ibm"),
}

# Per-layer metric -> (unit, targets it needs).  Problem callables (f, exact,
# derivatives) are wrapped on the problems get_problem returns.
PER_LAYER = {
    "filtering.solves": ("count", ("cli.solve",)),
    "filtering.steps": ("count", ("cli.solve",)),
    "filtering.solve_s": ("s", ("cli.solve",)),
    "filtering.us_per_step": ("us", ("cli.solve",)),
    "filtering.diverged": ("count", ("cli.solve",)),
    "filtering.cov_s": ("s", COV_LEAVES),
    "filtering.mean_s": (
        "s",
        ("cli.solve", "cli.get_problem", "priors.PriorSpec.transition") + COV_LEAVES,
    ),
    "filtering.cov_useful": ("ratio", ("cli.solve",)),
    "problems.setup_calls": ("count", ("cli.get_problem",)),
    "problems.setup_s": ("s", ("cli.get_problem",)),
    "problems.setup_useful": ("ratio", ("cli.get_problem",)),
    "problems.f_evals": ("count", ("cli.get_problem",)),
    "problems.f_s": ("s", ("cli.get_problem",)),
    "problems.exact_calls": ("count", ("cli.get_problem",)),
    "problems.exact_s": ("s", ("cli.get_problem",)),
    "problems.derivative_calls": ("count", ("cli.get_problem",)),
    "priors.transition_calls": ("count", ("priors.PriorSpec.transition",)),
    "priors.transition_s": ("s", ("priors.PriorSpec.transition",)),
    "priors.transition_useful": ("ratio", ("priors.PriorSpec.transition",)),
    "noise.parse_calls": ("count", ("noise.parse_noise",)),
    "diagnostics.global_error_s": ("s", ("diagnostics.global_error",)),
    "diagnostics.credible_width_s": ("s", ("diagnostics.credible_width",)),
    "diagnostics.misalignment_s": ("s", ("diagnostics.misalignment",)),
    "diagnostics.calls": (
        "count",
        ("diagnostics.global_error", "diagnostics.credible_width", "diagnostics.misalignment"),
    ),
    "steady_state.order_bounds_s": ("s", ("steady_state.verify_order_bounds",)),
    "steady_state.orbit_limit_s": ("s", ("steady_state.orbit_limit",)),
    "steady_state.orbit_limit_calls": ("count", ("steady_state.orbit_limit",)),
    "steady_state.closed_form_calls": ("count", ("steady_state.closed_form",)),
    "cli.self_s": ("s", ()),
    "cli.parallel_speedup": ("ratio", ("cli._execute",)),
    "cli.output_s": ("s", ("cli._write_csv",)),
    "cli.csv_bytes": ("bytes", ()),
    "trace.overhead": ("ratio", ()),
}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int
    thread: str
    cell: int
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)
    leaf: dict = dataclasses.field(default_factory=dict)  # name -> [calls, seconds]


class _ThreadState:
    def __init__(self, name: str):
        self.name = name
        self.stack = []
        self.spans = []
        self.loose = {}  # leaf calls made outside any span
        self.keys = {}  # leaf name -> set of distinct argument keys


class Tracer:
    """Collects spans and leaf counts of one traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._ids = itertools.count(1)
        self._patches = []
        self.root = 0  # id of the open cli.main span; parent of pool-thread spans
        self.present = set()
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            self._threads.append(state)  # list.append is atomic under the GIL
        return state

    def open(self, name: str, cell_root: bool = False) -> Span:
        state = self._state()
        top = state.stack[-1] if state.stack else None
        span_id = next(self._ids)
        parent = top.id if top else self.root
        cell = span_id if cell_root else (top.cell if top else self.root)
        span = Span(span_id, name, parent, state.name, cell, time.perf_counter())
        state.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        state = self._state()
        state.stack.pop()
        state.spans.append(span)

    def leaf(self, name: str, fn, key=None):
        """Wrap fn so each call adds its count and time to the open span."""
        local, new_state, clock = self._local, self._state, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                state = getattr(local, "state", None) or new_state()
                bucket = state.stack[-1].leaf if state.stack else state.loose
                record = bucket.get(name)
                if record is None:
                    record = bucket[name] = [0, 0.0]
                record[0] += 1
                record[1] += dt
                if key is not None:
                    state.keys.setdefault(name, set()).add(key(*args, **kwargs))

        return wrapper

    def span_wrapper(self, name: str, fn, cell_root: bool = False, describe=None):
        """Wrap fn in a span; ``describe(result, *args)`` adds attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, cell_root)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if describe is not None:
                span.attrs.update(describe(result, *args, **kwargs))
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for target, (module_name, path, kind) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, self._wrap(target, kind, original))
            self._patches.append((owner, attr, original))
            self.present.add(target)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, target: str, kind: str, fn):
        if kind == "leaf":
            return self.leaf(target, fn)
        if kind == "transition":
            return self.leaf(
                "priors.transition",
                fn,
                key=lambda spec, h, *a, **k: (spec.kind, spec.q, spec.theta, spec.sigma, h),
            )
        if kind == "ibm":
            return self.leaf(
                "priors.transition", fn, key=lambda q, sigma, h: ("ibm", q, 0.0, sigma, h)
            )
        if kind == "span":
            return self.span_wrapper(target, fn)
        if kind == "cell":
            return self.span_wrapper("cli.cell", fn, cell_root=True)
        if kind == "solve":
            return self.span_wrapper("filtering.solve", fn, describe=_describe_solve)
        if kind == "problem":
            return self.span_wrapper(
                "problems.get_problem",
                self._wrap_problem(fn),
                describe=lambda problem, name, *a, **k: {"problem": name},
            )
        raise ValueError(kind)

    def _wrap_problem(self, get_problem):
        """get_problem whose problems count calls of f, exact and derivatives."""

        @functools.wraps(get_problem)
        def wrapper(name, *args, **kwargs):
            problem = get_problem(name, *args, **kwargs)
            fields = {}
            if callable(getattr(problem, "f", None)):
                fields["f"] = self.leaf("problems.f", problem.f)
            if callable(getattr(problem, "exact", None)):
                fields["exact"] = self.leaf("problems.exact", problem.exact)
            if isinstance(getattr(problem, "derivatives", None), tuple):
                fields["derivatives"] = tuple(
                    self.leaf("problems.derivative", g) for g in problem.derivatives
                )
            return dataclasses.replace(problem, **fields)

        return wrapper

    # -- results -----------------------------------------------------------

    def spans(self) -> list:
        return [span for state in self._threads for span in state.spans]

    def write(self, path) -> None:
        """Write every span, with its self time, as one JSON object per line."""
        spans = self.spans()
        self_s = _self_times(spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(spans, key=lambda s: s.start):
                record = dataclasses.asdict(span)
                record["start"] = span.start - self.t0
                record["end"] = span.end - self.t0
                record["self_s"] = self_s[span.id]
                fh.write(json.dumps(record) + "\n")
            for state in self._threads:
                if state.loose:
                    fh.write(json.dumps({"thread": state.name, "loose": state.loose}) + "\n")

    def metrics(self, csv_bytes: int, overhead: float) -> tuple:
        """Per-layer metrics of the traced pass, and the names reported absent."""
        spans = self.spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        leaf_totals = {}
        buckets = [span.leaf for span in spans] + [state.loose for state in self._threads]
        for bucket in buckets:
            for name, (calls, secs) in bucket.items():
                total = leaf_totals.setdefault(name, [0, 0.0])
                total[0] += calls
                total[1] += secs
        keys = {}
        for state in self._threads:
            for name, seen in state.keys.items():
                keys.setdefault(name, set()).update(seen)

        def busy(name):
            return sum(span.end - span.start for span in by_name.get(name, ()))

        def calls(name):
            return len(by_name.get(name, ()))

        def leaf_calls(name):
            return leaf_totals.get(name, [0, 0.0])[0]

        def leaf_s(name):
            return leaf_totals.get(name, [0, 0.0])[1]

        solves = by_name.get("filtering.solve", [])
        steps = sum(span.attrs.get("steps", 0) for span in solves)
        # The covariance recursion is data-free: solves with the same (prior,
        # h, R) run prefixes of one pass, so only the longest is needed.
        longest = {}
        for span in solves:
            key = span.attrs.get("cov_key", span.id)
            longest[key] = max(longest.get(key, 0), span.attrs.get("steps", 0))
        self_s = _self_times(spans)
        mains = by_name.get("cli.main", [])
        cells = by_name.get("cli.cell", [])
        sweep_wall = 0.0
        for main in mains:
            own = [c for c in cells if c.parent == main.id]
            if own:
                sweep_wall += max(c.end for c in own) - min(c.start for c in own)
        problem_calls = by_name.get("problems.get_problem", [])
        values = {
            "filtering.solves": len(solves),
            "filtering.steps": steps,
            "filtering.solve_s": busy("filtering.solve"),
            "filtering.us_per_step": 1e6 * busy("filtering.solve") / steps if steps else 0.0,
            "filtering.diverged": sum(span.attrs.get("diverged", False) for span in solves),
            "filtering.cov_s": sum(leaf_s(name) for name in COV_LEAVES),
            "filtering.mean_s": sum(self_s[span.id] for span in solves),
            "filtering.cov_useful": _ratio(sum(longest.values()), steps),
            "problems.setup_calls": len(problem_calls),
            "problems.setup_s": busy("problems.get_problem"),
            "problems.setup_useful": _ratio(
                len({span.attrs.get("problem") for span in problem_calls}), len(problem_calls)
            ),
            "problems.f_evals": leaf_calls("problems.f"),
            "problems.f_s": leaf_s("problems.f"),
            "problems.exact_calls": leaf_calls("problems.exact"),
            "problems.exact_s": leaf_s("problems.exact"),
            "problems.derivative_calls": leaf_calls("problems.derivative"),
            "priors.transition_calls": leaf_calls("priors.transition"),
            "priors.transition_s": leaf_s("priors.transition"),
            "priors.transition_useful": _ratio(
                len(keys.get("priors.transition", ())), leaf_calls("priors.transition")
            ),
            "noise.parse_calls": leaf_calls("noise.parse_noise"),
            "diagnostics.global_error_s": busy("diagnostics.global_error"),
            "diagnostics.credible_width_s": busy("diagnostics.credible_width"),
            "diagnostics.misalignment_s": busy("diagnostics.misalignment"),
            "diagnostics.calls": sum(
                calls(f"diagnostics.{n}")
                for n in ("global_error", "credible_width", "misalignment")
            ),
            "steady_state.order_bounds_s": busy("steady_state.verify_order_bounds"),
            "steady_state.orbit_limit_s": busy("steady_state.orbit_limit"),
            "steady_state.orbit_limit_calls": calls("steady_state.orbit_limit"),
            "steady_state.closed_form_calls": leaf_calls("steady_state.closed_form"),
            "cli.self_s": sum(_union_self(main, spans) for main in mains),
            "cli.parallel_speedup": (
                sum(c.end - c.start for c in cells) / sweep_wall if sweep_wall else 1.0
            ),
            "cli.output_s": busy("cli._write_csv") + busy("svgchart.render_loglog"),
            "cli.csv_bytes": csv_bytes,
            "trace.overhead": overhead,
        }
        absent = sorted(
            name
            for name, (_, needs) in PER_LAYER.items()
            if not all(target in self.present for target in needs)
        )
        return {name: v for name, v in values.items() if name not in absent}, absent


def _describe_solve(traj, problem, prior, h, noise, *args, **kwargs) -> dict:
    return {
        "steps": round(problem.T / h),
        "diverged": bool(getattr(traj, "diverged", False)),
        "cov_key": repr((prior.kind, prior.q, prior.theta, prior.sigma, h, noise.evaluate(h))),
    }


def _ratio(useful: int, attempts: int) -> float:
    """useful / attempts; 1.0 when nothing was attempted (nothing wasted)."""
    return useful / attempts if attempts else 1.0


def _self_times(spans) -> dict:
    """Span duration minus its same-thread child spans and leaf calls."""
    own = {span.id: span.end - span.start - sum(r[1] for r in span.leaf.values()) for span in spans}
    thread_of = {span.id: span.thread for span in spans}
    for span in spans:
        if thread_of.get(span.parent) == span.thread:
            own[span.parent] -= span.end - span.start
    return own


def _union_self(main: Span, spans) -> float:
    """main's wall minus the union of its child spans (any thread) and leaves."""
    intervals = sorted((s.start, s.end) for s in spans if s.parent == main.id)
    covered, reach = 0.0, main.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    leaves = sum(r[1] for r in main.leaf.values())
    return main.end - main.start - covered - leaves

"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions of ``operators``,
``howard``, ``eigen``, ``branches``, ``checks``, ``artifacts`` and ``cli`` --
at every module that bound them by name -- plus ``scipy.sparse.linalg.splu``
and ``scipy.linalg.solve_banded``, with wrappers that record a span per
call. ``uninstall()`` puts the originals back, so untraced passes run the
unmodified program.

Spans nest per thread. A span's self time is its duration minus the
durations of its direct children; spans are folded into per-(name, parent)
totals as they close rather than kept, which keeps memory flat on passes
with hundreds of thousands of operator applications. ``grids`` gets no spans:
its calls are array arithmetic whose time lands in the callers' self time.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import scipy.linalg
import scipy.sparse.linalg

import hjbranch.artifacts
import hjbranch.branches
import hjbranch.checks
import hjbranch.cli
import hjbranch.eigen
import hjbranch.howard
from hjbranch.errors import EigenIterationError
from hjbranch.operators import DiscreteOperator, Linearization

REGIME_ENTRY_POINTS = ("sweep_subcritical", "locate_tstar_resonance", "trace_resonant_branch",
           "trace_fold", "sweep_negative_regime")
ARTIFACT_WRITERS = ("write_csv", "write_json", "write_jsonl", "write_grid_function",
                    "write_branch", "svg_diagram")


class _Span:
    __slots__ = ("name", "parent", "child_time", "children", "duration")

    def __init__(self, name: str, parent: "_Span | None"):
        self.name = name
        self.parent = parent
        self.child_time = 0.0
        self.children: Counter = Counter()
        self.duration = 0.0


class Tracer:
    """Counters and span totals for one traced pass (see ``reset``)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.bindings = 0
        self.sites: dict[str, list[str]] = {}
        self.reset()

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.factor_keys: dict[str, set] = {"operators": set(), "branches": set()}
        self.suite_seconds: dict[int, float] = {}
        self.mismatches: list[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> _Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn, on_return=None, on_error=None):
        """Wrapper recording a span ``name`` (a string, or a function of the
        parent span giving the name) around each call of ``fn``."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = _Span(name(parent) if callable(name) else name, parent)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, perf_counter() - t0, stack)
                if on_error is not None:
                    on_error(span, exc)
                raise
            tracer._close(span, perf_counter() - t0, stack)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _close(self, span: _Span, duration: float, stack: list) -> None:
        stack.pop()
        span.duration = duration
        parent = span.parent
        if parent is not None:
            parent.child_time += duration
            parent.children[span.name] += 1
        with self._lock:
            entry = self.spans[(span.name, parent.name if parent else None)]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - span.child_time

    # -- layer hooks ----------------------------------------------------

    def _on_solve(self, span, args, kwargs, result):
        rep = result[1]
        with self._lock:
            self.counts["howard.policy_iters"] += rep.iters
            self.counts["howard.converged"] += int(rep.converged)
            self.counts["howard.diverged"] += int(rep.status == hjbranch.howard.DIVERGED)
            self.counts["howard.damping_events"] += rep.damping_events
        if span.children["operators.linearize"] != rep.iters:
            self.mismatches.append(
                f"howard.solve: {span.children['operators.linearize']} linearizations "
                f"for SolveReport.iters={rep.iters}")

    def _on_eigen(self, span, args, kwargs, pair):
        with self._lock:
            self.counts["eigen.iters_returned"] += pair.iters
            self.counts["eigen.steps_returned"] += span.children["howard.solve"]
        if span.children["howard.solve"] != pair.iters:
            self.mismatches.append(
                f"principal_eigen: {span.children['howard.solve']} inverse steps "
                f"for EigenPair.iters={pair.iters}")

    def _on_eigen_error(self, span, exc):
        if isinstance(exc, EigenIterationError):
            with self._lock:
                self.counts["eigen.failed"] += 1

    def _on_tstar(self, span, args, kwargs, crit):
        with self._lock:
            self.counts["branches.tstar.levels"] += len(crit.diagnostics["levels"])

    def _on_fold(self, span, args, kwargs, result):
        minimal, second, _ = result
        with self._lock:
            self.counts["branches.fold.points"] += len(minimal.points) + len(second.points)

    def _on_suite(self, span, args, kwargs, result):
        jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
        with self._lock:
            self.suite_seconds[jobs] = self.suite_seconds.get(jobs, 0.0) + span.duration

    def _on_write(self, span, args, kwargs, result):
        if span.parent is not None and span.parent.name == "artifacts.write":
            return
        size = os.path.getsize(args[0])
        with self._lock:
            self.counts["artifacts.bytes"] += size

    @staticmethod
    def _factor_name(parent: _Span | None) -> str:
        if parent is not None and parent.name.startswith("branches."):
            return "branches.bordered_factor"
        return "operators.factor"

    def _splu(self, fn):
        traced = self.wrap(self._factor_name, fn)
        tracer = self

        def splu(A, *args, **kwargs):
            csc = A.tocsc()
            key = hashlib.blake2b(digest_size=16)
            for part in (csc.indptr, csc.indices, csc.data):
                key.update(part.tobytes())
            layer = tracer._factor_name(tracer.current()).split(".")[0]
            with tracer._lock:
                tracer.factor_keys[layer].add((csc.shape, key.hexdigest()))
            return traced(A, *args, **kwargs)

        return splu

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> list[str]:
        """Rebind ``original`` at every package module that holds it;
        returns the modules it was found in."""
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hjbranch" or mod_name.startswith("hjbranch.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    sites.append(mod_name)
        return sites

    def install(self) -> list[str]:
        """Patch every layer boundary; returns the integrity problems found.

        ``self.sites`` maps each wrapped package function to the modules
        that bound it by name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions = [
            (hjbranch.howard.solve, "howard.solve", self._on_solve, None),
            (hjbranch.eigen.principal_eigen, "eigen.principal", self._on_eigen,
             self._on_eigen_error),
            (hjbranch.branches.prepare, "branches.prepare", None, None),
            (hjbranch.checks.run_suite, "checks.run_suite", self._on_suite, None),
            (hjbranch.cli.parse_scenario, "cli.parse_scenario", None, None),
            (hjbranch.cli.run_command, "cli.run_command", None, None),
        ]
        hooks = {"locate_tstar_resonance": self._on_tstar, "trace_fold": self._on_fold}
        for entry in REGIME_ENTRY_POINTS:
            functions.append((getattr(hjbranch.branches, entry), f"branches.{entry}",
                              hooks.get(entry), None))
        for writer in ARTIFACT_WRITERS:
            functions.append((getattr(hjbranch.artifacts, writer), "artifacts.write",
                              self._on_write, None))
        self.sites = {}
        for fn, name, on_return, on_error in functions:
            wrapper = self.wrap(name, fn, on_return, on_error)
            self.sites[f"{fn.__module__}.{fn.__name__}"] = self._replace_everywhere(fn, wrapper)

        self._set(DiscreteOperator, "apply_flat",
                  self.wrap("operators.apply", DiscreteOperator.apply_flat))
        self._set(DiscreteOperator, "linearize",
                  self.wrap("operators.linearize", DiscreteOperator.linearize))
        self._set(Linearization, "solve", self.wrap("operators.solve", Linearization.solve))
        self._set(Linearization, "matrix",
                  property(self.wrap("operators.matrix", Linearization.matrix.fget)))
        self._set(scipy.sparse.linalg, "splu", self._splu(scipy.sparse.linalg.splu))
        self._set(scipy.linalg, "solve_banded",
                  self.wrap("operators.banded", scipy.linalg.solve_banded))

        self.bindings = len(self._patches)
        return [f"{fn} is bound nowhere" for fn, where in self.sites.items() if not where]

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- per-layer metrics ---------------------------------------------

    def _sum(self, name: str, column: int, under: str | None = None,
             not_under: str | None = None) -> float:
        """Column total of span ``name``, optionally only with (or without)
        a given parent span."""
        return sum(entry[column] for (span, parent), entry in self.spans.items()
                   if span == name and (under is None or parent == under)
                   and (not_under is None or parent != not_under))

    def layer_metrics(self) -> dict[str, float]:
        calls = lambda n, **kw: self._sum(n, 0, **kw)  # noqa: E731
        total = lambda n, **kw: self._sum(n, 1, **kw)  # noqa: E731
        own = lambda n, **kw: self._sum(n, 2, **kw)  # noqa: E731
        c = self.counts
        m: dict[str, float] = {}
        factor_calls = calls("operators.factor")
        m["operators.factor.calls"] = factor_calls
        m["operators.factor.s"] = total("operators.factor")
        m["operators.factor.distinct"] = len(self.factor_keys["operators"])
        m["operators.factor.useful_frac"] = (
            len(self.factor_keys["operators"]) / factor_calls if factor_calls else 0.0)
        m["operators.apply.calls"] = calls("operators.apply")
        m["operators.apply.self_s"] = own("operators.apply")
        m["operators.linearize.calls"] = calls("operators.linearize")
        m["operators.linearize.self_s"] = own("operators.linearize")
        m["operators.matrix.self_s"] = own("operators.matrix")
        m["operators.solve.self_s"] = own("operators.solve")
        m["operators.banded.calls"] = calls("operators.banded")
        m["operators.banded.s"] = total("operators.banded")
        solves = calls("howard.solve")
        m["howard.solve.calls"] = solves
        m["howard.solve.self_s"] = own("howard.solve")
        m["howard.policy_iters"] = c["howard.policy_iters"]
        m["howard.iters_per_solve"] = c["howard.policy_iters"] / solves if solves else 0.0
        m["howard.converged_frac"] = c["howard.converged"] / solves if solves else 0.0
        m["howard.diverged"] = c["howard.diverged"]
        m["howard.damping_events"] = c["howard.damping_events"]
        m["eigen.principal.calls"] = calls("eigen.principal")
        m["eigen.principal.self_s"] = own("eigen.principal")
        m["eigen.inverse_steps"] = calls("howard.solve", under="eigen.principal")
        m["eigen.failed"] = c["eigen.failed"]
        m["branches.prepare.s"] = total("branches.prepare")
        for entry in REGIME_ENTRY_POINTS:
            m[f"branches.{entry}.self_s"] = own(f"branches.{entry}")
        m["branches.bordered_factor.calls"] = calls("branches.bordered_factor")
        m["branches.bordered_factor.s"] = total("branches.bordered_factor")
        m["branches.tstar.levels"] = c["branches.tstar.levels"]
        m["branches.fold.points"] = c["branches.fold.points"]
        m["checks.run_suite.s"] = self.suite_seconds.get(1, 0.0)
        jobs2 = self.suite_seconds.get(2, 0.0)
        m["checks.jobs2_speedup"] = m["checks.run_suite.s"] / jobs2 if jobs2 else 0.0
        m["artifacts.write.calls"] = calls("artifacts.write", not_under="artifacts.write")
        m["artifacts.write.s"] = total("artifacts.write", not_under="artifacts.write")
        m["artifacts.bytes"] = c["artifacts.bytes"]
        m["cli.parse_scenario.s"] = total("cli.parse_scenario")
        m["cli.run_command.self_s"] = own("cli.run_command")
        return m

    def integrity(self) -> list[str]:
        """Self-checks of the wrapping for the pass just traced."""
        problems = list(self.mismatches)
        lin = self._sum("operators.linearize", 0, under="howard.solve")
        if lin != self.counts["howard.policy_iters"]:
            problems.append(f"linearize calls under howard.solve ({lin}) != "
                            f"sum of SolveReport.iters ({self.counts['howard.policy_iters']})")
        if self.counts["eigen.steps_returned"] != self.counts["eigen.iters_returned"]:
            problems.append("inverse steps of returned principal_eigen calls != "
                            "sum of EigenPair.iters")
        return problems

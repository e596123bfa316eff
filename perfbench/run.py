"""hjbranch benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload {fold2d,tstar2d,cli1d,all} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. ``--trace 0`` measures the end-to-end metrics with the
program untouched. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (``tracer.py``) plus the tracing overhead.
``--smoke`` uses tiny grids and one pass (two with tracing), for the
benchmark's own test.

A pass runs every op of the workload once, in a single process; only the
``suite --jobs 2`` op of ``cli1d`` starts threads. Passes repeat until the
next one would end after ``--seconds`` (at least the workload's minimum).
Set-up time is measured in fresh interpreters, one after another.

Human-readable lines start with ``#``; the last line of standard output is
the JSON result. Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import env

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fold2d", "tstar2d", "cli1d")
SETUP_PROBES = 9
TAIL_BEYOND = 10


@dataclass
class OpResult:
    label: str
    seconds: float
    ok: bool
    detail: str
    digest: str
    probe: bool
    known_probe_failure: bool = False


class Pass:
    def __init__(self, index: int, traced: bool, results: list[OpResult]):
        self.index = index
        self.traced = traced
        self.results = results
        self.layers: dict[str, float] = {}
        self.jobs2_s = 0.0
        self.integrity: list[str] = []

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.results if not r.probe)


def load_spec() -> dict:
    spec_path = env.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("error: BENCHMARK.json not found at the checkout root", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(spec_path.read_text(encoding="utf-8"))


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    return loose.read_text().strip() if loose.is_file() else f"unknown ({name})"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_environment(args, argv) -> None:
    import numpy
    import scipy

    import hjbranch

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a"
    print(f"# command: {' '.join([Path(sys.executable).name, *argv])}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print(f"# nproc={os.cpu_count()} affinity={affinity} cpu={cpu_model()!r}")
    print(f"# python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} hjbranch={hjbranch.__version__} "
          f"commit={git_commit(env.ROOT)}")
    print("# threads: " + " ".join(f"{v}={os.environ[v]}" for v in env.THREAD_VARS))
    print(f"# malloc: GLIBC_TUNABLES={os.environ.get('GLIBC_TUNABLES', '')}")


def host_speed_reference() -> float:
    """Seconds of a fixed pure-Python loop, best of five. Printed, not a
    metric: it tells a change of host speed between runs (shared hosts
    drift by tens of percent over minutes) from a change of the program."""
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        best = min(best, perf_counter() - t0)
    return best


def measure_setup(args, workdir: Path) -> list[float]:
    times = []
    for k in range(1 if args.smoke else SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--work", str(workdir / f"setup{k}")]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=env.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        print(f"# setup probe {k + 1}: {times[-1]:.4f} s (fresh interpreter)")
    return times


def run_pass(wl, index: int, traced: bool, workdir: Path) -> Pass:
    results = []
    out_root = workdir / f"pass{index}"
    for i, op in enumerate(wl.ops):
        out = out_root / f"{i:02d}"
        seconds = None
        t0 = perf_counter()
        try:
            result = op.run(out)
            seconds = perf_counter() - t0
            ok, detail = op.gate(result, out)
            digest = op.digest(result, out)
        except Exception as exc:  # an op or gate that raises is a failed op, not a crash
            seconds = perf_counter() - t0 if seconds is None else seconds
            reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            results.append(OpResult(op.label, seconds, False, f"raised {reason}", "",
                                    op.probe))
            continue
        known = op.probe and not ok and op.expected_failure(result)
        results.append(OpResult(op.label, seconds, ok, detail, digest, op.probe, known))
    shutil.rmtree(out_root, ignore_errors=True)
    return Pass(index, traced, results)


def check_identical(passes: list[Pass]) -> None:
    """Numeric payloads of every pass must equal those of the first pass."""
    first = passes[0].results
    for p in passes[1:]:
        for ref, r in zip(first, p.results):
            if r.ok and r.digest != ref.digest:
                r.ok = False
                r.detail += f"; payload differs from pass {passes[0].index}"


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it; the
    maximum when that percentile would fall below the median."""
    s = sorted(samples)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        return s[-1], f"max of n={n}; too few samples for {TAIL_BEYOND} beyond"
    k = n - TAIL_BEYOND - 1
    return s[k], f"p{100.0 * (k + 1) / n:.1f} of n={n}, {TAIL_BEYOND} beyond"


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    lat = [r.seconds for p in passes for r in p.results if not r.probe]
    ok_timed = sum(1 for p in passes for r in p.results if not r.probe and r.ok)
    walls = [p.wall for p in passes]
    tail_value, tail_note = tail(lat)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "ok_ops_per_s": ok_timed / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"median of {len(walls)} passes, probe ops excluded",
        "op_p50_s": f"median of n={len(lat)} op latencies",
        "op_tail_s": tail_note,
        "ok_ops_per_s": f"{ok_timed} ok ops / {sum(lat):.3f} s of timed ops",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    return values, notes


def per_layer(passes: list[Pass], units: dict[str, str], attempted: int,
              failed: int) -> tuple[dict, dict]:
    """Medians over the traced passes; counts must repeat exactly (bytes
    need not: run.json carries the wall time, whose printed length varies)."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    values, notes = {}, {}
    for k in traced[0].layers:
        samples = [p.layers[k] for p in traced]
        if units.get(k) == "count":
            if len(set(samples)) != 1:
                traced[0].integrity.append(f"{k} differs between traced passes: {samples}")
            values[k] = samples[0]
            notes[k] = f"identical in {len(traced)} traced passes"
        else:
            values[k] = statistics.median(samples)
            notes[k] = f"median of {len(traced)} traced passes"
    notes["operators.factor.useful_frac"] = (
        f"{values['operators.factor.distinct']} distinct / "
        f"{values['operators.factor.calls']} factorizations")
    jobs2 = statistics.median(p.jobs2_s for p in traced)
    notes["checks.jobs2_speedup"] = (f"jobs=1 {values['checks.run_suite.s']:.4f} s / "
                                     f"jobs=2 {jobs2:.4f} s")
    untraced_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    values["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    notes["trace_overhead_frac"] = (f"traced {traced_wall:.4f} s / untraced "
                                    f"{untraced_wall:.4f} s - 1")
    values["fail_frac"] = failed / attempted
    notes["fail_frac"] = f"{failed} failed / {attempted} attempted, all passes"
    return values, notes


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the last line
    combines their results, with metrics keyed ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv[1:])
    env.reexec_with_malloc_tunables(argv)
    if args.workload == "all":
        return run_all(args)

    env.pin_threads()
    spec = load_spec()
    env.add_source()
    import tracer as tracing
    import workloads

    print_environment(args, argv)
    workdir = env.ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, args.smoke)
        print(f"# inputs: {json.dumps(wl.inputs, sort_keys=True)}")
        setup = measure_setup(args, workdir)
        workloads.build(wl, workdir / "main")
        tracer = tracing.Tracer() if args.trace else None
        min_passes = 2 if args.trace else wl.min_passes

        print(f"# host speed reference before passes: {host_speed_reference():.4f} s")
        passes: list[Pass] = []
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                tracer.reset()
                problems = tracer.install()
                try:
                    p = run_pass(wl, len(passes) + 1, True, workdir)
                finally:
                    tracer.uninstall()
                p.layers = tracer.layer_metrics()
                p.jobs2_s = tracer.suite_seconds.get(2, 0.0)
                p.integrity = problems + tracer.integrity()
            else:
                p = run_pass(wl, len(passes) + 1, False, workdir)
            passes.append(p)
            elapsed = perf_counter() - start
            n_ok = sum(r.ok for r in p.results)
            print(f"# pass {p.index} [{'traced' if traced else 'untraced'}]: "
                  f"wall {p.wall:.4f} s, {len(p.results)} ops, {n_ok} ok")
            if traced:
                for fn in ("hjbranch.howard.solve", "hjbranch.eigen.principal_eigen"):
                    print(f"#   {fn} wrapped at: {', '.join(tracer.sites[fn])}")
                print(f"#   {tracer.bindings} bindings wrapped; self-checks (linearize calls "
                      "under howard.solve = sum of SolveReport.iters, inverse steps = sum of "
                      f"EigenPair.iters): {p.integrity or 'all hold'}")
            if len(passes) >= min_passes and elapsed + elapsed / len(passes) > args.seconds:
                break
            if args.smoke and len(passes) >= min_passes:
                break
        print(f"# host speed reference after passes: {host_speed_reference():.4f} s")
        check_identical(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(len(p.results) for p in passes)
    failed = sum(not r.ok for p in passes for r in p.results)
    if args.trace:
        wanted = spec["per_layer"]
        values, notes = per_layer(passes, {m["name"]: m["unit"] for m in wanted},
                                  attempted, failed)
    else:
        wanted = spec["end_to_end"]
        values, notes = end_to_end(passes, setup)
        print(f"# fail_frac {failed / attempted:.6f} ({failed} failed / {attempted} attempted; "
              "carried by the result's attempted/failed fields)")

    correct = True
    for p in passes:
        for r in p.results:
            status = "ok" if r.ok else ("FAILED (known defect, as recorded)"
                                        if r.known_probe_failure else "FAILED")
            print(f"#   pass {p.index} op {r.label}: {r.seconds:.4f} s {status}"
                  f"{' [untimed probe]' if r.probe else ''} -- {r.detail}")
            if not r.ok and not r.known_probe_failure:
                correct = False
        if p.integrity:
            print(f"#   pass {p.index} integrity problems: {p.integrity}")
            correct = False
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metric set differs from BENCHMARK.json: computed "
                           f"{sorted(set(values) ^ set(names))}")
    metrics = {}
    for m in wanted:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"# metric {m['name']} = {v!r} {m['unit']} ({notes.get(m['name'], '')})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

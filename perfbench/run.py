"""Benchmark for bdlimits: one workload, one process, one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc-small-k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list-metrics

With ``--trace 0`` the run installs no wrappers and reports the end-to-end
metrics. With ``--trace 1`` it first runs a third of the time untraced, then
wraps the package's layer functions and runs the rest traced; it reports the
per-layer metrics and checks that tracing changed no result. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: set-up is repeated this many times and its median reported
SETUP_REPEATS = 5
#: a trace-off run times at least this many cycles, so each op has a median
MIN_CYCLES = 3

END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_ref_s": ("1/ref-s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: a reference-second is the time of this many reference-kernel runs
REF_RUNS_PER_REF_S = 500
_REF_P = np.array([0.1, 0.2, 0.3, 0.4])
_REF_CDF = np.cumsum(_REF_P)


def reference_kernel() -> float:
    """Fixed work with the package's instruction mix: small numpy calls
    driven from Python. The runner times it between operations; on a shared
    machine whose speed drifts by tens of percent within seconds, dividing an
    operation's time by the kernel's time around it cancels most of the drift.
    """
    total = 0.0
    for i in range(60):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, i))))
        counts = np.bincount(np.searchsorted(_REF_CDF, rng.random(32)), minlength=5)
        total += float(np.abs(counts[:4] / 32 - _REF_P).sum())
    return total

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bdlimits.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the package and its CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip())


class ReferenceClock:
    """Times calls in wall nanoseconds and in reference-seconds.

    The reference kernel runs after each timed call, outside it; the call's
    time in reference-seconds divides its wall time by the mean of the kernel
    times just before and after it.
    """

    def __init__(self) -> None:
        self._before = self._kernel_ns()

    @staticmethod
    def _kernel_ns() -> int:
        start = time.perf_counter_ns()
        reference_kernel()
        return time.perf_counter_ns() - start

    def time(self, fn, *args):
        """Return (result, wall ns, reference-seconds) of ``fn(*args)``."""
        start = time.perf_counter_ns()
        result = fn(*args)
        elapsed = time.perf_counter_ns() - start
        after = self._kernel_ns()
        ref_s = elapsed / (0.5 * (self._before + after) * REF_RUNS_PER_REF_S)
        self._before = after
        return result, elapsed, ref_s


class Phase:
    """Timings, results and gate outcomes of consecutive whole cycles."""

    def __init__(self) -> None:
        self.durations: list[list[int]] = []
        #: each operation's time in reference-seconds
        self.ref_durations: list[list[float]] = []
        self.results: list[list] = []
        self.cycle_ns: list[int] = []
        self.snapshots: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def cycle_ref_s(self) -> list[float]:
        return [sum(row) for row in self.ref_durations]

    def median_cycle_ref_s(self) -> float:
        """Sum over operations of each one's median time across cycles."""
        return sum(statistics.median(column) for column in zip(*self.ref_durations))

    def median_cycle_s(self) -> float:
        return sum(statistics.median(column) for column in zip(*self.durations)) / 1e9


def measure(workload, seconds: float, min_cycles: int, tracer=None) -> Phase:
    """Run whole cycles until ``seconds`` have passed and ``min_cycles`` ran."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    ops = workload.ops()
    clock = ReferenceClock()
    while True:
        workload.begin_cycle()
        durations, ref_durations, results = [], [], []
        for op in ops:
            result, elapsed, ref_s = clock.time(workload.run, op)
            durations.append(elapsed)
            ref_durations.append(ref_s)
            results.append(result)
            phase.attempted += 1
            if not workload.check(op, result):
                phase.failed += 1
        if not workload.end_cycle():
            phase.failed += 1
        if phase.results and results != phase.results[0]:
            phase.failed += 1
        phase.durations.append(durations)
        phase.ref_durations.append(ref_durations)
        phase.results.append(results)
        phase.cycle_ns.append(sum(durations))
        if tracer is not None:
            phase.snapshots.append(tracer.snapshot())
        if len(phase.durations) >= min_cycles and time.perf_counter() >= deadline:
            return phase


def set_up(args, workloads, workdir: Path):
    """Build the workload SETUP_REPEATS times; returns it with set-up times.

    The import is timed in a fresh interpreter each time. Returns the
    workload, the set-up time in reference-seconds and in wall seconds, each
    the median import plus the median build.
    """
    clock = ReferenceClock()
    imports = [clock.time(import_seconds) for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        workload, elapsed, ref_s = clock.time(build, workloads.WORKLOADS[args.workload], args.seed, workdir)
        builds.append((elapsed / 1e9, ref_s))
    # the probe reports the import alone, without interpreter start-up
    import_ref_s = statistics.median(seconds * ref_s / (elapsed / 1e9) for seconds, elapsed, ref_s in imports)
    import_s = statistics.median(seconds for seconds, _, _ in imports)
    setup_ref_s = import_ref_s + statistics.median(ref_s for _, ref_s in builds)
    setup_s = import_s + statistics.median(seconds for seconds, _ in builds)
    return workload, setup_ref_s, setup_s


def build(workload_cls, seed: int, workdir: Path):
    workload = workload_cls(seed, workdir)
    workload.warm_up()
    return workload


def per_cycle_counts(snapshots: list[dict]) -> list[dict]:
    deltas, previous = [], {}
    for snap in snapshots:
        deltas.append({k: v - previous.get(k, 0) for k, v in sorted(snap.items())})
        previous = snap
    return deltas


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them, when readable."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                sizes[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, workload) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": sys.version.split()[0],
        **versions,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cache": cache_sizes(),
        "working_set_bytes": workload.working_set_bytes(),
        "work_unit": workload.work_unit,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def source_digest() -> str:
    """Digest of the package and benchmark sources, so saved counts are only
    compared against runs of the same code."""
    digest = hashlib.sha256()
    files = [*SRC.rglob("*"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(p for p in files if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(ROOT).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(path: Path, counts: dict) -> bool:
    """Exact counts must repeat between runs of the same code and seed."""
    if path.exists():
        return json.loads(path.read_text()) == counts
    path.write_text(json.dumps(counts))
    return True


def run_traced(args, workload, layers, tracer_cls) -> tuple[dict, int, int]:
    base = measure(workload, args.seconds / 3.0, 1)
    tracer = tracer_cls()
    layers.install(tracer, workload.trace_hooks())
    try:
        traced = measure(workload, args.seconds * 2.0 / 3.0, 1, tracer)
    finally:
        tracer.uninstall()
    failed = base.failed + traced.failed
    # tracing must change no estimate and no stdout byte
    failed += sum(results != base.results[0] for results in traced.results)
    counts = per_cycle_counts(traced.snapshots)
    failed += sum(c != counts[0] for c in counts)
    saved = OUT / f"counts-{args.workload}-seed{args.seed}-{source_digest()}.json"
    if not check_repeat(saved, counts[0]):
        failed += 1
    cycles = len(traced.cycle_ns)
    wall_ns = sum(traced.cycle_ns)
    metrics = layers.derive(tracer, cycles, wall_ns)
    metrics.update(workload.layer_metrics())
    metrics["trace.overhead"] = (
        statistics.median(traced.cycle_ref_s()) / statistics.median(base.cycle_ref_s()) - 1.0
    )
    # every cycle repeats the same calls, so the first cycle's spans tell it all
    first_cycle_spans = sum(v for k, v in counts[0].items() if k.endswith(".calls"))
    tracer.write_spans(str(OUT / f"spans-{args.workload}.jsonl"), first_cycle_spans)
    return metrics, base.attempted + traced.attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true", help="print every metric and exit")
    args = parser.parse_args(argv)

    if not (SRC / "bdlimits" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import tracer
    import workloads

    if args.list_metrics:
        for group, table in (("end_to_end", END_TO_END), ("per_layer", layers.per_layer_metrics())):
            for name, (unit, better) in table.items():
                print(f"{group:10s} {name:55s} {unit:6s} {better}")
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    # one CPU for the run, the reference kernel and the import probes: the
    # two CPUs of a shared machine drift apart, and a migration between them
    # would split an operation from the kernel times that scale it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload, setup_ref_s, setup_wall_s = set_up(args, workloads, workdir)
        print(json.dumps({"provenance": provenance(args, workload)}))

        if args.trace:
            metrics, attempted, failed = run_traced(args, workload, layers, tracer.Tracer)
            units = layers.per_layer_metrics()
        else:
            phase = measure(workload, args.seconds, MIN_CYCLES)
            attempted, failed = phase.attempted, phase.failed
            work = workload.work_per_cycle()
            metrics = {
                "setup_s": setup_ref_s,
                "ops_per_ref_s": work / phase.median_cycle_ref_s(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            # wall-clock throughput, for reading only: it drifts with the machine
            print(json.dumps({"wall_clock": {
                "setup_s": setup_wall_s, "ops_per_s": work / phase.median_cycle_s(),
            }}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

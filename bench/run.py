"""Benchmark runner for the frontals toolkit.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

One client, closed loop: tasks run back to back in one process and one
thread, each timed on its own; answers are checked after the clock stops.
Workloads (see workloads.py and BENCHMARK.json for why each exists):
certify, jets, cli_ext.

--trace 0 reports the end-to-end metrics: tasks_per_s, task_ms_p50,
task_ms_p90, setup_s and peak_rss_mb.  Set-up (a fresh import of the
package, input generation and warm-up) is repeated and its median reported.
Times are normalised to a host of fixed speed (see HostSpeed); the raw wall
times are printed on the meta line.

--trace 1 runs a fixed prefix of the task list twice, untraced and then
with span wrappers installed (spans.py), and reports the per-layer metrics
of the traced pass plus the tracing overhead.  The two passes must give the
same answers, and every layer predicted to run on the workload
(predictions.json) must record calls; layers predicted idle must record none.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only when every task gave its expected answer.  Without the package source
in src/ of the checkout the runner prints no result and exits with 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "frontals"
LAYERS = ("scalars", "poly", "maps", "linalg", "frontal", "local_algebra",
          "ramification", "corpus", "germfile", "cli", "mesh")
SETUP_REPEATS = 3
REFERENCE_MS = 1.0
MIN_TASKS = 100
PREDICTIONS = json.loads((Path(__file__).with_name("predictions.json")).read_text("utf-8"))


class SetupError(RuntimeError):
    """The package under test cannot be found or imported."""


def load_package() -> SimpleNamespace:
    """Import the package from ROOT/src afresh, dropping any loaded copy."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {src}")
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE}: {exc}") from exc
    origin = Path(modules["poly"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"{PACKAGE} was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A private directory under ROOT/.bench_tmp, removed afterwards."""
    root = ROOT / ".bench_tmp"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()


class HostSpeed:
    """Normalises task times to a host of fixed speed.

    The machines this benchmark runs on are shared: the same stdlib-only
    loop takes anywhere between 1x and 2x its best time, in bursts from a
    fraction of a second to minutes, so raw wall times of one commit spread
    by 20-30% between runs.  A fixed reference computation (a sparse product
    of rational polynomials in plain dicts, independent of the package under
    test) is therefore timed before and after every timed section.  The
    section's normalised time is its wall time divided by the mean of the two
    adjacent reference times, times REFERENCE_MS: the time it would take on
    a host where the reference takes REFERENCE_MS milliseconds (near its
    median on the 2-vCPU Xeon VM the benchmark was tuned on).  That ratio
    repeats within a few percent between runs where the wall time does not;
    the wall times are reported alongside.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._reference()  # first-call costs stay out of the samples
        self.previous = self.sample()

    @staticmethod
    def _reference() -> dict:
        a = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in a.items():
                m = (ma[0] + mb[0], ma[1] + mb[1])
                out[m] = out.get(m, 0) + ca * cb
        return out

    def sample(self) -> float:
        """One reference time, with the cyclic garbage collector held off so
        that a collection of the program's garbage is not charged to it."""
        gc.disable()
        try:
            start = perf_counter()
            self._reference()
            elapsed = perf_counter() - start
        finally:
            gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def after(self, samples: int = 1) -> float:
        """Sample again (the fastest of `samples` tries); returns the mean
        reference time around the section that ended just now."""
        current = min(self.sample() for _ in range(samples))
        around = (self.previous + current) / 2
        self.previous = current
        return around

    @staticmethod
    def normalised(times: list[float], around: list[float]) -> list[float]:
        return [t * REFERENCE_MS / 1000 / a for t, a in zip(times, around)]


def setup(name: str, seed: int, scratch: Path):
    """Import, generate the seeded inputs and warm up; returns the workload
    and the seconds it took."""
    start = perf_counter()
    lib = load_package()
    rng = random.Random(f"{name}:{seed}")
    workload = workloads.GENERATORS[name](lib, rng, scratch)
    for task in workload.warmup:
        run_task(task)  # a failure here is counted when the task is timed
    return workload, perf_counter() - start


def run_task(task, tracer=None):
    """Time one task, recording spans only inside the call when a tracer is
    given; an exception is the task's answer and fails its check."""
    if tracer is not None:
        tracer.on = True
    start = perf_counter()
    try:
        out, error = task.run(), None
    except Exception as exc:  # a failing task is still timed and counted
        out, error = None, exc
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.on = False
    if error is not None:
        return elapsed, out, f"raised {type(error).__name__}: {error}"
    return elapsed, out, task.check(out)


def run_tasks(tasks, speed: HostSpeed, seconds: float = 0.0, tracer=None):
    """Closed loop over the task list: once through when `seconds` is 0,
    otherwise cycling until `seconds` of task time and at least MIN_TASKS
    tasks.  Returns the task seconds, the reference times around each task
    (for HostSpeed.normalised), the fingerprints of the answers (None for a
    failed task), their output bytes and the failures."""
    times, around, prints, failures = [], [], [], []
    out_bytes = 0
    busy = 0.0
    i = 0
    while (i < len(tasks)) if not seconds else (busy < seconds or i < MIN_TASKS):
        task = tasks[i % len(tasks)]
        elapsed, out, failure = run_task(task, tracer)
        around.append(speed.after())
        times.append(elapsed)
        busy += elapsed
        i += 1
        if failure is not None:
            failures.append(f"{task.label}: {failure}")
            prints.append(None)
        elif not seconds:
            prints.append(task.fingerprint(out))
            out_bytes += task.output_bytes(out)
    return times, around, prints, out_bytes, failures


def percentile_ms(times, q: int) -> float:
    return statistics.quantiles([t * 1000 for t in times], n=100, method="inclusive")[q - 1]


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str, seed: int, seconds: float, scratch: Path):
    speed = HostSpeed()
    raw_setups, setup_around = [], []
    for _ in range(SETUP_REPEATS):
        workload, elapsed = setup(name, seed, scratch)
        setup_around.append(speed.after(samples=5))
        raw_setups.append(elapsed)
    raw, around, _, _, failures = run_tasks(workload.tasks, speed, seconds)
    times = speed.normalised(raw, around)
    setups = speed.normalised(raw_setups, setup_around)
    metrics = {
        "tasks_per_s": (len(times) / sum(times), "1/s"),
        "task_ms_p50": (percentile_ms(times, 50), "ms"),
        "task_ms_p90": (percentile_ms(times, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    meta = {"samples": len(times), "pool_tasks": len(workload.tasks),
            "setup_repeats": SETUP_REPEATS, "busy_s": sum(raw),
            "wall_tasks_per_s": len(raw) / sum(raw),
            "wall_task_ms_p50": percentile_ms(raw, 50),
            "wall_task_ms_p90": percentile_ms(raw, 90),
            "wall_setup_s": statistics.median(raw_setups),
            "reference_ms_median": statistics.median(speed.samples) * 1000}
    return len(times), failures, metrics, meta


def trace(name: str, seed: int, scratch: Path):
    speed = HostSpeed()
    workload, _ = setup(name, seed, scratch)
    tasks = workload.tasks[:workload.trace_tasks]
    plain_times, plain_around, plain_prints, _, failures = run_tasks(tasks, speed)

    tracer = spans.Tracer()
    tracer.install(PACKAGE)
    traced_times, traced_around, traced_prints, out_bytes, traced_failures = run_tasks(
        tasks, speed, tracer=tracer)
    tracer.uninstall()
    plain_times = speed.normalised(plain_times, plain_around)
    traced_times = speed.normalised(traced_times, traced_around)
    failures += [f"traced {f}" for f in traced_failures]
    for task, a, b in zip(tasks, plain_prints, traced_prints):
        if a is not None and b is not None and a != b:
            failures.append(f"{task.label}: traced answer differs from the untraced one")

    layer = tracer.layer_metrics()
    layer["cli.output_bytes"] = (out_bytes, "bytes")
    layer["trace.tasks_per_s_ratio"] = (sum(plain_times) / sum(traced_times), "ratio")
    failures += check_predictions(name, tracer, tasks)
    meta = {"samples": len(tasks), "untraced_s": sum(plain_times),
            "traced_s": sum(traced_times)}
    return 2 * len(tasks), failures, layer, meta


def check_predictions(name: str, tracer, tasks) -> list[str]:
    failures = []
    for span in PREDICTIONS["called"][name]:
        if tracer.calls.get(span, 0) == 0:
            failures.append(f"span {span} predicted to run on {name} recorded no calls")
    for span in PREDICTIONS["idle"].get(name, []):
        if tracer.calls.get(span, 0) != 0:
            failures.append(f"span {span} predicted idle on {name} recorded "
                            f"{tracer.calls[span]} calls")
    if name == "certify":
        rows = tracer.calls.get("linalg.add_row", 0)
        bound = sum(task.info["conormals"] for task in tasks)
        if rows > bound:
            failures.append(f"linalg.add_row ran {rows} times, more than the "
                            f"{bound} condition-3 rank rows")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        with scratch_dir(args.workload) as scratch:
            if args.trace:
                attempted, failures, metrics, meta = trace(args.workload, args.seed, scratch)
            else:
                attempted, failures, metrics, meta = measure(
                    args.workload, args.seed, args.seconds, scratch)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "git_sha": git_sha(),
        "source_sha256": source_sha256(), "nproc": os.cpu_count(),
    })
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:>16.6g} {unit}")
    # failed_ratio is 0 on a correct run, so it travels as failed/attempted
    # in the result line rather than as a metric
    print(f"{'failed_ratio':32s} {len(failures) / attempted:>16.6g} ratio")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""posecorrect benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload evaluate-all --seed 0 --seconds 40 --trace 0

Workloads (closed loop, one caller, single-threaded, no ``--threads``):

* ``evaluate-all``    ``posecorrect evaluate --methods all`` through
  ``posecorrect.cli.main``; nearest-stamp association and the baselines
  dominate.
* ``correct-forward`` ``posecorrect correct --methods proposed`` through
  ``posecorrect.cli.main`` on a long forward run; the proposed kernel, TUM
  parse/write and the CLI rebase dominate.
* ``online-window``   ``posecorrect.evaluate.correct_trajectory`` on small
  keyframe windows, one call per keyframe update; no I/O.

An operation is one ``cli.main`` call (batch) or one
``correct_trajectory`` call (online).  Every operation's output is checked
(``workloads.py``); a failure is an exception, a non-zero exit code or a
failed check, and ``failed / attempted`` is the failure ratio.

``--trace 0`` prints the gated end-to-end metrics (``END_TO_END``) and, on
lines starting with ``#``, the reported ones (``REPORTED``).  Gated times
are normalised to a reference machine speed by a probe kernel sampled from
a timer throughout the run (``speed.py``), because on a shared virtual
machine the core's speed drifts by up to 1.8x within and between runs;
the same times as plain wall time are reported beside them.  ``--trace 1`` runs without the probe and alternates
untraced operations with operations run under span wrappers
(``tracer.py``); it prints the per-layer metrics: medians over the traced
operations of each function's self seconds and calls per operation, the
boundary counters, and the traced/untraced latency ratio.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine, versions, commit, seed, input sizes, every metric with its
direction) goes to ``.perfbench/results/`` and the spans of a traced run
to ``.perfbench/spans/``, both under the checkout root.  Without
``src/posecorrect`` next to this directory the run exits 2 and prints no
result.
"""
from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402  (imports no posecorrect module)

# Single-threaded numeric libraries: each workload is one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3

# Gated end-to-end metrics, name -> (unit, better); must agree with
# BENCHMARK.json.  Times are at the probe's reference speed (speed.py).
END_TO_END = {
    "frames_per_s": ("frames/s", "higher"),
    "update_ms_p50": ("ms", "lower"),
    "update_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
# Reported with every result but not gated: the same times as wall time,
# the median probe slowdown over the operations, and the failure ratio.
REPORTED = {
    "frames_per_s_wall": ("frames/s", "higher"),
    "update_ms_p50_wall": ("ms", "lower"),
    "update_ms_p90_wall": ("ms", "lower"),
    "setup_s_wall": ("s", "lower"),
    "machine_slowdown": ("ratio", "lower"),
    "failed_ratio": ("ratio", "lower"),
}

COUNTERS = {
    "trajectory.associate.ref_items": "count",
    "correction.frames": "count",
    "baseline.frames": "count",
    "io.frames_read": "count",
    "io.frames_written": "count",
    "io.bytes_written": "B",
    "diag.singular_hits": "count",
    "diag.gimbal_hits": "count",
    "diag.degenerate_segments": "count",
}
FUNCTIONS = [f"{mod}.{fn}" for mod, fn in tracer.TRACED]
PER_LAYER = {}
for _fn in FUNCTIONS:
    PER_LAYER[f"{_fn}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_fn}.calls"] = ("count", "lower")
PER_LAYER.update({name: (unit, "lower") for name, unit in COUNTERS.items()})
PER_LAYER["correction.us_per_frame"] = ("us", "lower")
PER_LAYER["baseline.us_per_frame"] = ("us", "lower")
PER_LAYER["trace.overhead_ratio"] = ("ratio", "lower")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("evaluate-all", "correct-forward", "online-window"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time; at least one operation always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every input, for the benchmark's own tests")
    p.add_argument("--out-dir", type=Path, default=OUT_DIR,
                   help="where inputs, results and spans are written")
    return p.parse_args(argv)


def import_program():
    """Import posecorrect from this checkout's ``src`` and nowhere else."""
    if not (SRC / "posecorrect" / "__init__.py").is_file():
        raise ImportError(f"no posecorrect package under {SRC}")
    sys.path.insert(0, str(SRC))
    import posecorrect

    if Path(posecorrect.__file__).resolve().parent != SRC / "posecorrect":
        raise ImportError(f"posecorrect resolved to {posecorrect.__file__}, not {SRC}")


# -- measurement -----------------------------------------------------------------

_FAILED = object()  # run_op raised


class Loop:
    """Closed loop: the next operation starts when the previous one, its
    output check and the removal of its output are done.  A failed
    operation keeps its latency (time to the failure) and counts in
    ``failed``."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def run(self, seconds: float, spans=None):
        """Run operations for ``seconds`` (at least one each way).

        Returns the (start, end) times of the untraced operations, those of
        the traced ones and a trace summary per traced operation.  With a
        tracer, operations alternate between untraced and traced, so both
        kinds see the same machine state and their latency ratio is the
        tracing overhead.
        """
        intervals = {False: [], True: []}
        layers = []
        deadline = time.perf_counter() + seconds
        while (
            time.perf_counter() < deadline
            or not intervals[False]
            or (spans is not None and not intervals[True])
        ):
            traced = spans is not None and self.attempted % 2 == 1
            self.attempted += 1
            if traced:
                spans.install()
                spans.begin_op()
            t = time.perf_counter()
            try:
                result = self.workload.run_op()
            except Exception:  # an operation failure is counted, not fatal
                result = self._fail()
            intervals[traced].append((t, time.perf_counter()))
            if traced:
                layers.append(spans.end_op())
                spans.uninstall()
            if result is not _FAILED:
                try:
                    self.workload.check(result)
                except Exception:  # a wrong output or an unreadable one
                    self._fail()
            self.workload.clear_output()
        return intervals[False], intervals[True], layers

    def _fail(self):
        self.failed += 1
        if self.first_error is None:
            self.first_error = traceback.format_exc()
        return _FAILED


def end_to_end_metrics(workload, intervals, setup, sampler, loop) -> dict:
    """Gated and reported end-to-end metrics of one untraced run.

    ``setup`` is (normalised, wall) set-up seconds.
    """
    norm = sorted(sampler.normalise(t0, t1) for t0, t1 in intervals)
    wall = sorted(t1 - t0 - sampler.probe_time(t0, t1) for t0, t1 in intervals)
    return {
        "frames_per_s": workload.frames / statistics.median(norm),
        "update_ms_p50": 1e3 * statistics.median(norm),
        "update_ms_p90": 1e3 * percentile(norm, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup[0],
        "frames_per_s_wall": workload.frames / statistics.median(wall),
        "update_ms_p50_wall": 1e3 * statistics.median(wall),
        "update_ms_p90_wall": 1e3 * percentile(wall, 0.9),
        "setup_s_wall": setup[1],
        "machine_slowdown": statistics.median(
            sampler.slowdown(t0, t1) for t0, t1 in intervals
        ),
        "failed_ratio": loop.failed / loop.attempted,
    }


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def per_layer_metrics(layers, untraced, traced) -> tuple[dict, list[str]]:
    """Medians over the traced operations, and the names that are missing:
    functions that recorded no call and counters that were never taken."""
    metrics = {}
    for name in PER_LAYER:
        values = [op[name] for op in layers if name in op]
        metrics[name] = statistics.median(values) if values else 0
    for layer in ("correction", "baseline"):
        per_frame = [
            1e6 * sum(v for k, v in op.items() if k.startswith(f"{layer}.") and k.endswith(".self_s"))
            / op[f"{layer}.frames"]
            for op in layers if op.get(f"{layer}.frames")
        ]
        metrics[f"{layer}.us_per_frame"] = statistics.median(per_frame) if per_frame else 0
    metrics["trace.overhead_ratio"] = (
        statistics.median(t1 - t0 for t0, t1 in traced)
        / statistics.median(t1 - t0 for t0, t1 in untraced)
    )
    missing = [fn for fn in FUNCTIONS if not any(op[f"{fn}.calls"] for op in layers)]
    missing += [name for name in COUNTERS if not any(name in op for op in layers)]
    return metrics, missing


# -- provenance ------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "posecorrect").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


def workload_why(name: str):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return next((w.get("why") for w in spec.get("workloads", []) if w.get("name") == name), None)


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    import speed  # numpy first, so the probe can sample the rest of set-up

    sampler = speed.SpeedSampler()
    sampler.start()
    scratch = None
    try:
        try:
            import_program()
        except ImportError as exc:
            print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
            return 2
        import workloads

        imported = time.perf_counter()
        args.out_dir.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir))
        # Set-up is repeated and its median taken; the last copy is measured.
        # Each earlier copy is released first, so that peak memory holds
        # one copy of the inputs.
        builds = []
        workload = None
        for _ in range(SETUP_REPEATS):
            del workload
            gc.collect()
            t = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, args.size, scratch)
            builds.append((t, time.perf_counter()))
        setup = (
            sampler.normalise(PROCESS_T0, imported)
            + statistics.median(sampler.normalise(*b) for b in builds),
            imported - PROCESS_T0 + statistics.median(t1 - t0 for t0, t1 in builds),
        )
        # The inputs live for the whole run; keep them out of the cyclic
        # collector's full passes, which a standalone CLI call never makes
        # over benchmark data.
        gc.collect()
        gc.freeze()

        loop = Loop(workload)
        if args.trace:
            sampler.stop()
            spans = tracer.Tracer()
            try:
                untraced, traced, layers = loop.run(args.seconds, spans)
            finally:
                spans.uninstall()
            metrics, missing = per_layer_metrics(layers, untraced, traced)
            gated, reported = PER_LAYER, {}
        else:
            intervals, _, _ = loop.run(args.seconds)
            sampler.stop()
            metrics = end_to_end_metrics(workload, intervals, setup, sampler, loop)
            gated, reported, missing = END_TO_END, REPORTED, []
    finally:
        sampler.stop()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    if loop.first_error is not None:
        print(loop.first_error, file=sys.stderr, end="")

    def table(units):
        return {name: {"value": metrics[name], "unit": unit, "better": better}
                for name, (unit, better) in units.items()}

    record = {
        "workload": args.workload,
        "why": workload_why(args.workload),
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs": workload.describe(),
        "provenance": provenance(args.seed),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "setup_repeats_wall_s": [t1 - t0 for t0, t1 in builds],
        "import_wall_s": imported - PROCESS_T0,
        "probes": len(sampler.durations),
        "missing": missing,
        "metrics": table(gated),
        "reported": table(reported),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.out_dir / "results").mkdir(exist_ok=True)
    (args.out_dir / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    if args.trace:
        (args.out_dir / "spans").mkdir(exist_ok=True)
        spans.write_spans(args.out_dir / "spans" / f"{stem}.csv")

    print(f"# {args.workload}: {json.dumps(record['inputs'])}")
    print(f"# provenance: {json.dumps(record['provenance'])}")
    print(f"# operations: {loop.attempted} attempted, {loop.failed} failed")
    if missing:
        print(f"# missing: {', '.join(missing)}")
    for name, entry in record["reported"].items():
        print(f"# {name} {entry['value']} {entry['unit']} (better: {entry['better']}; not gated)")
    for name, entry in record["metrics"].items():
        print(f"{name} {entry['value']} {entry['unit']} (better: {entry['better']})")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""attnatr benchmark: one workload in one fresh process, closed loop, one client.

    python3 benchmark/run.py --workload desk_protocol --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``
there (``--src`` points elsewhere).  The next operation starts only after the
previous one returns.  With ``--trace 0`` the last line of standard output is
a JSON object holding every end-to-end metric named in ``BENCHMARK.json``;
with ``--trace 1`` the run alternates traced and untraced operations and
reports the per-layer metrics instead.  The lines before it give every figure
by name, unit, direction and sample count, and ``benchmark/results/`` gets a
JSON record of the run (and, when traced, its spans).  The exit code is 0
only when every correctness check passed.

``setup_s`` is the time from the first line of this file to the first timed
operation: imports, data synthesis, model build and one warm-up step.  It is
the median over this process and SETUP_PROCESSES more fresh processes, each
started with ``--setup-only`` after the operations end.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from the line above)
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from spans import OP_KINDS, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_PROCESSES = 2  # fresh processes that only set up, besides this one
GRACE_S = 60.0  # longest a run may overrun --seconds to complete a repeat
SETUP_OP = 0    # operation id of the traced set-up; operations count from 1


class Recorder:
    """Times the parts of each operation and tracks failed operations.

    Every part is one operation in the failure count (a protocol run, train
    step, eval batch, Grad-CAM map or checkpoint round trip) unless it is
    declared with ``operation=False``.  A failure found after a part is
    charged to the latest counted part.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = defaultdict(list)   # part kind or mark -> seconds
        self.images = Counter()            # part kind -> images processed
        self.op_seconds = {}               # operation -> its parts' seconds
        self.traced = set()
        self.op = 0
        self.attempted = 0
        self.failed = set()
        self.failures = []
        self._mark = 0.0

    def begin(self, op: int, traced: bool):
        self.op = op
        if traced:
            self.traced.add(op)

    @contextmanager
    def part(self, kind: str, images: int = 0, operation: bool = True):
        if operation:
            self.attempted += 1
        traced = self.op in self.traced
        with self.tracer.part(self.op, kind) if traced else nullcontext():
            start = self._mark = time.perf_counter()
            try:
                yield
            except Exception as exc:
                self.fail(f"{kind} raised {type(exc).__name__}: {exc}")
                raise
            seconds = time.perf_counter() - start
        self.sample(kind, seconds, images)
        self.op_seconds[self.op] = self.op_seconds.get(self.op, 0.0) + seconds

    def sample(self, kind: str, seconds: float, images: int = 0):
        self.samples[kind].append(seconds)
        self.images[kind] += images

    def mark(self, name: str):
        """Record the time since the part began or since the previous mark."""
        now = time.perf_counter()
        self.samples[name].append(now - self._mark)
        self._mark = now

    def fail(self, message: str):
        self.failures.append(f"operation {self.op}: {message}")
        self.failed.add(max(1, self.attempted))
        print(f"# FAILED {self.failures[-1]}", flush=True)

    def timing(self, kind: str, tail: bool = False) -> dict:
        values = sorted(self.samples[kind])
        n = len(values)
        if not tail:
            return metric(statistics.median(values) if values else float("nan"),
                          "s", "lower", samples=n, percentile=50)
        # the highest percentile with at least ten samples beyond it, if any
        # such percentile reaches the median
        if n < 20:
            return metric(None, "s", "lower", samples=n, percentile=None,
                          note="fewer than 20 samples")
        return metric(values[n - 11], "s", "lower", samples=n,
                      percentile=round(100.0 * (n - 10) / n, 1))

    def rate(self, *kinds) -> dict:
        images = sum(self.images[k] for k in kinds)
        seconds = sum(sum(self.samples[k]) for k in kinds)
        return metric(images / seconds if seconds else float("nan"), "1/s", "higher",
                      images=images, seconds=seconds)


def metric(value, unit: str, better: str, **extra) -> dict:
    return {"value": value, "unit": unit, "better": better, **extra}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": blas_threads(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                    "OMP_NUM_THREADS") if k in os.environ},
            "workload_seed": seed}


def fresh_setup_seconds(args) -> list:
    """``setup_s`` of fresh processes that set up the same workload and exit."""
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--src", args.src, "--setup-only"],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def per_layer_metrics(tracer, ops: set, overhead: float) -> tuple:
    """Flatten the trace into per-layer metric values, plus the full summary."""
    summary = tracer.summary(ops)
    setup = tracer.summary({SETUP_OP})
    closure = tracer.closure(ops)
    names = {name for _, _, name in TARGETS if name != "layers.batchnorm"}
    names |= {"layers.batchnorm.train", "layers.batchnorm.eval"}
    names |= {f"tensor.backward.{op}" for op in OP_KINDS}
    values = {}
    for name in sorted(names | set(summary["layers"])):
        row = summary["layers"].get(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
        for key, v in row.items():
            values[f"{name}.{key}"] = v
    for name in sorted(names | set(setup["layers"])):
        values[f"setup.{name}.self_s"] = setup["layers"].get(name, {}).get("self_s", 0.0)
    counts = summary["counts"]
    for name in ["tensor.nodes", "checkpoint.bytes"] + [f"tensor.nodes.{op}" for op in OP_KINDS]:
        values[name] = counts.get(name, 0.0)
    values["trace.closure"] = closure["overall"]
    values["trace.overhead"] = overhead
    return values, {"operations": summary, "setup": setup, "closure": closure}


def measure(workload, rec: Recorder, tracer, seconds: float):
    """Run operations until ``seconds`` have passed and the workload may stop.

    When tracing, every second operation is traced, and at least three
    operations run so that a traced one can be compared with an untraced one
    after the first.
    """
    deadline = time.perf_counter() + seconds
    op = 0
    while True:
        op += 1
        rec.begin(op, traced=tracer is not None and op % 2 == 0)
        try:
            workload.operation(rec)
        except Exception:  # counted by the recorder; the loop goes on
            pass
        now = time.perf_counter()
        if now >= deadline and workload.may_stop(rec) and (tracer is None or op >= 3):
            break
        if now >= deadline + GRACE_S:
            rec.fail("run ended before the correctness gate had two repeats to compare "
                     "or the tails their samples")
            break


def report_traced(tracer, rec: Recorder, record: dict) -> dict:
    """Print the per-layer table, closure and overhead; return metric values."""
    ops = sorted(rec.op_seconds)
    traced = rec.traced & set(ops)
    # the first operation still pays first-use costs, so it is left out
    plain = [rec.op_seconds[o] for o in ops[1:] if o not in rec.traced]
    heavy = [rec.op_seconds[o] for o in traced]
    overhead = (statistics.median(heavy) / statistics.median(plain) - 1.0
                if plain and heavy else float("nan"))
    values, trace = per_layer_metrics(tracer, traced, overhead)
    closure = trace["closure"]
    record["trace_summary"] = trace
    record["tracing_overhead"] = {"value": overhead, "traced_ops": len(heavy),
                                  "untraced_ops": len(plain)}
    closed = closure["min"] >= 0.90
    print(f"# closure: layer self times cover {closure['overall']:.1%} of the traced "
          f"operation time (lowest operation {closure['min']:.1%}, "
          f"{closure['ops']} operations): {'ok' if closed else 'FAILED'}")
    print(f"# tracing overhead: {overhead:+.1%} (median of {len(heavy)} traced vs "
          f"{len(plain)} untraced operations)")
    for name, row in trace["operations"]["layers"].items():
        print(f"{name:<34} calls={row['calls']:<10.4g} total_s={row['total_s']:<10.4g} "
              f"self_s={row['self_s']:.4g}")
    for name, value in trace["operations"]["counts"].items():
        print(f"{name:<34} count={value:.6g}")
    if not closed:
        rec.failures.append("closure check: layer self times cover less than 90% of a "
                            "traced operation's time")
        print(f"# FAILED {rec.failures[-1]}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src", help="directory holding the attnatr package")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s as JSON and exit (a set-up sample)")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    if not (src / "attnatr" / "__init__.py").is_file():
        print(f"error: no attnatr package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import attnatr  # noqa: F401
    from workloads import WORKLOADS
    import_s = time.perf_counter() - _START

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    env = environment(args.seed)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True), flush=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    tracer = Tracer() if args.trace else None
    rec = Recorder(tracer)
    try:
        with tracer.part(SETUP_OP, "setup") if tracer else nullcontext():
            workload.setup()
        setup_times = [time.perf_counter() - _START]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_times[0]}))
            return 0
        measure(workload, rec, tracer, args.seconds)
    finally:
        workload.close()
    if tracer is None:
        setup_times += fresh_setup_seconds(args)

    attempted = max(1, rec.attempted)
    failed = min(attempted, len(rec.failed))
    op_seconds = list(rec.op_seconds.values())
    images = sum(rec.images.values())
    end_to_end = {
        "setup_s": metric(statistics.median(setup_times), "s", "lower",
                          samples=len(setup_times), import_s=import_s, processes_s=setup_times),
        "op_s.p50": metric(statistics.median(op_seconds), "s", "lower",
                           samples=len(op_seconds)),
        "images_per_s": metric(images / sum(op_seconds), "1/s", "higher", images=images),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB", "lower"),
        "failed_ratio": metric(failed / attempted, "ratio", "lower",
                               failed=failed, attempted=attempted),
    }
    details = workload.details(rec)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "end_to_end": end_to_end,
              "details": details, "outputs": workload.outputs(),
              "samples": dict(rec.samples)}

    if tracer is None:
        wanted = SPEC["end_to_end"]
        values = {name: m["value"] for name, m in end_to_end.items()}
        for name, m in {**end_to_end, **details}.items():
            extra = {k: v for k, v in m.items() if k not in ("value", "unit", "better")}
            print(f"{name:<26} {_fmt(m['value']):>14} {m['unit']:<8} {m['better']:<6} "
                  + " ".join(f"{k}={_fmt(v)}" for k, v in extra.items()))
        print("# outputs " + json.dumps(record["outputs"], sort_keys=True))
    else:
        wanted = SPEC["per_layer"]
        values = report_traced(tracer, rec, record)
        tracer.write(out_dir / f"{args.workload}-spans.tsv.gz")

    correct = not rec.failures
    record.update(correct=correct, failures=rec.failures)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if correct else 1


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two commits on this benchmark by alternating pairs of runs.

    python3 benchmark/compare.py --base PARENT_CHECKOUT --head CHANGE_CHECKOUT

Both checkouts are measured with this benchmark's own ``run.py`` (only their
``src/`` differs), on every workload in ``BENCHMARK.json`` and with its run
length.  Pair ``i`` of the ten uses workload seed ``SEED + i`` on both sides,
and the side that runs first alternates from pair to pair.  For each workload
and end-to-end metric it prints each side's median and quartiles, how many
pairs the change won (ties count for neither) and a verdict:

  gain        the change won at least nine tenths of the pairs and the
              medians differ by more than the parent's quartile spread
  unresolved  a side's quartile spread, as a share of its median, is wider
              than the metric's bound, and not every run of the change reads
              better than every run of the parent
  regression  the change's median is worse by more than the bound
  same        none of the above

A gain does not count when the change failed more operations than the parent.

Each run's ``outputs`` (checkpoint and report digests, accuracies) are
compared seed by seed, and every workload whose outputs differ on some seed
is named.  The exit code is 1 on a regression, else 2 when outputs differ,
else 0; a change that promises identical results must exit 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PAIRS = 10   # choosing-metrics §8 asks for at least ten pairs
SEED = 1000  # workload seed of the first pair


def run_once(root: Path, workload: str, seed: int) -> tuple:
    """The result line of one run, and the outputs from its results record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0", "--src", str(root / "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{root}: {workload} seed {seed} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    record = json.loads((HERE / "results" / f"{workload}-trace0.json").read_text())
    return json.loads(lines[-1]), record["outputs"]


def measure(base: Path, head: Path) -> dict:
    workloads = [w["name"] for w in SPEC["workloads"]]
    runs = {w: {"base": [], "head": []} for w in workloads}
    outputs = {w: {"base": [], "head": []} for w in workloads}
    for w in workloads:
        for i in range(PAIRS):
            order = (("base", base), ("head", head)) if i % 2 == 0 else \
                    (("head", head), ("base", base))
            for side, root in order:
                result, out = run_once(root, w, SEED + i)
                runs[w][side].append(result)
                outputs[w][side].append(out)
                print(f"# {w} pair {i + 1}/{PAIRS} {side}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr, flush=True)
    return runs, outputs


def verdict(base: list, head: list, better: str, bound: float, more_failures: bool) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bq, hq = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
    bm, hm = statistics.median(base), statistics.median(head)
    spread = max((bq[2] - bq[0]) / abs(bm), (hq[2] - hq[0]) / abs(hm))
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if wins >= 0.9 * len(base) and sign * (hm - bm) > bq[2] - bq[0] and not more_failures:
        label = "gain"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif -sign * (hm - bm) / abs(bm) > bound:
        label = "regression"
    else:
        label = "same"
    return label, wins, bq, hq


def _stat(median: float, quartiles: list) -> str:
    return f"{median:.4g} [{quartiles[0]:.4g}, {quartiles[2]:.4g}]"


def report(runs: dict, outputs: dict) -> int:
    print(f"{'workload':<14} {'metric':<14} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'diff':>7} {'wins':>7} verdict")
    regressions = differing = 0
    for w, sides in runs.items():
        failed = {s: sum(r["failed"] for r in sides[s]) for s in sides}
        incorrect = {s: sum(not r["correct"] for r in sides[s]) for s in sides}
        for m in SPEC["end_to_end"]:
            name = m["name"]
            base = [r["metrics"][name]["value"] for r in sides["base"]]
            head = [r["metrics"][name]["value"] for r in sides["head"]]
            label, wins, bq, hq = verdict(base, head, m["better"], m["bound"],
                                          failed["head"] > failed["base"])
            regressions += label == "regression"
            bm, hm = statistics.median(base), statistics.median(head)
            print(f"{w:<14} {name:<14} {_stat(bm, bq):<32} {_stat(hm, hq):<32} "
                  f"{100 * (hm - bm) / abs(bm):>+6.1f}% {wins:>3}/{len(base):<3} {label}")
        print(f"{w:<14} failed operations: parent {failed['base']}, change {failed['head']}; "
              f"runs failing the gate: parent {incorrect['base']}, change {incorrect['head']}")
        pairs = list(zip(outputs[w]["base"], outputs[w]["head"]))
        keys = sorted({k for b, h in pairs for k in b if b[k] != h.get(k)})
        seeds = [SEED + i for i, (b, h) in enumerate(pairs) if b != h]
        differing += bool(seeds)
        if seeds:
            print(f"{w:<14} outputs differ on {len(seeds)}/{len(pairs)} seeds "
                  f"({', '.join(keys)}); first seed {seeds[0]}")
        else:
            print(f"{w:<14} outputs identical on all {len(pairs)} seeds")
    return 1 if regressions else 2 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="root of the parent commit's checkout")
    parser.add_argument("--head", type=Path, required=True,
                        help="root of the change's checkout")
    args = parser.parse_args(argv)
    runs, outputs = measure(args.base.resolve(), args.head.resolve())
    return report(runs, outputs)


if __name__ == "__main__":
    sys.exit(main())

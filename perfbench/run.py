"""Run one benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload reduce-local --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The lines before it name each metric with its
value and unit, plus the run's provenance. Results and spans are also
written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("reduce-local", "reduce-remote", "hist-local")
DEFAULT_SEED = 1  # the seed the baseline was developed on
HELD_OUT_SEED = 97  # kept for checking claims on data not used while writing a change


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"dataset seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print(f"{workload:<14} {name:<30} {metric['value']:>16.6g} {metric['unit']}")
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "treeduce").is_dir():
        print(f"no treeduce sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # a terminated run still stops its server child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    path = workloads.write_result(ROOT, out)
    for failure in out.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("provenance " + json.dumps(out.provenance))
    for name, (value, unit) in out.metrics.items():
        print(f"{name:<30} {value:>16.6g} {unit}")
    print(f"result written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

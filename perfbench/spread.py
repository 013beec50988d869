"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload tenant_mix --seeds 1-5 --seconds 20

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints
for each end-to-end metric the median and quartiles of its values (as
``statistics.quantiles(values, n=4)`` gives them) and the spread:
(q3 - q1) / median. ``setup_s.first`` is the spread of the first of each
run's set-ups alone, to compare with the median of them that ``setup_s``
reports. ``--out`` also writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
SETUP_RUNS = re.compile(r"setup runs ([0-9., ]+) s$")


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": round(median, 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "spread": round((q3 - q1) / median, 4),
        "runs": len(values),
    }


def measure(workload: str, seed_list: list[int], seconds: int) -> dict:
    values: dict[str, list[float]] = {}
    for seed in seed_list:
        cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = child.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in lines:
            match = SETUP_RUNS.search(line)
            if match:
                first = float(match.group(1).split(",")[0])
                values.setdefault("setup_s.first", []).append(first)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name} {vals[-1]:.4f}" for name, vals in values.items()), flush=True)
    return {name: summary(vals) for name, vals in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="a seed or a range, as 1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = {}
    for workload in args.workload:
        out[workload] = measure(workload, seeds(args.seeds), args.seconds)
        for name, s in out[workload].items():
            print(f"  {workload:15s} {name:16s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

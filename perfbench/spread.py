"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workloads dense,fleet,pernode --seeds 1-10

Runs ``perfbench/run.py`` once per workload and seed, one after another,
from the current directory, and prints per metric the median, the first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the bound in ``BENCHMARK.json``. Each run
lasts ``run_seconds`` from ``BENCHMARK.json`` and prints the end-to-end
metrics (``--trace 0``).
"""

from __future__ import annotations

import argparse
import fractions
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="dense,fleet,pernode")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            shares.add(str(fractions.Fraction(result["failed"], result["attempted"])))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(args.seeds)} runs, failed/attempted {sorted(shares)}")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:26s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:6.3f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

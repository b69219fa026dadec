"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload fig2-multi --seeds 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed (untraced), then prints, for every
end-to-end metric, the values, their median and their spread: the distance
between the first and third quartile as a share of the median.  A spread
below a third of the metric's bound in ``BENCHMARK.json`` is marked steady;
the exit code is 1 unless every metric is steady and every run correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.stats import spread  # noqa: E402


def main(argv=None) -> int:
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    steady = True
    for metric in benchmark["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        share = spread(values)
        ok = share < metric["bound"] / 3
        steady &= ok
        print(f"{metric['name']:<14} median {statistics.median(values):12.4f} {metric['unit']:<5}"
              f" spread {share:.3f} (bound {metric['bound']}) {'steady' if ok else 'NOT steady'}")
    return 0 if steady and all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

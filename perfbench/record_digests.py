"""Record the reference payload digests the campaign workloads are checked against.

    PYTHONPATH=src:. python3 -m perfbench.record_digests

Runs one repetition of ``fig2-multi`` for every campaign seed, and one of
``corpus-cold`` (whose single-link scenarios do not depend on the seed),
through the same child process the benchmark times, and rewrites
``perfbench/digests.json``.  Re-record only when a change is meant to alter
campaign payloads.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from perfbench import workloads

DIGESTS = Path(__file__).parent / "digests.json"
#: Child processes run side by side.
PROCESSES = 2


def digest_for(job):
    workload, seed = job
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as work:
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.campaign_child", "--workload", workload,
             "--seed", str(seed), "--work", work],
            capture_output=True, text=True, check=True,
        )
    result = json.loads(done.stdout.splitlines()[-1])
    if result["quarantined"]:
        raise SystemExit(f"{workload} seed {seed} quarantined cells")
    print(workload, seed, result["digest"], flush=True)
    return result["digest"]


def main() -> int:
    seeds = range(workloads.SEED_CYCLE)
    with ThreadPoolExecutor(PROCESSES) as pool:
        corpus = pool.submit(digest_for, (workloads.CORPUS, 0))
        fig2 = list(pool.map(digest_for, [(workloads.FIG2, seed) for seed in seeds]))
        digests = {
            workloads.CORPUS: corpus.result(),
            workloads.FIG2: {
                str(workloads.campaign_seed(seed)): digest for seed, digest in zip(seeds, fig2)
            },
        }
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

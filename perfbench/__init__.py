"""Black-box benchmark of the Packet Re-cycling reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a source checkout and prints one JSON
result line last.  See ``perfbench/README.md`` for the workloads, the
metrics and what each layer metric is expected to move.
"""

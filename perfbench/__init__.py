"""Benchmark of the DiSOM simulator and its modelled checkpoint protocol.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``python3 perfbench/run.py --all`` prints every
workload's end-to-end and per-layer metrics.  See ``perfbench/README.md``.
"""

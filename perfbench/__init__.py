"""End-to-end benchmark of the analysis stack, with a traced per-layer split.

Run one workload with::

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 45 --trace 0

See ``perfbench/run.py`` for the workloads, the metrics and the output
format.  The benchmark drives the program from the outside (every
campaign episode and set-up probe is a fresh program process) and
records spans by wrapping the program's public functions from these
files; nothing under ``src/`` knows it is being measured.
"""

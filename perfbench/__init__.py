"""The repository benchmark: three confederation workloads driven from outside.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds confederations through the public
:mod:`repro.confed` API, runs the evaluation schedule in a closed loop,
checks every run's decisions against an uncached in-memory reference,
and prints one JSON result line.  See ``perfbench/README.md``.
"""

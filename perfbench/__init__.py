"""Repository benchmark for treeduce: workloads, output oracle and span tracer.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""

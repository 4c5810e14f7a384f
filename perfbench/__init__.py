"""Layered, drift-corrected benchmark of the SRLR reproduction.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (see ``perfbench/run.py``).
"""

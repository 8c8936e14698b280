"""Benchmark of the campaignkit pipeline; run ``python3 perfbench/run.py --help``."""

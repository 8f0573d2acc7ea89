"""Sweep benchmark for sqspec; run `python3 perfbench/run.py --help`."""

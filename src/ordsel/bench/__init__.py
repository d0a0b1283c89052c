"""Benchmark layer: synthetic corpus generation, 12-configuration sweep
benchmarking, eligibility filtering, train/test splitting, and speedup
reporting."""

"""Synthetic dataset generators + catalog builders for the three benchmarks."""

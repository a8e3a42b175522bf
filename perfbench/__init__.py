"""Benchmark of the photon_transistor presets; run it with ``python3 -m perfbench``."""

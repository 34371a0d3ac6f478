"""Benchmark for boxprobe: seeded workloads, output checks and layer tracing."""

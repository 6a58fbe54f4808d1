"""Benchmark harness for the amalgam engine; see README.md."""

"""End-to-end and per-layer solve benchmark (entry point: perfbench/run.py)."""

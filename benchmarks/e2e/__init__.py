"""End-to-end benchmark with a per-layer ledger (see README.md here).

``python3 benchmarks/e2e/run.py`` is the one entry point; the contract
it is held to lives in ``BENCHMARK.json`` at the repository root.
"""

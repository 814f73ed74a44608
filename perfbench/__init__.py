"""perfbench — the repo's end-to-end and per-layer performance benchmark.

``python3 -m perfbench`` runs five named workloads through the public
``repro.run_scenario`` and prints every metric listed in the root
``BENCHMARK.json``; see ``perfbench/README.md``.  Importing this package
imports nothing from ``repro``: the measured children time that import.
"""

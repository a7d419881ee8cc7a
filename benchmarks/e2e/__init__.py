"""The repository's end-to-end benchmark (see README.md in this directory).

``BENCHMARK.json`` at the repository root names this package as the gate
for performance claims: four analyst workloads measured from the socket
(or ``engine.execute``) to checked cells, with per-layer attribution from
the benchmark's own timing wrappers.
"""

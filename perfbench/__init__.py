"""perfbench — the repository's benchmark.

Five workloads, end-to-end metrics normalised against host noise, and
a layer trace recorded from outside the program.  ``BENCHMARK.json`` at
the repository root is the contract a driver runs it by; this package's
own ``README.md`` says what every number means and why it is measured
the way it is.

    python -m perfbench run [--seed N] [--workload NAME]
        [--seconds S] [--trace] [--smoke] [--out FILE]
    python -m perfbench compare A.json B.json

Importing the package has no side effects: BLAS threads are pinned and
``src/`` is put on ``sys.path`` by :func:`perfbench.env.prepare`, which
the entry point calls before anything imports NumPy.
"""

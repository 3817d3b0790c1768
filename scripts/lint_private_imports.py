#!/usr/bin/env python
"""Lint: forbid private reduction/collective/scaler names outside their package.

The strategy registry (``repro.core.strategies``) is the single
dispatch point for every reduction path.  Code outside ``src/repro/core``
must go through ``get_strategy(...)`` / ``StrategyReducer(...)`` /
``RunConfig.make_reducer()`` / ``cluster_allreduce(...)`` rather than
importing the private flat kernels directly.  The
same boundary holds for the wire-level hierarchical collective: its
ring-schedule internals (chunk-bound arithmetic, local reduce-scatter /
allgather stages, the cross-node tree fallback) are private to
``src/repro/comm`` — everything else calls the public
``hierarchical_*_allreduce`` entry points.  And the fp16 dynamic
scaler's state leaves ``src/repro/core`` only as
``DynamicScaler.state_dict()``.  Threads are started only by the
simulated cluster in ``src/repro/comm`` (cyclic collectives need
concurrent ranks): a training step runs on its caller's thread, so a
private comm thread cannot creep back into it.  Per-rank optimizer
slots and error-feedback residual rows have their live home in the rank
workers under ``execution="processes"``; a parent copy may be a step
old, so they are read only by ``src/repro/core``, the codec pipeline's
own module and the three files of the pull/push seam (worker bootstrap,
packed state, checkpoint) — everything else goes through
``pack_dist_state`` / ``save_checkpoint`` (which pull first) or
``DistributedOptimizer.pull_rank_state``.  And there is one training
loop: backward runs only inside the tensor library, the layers, the
trainer and Figure 2's exact-Hessian gradient function
(``repro.utils.make_flat_grad_fn``) — an experiment or example that
needs gradients drives ``ParallelTrainer.train_step`` instead of
hand-rolling a per-rank loop.  What an op is lives in the strategy
registry: outside ``src/repro/core/strategies.py`` and the experiment
definitions (which name their arms) no code compares op names or
spells the deleted ``ReduceOpType`` — it reads the facts a strategy
declares.  And no module in ``src``, ``tests``, ``benchmarks``,
``examples`` or ``scripts`` imports a name it never uses
(``__init__.py`` re-exports and ``__all__`` entries aside; the one
named exception is the benchmark's ``compute_grads_into`` boundary in
the elastic trainer).  This grep-level check
keeps the boundaries from eroding: a
private name that leaks into another package turns the next kernel
refactor into a cross-package breakage.

Usage::

    python scripts/lint_private_imports.py

Exits non-zero and prints every offending ``path:line`` when a
forbidden token appears outside its allowed area.
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Each rule: (tokens, allowed prefixes) — the tokens may appear only in
# files under one of the allowed prefixes.
RULES = (
    # Private kernel internals of the reduction engine.
    (
        (
            "_FlatReducePlan",
            "_adasum_rvh_level",
            "_rvh_flat",
            "_ring_flat",
            "_HierarchicalMixin",
        ),
        (REPO / "src" / "repro" / "core",),
    ),
    # Wire-level hierarchical collective internals: the ring schedule
    # (chunk bounds, stage functions) and the cross-node tree fallback
    # are comm-private; the registry's hierarchical cells consume only
    # the public hierarchical_*_allreduce entry points.
    (
        (
            "_local_reduce_scatter",
            "_local_allgather",
            "_node_group",
            "_chunk_bounds",
            "_cross_node_adasum_tree",
            "_rebase_boundaries",
        ),
        (REPO / "src" / "repro" / "comm",),
    ),
    # fp16 dynamic-scaler internals: everything outside core reads and
    # restores the scaler through ``DistributedOptimizer.scaler`` and
    # ``DynamicScaler.state_dict()`` / ``load_state_dict()``.  (The
    # leading dot keeps the on-disk ``"fp16_scaler"`` key legal.)
    (
        ("._scaler", "_clean_steps"),
        (REPO / "src" / "repro" / "core",),
    ),
    # Thread creation: only the simulated cluster's rank threads.  A
    # step's buckets run inline — a comm thread measured slower than the
    # caller's thread under the GIL (docs/performance.md).
    (
        ("ThreadPoolExecutor", "threading.Thread("),
        (REPO / "src" / "repro" / "comm",),
    ),
    # Per-rank optimizers and residual rows: under the process backend
    # the rank workers hold the live copies, so a new reader has to go
    # through the pull seam (the worker bootstrap, the packed state, the
    # checkpoint) instead of a parent copy that may be one step old.
    # (comm/codec.py is where the pipeline's residual attribute lives.)
    (
        ("rank_optimizers", "._residuals"),
        (
            REPO / "src" / "repro" / "core",
            REPO / "src" / "repro" / "comm" / "codec.py",
            REPO / "src" / "repro" / "train" / "trainer.py",
            REPO / "src" / "repro" / "elastic" / "state.py",
            REPO / "src" / "repro" / "train" / "checkpoint.py",
        ),
    ),
    # What an op does is a fact its strategy declares
    # (``post_optimizer``, ``scales_with_world``), never a comparison
    # of op names; experiment definitions name their arms.
    (
        (
            "ReduceOpType",
            '== "adasum"',
            '== "sum"',
            '== "average"',
            '!= "adasum"',
            '!= "sum"',
            '("sum", "average")',
        ),
        (
            REPO / "src" / "repro" / "core" / "strategies.py",
            REPO / "src" / "repro" / "experiments",
        ),
    ),
    # One training loop: gradients are computed by the trainer, not by
    # a per-rank loop hand-rolled in an experiment, benchmark or example.
    (
        (".backward(",),
        (
            REPO / "src" / "repro" / "tensor",
            REPO / "src" / "repro" / "nn",
            REPO / "src" / "repro" / "train",
            REPO / "src" / "repro" / "utils.py",
        ),
    ),
)

# Everything under these roots is scanned (tests may exercise privates).
SCAN_ROOTS = ("src", "benchmarks", "scripts", "examples")
# ...and for unused imports, the tests too.
IMPORT_SCAN_ROOTS = SCAN_ROOTS + ("tests",)

# Imports that their module never uses, allowed by name:
# the benchmark's ``train.compute_grads`` boundary resolves
# ``compute_grads_into`` as an attribute of the elastic trainer module.
UNUSED_IMPORT_EXCEPTIONS = {
    (REPO / "src" / "repro" / "elastic" / "trainer.py", "compute_grads_into"),
}


def _allowed(path: pathlib.Path, prefixes) -> bool:
    return any(prefix in path.parents or path == prefix for prefix in prefixes)


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, ``__all__`` entries included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                e.value for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return used


def unused_imports() -> list[str]:
    """``path:line`` of every import under :data:`IMPORT_SCAN_ROOTS` its
    module never uses (``__init__.py`` files re-export, so they are
    skipped)."""
    offenders = []
    paths = (p for root in IMPORT_SCAN_ROOTS for p in (REPO / root).rglob("*.py"))
    for path in sorted(paths):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name in used or (path, name) in UNUSED_IMPORT_EXCEPTIONS:
                    continue
                rel = path.relative_to(REPO)
                offenders.append(f"{rel}:{node.lineno}: unused import {name}")
    return offenders


def scan() -> list[str]:
    offenders = unused_imports()
    for root in SCAN_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            if path == REPO / "scripts" / "lint_private_imports.py":
                continue
            lines = path.read_text().splitlines()
            for tokens, prefixes in RULES:
                if _allowed(path, prefixes):
                    continue
                for lineno, line in enumerate(lines, 1):
                    for token in tokens:
                        if token in line:
                            rel = path.relative_to(REPO)
                            offenders.append(
                                f"{rel}:{lineno}: {token}: {line.strip()}"
                            )
    return offenders


def main() -> int:
    offenders = scan()
    if offenders:
        print("private reduction/collective/scaler names, per-rank state, "
              "op-name comparisons, thread creation or backward passes "
              "outside their package, or unused imports:")
        for line in offenders:
            print(f"  {line}")
        print(
            "\nroute through repro.core.strategies.get_strategy(...), "
            "repro.core.StrategyReducer(...), RunConfig.make_reducer(), "
            "repro.comm.cluster_allreduce(...), "
            "the public repro.comm.hierarchical_*_allreduce entry points, or "
            "DistributedOptimizer.scaler.state_dict() instead; read an op's "
            "declared facts (strategy.post_optimizer / scales_with_world) "
            "instead of comparing its name; run step work on "
            "the calling thread; read per-rank optimizer state through "
            "pack_dist_state(...) / DistributedOptimizer.pull_rank_state(); "
            "compute gradients through ParallelTrainer.train_step; "
            "delete an import its module does not use."
        )
        return 1
    print("lint_private_imports: no private kernel names outside their package")
    return 0


if __name__ == "__main__":
    sys.exit(main())

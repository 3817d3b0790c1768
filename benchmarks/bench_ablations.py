"""Ablations for the design choices DESIGN.md calls out.

* tree vs linear ("ring") recursive application (§3.4 / §4.2.3);
* per-layer vs whole-model Adasum (§3.6);
* pre- vs post-optimizer application (Figure 3);
* fp16 communication with fp64 accumulation (§4.4.1);
* tensor-fusion threshold (§4.4.3).
"""

import numpy as np
import pytest

from benchmarks.conftest import announce
from repro import nn
from repro.comm import BucketPlan, NetworkModel
from repro.comm.fusion import layout_of
from repro.core import (
    RunConfig,
    adasum_linear,
    adasum_tree,
)
from repro.data import make_mnist_like, train_test_split
from repro.models import MLP
from repro.optim import Adam, SGD
from repro.train import ParallelTrainer, accuracy
from repro.utils import format_table


def _grads(n, size, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(size).astype(np.float32) for _ in range(n)]


class TestTreeVsRing:
    def test_throughput(self, benchmark, save_result):
        """Tree reduction does the same O(n) pairwise combines; time both."""
        grads = _grads(16, 1 << 16)

        def both():
            return adasum_tree(grads), adasum_linear(grads)

        tree_out, ring_out = benchmark(both)
        # Different recursion orders give different (both valid) results.
        assert not np.allclose(tree_out, ring_out, rtol=1e-6)

        # Both orders preserve the analytic endpoint properties.
        eye = np.eye(8, dtype=np.float32)
        np.testing.assert_allclose(
            adasum_linear([eye[i] for i in range(8)]), np.ones(8), rtol=1e-5
        )
        rows = [("tree ‖result‖", f"{np.linalg.norm(tree_out):.4f}"),
                ("ring ‖result‖", f"{np.linalg.norm(ring_out):.4f}")]
        announce("Ablation: tree vs ring recursion", format_table(["variant", "value"], rows))
        save_result("ablation_tree_vs_ring", ["variant", "value"], rows)

    def test_modeled_ring_slower_than_rvh(self):
        """§4.2.3: the ring implementation gave less throughput than RVH
        on the paper's fabric — the cost model agrees."""
        from repro.comm import adasum_rvh_cost, ring_allreduce_cost

        net = NetworkModel.infiniband()
        n, p = 1 << 22, 64
        # The linear/ring Adasum cannot stream (needs full dot products
        # per stage): model it as a ring allreduce plus p-1 serialized
        # scalar rounds.
        ring_adasum = ring_allreduce_cost(n, p, net) + (p - 1) * net.send_cost(24)
        assert adasum_rvh_cost(n, p, net) < ring_adasum


class TestPerLayerVsWholeModel:
    def test_convergence(self, benchmark, save_result):
        """Per-layer Adasum (the paper's default) vs whole-model flatten."""
        x, y = make_mnist_like(1024, noise=0.3, seed=0)
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.25, seed=1)

        def train(per_layer: bool) -> float:
            model = MLP((784, 32, 10), rng=np.random.default_rng(0))
            config = RunConfig(op="adasum", adasum_pre_optimizer=True,
                               per_layer=per_layer, num_ranks=8, microbatch=8)
            tr = ParallelTrainer(model, nn.CrossEntropyLoss(),
                                 lambda ps: SGD(ps, 0.01, momentum=0.9),
                                 x_tr, y_tr, config)
            for e in range(4):
                tr.train_epoch(e)
            return accuracy(model, x_te, y_te)

        acc_per_layer = benchmark.pedantic(train, args=(True,), rounds=1, iterations=1)
        acc_whole = train(False)
        rows = [("per-layer", f"{acc_per_layer:.4f}"), ("whole-model", f"{acc_whole:.4f}")]
        announce("Ablation: per-layer vs whole-model Adasum",
                 format_table(["granularity", "accuracy"], rows))
        save_result("ablation_per_layer", ["granularity", "accuracy"], rows,
                    notes="paper §3.6 motivates per-layer by divergent "
                          "per-layer orthogonality rates")
        assert acc_per_layer > 0.5  # converges
        assert acc_whole > 0.5


class TestPrePostOptimizer:
    def test_adam_pre_vs_post(self, benchmark, save_result):
        """Figure 3: with stateful optimizers Adasum belongs AFTER the
        optimizer; compare both orders under Adam."""
        x, y = make_mnist_like(1024, noise=0.3, seed=0)
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.25, seed=1)

        def train(pre: bool) -> float:
            model = MLP((784, 32, 10), rng=np.random.default_rng(0))
            config = RunConfig(op="adasum", adasum_pre_optimizer=pre,
                               num_ranks=8, microbatch=8)
            tr = ParallelTrainer(model, nn.CrossEntropyLoss(),
                                 lambda ps: Adam(ps, 0.002), x_tr, y_tr, config)
            for e in range(6):
                tr.train_epoch(e)
            return accuracy(model, x_te, y_te)

        acc_post = benchmark.pedantic(train, args=(False,), rounds=1, iterations=1)
        acc_pre = train(True)
        rows = [("post-optimizer (paper)", f"{acc_post:.4f}"),
                ("pre-optimizer", f"{acc_pre:.4f}")]
        announce("Ablation: Adasum pre vs post optimizer (Adam)",
                 format_table(["order", "accuracy"], rows))
        save_result("ablation_pre_post", ["order", "accuracy"], rows)
        assert acc_post > 0.5  # the paper's order converges


class TestFp16:
    def test_fp16_pipeline_convergence(self, benchmark, save_result):
        """fp16 wire format + dynamic scaling barely moves accuracy."""
        x, y = make_mnist_like(1024, noise=0.3, seed=0)
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.25, seed=1)

        def train(fp16: bool) -> float:
            model = MLP((784, 32, 10), rng=np.random.default_rng(0))
            # An overflowing step is skipped inside the optimizer (one
            # scaler verdict per step), exactly as training does it.
            config = RunConfig(op="adasum", adasum_pre_optimizer=True,
                               wire_codecs=("fp16",) if fp16 else (),
                               num_ranks=8, microbatch=8)
            tr = ParallelTrainer(model, nn.CrossEntropyLoss(),
                                 lambda ps: SGD(ps, 0.01, momentum=0.9),
                                 x_tr, y_tr, config)
            rng = np.random.default_rng(0)
            for step in range(90):
                tr.train_step(rng.integers(0, len(x_tr), size=(8, 8)))
            return accuracy(model, x_te, y_te)

        acc16 = benchmark.pedantic(train, args=(True,), rounds=1, iterations=1)
        acc32 = train(False)
        rows = [("fp16 + dynamic scaling", f"{acc16:.4f}"), ("fp32", f"{acc32:.4f}")]
        announce("Ablation: fp16 communication", format_table(["precision", "accuracy"], rows))
        save_result("ablation_fp16", ["precision", "accuracy"], rows)
        assert acc16 > acc32 - 0.1


class TestFusionThreshold:
    @pytest.mark.parametrize("threshold_kb", [64, 2048])
    def test_fusion_group_count(self, threshold_kb):
        """Bigger thresholds -> fewer fusion groups -> fewer collectives."""
        rng = np.random.default_rng(0)
        tensors = [(f"l{i}", rng.standard_normal(40_000).astype(np.float32))
                   for i in range(16)]  # 160 KB each
        plan = BucketPlan.for_layout(layout_of(tensors), cap_bytes=threshold_kb * 1024)
        if threshold_kb == 64:
            assert plan.num_buckets == 16  # each over threshold -> own group
        else:
            assert plan.num_buckets < 16

    def test_fusion_latency_model(self, save_result):
        """Modeled latency: fused beats unfused for many small tensors."""
        from repro.comm import adasum_rvh_cost

        net = NetworkModel.infiniband()
        sizes = [64 * 1024] * 32  # 32 tensors of 64 KB
        unfused = sum(adasum_rvh_cost(s, 64, net) for s in sizes)
        fused = adasum_rvh_cost(sum(sizes), 64, net)
        rows = [("unfused (32 collectives)", f"{unfused * 1e3:.3f} ms"),
                ("fused (1 collective)", f"{fused * 1e3:.3f} ms")]
        announce("Ablation: tensor fusion", format_table(["variant", "latency"], rows))
        save_result("ablation_fusion", ["variant", "latency"], rows)
        assert fused < unfused

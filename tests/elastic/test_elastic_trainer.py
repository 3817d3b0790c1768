"""End-to-end elastic training: parity, recovery, re-sharding, resume."""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.comm import NetworkModel
from repro.core import RunConfig
from repro.core.precision import DynamicScaler
import repro.train.trainer as train_trainer
from repro.models import MLP, BertConfig, MiniBERT
from repro.models.fused_bert import FusedBertRankCompute
from repro.optim import SGD, Adam, LinearWarmupDecay
from repro.train import ParallelTrainer
from repro.elastic import ElasticSchedule, ElasticTrainer, StragglerPolicy


def _task(n=160, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    return x, y


_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _elastic(x, y, num_ranks=8, microbatch=4, op="adasum",
             topology="tree", schedule=None, make_opt=lambda ps: SGD(ps, 0.3),
             **kw):
    """An elastic MLP run; ``kw`` holds config fields and trainer keywords."""
    model = MLP((6, 16, 2), rng=np.random.default_rng(0))
    config = RunConfig(
        op=op, topology=topology, num_ranks=num_ranks, microbatch=microbatch,
        seed=0, faults=schedule, **{k: kw.pop(k) for k in _FIELDS & set(kw)},
    )
    trainer = ElasticTrainer(
        model, nn.CrossEntropyLoss(), make_opt, x, y, config, **kw,
    )
    return trainer, model


class TestNoFaultParity:
    @pytest.mark.parametrize("op", ["adasum", "average"])
    def test_bit_exact_with_parallel_trainer(self, op):
        # Failure-free elastic == ParallelTrainer, same seed, divisible
        # world (128 samples / (4 ranks * 8 microbatch)): identical
        # batches, identical gradients, identical reduction bytes.
        x, y = _task(n=128)
        m_ref = MLP((6, 16, 2), rng=np.random.default_rng(0))
        ref = ParallelTrainer(m_ref, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.3),
                              x, y, RunConfig(op=op, num_ranks=4, microbatch=8))
        tr, m_el = _elastic(x, y, num_ranks=4, microbatch=8, op=op)
        for epoch in range(2):
            ref_loss = ref.train_epoch(epoch)
            el_loss = tr.train_epoch(epoch)
            assert el_loss == ref_loss
        ref_params = dict(m_ref.named_parameters())
        for name, p in m_el.named_parameters():
            np.testing.assert_array_equal(p.data, ref_params[name].data)


class _RealSGD(SGD):
    """No exact type the mirror replays: its Figure-3 rewrite steps the
    real optimizers (``_rewrite_rows_to_deltas``)."""


class _RealAdam(Adam):
    """The same for Adam."""


@pytest.mark.parametrize("mirrored,real", [
    (lambda ps: SGD(ps, LinearWarmupDecay(0.3, 30), momentum=0.9),
     lambda ps: _RealSGD(ps, LinearWarmupDecay(0.3, 30), momentum=0.9)),
    (lambda ps: Adam(ps, LinearWarmupDecay(0.02, 30)),
     lambda ps: _RealAdam(ps, LinearWarmupDecay(0.02, 30))),
], ids=["momentum", "adam"])
def test_mirror_replays_an_elastic_run_byte_for_byte(monkeypatch, tmp_path, mirrored, real):
    """The shrink geometry (8 -> 7 -> 5 through three kills, epochs whose
    last step lists a strict subset of the ranks) through the
    distributed optimizer's mirror lands on the same parameter bytes as
    through the real rank optimizers.  So does the mirrored run with a
    detour: a checkpoint saved mid-epoch, the epoch finished, and the
    checkpoint loaded back onto the live trainer, whose mirror must see
    the loaded state as an outside write."""
    from repro.core.distributed_optimizer import DistributedOptimizer
    from repro.core.overlap import FlatOptimizerMirror

    listed, rewrites = [], []
    begin = FlatOptimizerMirror.begin_step
    rewrite = DistributedOptimizer._rewrite_rows_to_deltas

    def begin_step(self, rows=None):
        listed.append((len(self._opts), list(rows)))
        return begin(self, rows)

    def rewrite_rows(self, *args):
        rewrites.append(1)
        return rewrite(self, *args)

    monkeypatch.setattr(FlatOptimizerMirror, "begin_step", begin_step)
    monkeypatch.setattr(DistributedOptimizer, "_rewrite_rows_to_deltas", rewrite_rows)
    x, y = _task(n=200)
    ckpt = str(tmp_path / "detour.npz")

    def run(make_opt, detour=False):
        schedule = ElasticSchedule().kill(2, 3).kill(9, 0).kill(9, 6)
        tr, model = _elastic(x, y, schedule=schedule, make_opt=make_opt)
        tr.train_epoch(0)
        tr.train_epoch(1)
        if detour:
            tr.train_epoch(2, max_steps=2)
            tr.save_checkpoint(ckpt)
            tr.finish_epoch()
            tr.restore_from_checkpoint(ckpt)
            tr.finish_epoch()
        else:
            tr.train_epoch(2)
        assert tr.num_ranks == 5
        return [p.data.tobytes() for _, p in model.named_parameters()]

    straight = run(mirrored)
    assert rewrites == [] and any(len(rows) < world for world, rows in listed)
    assert run(real) == straight
    assert rewrites
    assert run(mirrored, detour=True) == straight


class TestRejectedAtConstruction:
    def test_rvh_topology_is_a_config_error_not_a_dead_rank(self):
        """The group allreduce of ``rvh`` needs a power-of-two world.
        Accepted, this run shrank 4 -> 3 on the scheduled kill, failed
        inside the next collective and evicted healthy rank 0 as dead."""
        x, y = _task(n=64)
        with pytest.raises(ValueError, match="rvh"):
            _elastic(x, y, num_ranks=4, topology="rvh",
                     schedule=ElasticSchedule().kill(1, 2))

    @pytest.mark.parametrize("field", [{"topology": "rvh"}, {"overlap": True}])
    def test_from_config_rejects_what_the_elastic_step_cannot_run(self, field):
        """``overlap`` used to be dropped silently: the trainer built
        with one whole-row bucket and no overlap plan."""
        x, y = _task(n=64)
        config = RunConfig(num_ranks=4, microbatch=4, **field)
        with pytest.raises(ValueError, match=next(iter(field))):
            ElasticTrainer.from_config(
                MLP((6, 16, 2), rng=np.random.default_rng(0)),
                nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.3), x, y, config)


@pytest.mark.faults
@pytest.mark.parametrize("topology", ["tree", "rvh"])
def test_strict_cell_on_two_ranks_survives_a_kill(topology):
    """What the elastic world rule newly admits: a power-of-two-only
    cell whose world can only shrink to one rank.  Killed down to 1, the
    epoch still visits every sample exactly once, on the config's cell."""
    x, y = _task(n=64)
    tr, _ = _elastic(x, y, num_ranks=2, topology=topology,
                     schedule=ElasticSchedule().kill(2, 1))
    loss = tr.train_epoch(0)
    assert np.isfinite(loss)
    assert tr.num_ranks == 1 and len(tr.recoveries) == 1
    assert sorted(tr.epoch_visited) == list(range(len(x)))
    assert tr.dist_opt.topology == topology


@pytest.mark.faults
class TestKillRecovery:
    def test_mid_epoch_kill_completes_exactly_once(self):
        x, y = _task(n=200)
        sched = ElasticSchedule().kill(2, 3)
        tr, _ = _elastic(x, y, schedule=sched)
        loss = tr.train_epoch(0)
        assert np.isfinite(loss)
        assert tr.num_ranks == 7
        assert sorted(tr.epoch_visited) == list(range(len(x)))
        assert len(tr.recoveries) == 1
        assert tr.recoveries[0]["kind"] == "kill"
        assert tr.recoveries[0]["dead_global_ranks"] == [3]
        assert tr.recovery_seconds and tr.recovery_seconds[0] > 0

    def test_minibert_engine_follows_the_live_world(self, monkeypatch):
        """MiniBERT computes through its fused engine at whatever ranks
        are live: a kill shrinks 4 -> 3 (a new call shape, validated
        anew by the rebuilt executor) and the epoch's last chunk deals
        ragged blocks ``[2, 1, 1]`` (the per-rank loop).  Bit-identical
        to the same run with no engine registered, which computes
        through rank-stacked autograd on the same rule."""
        tokens = np.random.default_rng(0).integers(0, 24, (30, 8))
        blocks = {True: [], False: []}
        compute = train_trainer.FusedRankExecutor.compute
        runs = []
        for engine in (True, False):
            def recording(self, rank_indices, ranks=None, on_ready=None, _run=engine):
                blocks[_run].append([len(idx) for idx in rank_indices])
                return compute(self, rank_indices, ranks, on_ready)

            monkeypatch.setattr(train_trainer.FusedRankExecutor, "compute", recording)
            if not engine:
                monkeypatch.setattr(train_trainer, "build_fused_engine", lambda model: None)
            model = MiniBERT(BertConfig(vocab_size=24, hidden=16, layers=1, heads=2,
                                        max_seq_len=8), rng=np.random.default_rng(0))
            config = RunConfig(
                topology="tree", num_ranks=4, microbatch=2,
                wire_codecs=("fp16",), faults=ElasticSchedule().kill(1, 2),
            )
            tr = ElasticTrainer(
                model, nn.CrossEntropyLoss(), lambda ps: Adam(ps, 0.01), tokens, tokens,
                config,
            )
            losses = [tr.train_epoch(epoch) for epoch in range(2)]
            assert tr.num_ranks == 3 and len(tr.recoveries) == 1
            assert sorted(tr.epoch_visited) == list(range(len(tokens)))
            # FusedRankExecutor <=> a rank-order-free model; its engine
            # is the registered one when there is one.
            executor = tr.executor
            assert isinstance(executor, train_trainer.FusedRankExecutor)
            assert type(executor.engine) is (
                FusedBertRankCompute if engine else train_trainer.StackedAutograd)
            assert executor._validated == {(3, (6, 8))}
            runs.append((losses, [p.data.tobytes() for p in model.parameters()]))
        # Both worlds and the ragged tail, in each run.
        for record in blocks.values():
            assert [2, 2, 2, 2] in record and [2, 2, 2] in record and [2, 1, 1] in record
            assert sum(map(sum, record)) == 8 + 8 + 22 + 30
        assert runs[0] == runs[1]

    def test_shrink_8_to_5_final_loss_within_tolerance(self):
        # The acceptance scenario: kills shrink the world 8 -> 7 -> 5
        # (non-power-of-two) mid-run; at an equal sample budget the
        # final loss must track the failure-free same-seed run.
        x, y = _task(n=200)
        tr0, _ = _elastic(x, y)
        clean = [tr0.train_epoch(e) for e in range(3)]

        sched = ElasticSchedule().kill(2, 3).kill(9, 0).kill(9, 6)
        tr1, _ = _elastic(x, y, schedule=sched)
        faulty = [tr1.train_epoch(e) for e in range(3)]

        assert tr1.num_ranks == 5
        assert sorted(list(tr1.membership)) == [1, 2, 4, 5, 7]
        assert len(tr1.recoveries) == 2
        for epoch_losses in (clean, faulty):
            assert epoch_losses[-1] < epoch_losses[0]
        assert sorted(tr1.epoch_visited) == list(range(len(x)))
        assert abs(faulty[-1] - clean[-1]) < 0.1

    def test_multiple_kills_same_step(self):
        x, y = _task(n=160)
        sched = ElasticSchedule().kill(1, 0).kill(1, 1)
        tr, _ = _elastic(x, y, schedule=sched)
        tr.train_epoch(0)
        assert tr.num_ranks == 6
        assert 0 not in tr.membership and 1 not in tr.membership
        assert sorted(tr.epoch_visited) == list(range(len(x)))

    def test_min_ranks_aborts_instead_of_shrinking(self):
        x, y = _task(n=64)
        sched = ElasticSchedule().kill(1, 0)
        tr, _ = _elastic(x, y, num_ranks=2, min_ranks=2, schedule=sched)
        with pytest.raises(Exception):
            tr.train_epoch(0)

    def test_fp16_survives_kill(self):
        x, y = _task(n=160)
        sched = ElasticSchedule().kill(2, 5)
        tr, _ = _elastic(x, y, wire_codecs=("fp16",), schedule=sched)
        loss = tr.train_epoch(0)
        assert np.isfinite(loss)
        assert tr.num_ranks == 7
        assert sorted(tr.epoch_visited) == list(range(len(x)))

    def test_kill_on_first_op_rolls_back(self):
        """A kill at the step's first collective op: the failed attempt
        leaves the model as it found it, so the retry on the 7 survivors
        commits exactly the step a fresh 7-rank world takes."""
        x, y = _task(n=160)
        tr, model = _elastic(x, y, schedule=ElasticSchedule().kill(0, 3))
        ref, m_ref = _elastic(x, y, num_ranks=7)
        tr.train_epoch(0, max_steps=1)
        ref.train_epoch(0, max_steps=1)
        assert tr.num_ranks == 7 and tr.commits == 1
        assert len(tr.recoveries) == 1
        for p, q in zip(model.parameters(), m_ref.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_snapshot_every_multiple_steps(self):
        # Coarser snapshots roll further back but must still converge
        # and still visit every sample exactly once after recovery.
        x, y = _task(n=200)
        sched = ElasticSchedule().kill(3, 2)
        tr, _ = _elastic(x, y, schedule=sched, snapshot_every=3)
        tr.train_epoch(0)
        assert tr.num_ranks == 7
        assert sorted(tr.epoch_visited) == list(range(len(x)))


#: Error-feedback and fp16 stacks, one stage each and the full chain.
STACKS = [("fp16",), ("int8",), ("topk:0.1",), ("onebit",), ("fp16", "int8", "topk:0.01")]


class TestCodecStacks:
    """The elastic collective ships round-tripped rows and charges every
    send of an original row the stack's modeled per-row bytes."""

    @pytest.mark.parametrize("stack", STACKS, ids=",".join)
    def test_step_charges_leaves_the_modeled_bytes(self, stack):
        """An 8-rank ``tree`` step sends 4 original rows and 3
        partials, a 7-rank one (after a kill) 4 and 2: the leaves cost
        ``pipe.wire_nbytes()`` each, the partials raw fp32."""
        x, y = _task()
        for schedule, world, partials in ((None, 8, 3),
                                          (ElasticSchedule().kill(0, 3), 7, 2)):
            tr, _ = _elastic(x, y, wire_codecs=stack, schedule=schedule)
            tr.begin_epoch(0)
            tr.train_step()
            assert tr.num_ranks == world and tr.commits == 1
            raw = tr.arena.layout.total_size * tr.arena.dtype.itemsize
            leaf = tr.dist_opt.wire_pipeline.wire_nbytes()
            assert leaf < raw
            assert tr.cluster.total_bytes() == 4 * leaf + partials * raw

    def test_fp16_wire_halves_leaf_bytes(self):
        """fp16 wire compresses the leaf hops (original rows) of the
        tree; interior combined partials stay fp32."""
        x, y = _task()
        t32, _ = _elastic(x, y)
        t16, _ = _elastic(x, y, wire_codecs=("fp16",))
        t32.train_epoch(0, max_steps=4)
        t16.train_epoch(0, max_steps=4)
        b32, b16 = t32.cluster.total_bytes(), t16.cluster.total_bytes()
        # 8-rank tree: 4 of 7 hops are leaves, so 5/7 of the fp32 bytes.
        assert b16 < 0.85 * b32
        assert b16 > 0.5 * b32  # not everything compressed (interior fp32)

    def test_lossy_stack_cuts_leaf_bytes_below_fp16(self):
        """fp16+int8+topk ships far fewer leaf-hop bytes than fp16
        alone; the interior partials still travel fp32 either way."""
        x, y = _task()
        t16, _ = _elastic(x, y, wire_codecs=("fp16",))
        lossy, m = _elastic(x, y, wire_codecs=("fp16", "int8", "topk:0.01"))
        t16.train_epoch(0, max_steps=4)
        lossy.train_epoch(0, max_steps=4)
        assert lossy.cluster.total_bytes() < t16.cluster.total_bytes()
        for p in m.parameters():
            assert np.isfinite(p.data).all()

    def test_kill_under_lossy_stack_starts_clean(self):
        """A rank killed under an error-feedback stack: the failed
        attempt leaves the model untouched and the rebuilt world's
        residuals start from zero, so the retried step equals a fresh
        7-rank world's first step — parameters and residuals."""
        x, y = _task()
        stack = ("fp16", "int8", "topk:0.05")
        tr, model = _elastic(x, y, wire_codecs=stack,
                             schedule=ElasticSchedule().kill(0, 3))
        ref, m_ref = _elastic(x, y, wire_codecs=stack, num_ranks=7)
        tr.train_epoch(0, max_steps=1)
        ref.train_epoch(0, max_steps=1)
        assert tr.num_ranks == 7 and tr.commits == 1
        assert len(tr.recoveries) == 1
        for p, q in zip(model.parameters(), m_ref.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        got = tr.dist_opt.wire_pipeline
        want = ref.dist_opt.wire_pipeline
        for row in range(7):
            residuals = got.residual_row(row)
            assert residuals  # int8 and topk carry residuals
            for stage, values in want.residual_row(row).items():
                np.testing.assert_array_equal(residuals[stage], values)


@pytest.mark.faults
class TestStraggler:
    def test_drop_policy_excludes_straggler(self):
        x, y = _task(n=160)
        sched = ElasticSchedule().delay(3, 50.0, from_step=0)
        tr, _ = _elastic(
            x, y, schedule=sched,
            straggler=StragglerPolicy(mode="drop", factor=3.0, drop_steps=2),
            network=NetworkModel(alpha=1e-6, beta=1e-9, gamma=0.0, name="slow"),
        )
        loss = tr.train_epoch(0)
        assert np.isfinite(loss)
        # The straggler stays a member (never evicted) ...
        assert tr.num_ranks == 8
        # ... but was detected and dropped from at least one reduction.
        assert tr._dropped.get(3) is not None or not tr._dropped
        assert sorted(tr.epoch_visited) == list(range(len(x)))

    def test_wait_policy_never_drops(self):
        x, y = _task(n=96)
        sched = ElasticSchedule().delay(2, 20.0, from_step=0)
        tr, _ = _elastic(
            x, y, schedule=sched, straggler=StragglerPolicy(mode="wait"),
            network=NetworkModel(alpha=1e-6, beta=1e-9, gamma=0.0, name="slow"),
        )
        tr.train_epoch(0)
        assert tr._dropped == {}
        assert tr.num_ranks == 8

    def test_sum_renormalization_on_partial_participation(self):
        # With SUM, dropping participants must renormalize the combined
        # gradient back to full-world magnitude: dropping one of 4 equal
        # rows must still apply 4x the row, not 3x.
        x, y = _task(n=64)
        tr, model = _elastic(x, y, num_ranks=4, op="sum")
        tr.iterator.begin_epoch(0)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        tr._dropped = {3: 2}
        tr._step_with_recovery()
        after_drop = {n: p.data.copy() for n, p in model.named_parameters()}

        tr2, model2 = _elastic(x, y, num_ranks=4, op="sum")
        tr2.iterator.begin_epoch(0)
        tr2._step_with_recovery()
        # Not equal to the full-world step (different rows), but the
        # update must be the same order of magnitude (renormalized), not
        # 3/4 of it; compare against the unrenormalized 3-row step.
        delta_drop = sum(
            np.abs(after_drop[n] - before[n]).sum() for n in before
        )
        assert delta_drop > 0


@pytest.mark.faults
class TestDiskCheckpointResume:
    def test_same_world_resume_is_bit_exact(self, tmp_path):
        # Checkpoint at step 3, keep training to epoch end; a fresh
        # trainer restoring the checkpoint and finishing the epoch must
        # land on bit-identical parameters.
        x, y = _task(n=160)
        ckpt = str(tmp_path / "el.npz")
        tr, model = _elastic(x, y, checkpoint_path=ckpt, checkpoint_every=3)
        tr.train_epoch(0)
        final = {n: p.data.copy() for n, p in model.named_parameters()}

        tr2, model2 = _elastic(x, y)
        saved = tr2.restore_from_checkpoint(ckpt)
        assert tr2.global_step == 3
        tr2.finish_epoch()
        for name, p in model2.named_parameters():
            np.testing.assert_array_equal(p.data, final[name])

    def test_8_rank_checkpoint_into_5_rank_run(self, tmp_path):
        x, y = _task(n=160)
        ckpt = str(tmp_path / "el.npz")
        tr, _ = _elastic(x, y, num_ranks=8,
                         checkpoint_path=ckpt, checkpoint_every=2)
        tr.train_epoch(0, max_steps=2)

        tr5, _ = _elastic(x, y, num_ranks=5)
        saved = tr5.restore_from_checkpoint(ckpt)
        assert len(saved["global_ranks"]) == 8
        assert tr5.iterator.num_ranks == 5
        # The remaining cursor region is re-dealt over 5 ranks; the
        # resumed epoch must cover exactly the unvisited samples.
        already = set(tr.epoch_visited[: 2 * 32])
        tr5.finish_epoch()
        assert sorted(tr5.epoch_visited) == sorted(set(range(len(x))) - already)

    def test_resume_after_kill_matches_membership(self, tmp_path):
        # A shrunk world writes checkpoints naming its survivors; a new
        # run restoring into the same size must accept them.
        x, y = _task(n=160)
        ckpt = str(tmp_path / "el.npz")
        sched = ElasticSchedule().kill(1, 2)
        tr, _ = _elastic(x, y, schedule=sched,
                         checkpoint_path=ckpt, checkpoint_every=4)
        tr.train_epoch(0)
        assert tr.num_ranks == 7

        tr7, _ = _elastic(x, y, num_ranks=7)
        saved = tr7.restore_from_checkpoint(ckpt)
        assert len(saved["global_ranks"]) == 7
        loss = tr7.finish_epoch()
        assert np.isfinite(loss) or np.isnan(loss)  # may resume at epoch end


@pytest.mark.parametrize(
    "case", [pytest.param("kill", marks=pytest.mark.faults), "loan", "checkpoint"]
)
def test_fp16_scaler_state_survives(case, tmp_path):
    """The dynamic scaler, driven off its defaults (forced overflows,
    then clean steps), comes through every world rebuild unchanged:
    kill -> rollback -> retry, lend -> reclaim, save -> load."""
    x, y = _task(n=640)
    settle = 12  # committed steps before the perturbation
    sched = ElasticSchedule().kill(settle, 2) if case == "kill" else None
    tr, _ = _elastic(x, y, wire_codecs=("fp16",), schedule=sched)
    tr.dist_opt.scaler.scale_value = 2.0 ** 20  # overflows until backed off
    tr.begin_epoch(0)
    for _ in range(settle):
        tr.train_step()
    before = tr.dist_opt.scaler.state_dict()
    assert before["overflow_count"] >= 1 and before["clean_steps"] >= 1
    assert tr.dist_opt.skipped_steps == before["overflow_count"]

    if case == "kill":
        tr.train_step()  # rank 2 dies; roll back to the last commit; retry
        assert len(tr.recoveries) == 1 and tr.num_ranks == 7
        one_step_on = []
        for overflow in (False, True):
            scaler = DynamicScaler()
            scaler.load_state_dict(before)
            scaler.update(overflow)
            one_step_on.append(scaler.state_dict())
        assert tr.dist_opt.scaler.state_dict() in one_step_on
    elif case == "loan":
        tr.lend_ranks(3)
        assert tr.dist_opt.scaler.state_dict() == before
        tr.reclaim_ranks()
        assert tr.dist_opt.scaler.state_dict() == before
    else:
        ckpt = str(tmp_path / "el.npz")
        tr.save_checkpoint(ckpt)
        fresh, _ = _elastic(x, y, wire_codecs=("fp16",))
        fresh.restore_from_checkpoint(ckpt)
        assert fresh.dist_opt.scaler.state_dict() == before
        assert fresh.dist_opt.skipped_steps == before["overflow_count"]

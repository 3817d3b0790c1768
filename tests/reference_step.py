"""The paper's step written out serially: the oracle every run is held to.

One step of :class:`ReferenceStep` is §3.4 / Fig. 3 over a list of
ranks, with none of the production step code — no
``DistributedOptimizer``, executor, arena, mirror, worker finish,
overlap plan or elastic collective:

1. each listed rank's gradient comes from the per-rank autograd loop
   (:func:`~repro.train.trainer.compute_grads`), its ``A`` microbatches
   summed and then scaled by ``1/A``;
2. in Figure-3 mode the rank's own optimizer steps from the shared
   start and the row becomes the model delta ``p - start``;
3. the rows round-trip through a ``CodecPipeline`` bound to ``R`` rows;
4. :func:`tests.core.oracle.reduce_rows` reduces them (``rvh`` has no
   oracle: it reduces as ``tree``, which it matches only to
   ``allclose``);
5. the fp16 scaler's verdict skips the step on an overflow;
6. the combined delta (or, with one shared optimizer, the combined
   gradient) is applied.

Fed the index arrays a trainer dealt, it records what
:func:`tests.rank_state.step_record` and :func:`~tests.rank_state.dist_state`
read off that trainer (:meth:`ReferenceStep.record`,
:meth:`ReferenceStep.dist_state`), and the orthogonality of its raw
gradients, so the two compare with
:func:`~tests.rank_state.assert_same_bytes`
(``tests/core/test_config.py::test_a_config_that_builds_runs``).
"""

import os
import tempfile
import traceback

import numpy as np
import pytest

from repro import nn
from repro.comm.codec import build_pipeline
from repro.comm.faults import FaultPlan
from repro.core.operator import orthogonality_ratio
from repro.core import OrthogonalityProbe, RunConfig
from repro.core.precision import DynamicScaler
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.elastic.state import pack_optimizer_state
from repro.models import MLP
from repro.train import ParallelTrainer
from repro.train.checkpoint import load_checkpoint, save_checkpoint
from repro.train.trainer import compute_grads
from tests.core.oracle import reduce_rows
from tests.rank_state import (
    OPTIMIZERS, OVERFLOWING, SpikeLoss, assert_same_bytes, dist_state, residual_rows,
    step_record,
)


class ReferenceStep:
    """A model replica, its optimizers and a codec stack over ``R`` rows."""

    def __init__(self, model, loss_fn, optimizer_factory, x, y, config, num_ranks,
                 accumulation=1):
        self.model, self.loss_fn, self.x, self.y = model, loss_fn, x, y
        self.config, self.accumulation = config, accumulation
        self.named = list(model.named_parameters())
        sizes = [p.data.size for _, p in self.named]
        self.boundaries = [0, *np.cumsum(sizes).tolist()]
        self.post = config.op == "adasum" and not config.adasum_pre_optimizer
        self.optimizers = [optimizer_factory(model.parameters())
                           for _ in range(num_ranks if self.post else 1)]
        self.scaler = DynamicScaler() if "fp16" in config.wire_codecs else None
        self.wire_pipeline = build_pipeline(config.wire_codecs, scaler=self.scaler)
        if self.wire_pipeline is not None:
            self.wire_pipeline.bind(num_ranks, self.boundaries[-1], self.boundaries)
        self.num_ranks = num_ranks
        self.skipped = self.last_bytes = self.total_bytes = 0
        self.orthogonality = {}

    def _unflat(self, row):
        return {name: row[lo:hi].reshape(p.data.shape) for (name, p), lo, hi
                in zip(self.named, self.boundaries[:-1], self.boundaries[1:])}

    def _gradient(self, idx):
        """Step 1: the rank's loss and raw flat gradient row."""
        a = self.accumulation
        mb = len(idx) // a
        losses, total = [], None
        for k in range(a):
            sub = idx[k * mb:(k + 1) * mb]
            loss, grads = compute_grads(self.model, self.loss_fn, self.x[sub], self.y[sub])
            row = np.concatenate([grads[name].reshape(-1) for name, _ in self.named])
            losses.append(loss)
            total = row if total is None else total + row
        if a > 1:
            total = total * (1.0 / a)
        return float(np.mean(losses)), total

    def step(self, rank_indices) -> float:
        """One step over the ranks dealt a non-empty index array (an
        epoch's short tail leaves the last ones out); returns the mean of
        their losses."""
        ranks = [r for r, idx in enumerate(rank_indices) if len(idx)]
        rows = np.zeros((self.num_ranks, self.boundaries[-1]), np.float32)
        losses = []
        for r in ranks:
            loss, rows[r] = self._gradient(rank_indices[r])
            losses.append(loss)
        for name, lo, hi in zip([n for n, _ in self.named], self.boundaries[:-1],
                                self.boundaries[1:]):
            self.orthogonality.setdefault(name, []).append(
                orthogonality_ratio([rows[r, lo:hi] for r in ranks]))
        starts = {name: p.data.copy() for name, p in self.named}
        if self.post:  # step 2: Figure 3's local half, rank by rank
            for r in ranks:
                grads = self._unflat(rows[r])
                for name, p in self.named:
                    np.copyto(p.data, starts[name])
                    p.grad = grads[name]
                self.optimizers[r].step()
                for name, p in self.named:
                    np.subtract(p.data, starts[name], out=grads[name])
            for name, p in self.named:
                np.copyto(p.data, starts[name])
        nbytes = self.boundaries[-1] * 4
        pipe = self.wire_pipeline
        if pipe is not None:  # step 3
            pipe.begin_step()
            overflow = pipe.encode_block(rows, ranks)
            nbytes = pipe.wire_nbytes()
            if pipe.end_step(overflow):  # step 5
                self.skipped += 1
                self.model.zero_grad()
                return float(np.mean(losses))
        self.last_bytes = nbytes * len(ranks)
        self.total_bytes += self.last_bytes
        topology = "tree" if self.config.topology == "rvh" else self.config.topology
        combined = reduce_rows(  # step 4
            self.config.op, topology, rows[ranks],
            self.boundaries if self.config.per_layer else None,
            self.config.gpus_per_node,
        )
        if self.config.op == "sum" and len(ranks) < self.num_ranks:
            # A short step's sum is scaled up to the whole world's.
            combined = (combined * (self.num_ranks / len(ranks))).astype(combined.dtype)
        update = self._unflat(combined)
        for name, p in self.named:  # step 6
            if self.post:
                np.copyto(p.data, starts[name] + update[name])
            else:
                p.grad = update[name]
        if not self.post:
            self.optimizers[0].step()
        self.model.zero_grad()
        return float(np.mean(losses))

    def dist_state(self) -> dict:
        """:func:`tests.rank_state.dist_state` of the same run."""
        packed = {
            "skipped_steps": self.skipped,
            "scaler": None if self.scaler is None else self.scaler.state_dict(),
        }
        if self.post:
            packed["per_rank"] = {r: pack_optimizer_state(opt)
                                  for r, opt in enumerate(self.optimizers)}
        else:
            packed["shared"] = pack_optimizer_state(self.optimizers[0])
        return {
            "params": {name: p.data.copy() for name, p in self.named},
            "packed": packed,
            "lr": self.optimizers[0].lr,
            "wire_bytes": (self.last_bytes, self.total_bytes),
            "residuals": residual_rows(self),
        }

    def record(self) -> tuple:
        """:func:`tests.rank_state.step_record` after a step."""
        return self.optimizers[0].lr, self.last_bytes, self.skipped


# ----------------------------------------------------------------------
# Runs held to it
# ----------------------------------------------------------------------
#: Steps every drawn run takes, and its training set.
K = 3
_X = np.random.default_rng(0).standard_normal((144, 5)).astype(np.float32)
_Y = np.random.default_rng(2).integers(0, 3, 144)

#: The trainer that finishes a run checkpointed after ``resume_at``
#: steps: the saver's config, or it with another execution or overlap.
LOADERS = {
    "same": {},
    "serial": dict(execution="serial", overlap=False, reduce_mode="parent"),
    "processes": dict(execution="processes", overlap=False),
    "overlap": dict(execution="serial", overlap=True, reduce_mode="parent"),
}

FAULTS = {"none": None, "plan": FaultPlan, "schedule": ElasticSchedule}
#: What a drawn run adds to its ``RunConfig`` fields.
RUN_AXES = ("optimizer", "spike", "accumulation", "probe", "resume_at", "loader")


def cell(**fields):
    """One explicit example: a plain serial run unless ``fields`` say otherwise."""
    return {
        "op": "adasum", "topology": "tree", "gpus_per_node": 1, "num_ranks": 4,
        "min_ranks": 1, "microbatch": 2, "per_layer": True,
        "adasum_pre_optimizer": False, "wire_codecs": (), "bucket_cap_mb": None,
        "overlap": False, "execution": "serial", "reduce_mode": "parent",
        "faults": "none", "optimizer": "sgd", "spike": False, "accumulation": 1,
        "probe": False, "resume_at": None, "loader": "same", **fields,
    }


def _model():
    return MLP((5, 6, 3), rng=np.random.default_rng(1))


def _trace(steps, state, straight, probe=None):
    """What a run is compared on: per step the loss, lr and skip count,
    the bytes on the wire (a resumed run's loader booked a step of its
    own, so only straight runs), the final parameters, optimizer-side
    state and error-feedback residual rows, and the probe's history."""
    trace = {
        "steps": [(loss, lr, skipped) for loss, lr, _, skipped in steps],
        "params": state["params"], "packed": state["packed"], "lr": state["lr"],
        "residuals": state["residuals"], "orthogonality": probe,
    }
    if straight:
        trace["bytes"] = ([nbytes for _, _, nbytes, _ in steps], state["wire_bytes"])
    return trace


def _live_state(model, dist_opt, membership=None):
    """:func:`dist_state` of a live trainer, and its residual rows."""
    state = dist_state(model, dist_opt, membership)
    dist_opt.pull_rank_state(residuals=True)
    return dict(state, residuals=residual_rows(dist_opt))


def _resume(path, saver, build, warm_up):
    """Checkpoint the live ``saver`` to ``path`` and close it; ``build()``
    the loader, let it take a step of its own (so a live pool holds
    state the load must replace) and load the checkpoint into it."""
    try:
        saver.save_checkpoint(path)
    finally:
        saver.close()
    loader = build()
    warm_up(loader)
    loader.restore_from_checkpoint(path)
    return loader


class _Parallel:
    """A ``ParallelTrainer`` under the surface the run loop drives."""

    def __init__(self, config, run, loss_fn, make_opt, probe):
        self.trainer = ParallelTrainer(_model(), loss_fn, make_opt, _X, _Y, config,
                                       accumulation=run["accumulation"], probe=probe,
                                       start_method=run["start_method"])
        self.dist_opt, self.model = self.trainer.dist_opt, self.trainer.model

    def save_checkpoint(self, path):
        save_checkpoint(path, self.model, dist_opt=self.dist_opt)

    def restore_from_checkpoint(self, path):
        load_checkpoint(path, self.model, dist_opt=self.dist_opt)

    def close(self):
        self.trainer.close()


def _parallel_run(config, loader, run, loss_fn, make_opt, dealt=None):
    """``K`` steps of a ``ParallelTrainer`` (checkpointed after
    ``run["resume_at"]`` and finished by one of the ``loader`` config);
    returns ``(trace, dealt)``."""
    probe = OrthogonalityProbe() if run["probe"] else None
    trainer = _Parallel(config, run, loss_fn, make_opt, probe)
    if dealt is None:
        dealt = [idx for _, idx in trainer.trainer.iterator.epoch(0)][:K]
    steps = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for i, idx in enumerate(dealt):
                if i == run["resume_at"]:
                    trainer = _resume(
                        os.path.join(tmp, "ckpt.npz"), trainer,
                        lambda: _Parallel(loader, run, loss_fn, make_opt, None),
                        lambda t: t.trainer.train_step(dealt[0]))
                    trainer.trainer.probe = probe
                steps.append((trainer.trainer.train_step(idx),
                              *step_record(trainer.dist_opt)))
        state = _live_state(trainer.model, trainer.dist_opt)
    finally:
        trainer.close()
    history = None if probe is None else probe.history
    return _trace(steps, state, run["resume_at"] is None, history), dealt


def _elastic_run(config, loader, run, loss_fn, make_opt):
    """The same for a failure-free ``ElasticTrainer``; the index arrays
    are the ones its iterator dealt."""
    dealt = []

    def build(cfg):
        trainer = ElasticTrainer(_model(), loss_fn, make_opt, _X, _Y, cfg)
        deal = trainer.iterator.next_step
        trainer.iterator.next_step = lambda: dealt.append(deal()) or dealt[-1]
        trainer.begin_epoch(0)
        return trainer

    def warm_up(trainer):
        trainer.train_step()
        del dealt[-1]  # not a step of the run

    trainer = build(config)
    iterator = trainer.iterator
    while iterator.remaining() > K * iterator.take:
        iterator.commit()  # the epoch's last K steps: its short tail too
    steps = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for i in range(K):
                if i == run["resume_at"]:
                    trainer = _resume(os.path.join(tmp, "ckpt.npz"), trainer,
                                      lambda: build(loader), warm_up)
                steps.append((trainer.train_step(), *step_record(trainer.dist_opt)))
        state = _live_state(trainer.model, trainer.dist_opt, trainer.membership)
    finally:
        trainer.close()
    return _trace(steps, state, run["resume_at"] is None), dealt


def _check(got, dealt, config, run, loss_fn, make_opt, rerun):
    """``got`` is the reference step's run over ``dealt``, byte for
    byte; an ``rvh`` run is its own serial phased run's (``rerun(config,
    run)`` trains one of the same kind), and the ``tree`` reference's to
    ``allclose``."""
    ref = ReferenceStep(_model(), loss_fn, make_opt, _X, _Y, config,
                        config.num_ranks, run["accumulation"])
    steps = [(ref.step(idx), *ref.record()) for idx in dealt]
    want = _trace(steps, ref.dist_state(), run["resume_at"] is None,
                  ref.orthogonality if got["orthogonality"] is not None else None)
    if config.topology != "rvh":
        assert_same_bytes(got, want, "reference step")
        return
    phased = rerun(config.replace(faults=None, **LOADERS["serial"]),
                   dict(run, resume_at=None))
    assert_same_bytes({k: v for k, v in got.items() if k != "bytes"},
                      {k: v for k, v in phased.items() if k != "bytes"},
                      "serial phased rvh")
    assert np.allclose([s[0] for s in got["steps"]], [s[0] for s in want["steps"]],
                       rtol=1e-4)
    for name, value in want["params"].items():
        assert np.allclose(got["params"][name], value, rtol=1e-4, atol=1e-6), name


def _rejected_by_config(exc):
    """The error was raised while a ``RunConfig`` validated itself."""
    return any(
        frame.filename.endswith(os.path.join("core", "config.py"))
        for frame in traceback.extract_tb(exc.__traceback__)
    )


def check_run(fields, note=lambda what: None, start_method=None, elastic=True):
    """Hold the run ``fields`` describe (a :func:`cell`) to the reference
    step.  If ``RunConfig`` builds, a ``ParallelTrainer`` trains ``K``
    steps; if ``validate_for_pool(8)`` passes too, so does a
    failure-free ``ElasticTrainer``.  Each equals the reference step fed
    the index arrays it dealt, byte for byte (:func:`_check`).  Every
    rejection comes from ``RunConfig``, but for one: a
    ``ParallelTrainer`` refuses an elastic schedule.  ``note`` is told
    which way the run went; ``start_method`` starts a
    ``ParallelTrainer``'s rank workers; ``elastic=False`` leaves the
    ``ElasticTrainer`` out (a named cell of a ``ParallelTrainer``
    matrix, whose elastic side the property's examples hold)."""
    fields = dict(fields)
    run = {axis: fields.pop(axis) for axis in RUN_AXES}
    run["start_method"] = start_method
    faults = FAULTS[fields.pop("faults")]
    fields["faults"] = faults and faults()
    try:
        config = RunConfig(**fields)
    except ValueError as exc:
        assert _rejected_by_config(exc), exc
        note("RunConfig rejects")
        return
    note(f"ParallelTrainer, {config.execution}")
    make_opt = (OVERFLOWING if run["spike"] else OPTIMIZERS)[run["optimizer"]]
    loss_fn = SpikeLoss(spike=0) if run["spike"] else nn.CrossEntropyLoss()
    loader = config.replace(faults=None, **LOADERS[run["loader"]])
    if isinstance(config.faults, ElasticSchedule):
        with pytest.raises(ValueError, match="ElasticSchedule"):
            ParallelTrainer(_model(), loss_fn, make_opt, _X, _Y, config)
    else:
        got, dealt = _parallel_run(config, loader, run, loss_fn, make_opt)
        _check(got, dealt, config, run, loss_fn, make_opt, lambda cfg, straight:
               _parallel_run(cfg, cfg, straight, loss_fn, make_opt, dealt)[0])
    if not elastic:
        return
    try:
        config.validate_for_pool(8)
    except ValueError as exc:
        assert _rejected_by_config(exc), exc
        note("validate_for_pool rejects")
        return
    note(f"ElasticTrainer, {config.execution}")
    run = dict(run, accumulation=1, probe=False)
    loader = loader.replace(overlap=False)
    got, dealt = _elastic_run(config, loader, run, loss_fn, make_opt)
    _check(got, dealt, config, run, loss_fn, make_opt, lambda cfg, straight:
           _elastic_run(cfg, cfg, straight, loss_fn, make_opt)[0])

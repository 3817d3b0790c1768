"""The cached module walk: every flattened list equals a fresh recursive
walk after any sequence of structural mutations, and the cache never
outlives its model or crosses a copy."""

import copy
import gc
import pickle
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn


# -- the reference: the recursive walks the cache replaced -------------
def walk_parameters(mod, prefix=""):
    for name, p in mod._parameters.items():
        yield prefix + name, p
    for mname, child in mod._modules.items():
        yield from walk_parameters(child, prefix + mname + ".")


def walk_buffers(mod, prefix=""):
    for name in mod._buffers:
        yield prefix + name, getattr(mod, name)
    for mname, child in mod._modules.items():
        yield from walk_buffers(child, prefix + mname + ".")


def walk_modules(mod):
    yield mod
    for child in mod._modules.values():
        yield from walk_modules(child)


def assert_matches_fresh_walk(mod):
    def same(cached, fresh):
        assert [n for n, _ in cached] == [n for n, _ in fresh]
        assert all(a is b for (_, a), (_, b) in zip(cached, fresh))

    same(list(mod.named_parameters()), list(walk_parameters(mod)))
    same(list(mod.named_parameters("pre.")), list(walk_parameters(mod, "pre.")))
    assert all(a is b for a, b in zip(mod.parameters(), (p for _, p in walk_parameters(mod))))
    assert len(mod.parameters()) == len(list(walk_parameters(mod)))
    same(list(mod.named_buffers()), list(walk_buffers(mod)))
    cached, fresh = list(mod.modules()), list(walk_modules(mod))
    assert len(cached) == len(fresh) and all(a is b for a, b in zip(cached, fresh))


NAMES = ["a", "b", "weight", "0"]
OPS = ["param", "tie", "module", "share", "sequential", "buffer", "reassign", "query"]


def _apply(root, op, i, j, k):
    """One structural mutation of the tree under ``root``, aimed by the
    three draws; ``query`` only reads a subtree's lists (so stale caches
    exist when the next mutation lands)."""
    mods = list(walk_modules(root))
    target = mods[i % len(mods)]
    name = NAMES[j % len(NAMES)]
    if op == "param":
        setattr(target, name, nn.Parameter(np.full(k % 3 + 1, k, dtype=np.float32)))
    elif op == "tie":
        params = [p for _, p in walk_parameters(root)]
        if params:
            setattr(target, name, params[k % len(params)])
    elif op == "module":
        setattr(target, name, nn.Linear(2, 2) if k % 2 else nn.ReLU())
    elif op == "share":
        # Any module whose subtree does not hold ``target`` (no cycles).
        free = [m for m in mods if all(t is not target for t in walk_modules(m))]
        if free:
            setattr(target, name, free[k % len(free)])
    elif op == "sequential":
        layers = [nn.Linear(2, 2) for _ in range(k % 3)]
        setattr(target, name, nn.Sequential(*layers))
    elif op == "buffer":
        target.register_buffer("buf_" + name, np.zeros(k % 4 + 1, dtype=np.float32))
    elif op == "reassign":
        owners = [m for m in mods if m._buffers]
        if owners:
            owner = owners[k % len(owners)]
            bname = list(owner._buffers)[j % len(owner._buffers)]
            setattr(owner, bname, np.ones(3, dtype=np.float32) * k)
    else:
        list(target.named_parameters()), list(target.named_buffers())


class TestCachedWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 99), st.integers(0, 99),
                  st.integers(0, 99)),
        max_size=20,
    ))
    def test_lists_equal_a_fresh_walk_after_any_mutations(self, ops):
        root = nn.Sequential(nn.Linear(3, 2), nn.ReLU())
        assert_matches_fresh_walk(root)
        for op, i, j, k in ops:
            _apply(root, op, i, j, k)
            for mod in walk_modules(root):
                assert_matches_fresh_walk(mod)

    def test_reassigned_buffer_is_read_as_the_current_object(self):
        bn = nn.BatchNorm2d(3)
        list(bn.named_buffers())
        fresh = np.arange(3, dtype=np.float32)
        bn.running_mean = fresh
        assert dict(bn.named_buffers())["running_mean"] is fresh

    def test_zero_grad_and_hooks_reach_a_late_registered_parameter(self):
        net = nn.Sequential(nn.Linear(2, 2))
        net.zero_grad()
        late = nn.Parameter(np.ones(2, dtype=np.float32))
        net[0].extra = late
        late.grad = np.ones(2, dtype=np.float32)
        net.zero_grad()
        assert late.grad is None
        seen = []
        net.register_grad_ready_hook(lambda name, p: seen.append(name))
        late._grad_hook(late)
        net.clear_grad_ready_hooks()
        assert seen == ["0.extra"] and late._grad_hook is None

    def test_copies_rebuild_their_own_walk(self):
        net = nn.Sequential(nn.Linear(2, 2), nn.Linear(2, 1))
        list(net.named_parameters())
        for clone in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
            assert_matches_fresh_walk(clone)
            clone.extra = nn.Linear(1, 1)  # the copied walk is retired too
            assert_matches_fresh_walk(clone)
            assert not any(
                p is q for p, q in zip(clone.parameters(), net.parameters())
            )

    def test_a_walked_model_is_freed_by_refcount(self):
        net = nn.Sequential(nn.Linear(2, 2), nn.BatchNorm2d(2))
        net.register_buffer("own", np.zeros(1, dtype=np.float32))
        list(net.named_parameters()), list(net.named_buffers()), list(net.modules())
        ref = weakref.ref(net)
        gc.disable()
        try:
            del net
            assert ref() is None
        finally:
            gc.enable()

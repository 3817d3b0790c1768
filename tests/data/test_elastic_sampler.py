"""Elastic re-sharding: determinism and exactly-once coverage.

Property-tested contract: the union of all per-rank shards equals the
full index set — before a reshard, after a reshard to any world size,
and across a mid-epoch reshard of the cursor-based iterator.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import BatchIterator, ElasticBatchIterator, ShardedSampler

n_samples = st.integers(min_value=8, max_value=200)
ranks = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
epochs = st.integers(min_value=0, max_value=5)


class TestShardedSamplerReshard:
    @given(n=n_samples, r1=ranks, r2=ranks, seed=seeds, epoch=epochs)
    @settings(max_examples=60, deadline=None)
    def test_union_of_shards_is_full_index_set(self, n, r1, r2, seed, epoch):
        if n < max(r1, r2):
            return
        sampler = ShardedSampler(n, r1, seed=seed)
        before = np.concatenate(sampler.epoch_shards(epoch, drop_tail=False))
        assert sorted(before.tolist()) == list(range(n))

        resharded = sampler.reshard(r2)
        after = np.concatenate(resharded.epoch_shards(epoch, drop_tail=False))
        assert sorted(after.tolist()) == list(range(n))
        # Same permutation underneath: the reshard changes the dealing,
        # never the order (determinism comes from seed + epoch alone).
        np.testing.assert_array_equal(
            sampler.epoch_order(epoch), resharded.epoch_order(epoch)
        )

    @given(n=n_samples, r=ranks, seed=seeds, epoch=epochs)
    @settings(max_examples=40, deadline=None)
    def test_shards_are_disjoint(self, n, r, seed, epoch):
        if n < r:
            return
        shards = ShardedSampler(n, r, seed=seed).epoch_shards(
            epoch, drop_tail=False
        )
        flat = np.concatenate(shards)
        assert len(flat) == len(set(flat.tolist()))

    def test_reshard_preserves_seed(self):
        s = ShardedSampler(100, 8, seed=7)
        assert s.reshard(5).seed == 7


class TestElasticBatchIteratorReshard:
    @given(n=n_samples, r1=st.integers(2, 8), r2=ranks, seed=seeds,
           cut=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_mid_epoch_reshard_exactly_once(self, n, r1, r2, seed, cut):
        # Commit `cut` steps at r1 ranks, reshard to r2 mid-epoch, and
        # drain: every index visited exactly once.
        it = ElasticBatchIterator(n, 2, r1, seed=seed, drop_tail=False)
        it.begin_epoch(0)
        visited = []
        steps = 0
        while it.has_next():
            if steps == cut:
                it.reshard(r2)
            for shard in it.next_step():
                visited.extend(shard.tolist())
            it.commit()
            steps += 1
        assert sorted(visited) == list(range(n))

    def test_peek_is_stable_across_reshard(self):
        # next_step is a peek: resharding before commit re-deals the
        # same cursor region (a prefix of it when the world shrinks)
        # over the new world — nothing skipped, nothing repeated.
        it = ElasticBatchIterator(40, 2, 4, seed=0, drop_tail=False)
        it.begin_epoch(0)
        it.next_step()
        it.commit()
        assert it.cursor == 8
        it.reshard(3)
        region_3 = np.concatenate(it.next_step())
        assert set(region_3.tolist()) == set(it._order[8:14].tolist())

    def test_matches_batch_iterator_for_static_divisible_world(self):
        # Drop-in equivalence with the historical iterator when nothing
        # is elastic: same seed, same epoch, same dealt batches.
        n, r, b = 96, 4, 8
        legacy = BatchIterator(ShardedSampler(n, r, seed=3), b)
        elastic = ElasticBatchIterator(n, b, r, seed=3, drop_tail=False)
        for epoch in range(2):
            elastic.begin_epoch(epoch)
            for _, legacy_batches in legacy.epoch(epoch):
                got = elastic.next_step()
                elastic.commit()
                for a, e in zip(legacy_batches, got):
                    np.testing.assert_array_equal(a, e)
            assert not elastic.has_next()

    def test_state_roundtrip(self):
        it = ElasticBatchIterator(50, 3, 4, seed=1, drop_tail=False)
        it.begin_epoch(2)
        it.next_step()
        it.commit()
        state = it.state()
        it2 = ElasticBatchIterator(50, 3, 4, seed=1, drop_tail=False)
        it2.restore(state)
        np.testing.assert_array_equal(
            np.concatenate(it.next_step()), np.concatenate(it2.next_step())
        )

    @given(n=n_samples, ranks=st.integers(2, 8), lend=st.integers(1, 7),
           k=st.integers(0, 6), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_loan_cycle_exactly_once(self, n, ranks, lend, k, seed):
        # A rank loan is an N -> M -> N reshard round trip: shrink by
        # `lend`, run k steps at the reduced width, grow back, drain.
        # Exactly-once delivery and the epoch permutation must survive
        # any such cycle wherever it lands in the epoch.
        if lend >= ranks:
            return
        it = ElasticBatchIterator(n, 2, ranks, seed=seed, drop_tail=False)
        it.begin_epoch(0)
        order_before = it._order.copy()
        visited = []

        def drain(steps=None):
            done = 0
            while it.has_next() and (steps is None or done < steps):
                for shard in it.next_step():
                    visited.extend(shard.tolist())
                it.commit()
                done += 1

        drain(steps=1)                 # warm-up at full width
        it.reshard(ranks - lend)       # loan leaves
        drain(steps=k)                 # reduced-width progress
        it.reshard(ranks)              # loan returns
        drain()                        # finish at full width
        assert sorted(visited) == list(range(n))
        # The loan never perturbs the underlying epoch permutation.
        np.testing.assert_array_equal(order_before, it._order)

    @given(n=n_samples, ranks=st.integers(2, 8), lend=st.integers(1, 7),
           seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_loan_cycle_order_is_cursor_prefix(self, n, ranks, lend, seed):
        # Visit order across a loan cycle is exactly the epoch
        # permutation read off in cursor order — committed prefixes are
        # immutable, so lend/reclaim can never reorder delivery.
        if lend >= ranks:
            return
        it = ElasticBatchIterator(n, 2, ranks, seed=seed, drop_tail=False)
        it.begin_epoch(0)
        seen_in_order = []
        phase = 0
        while it.has_next():
            chunk = it._order[it.cursor : it.cursor + it.take]
            dealt = np.concatenate(it.next_step())
            assert sorted(dealt.tolist()) == sorted(chunk.tolist())
            seen_in_order.extend(chunk.tolist())
            it.commit()
            if phase == 0:
                it.reshard(ranks - lend)
            elif phase == 1:
                it.reshard(ranks)
            phase += 1
        np.testing.assert_array_equal(np.array(seen_in_order), it._order)

    def test_restore_then_reshard(self):
        it = ElasticBatchIterator(50, 3, 6, seed=1, drop_tail=False)
        it.begin_epoch(0)
        it.next_step()
        it.commit()
        visited = {int(i) for i in it._order[: it.cursor]}
        state = it.state()
        it2 = ElasticBatchIterator(50, 3, 6, seed=1, drop_tail=False)
        it2.restore(state)
        it2.reshard(4)
        rest = []
        while it2.has_next():
            for shard in it2.next_step():
                rest.extend(int(i) for i in shard)
            it2.commit()
        assert sorted(visited | set(rest)) == list(range(50))
        assert visited.isdisjoint(rest)

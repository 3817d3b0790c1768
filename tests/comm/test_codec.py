"""The wire-codec stack: spec parsing, per-codec contracts, pipelines.

Covers the acceptance contracts of :mod:`repro.comm.codec`:

* spec parsing normalizes/validates exactly once (unknown names,
  malformed args, duplicates all fail fast);
* every codec honours its declared contract — bit-exact round trips
  for ``identity``/``fp16`` (on grid values), bounded error plus exact
  error-feedback conservation for ``int8``/``topk``/``onebit``;
* residuals drain to zero on repeated encoding (the lost mass is
  eventually transmitted) and roll back on skipped steps;
* an ``("identity",)`` stack is byte-for-byte identical to the
  no-codec path, and ``wire_codecs=("fp16",)`` is bit-identical to the
  scale -> fp16 cast -> decode arithmetic of §4.4.1 applied by hand
  (pinned across world sizes including non-powers-of-two);
* the transport leaf format re-encodes grid-resident rows exactly and
  falls back to raw fp32 on off-grid content.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.codec import (
    CodecPipeline,
    IdentityCodec,
    PipelineWireFormat,
    build_codec,
    build_pipeline,
    int8_quantize,
    onebit_stats,
    parse_wire_codecs,
    topk_select,
)
from repro.core import DistributedOptimizer, ReduceOpType
from repro.core.arena import GradientArena
from repro.models import MLP, MiniBERT
from repro.optim import SGD

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=64)


def _flat(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * scale).astype(np.float32)


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

class TestSpecParsing:
    def test_tuple_and_comma_string_forms(self):
        assert parse_wire_codecs(("fp16", "topk:0.01")) == ("fp16", "topk:0.01")
        assert parse_wire_codecs("fp16,topk:0.01") == ("fp16", "topk:0.01")
        assert parse_wire_codecs("fp16, int8") == ("fp16", "int8")
        assert parse_wire_codecs(()) == ()
        assert parse_wire_codecs(None) == ()
        assert parse_wire_codecs("") == ()

    def test_topk_ratio_normalized(self):
        assert parse_wire_codecs(("topk:0.010",)) == ("topk:0.01",)
        assert parse_wire_codecs(("TOPK:0.5",)) == ("topk:0.5",)

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="unknown wire codec"):
            parse_wire_codecs(("gzip",))

    def test_arg_on_argless_codec_rejected(self):
        with pytest.raises(ValueError, match="takes no argument"):
            parse_wire_codecs(("fp16:2",))

    def test_topk_needs_ratio(self):
        with pytest.raises(ValueError, match="keep ratio"):
            parse_wire_codecs(("topk",))
        with pytest.raises(ValueError, match="bad topk ratio"):
            parse_wire_codecs(("topk:lots",))
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            parse_wire_codecs(("topk:1.5",))
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            parse_wire_codecs(("topk:0",))

    def test_duplicate_base_name_rejected(self):
        with pytest.raises(ValueError, match="appears twice"):
            parse_wire_codecs(("fp16", "fp16"))
        with pytest.raises(ValueError, match="appears twice"):
            parse_wire_codecs(("topk:0.1", "topk:0.2"))

    def test_build_pipeline_empty_is_none(self):
        assert build_pipeline(()) is None
        assert build_pipeline(None) is None

    def test_pipeline_contract_views(self):
        pipe = build_pipeline(("fp16", "int8", "topk:0.01"))
        assert pipe.names == ("fp16", "int8", "topk:0.01")
        assert not pipe.bit_exact
        assert pipe.error_feedback
        assert pipe.scaler is not None
        exact = build_pipeline(("identity", "fp16"))
        assert exact.bit_exact and not exact.error_feedback


# ----------------------------------------------------------------------
# Per-codec round-trip contracts
# ----------------------------------------------------------------------

class TestCodecContracts:
    @settings(max_examples=25, deadline=None)
    @given(seeds, sizes)
    def test_identity_exact(self, seed, n):
        x = _flat(seed, n)
        flat = x.copy()
        assert build_codec("identity").roundtrip(flat, None) is False
        np.testing.assert_array_equal(flat, x)

    @settings(max_examples=25, deadline=None)
    @given(seeds, sizes)
    def test_fp16_error_bound_and_idempotence(self, seed, n):
        codec = build_codec("fp16")
        codec.begin_step()
        x = _flat(seed, n)
        flat = x.copy()
        assert codec.roundtrip(flat, None) is False
        # fp16 has a 10-bit mantissa: relative error <= 2^-11 for
        # normal values (the power-of-two scale cancels exactly).
        np.testing.assert_allclose(flat, x, rtol=2**-10, atol=1e-7)
        # Grid values round-trip to themselves: second pass is exact.
        again = flat.copy()
        codec.roundtrip(again, None)
        np.testing.assert_array_equal(again, flat)

    def test_fp16_overflow_detected(self):
        codec = build_codec("fp16")
        codec.begin_step()
        flat = np.array([1e30, 0.0], dtype=np.float32)
        assert codec.roundtrip(flat, None) is True

    @settings(max_examples=25, deadline=None)
    @given(seeds, sizes, st.floats(min_value=1e-3, max_value=1e3))
    def test_int8_error_bound(self, seed, n, scale):
        x = _flat(seed, n, scale)
        flat = x.copy()
        build_codec("int8").roundtrip(flat, None)
        amax = float(np.max(np.abs(x))) if n else 0.0
        step = (amax / 127.0 if amax > 0 else 1.0)
        assert np.max(np.abs(flat - x)) <= step * 0.5 + 1e-6 * step

    @settings(max_examples=25, deadline=None)
    @given(seeds, sizes, st.floats(min_value=0.05, max_value=1.0))
    def test_topk_keeps_largest_exactly(self, seed, n, ratio):
        x = _flat(seed, n)
        flat = x.copy()
        build_codec(f"topk:{ratio:g}").roundtrip(flat, None)
        k = max(int(round(n * ratio)), 1)
        nonzero = np.flatnonzero(flat)
        assert len(nonzero) <= k
        # Every kept value is bit-identical to the input's.
        np.testing.assert_array_equal(flat[nonzero], x[nonzero])
        # Nothing dropped is larger than the smallest kept magnitude.
        if len(nonzero):
            kept_min = np.min(np.abs(flat[nonzero]))
            dropped = np.delete(x, nonzero)
            if dropped.size:
                assert np.max(np.abs(dropped)) <= kept_min + 1e-7

    @settings(max_examples=25, deadline=None)
    @given(seeds, sizes)
    def test_onebit_two_levels(self, seed, n):
        x = _flat(seed, n)
        flat = x.copy()
        build_codec("onebit").roundtrip(flat, None)
        assert len(np.unique(flat)) <= 2
        pos, pos_mean, neg_mean = onebit_stats(x)
        np.testing.assert_array_equal(
            flat, np.where(pos, pos_mean, neg_mean).astype(np.float32)
        )

    @settings(max_examples=25, deadline=None)
    @given(seeds, sizes)
    def test_stateless_encode_decode_matches_roundtrip(self, seed, n):
        """decode(encode(x)) equals the in-place roundtrip of x for
        every codec — the transport leaf form agrees with the arena
        form on the same input.  (Re-encoding the *output* need not be
        idempotent — e.g. onebit's float32 mean of its own two levels —
        which is exactly why the leaf format verifies and falls back.)"""
        x = _flat(seed, n)
        for spec in ("identity", "fp16", "int8", "topk:0.25", "onebit"):
            codec = build_codec(spec)
            codec.begin_step()
            flat = x.copy()
            codec.roundtrip(flat, None)
            decoded = codec.decode(codec.encode(x), n)
            np.testing.assert_array_equal(decoded, flat, err_msg=spec)


# ----------------------------------------------------------------------
# Error feedback
# ----------------------------------------------------------------------

class TestErrorFeedback:
    def _pipe(self, specs, n=12, rows=1, boundaries=(5, 12)):
        pipe = build_pipeline(specs)
        pipe.bind(rows, n, boundaries)
        return pipe

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_topk_residual_conservation(self, seed):
        """decoded + residual == adjusted, exactly: no error mass is
        created or destroyed by a topk encode."""
        pipe = self._pipe(("topk:0.3",))
        x = _flat(seed, 12)
        data = x[None, :].copy()
        pipe.begin_step()
        pipe.encode_block(data, [0])
        pipe.end_step(False)
        residual = pipe._residuals[0][0]
        np.testing.assert_array_equal(data[0] + residual, x)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_int8_residual_conservation(self, seed):
        pipe = self._pipe(("int8",))
        x = _flat(seed, 12)
        data = x[None, :].copy()
        pipe.begin_step()
        pipe.encode_block(data, [0])
        pipe.end_step(False)
        residual = pipe._residuals[0][0]
        np.testing.assert_allclose(data[0] + residual, x, rtol=1e-6, atol=1e-7)

    def test_residuals_drain_to_zero(self):
        """One gradient followed by zeros: every pending residual is
        eventually transmitted and the error memory empties exactly."""
        pipe = self._pipe(("topk:0.3",))
        x = _flat(3, 12)
        total = np.zeros(12, dtype=np.float32)
        data = x[None, :].copy()
        for step in range(16):
            pipe.begin_step()
            pipe.encode_block(data, [0])
            pipe.end_step(False)
            total += data[0]
            data = np.zeros((1, 12), dtype=np.float32)
        residual = pipe._residuals[0][0]
        np.testing.assert_array_equal(residual, np.zeros(12, dtype=np.float32))
        np.testing.assert_allclose(total, x, rtol=1e-6, atol=1e-7)

    def test_skip_rolls_residuals_back(self):
        """An fp16 overflow skips the step; the lossy stages' residuals
        must not consume error mass for gradients never applied."""
        pipe = build_pipeline(("fp16", "topk:0.5"))
        pipe.bind(1, 8, (8,))
        ok = _flat(0, 8)[None, :].copy()
        pipe.begin_step()
        pipe.encode_block(ok, [0])
        assert pipe.end_step(False) is False
        before = pipe._residuals[1].copy()
        bad = np.full((1, 8), 1e30, dtype=np.float32)
        pipe.begin_step()
        overflow = pipe.encode_block(bad, [0])
        assert overflow
        assert pipe.end_step(overflow) is True  # step skipped
        np.testing.assert_array_equal(pipe._residuals[1], before)

    def test_restore_residuals_explicit(self):
        """A collective that fails before apply restores residuals."""
        pipe = self._pipe(("topk:0.3",))
        x = _flat(1, 12)[None, :]
        pipe.begin_step()
        pipe.encode_block(x.copy(), [0])
        assert np.any(pipe._residuals[0] != 0.0)
        pipe.restore_residuals()
        np.testing.assert_array_equal(
            pipe._residuals[0], np.zeros((1, 12), dtype=np.float32)
        )

    def test_rebind_same_layout_keeps_residuals(self):
        pipe = self._pipe(("topk:0.3",))
        x = _flat(2, 12)[None, :]
        pipe.begin_step()
        pipe.encode_block(x.copy(), [0])
        pipe.end_step(False)
        before = pipe._residuals[0].copy()
        pipe.bind(1, 12, (5, 12))  # idempotent
        np.testing.assert_array_equal(pipe._residuals[0], before)
        pipe.bind(2, 12, (5, 12))  # shape change resets
        assert not np.any(pipe._residuals[0])


# ----------------------------------------------------------------------
# Layer-block granularity & modeled bytes
# ----------------------------------------------------------------------

class TestBlocksAndBytes:
    def test_non_elementwise_stats_are_per_layer_block(self):
        """int8's scale is computed per tensor block: a huge value in
        one layer must not flatten another layer's quantization grid."""
        pipe = build_pipeline(("int8",))
        pipe.bind(1, 8, (4, 8))
        data = np.array(
            [[1000.0, 1.0, 2.0, 3.0, 0.001, 0.002, 0.003, 0.004]],
            dtype=np.float32,
        )
        x = data.copy()
        pipe.begin_step()
        pipe.encode_block(data, [0])
        # Second block quantized against its own tiny amax: error stays
        # well below its own values, impossible with a shared scale.
        assert np.max(np.abs(data[0, 4:] - x[0, 4:])) <= 0.004 / 127.0 * 0.5 + 1e-9

    def test_wire_nbytes_models_the_stack(self):
        pipe = build_pipeline(("fp16",))
        pipe.bind(1, 100, (60, 100))
        assert pipe.wire_nbytes() == 200  # 2 bytes/value
        pipe = build_pipeline(("fp16", "topk:0.1"))
        pipe.bind(1, 100, (60, 100))
        # top-10% of 60 and of 40: 6 + 4 = 10 kept, 4+2 bytes each.
        assert pipe.wire_nbytes() == 10 * 6
        pipe = build_pipeline(("int8",))
        pipe.bind(1, 100, (60, 100))
        assert pipe.wire_nbytes() == 100 + 2 * 4  # byte/value + scale/block
        pipe = build_pipeline(("onebit",))
        pipe.bind(1, 100, (60, 100))
        assert pipe.wire_nbytes() == (60 // 8 + 8) + (40 // 8 + 8)

    def test_topk_stack_halves_fp16_bytes(self):
        """The headline guarantee, on the 8-rank MiniBERT step (all
        eight rows of a default ``MiniBERT``, 29 layer blocks each):
        fp16+int8+topk:0.01 ships <=50% of the fp16-only bytes.  The
        bytes are modeled from the layout, so the exact figures hold on
        any host: 474,112 B/step fp16-only (half the 948,224 B of raw
        fp32) against 12,200 B/step for the stack, a ratio of 0.026."""
        layout = GradientArena.from_model(MiniBERT(rng=np.random.default_rng(0)), 8).layout

        def bytes_per_step(*stack):
            pipe = build_pipeline(stack)
            pipe.bind(8, layout.total_size, layout.boundaries())
            return 8 * pipe.wire_nbytes()

        fp16, stacked = bytes_per_step("fp16"), bytes_per_step("fp16", "int8", "topk:0.01")
        assert (fp16, stacked) == (474_112, 12_200)
        assert stacked <= 0.5 * fp16


# ----------------------------------------------------------------------
# Pipeline parity with the legacy paths (pinned)
# ----------------------------------------------------------------------

def _phased_run(num_ranks, steps=3, seed=0, prepare=None, **opt_kw):
    model = MLP((6, 10, 4), rng=np.random.default_rng(seed))
    dopt = DistributedOptimizer(
        model, lambda ps: SGD(ps, lr=0.05, momentum=0.9), num_ranks,
        op=ReduceOpType.ADASUM, topology="tree_any", **opt_kw,
    )
    arena = GradientArena.from_model(model, num_ranks)
    rng = np.random.default_rng(seed + 1)
    for _ in range(steps):
        arena.data[:] = rng.standard_normal(arena.data.shape).astype(np.float32)
        if prepare is not None:
            prepare(arena.data)
        dopt.step_arena(arena)
    return model, dopt


def _assert_bit_identical(m1, m2):
    for (name, p), (_, q) in zip(m1.named_parameters(), m2.named_parameters()):
        np.testing.assert_array_equal(
            p.data.view(np.uint32), q.data.view(np.uint32),
            err_msg=f"parameter {name} diverged",
        )


class TestLegacyParity:
    def test_identity_stack_matches_no_codec(self):
        m_none, d_none = _phased_run(4)
        m_id, d_id = _phased_run(4, wire_codecs=("identity",))
        _assert_bit_identical(m_none, m_id)

    @pytest.mark.parametrize("ranks", [2, 3, 5, 8])
    def test_fp16_stack_matches_hand_rounded_rows(self, ranks):
        """wire_codecs=("fp16",) is scale -> fp16 cast -> decode of every
        wire tensor, bit for bit: rounding the rows by hand and reducing
        them with no codec gives the same parameters."""
        scale = 2.0 ** 10  # the scaler's initial (and, unskipped, constant) scale

        def by_hand(data):
            data[:] = (data * scale).astype(np.float16).astype(np.float32) * (1.0 / scale)

        m_ref, _ = _phased_run(ranks, adasum_pre_optimizer=True, prepare=by_hand)
        m_new, d_new = _phased_run(
            ranks, adasum_pre_optimizer=True, wire_codecs=("fp16",)
        )
        _assert_bit_identical(m_ref, m_new)
        assert d_new.skipped_steps == 0
        assert d_new._scaler.scale_value == scale

    def test_fp16_differs_from_fp32(self):
        m_raw, _ = _phased_run(4)
        m_fp16, _ = _phased_run(4, wire_codecs=("fp16",))
        with pytest.raises(AssertionError):
            _assert_bit_identical(m_raw, m_fp16)

    def test_lossy_stack_runs_and_counts_bytes(self):
        m, d = _phased_run(4, wire_codecs=("fp16", "int8", "topk:0.1"))
        for p in m.parameters():
            assert np.isfinite(p.data).all()
        raw = 3 * 4 * d.wire_pipeline._total * 4  # steps * ranks * n * fp32
        assert 0 < d.wire_bytes_total < raw


# ----------------------------------------------------------------------
# Transport leaf formats
# ----------------------------------------------------------------------

class TestWireFormats:
    def test_pipeline_format_exact_on_grid_rows(self):
        """Rows already round-tripped by the pipeline re-encode exactly
        at the modeled (compressed) byte cost."""
        pipe = build_pipeline(("fp16", "topk:0.25"))
        pipe.bind(1, 16, (10, 16))
        data = _flat(7, 16)[None, :].copy()
        pipe.begin_step()
        pipe.encode_block(data, [0])
        pipe.end_step(False)
        wf = pipe.leaf_format()
        row = data[0]
        payload, nbytes = wf.encode(row, (10, 16))
        assert nbytes == pipe.wire_nbytes()
        assert nbytes < row.nbytes
        np.testing.assert_array_equal(wf.decode(payload), row)

    def test_pipeline_format_falls_back_on_off_grid_rows(self):
        """Interior-partial content that does not re-encode exactly
        ships raw at raw cost — bit-exactness by construction."""
        pipe = build_pipeline(("fp16", "topk:0.25"))
        pipe.bind(1, 16, (10, 16))
        pipe.begin_step()
        wf = pipe.leaf_format()
        row = _flat(9, 16)  # never round-tripped: dense, off-grid
        payload, nbytes = wf.encode(row, (10, 16))
        assert nbytes == row.nbytes
        np.testing.assert_array_equal(wf.decode(payload), row)

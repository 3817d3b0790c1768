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
* the whole-row stages (one pass per stage over a row's span, only the
  statistics per layer block) are byte-equal to the per-block
  formulations they replaced, kept here as the reference.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.codec import (
    Fp16Codec,
    build_codec,
    build_pipeline,
    onebit_stats,
    parse_wire_codecs,
    topk_select,
)
from repro.core import DistributedOptimizer, RunConfig
from repro.core.arena import GradientArena
from repro.core.precision import DynamicScaler
from repro.models import MLP, BertConfig, MiniBERT
from repro.optim import SGD
from repro.tensor import tune_allocator

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
        # 60 sign bits take 8 bytes, 40 take 5; plus two 4-byte means each.
        assert pipe.wire_nbytes() == (8 + 8) + (5 + 8)

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
        model, lambda ps: SGD(ps, lr=0.05, momentum=0.9),
        RunConfig(op="adasum", num_ranks=num_ranks, **opt_kw),
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
# Whole-row stages == the per-block formulations
# ----------------------------------------------------------------------
# Each stage's ``roundtrip`` as it was when the pipeline called it once
# per layer block: fp16 through the float16 dtype, int8 through the
# frozen per-block quantizer below, top-k through the shared per-tensor
# primitive.

def int8_quantize(adjusted):
    """Symmetric dynamic int8 quantization of a flat block."""
    amax = float(np.max(np.abs(adjusted))) if adjusted.size else 0.0
    scale = amax / 127.0 if amax > 0.0 else 1.0
    q = np.clip(np.rint(adjusted / scale), -127, 127).astype(np.int8)
    return q, scale


def _per_block_fp16(flat, residual, scale):
    with np.errstate(over="ignore"):
        enc = (flat * scale).astype(np.float16)
        overflow = not bool(np.isfinite(enc).all())
    np.multiply(enc.astype(np.float32), 1.0 / scale, out=flat)
    return overflow


def _per_block_int8(flat, residual, scale):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        adjusted = flat + residual
        q, step = int8_quantize(adjusted)
        decoded = q.astype(np.float32) * np.float32(step)
        np.subtract(adjusted, decoded, out=residual)
        flat[:] = decoded
    return False


def _per_block_topk(ratio):
    def roundtrip(flat, residual, scale):
        with np.errstate(invalid="ignore", over="ignore"):
            adjusted = flat + residual
            idx, values = topk_select(adjusted, ratio)
            flat[:] = 0.0
            flat[idx] = values
            np.subtract(adjusted, flat, out=residual)
        return False
    return roundtrip


def _per_block_onebit(flat, residual, scale):
    with np.errstate(invalid="ignore", over="ignore"):
        adjusted = flat + residual
        pos, pos_mean, neg_mean = onebit_stats(adjusted)
        decoded = np.where(pos, pos_mean, neg_mean).astype(np.float32)
        np.subtract(adjusted, decoded, out=residual)
        flat[:] = decoded
    return False


def _per_block_stage(spec):
    name, _, arg = spec.partition(":")
    if name == "topk":
        return _per_block_topk(float(arg))
    return {"fp16": _per_block_fp16, "int8": _per_block_int8,
            "onebit": _per_block_onebit}[name]


def _per_block_encode(specs, scale, data, residuals, rows, lo, hi, boundaries):
    """``CodecPipeline.encode_block`` with every stage run per row and
    per layer block; ``residuals`` maps lossy stage index -> rows."""
    points = [lo] + [b for b in boundaries if lo < b < hi] + [hi]
    overflow = False
    for i, spec in enumerate(specs):
        stage = _per_block_stage(spec)
        for r in rows:
            for a, b in zip(points[:-1], points[1:]):
                res = residuals[i][r, a:b] if i in residuals else None
                overflow |= stage(data[r, a:b], res, scale)
    return overflow


#: Scaled values at the top of fp16 range: the largest finite fp16, the
#: largest float32 that still rounds to it, and the first that does not.
FP16_EDGES = (65504.0, float(np.float32(65519.996)), 65520.0)


def _hard_rows(seed, shape, scale, inject):
    """Wire rows whose scaled values mix fp16 normals and subnormals,
    exact ties, +-0, float32 subnormals and the 65504 / 65519.996
    edges; ``inject`` adds 65520, inf or NaN at a few places."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) * 2.0 ** rng.integers(-27, 16, shape)
    kind = rng.integers(0, 10, shape)
    v[kind == 0] = 0.0
    v[kind == 1] = -0.0
    v[kind == 2] = rng.choice(v.ravel()[:3], size=int((kind == 2).sum()))  # ties
    v[kind == 3] = rng.choice([-1, 1], int((kind == 3).sum())) * rng.choice(
        FP16_EDGES[:2], int((kind == 3).sum()))
    v[kind == 4] = rng.integers(-64, 64, int((kind == 4).sum())) * 2.0 ** -24
    rows = (v / scale).astype(np.float32)
    rows[kind == 5] = np.float32(1e-40) * rng.choice([-1, 1], int((kind == 5).sum()))
    if inject is not None:
        value = FP16_EDGES[2] / scale if inject == "65520" else float(inject)
        at = rng.integers(0, rows.size, rng.integers(1, 4))
        rows.ravel()[at] = value * rng.choice([-1, 1], at.size)
    return rows


@st.composite
def _codec_runs(draw):
    order = draw(st.permutations(["fp16", "int8", "topk", "onebit"]))
    ratio = draw(st.sampled_from([0.001, 0.01, 0.1, 0.3, 0.5, 1.0]))
    specs = tuple(
        f"topk:{ratio:g}" if name == "topk" else name
        for name in order[: draw(st.integers(1, 4))]
    )
    block_sizes = draw(st.lists(
        st.one_of(st.just(1), st.integers(1, 3000)), min_size=1, max_size=12))
    num_rows = draw(st.integers(1, 3))
    rows = draw(st.one_of(
        st.just(list(range(num_rows))),
        st.integers(0, num_rows - 1).map(lambda r: [r]),
    ))
    return dict(
        specs=specs,
        block_sizes=block_sizes,
        num_rows=num_rows,
        rows=rows,
        split=draw(st.integers(0, len(block_sizes) - 1)),
        scale=2.0 ** draw(st.integers(0, 24)),
        steps=draw(st.integers(1, 4)),
        inject=draw(st.sampled_from([None, None, "65520", "inf", "-inf", "nan"])),
        seed=draw(seeds),
    )


class TestWholeRowStages:
    @settings(max_examples=60, deadline=None)
    @given(_codec_runs())
    def test_whole_row_stages_equal_the_per_block_formulations(self, run):
        """Any ordered sub-stack, any layout, for one row and for all
        rows, through 1-4 steps with evolving residuals and a bucket
        split at a block boundary: rows, residuals and overflow flags
        are byte-equal to the per-block reference, and a skipped step
        rolls both back alike."""
        specs, rows = run["specs"], run["rows"]
        boundaries = tuple(np.cumsum(run["block_sizes"]).tolist())
        n = boundaries[-1]
        split = ([0] + list(boundaries))[run["split"]]
        spans = [(lo, hi) for lo, hi in ((0, split), (split, n)) if lo < hi]
        pipe = build_pipeline(specs)
        pipe.bind(run["num_rows"], n, boundaries)
        residuals = {i: np.zeros((run["num_rows"], n), dtype=np.float32)
                     for i, spec in enumerate(specs) if spec != "fp16"}
        for step in range(run["steps"]):
            data = _hard_rows(run["seed"] + step, (run["num_rows"], n),
                              run["scale"], run["inject"] if step == 0 else None)
            ref = data.copy()
            saved = {i: r.copy() for i, r in residuals.items()}
            pipe.begin_step(run["scale"])
            flags = [pipe.encode_block(data, rows, lo, hi) for lo, hi in spans]
            ref_flags = [
                _per_block_encode(specs, run["scale"], ref, residuals, rows, lo, hi, boundaries)
                for lo, hi in spans
            ]
            assert flags == ref_flags
            assert data.tobytes() == ref.tobytes(), f"rows differ at step {step}"
            overflow = any(flags)
            if pipe.end_step(overflow):
                residuals = saved
            for i, res in residuals.items():
                assert pipe._residuals[i].tobytes() == res.tobytes(), (
                    f"stage {specs[i]} residual differs at step {step}")

    def test_fp16_rounding_matches_the_float16_cast_on_a_float32_sweep(self):
        """A strided sample of all 2^32 float32 bit patterns with
        ``|x| < 65520`` (about 1M values: every binade, fp16 subnormals
        and float32 subnormals included) plus the top-of-range edges and
        +-0, at scale 1: the codec's rounding without the float16 dtype
        equals ``astype(float16)`` bit for bit."""
        patterns = np.arange(0, 2**32, 2311, dtype=np.uint64).astype(np.uint32)
        x = patterns.view(np.float32)
        x = x[np.abs(x) < 65520]
        edges = np.array(FP16_EDGES[:2] + (0.0, 2.0 ** -24, 2.0 ** -25, 3 * 2.0 ** -25),
                         dtype=np.float32)
        x = np.concatenate([x, edges, -edges])
        assert x.size > 1_000_000
        codec = Fp16Codec(DynamicScaler(init_scale=1.0))
        codec.begin_step()
        got = x.copy()
        assert codec.roundtrip(got) is False
        want = x.astype(np.float16).astype(np.float32)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def _bert_procs_codec_row():
    """One row of the ``bert_procs_codec`` arena: 104,240 floats in 30
    layer blocks (MiniBERT hidden 64, 2 layers, vocabulary 48)."""
    model = MiniBERT(BertConfig(vocab_size=48, hidden=64, layers=2, heads=4,
                                max_seq_len=16), rng=np.random.default_rng(0))
    layout = GradientArena.from_model(model, 1).layout
    return layout.total_size, tuple(layout.boundaries())


@pytest.mark.perf
def test_codec_roundtrip_beats_the_per_block_reference():
    """One-row fp16+int8+topk:0.01 round trip on the ``bert_procs_codec``
    row, p10, whole-row stages >= 1.4x faster than the per-block
    reference above (1.81-1.87x on a 2-vCPU Xeon VM: 2.09-2.14 -> 1.12-1.17
    ms, both sides slowed by the interleaving), same bytes out.  Both
    sides encode the same rows in this process, call by call, their
    residuals evolving alike."""
    tune_allocator()  # as in every rank worker: no mmap per temporary
    n, boundaries = _bert_procs_codec_row()
    assert (n, len(boundaries)) == (104_240, 30)
    specs, scale = ("fp16", "int8", "topk:0.01"), 2.0 ** 10
    pipe = build_pipeline(specs)
    pipe.bind(1, n, boundaries)
    residuals = {i: np.zeros((1, n), dtype=np.float32) for i in (1, 2)}
    rng = np.random.default_rng(0)
    whole_row, per_block = [], []
    for _ in range(240):
        data = (rng.standard_normal((1, n)) * 1e-3).astype(np.float32)
        ref = data.copy()
        pipe.begin_step(scale)
        start = time.perf_counter()
        pipe.encode_block(data, [0])
        whole_row.append(time.perf_counter() - start)
        pipe.end_step(False)
        start = time.perf_counter()
        _per_block_encode(specs, scale, ref, residuals, [0], 0, n, boundaries)
        per_block.append(time.perf_counter() - start)
        assert data.tobytes() == ref.tobytes()
    fast, slow = (sorted(t)[len(t) // 10] for t in (whole_row, per_block))
    assert slow >= 1.4 * fast, (
        f"whole-row {fast * 1e3:.3f} ms vs per-block {slow * 1e3:.3f} ms "
        f"({slow / fast:.2f}x)"
    )

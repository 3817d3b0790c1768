"""Rank-fused forward/backward for :class:`MiniBERT` (the fast compute path).

The generic autograd loop pays Python dispatch per op per rank, and can
report a layer's gradient only when the *last* rank's backward reaches
it.  The simulated ranks' microbatches share every weight, so their
forward and backward passes are the same kernels over stacked batch
blocks.

Every rank-order-free model now gets that from the tensor library:
rank-stacked autograd (:class:`~repro.train.trainer.StackedAutograd`,
:func:`~repro.tensor.rank_blocks`) runs the model's own forward and
backward once over the stacked blocks.  This hand-written engine
outlives it for MiniBERT because it is still faster — 1.11-1.13x on a
serial 4-rank ``bert_procs_codec`` step (23.3-23.4 vs 25.9-26.4 ms),
1.36x on the compute alone: the tape splits ``qkv`` into ``q``, ``k``,
``v`` through ``Tensor.__getitem__``, whose backward scatters each into
a fresh full-size zeros array with ``np.add.at``, and copies every
parameter gradient twice (a stacked ``(R, ...)`` leaf gradient, then
the arena rows); this engine builds the ``qkv`` gradient in place and
writes each rank's gradient straight into its row.  It also serves one
rank per call (``min_blocks = 1``, a rank worker), where there is
nothing to stack.

:class:`FusedBertRankCompute` runs one hand-written forward + backward
over the concatenated batch of however many ranks a call lists — one in
a rank worker process, the world in a serial step, the live ranks in an
elastic one — and writes each rank's gradients straight into its arena
row, firing a grad-ready callback per parameter in backward completion
order (all listed ranks' gradients for a layer land at the same moment,
so an overlap bucket can launch the instant backward passes it).

Bit-exactness contract (validated at runtime, once per call shape and
process, by :class:`~repro.train.trainer.FusedRankExecutor`'s byte
comparison against the per-rank loop, with permanent fallback to that
loop on mismatch):

* elementwise ops, softmax, layer norm and the gelu/CE math are
  row-local — fusing batch blocks cannot change their bits;
* data-gradient and forward GEMMs are fused across ranks, which is
  bit-safe exactly when BLAS computes each output row independently of
  the number of rows (probed true for these shapes on typical builds,
  but *verified* rather than assumed — hence the validation step);
* weight-gradient GEMMs and reductions are computed **per rank block
  with the same shapes and strides as the serial path** (a contiguous
  ``(b, ...)`` slice of the fused array has the serial array's exact
  memory layout), so they take the same kernel paths bit for bit;
* the weight-tied token embedding accumulates its two contributions in
  serial order: MLM head first, input embedding second.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.models.transformer import MiniBERT
from repro.nn import rank_order_hazard


class FusedBertRankCompute:
    """One fused forward+backward producing per-rank gradients.

    Parameters
    ----------
    model:
        The shared :class:`MiniBERT` replica.
    """

    #: Serves one-rank calls too (a rank worker's step): its hand-fused
    #: kernels beat the autograd loop even without stacking.
    min_blocks = 1

    def __init__(self, model: MiniBERT):
        if not isinstance(model, MiniBERT):
            raise TypeError("FusedBertRankCompute requires a MiniBERT model")
        hazard = rank_order_hazard(model)
        if hazard == "dropout":
            raise ValueError(
                "rank-fused compute requires dropout == 0 (stochastic masks "
                "would have to be replayed per rank)"
            )
        if hazard == "buffers":
            raise ValueError("rank-fused compute does not support buffers")
        self.model = model

    # ------------------------------------------------------------------
    def step(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rank_views: Sequence[Dict[str, np.ndarray]],
        ready_cb: Optional[Callable[[str], None]] = None,
    ) -> List[float]:
        """Forward+backward over the concatenated batch of all ranks.

        ``x``/``y`` hold the ``R = len(rank_views)`` ranks' equal-sized
        microbatches stacked along axis 0 (block ``r`` owns rows
        ``[r*b, (r+1)*b)``).  Per-rank gradients are written into
        ``rank_views[r]`` (arena views) and ``ready_cb(name)`` fires
        once per parameter when *all* ranks' gradients for it have
        landed.  Returns the per-rank losses.
        """
        m = self.model
        R = len(rank_views)
        x = np.asarray(x)
        y = np.asarray(y)
        B, S = x.shape
        if B % R:
            raise ValueError(f"batch {B} not divisible by {R} ranks")
        b = B // R
        cfg = m.cfg
        if S > cfg.max_seq_len:
            raise ValueError(f"sequence length {S} exceeds max {cfg.max_seq_len}")
        H, V = cfg.hidden, cfg.vocab_size
        if y.size and (y.min() < 0 or y.max() >= V):
            raise ValueError(
                f"targets outside [0, {V}) (e.g. ignore_index positions) "
                "are not supported by the rank-fused engine"
            )
        nh = cfg.heads
        hd = H // nh
        ready = ready_cb or (lambda name: None)
        rank_sl = [slice(r * b, (r + 1) * b) for r in range(R)]

        # ---------------- forward ----------------
        Wt = m.tok_emb.weight.data
        Wp = m.pos_emb.weight.data
        pos_idx = np.arange(S)[None, :].repeat(b, axis=0)  # per-rank (b, S)
        x0 = Wt[x] + Wp[np.arange(S)[None, :].repeat(B, axis=0)]

        c_gelu = np.sqrt(2.0 / np.pi).astype(np.float32)
        s_scale = np.asarray(1.0 / np.sqrt(hd), dtype=np.float32)

        saved = []  # per-layer forward intermediates
        xl = x0
        for layer in m.encoder_layers:
            st: Dict[str, np.ndarray] = {"x_in": xl}
            # ln1 -> attention
            a_in, st["xhat1"], st["inv1"] = _ln_fwd(
                xl, layer.ln1.weight.data, layer.ln1.bias.data, layer.ln1.eps
            )
            st["a_in"] = a_in
            qkv = a_in @ layer.attn.qkv.weight.data.transpose() + layer.attn.qkv.bias.data
            qkv5 = qkv.reshape(B, S, 3, nh, hd).transpose(2, 0, 3, 1, 4)
            q, k, v = qkv5[0], qkv5[1], qkv5[2]  # views, like getitem
            st["q"], st["k"], st["v"] = q, k, v
            scores = (q @ k.swapaxes(-1, -2)) * s_scale
            shifted = scores - scores.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            attn = (e / e.sum(axis=-1, keepdims=True)).astype(np.float32)
            st["attn"] = attn
            ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(B, S, H)
            st["ctx"] = ctx
            o = ctx @ layer.attn.out.weight.data.transpose() + layer.attn.out.bias.data
            x1 = xl + o
            st["x1"] = x1
            # ln2 -> FFN
            f_in, st["xhat2"], st["inv2"] = _ln_fwd(
                x1, layer.ln2.weight.data, layer.ln2.bias.data, layer.ln2.eps
            )
            st["f_in"] = f_in
            h1 = f_in @ layer.fc1.weight.data.transpose() + layer.fc1.bias.data
            st["h1"] = h1
            inner = c_gelu * (h1 + 0.044715 * (h1 * h1 * h1))
            tgl = np.tanh(inner)
            st["tgl"] = tgl
            gact = (0.5 * h1 * (1.0 + tgl)).astype(np.float32)
            st["gact"] = gact
            h2 = gact @ layer.fc2.weight.data.transpose() + layer.fc2.bias.data
            xl = x1 + h2
            saved.append(st)

        xf, xhatF, invF = _ln_fwd(xl, m.ln_f.weight.data, m.ln_f.bias.data, m.ln_f.eps)
        logits = xf @ Wt.transpose() + m.mlm_bias.data

        # Cross entropy (per rank: serial count is the rank's token count).
        N = B * S
        n_rank = b * S
        l2d = logits.reshape(N, V)
        shifted = l2d - l2d.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        logp = shifted - lse
        y2d = y.reshape(-1)
        arangeN = np.arange(N)
        picked = logp[arangeN, y2d]
        losses = [
            float(
                np.asarray(
                    (-(picked[r * n_rank:(r + 1) * n_rank].sum())) / n_rank,
                    dtype=np.float32,
                )
            )
            for r in range(R)
        ]

        # ---------------- backward ----------------
        g2d = np.exp(logp)
        g2d[arangeN, y2d] -= 1.0
        g2d *= 1.0 / n_rank
        g3 = g2d.reshape(B, S, V)

        for r in range(R):
            np.copyto(rank_views[r]["mlm_bias"], g3[rank_sl[r]].sum(axis=(0, 1)))
        ready("mlm_bias")

        # Weight-tied head: first contribution to tok_emb.weight; the
        # input-embedding contribution adds on at the very end, matching
        # the serial accumulation order.
        for r in range(R):
            gw = (xf[rank_sl[r]].swapaxes(-1, -2) @ g3[rank_sl[r]]).sum(axis=0)
            np.copyto(rank_views[r]["tok_emb.weight"], gw.transpose())
        gxf = g3 @ Wt

        gx = self._ln_bwd(
            gxf, xhatF, invF, m.ln_f.weight.data, "ln_f", rank_views, rank_sl, ready
        )

        for li in range(len(saved) - 1, -1, -1):
            layer = m.encoder_layers[li]
            st = saved[li]
            pre = f"encoder_layers.{li}."
            # residual x2 = x1 + h2: gx flows to both terms
            # h2 = gact @ W2^T + b2
            for r in range(R):
                np.copyto(rank_views[r][pre + "fc2.bias"], gx[rank_sl[r]].sum(axis=(0, 1)))
            ready(pre + "fc2.bias")
            for r in range(R):
                gw = (st["gact"][rank_sl[r]].swapaxes(-1, -2) @ gx[rank_sl[r]]).sum(axis=0)
                np.copyto(rank_views[r][pre + "fc2.weight"], gw.transpose())
            ready(pre + "fc2.weight")
            gga = gx @ layer.fc2.weight.data
            # gelu
            h1 = st["h1"]
            tgl = st["tgl"]
            dt = (1.0 - tgl * tgl) * c_gelu * (1.0 + 3 * 0.044715 * h1 ** 2)
            gh1 = (gga * (0.5 * (1.0 + tgl) + 0.5 * h1 * dt)).astype(np.float32)
            # h1 = f_in @ W1^T + b1
            for r in range(R):
                np.copyto(rank_views[r][pre + "fc1.bias"], gh1[rank_sl[r]].sum(axis=(0, 1)))
            ready(pre + "fc1.bias")
            for r in range(R):
                gw = (st["f_in"][rank_sl[r]].swapaxes(-1, -2) @ gh1[rank_sl[r]]).sum(axis=0)
                np.copyto(rank_views[r][pre + "fc1.weight"], gw.transpose())
            ready(pre + "fc1.weight")
            gf_in = gh1 @ layer.fc1.weight.data
            gln2 = self._ln_bwd(
                gf_in, st["xhat2"], st["inv2"], layer.ln2.weight.data,
                pre + "ln2", rank_views, rank_sl, ready,
            )
            gx1 = gx + gln2  # add-node contribution first, then ln2's
            # attention: o = ctx @ Wo^T + bo, residual x1 = x_in + o
            for r in range(R):
                np.copyto(rank_views[r][pre + "attn.out.bias"], gx1[rank_sl[r]].sum(axis=(0, 1)))
            ready(pre + "attn.out.bias")
            for r in range(R):
                gw = (st["ctx"][rank_sl[r]].swapaxes(-1, -2) @ gx1[rank_sl[r]]).sum(axis=0)
                np.copyto(rank_views[r][pre + "attn.out.weight"], gw.transpose())
            ready(pre + "attn.out.weight")
            gctx = (gx1 @ layer.attn.out.weight.data).reshape(B, S, nh, hd).transpose(0, 2, 1, 3)
            gattn = gctx @ st["v"].swapaxes(-1, -2)
            gv = st["attn"].swapaxes(-1, -2) @ gctx
            # softmax
            attn = st["attn"]
            dot = (gattn * attn).sum(axis=-1, keepdims=True)
            gsc = (attn * (gattn - dot)) * s_scale
            gq = gsc @ st["k"]
            gk = (st["q"].swapaxes(-1, -2) @ gsc).transpose(0, 1, 3, 2)
            gqkv5 = np.empty((3, B, nh, S, hd), dtype=np.float32)
            gqkv5[0] = gq
            gqkv5[1] = gk
            gqkv5[2] = gv
            gqkv = gqkv5.transpose(1, 3, 0, 2, 4).reshape(B, S, 3 * H)
            for r in range(R):
                np.copyto(rank_views[r][pre + "attn.qkv.bias"], gqkv[rank_sl[r]].sum(axis=(0, 1)))
            ready(pre + "attn.qkv.bias")
            for r in range(R):
                gw = (st["a_in"][rank_sl[r]].swapaxes(-1, -2) @ gqkv[rank_sl[r]]).sum(axis=0)
                np.copyto(rank_views[r][pre + "attn.qkv.weight"], gw.transpose())
            ready(pre + "attn.qkv.weight")
            ga_in = gqkv @ layer.attn.qkv.weight.data
            gln1 = self._ln_bwd(
                ga_in, st["xhat1"], st["inv1"], layer.ln1.weight.data,
                pre + "ln1", rank_views, rank_sl, ready,
            )
            gx = gx1 + gln1

        # Embeddings (pos backward runs before tok in serial reverse topo).
        for r in range(R):
            dest = rank_views[r]["pos_emb.weight"]
            dest[...] = 0.0
            np.add.at(dest, pos_idx.reshape(-1), gx[rank_sl[r]].reshape(-1, H))
        ready("pos_emb.weight")
        for r in range(R):
            gw = np.zeros_like(Wt)
            np.add.at(gw, x[rank_sl[r]].reshape(-1), gx[rank_sl[r]].reshape(-1, H))
            rank_views[r]["tok_emb.weight"] += gw
        ready("tok_emb.weight")
        return losses

    # ------------------------------------------------------------------
    @staticmethod
    def _ln_bwd(g, xhat, inv, w, name, rank_views, rank_sl, ready):
        """Layer-norm backward; writes per-rank weight/bias grads, returns gx."""
        prod = g * xhat
        for r in range(R_ := len(rank_sl)):
            np.copyto(rank_views[r][name + ".bias"], g[rank_sl[r]].sum(axis=(0, 1)))
        ready(name + ".bias")
        for r in range(R_):
            np.copyto(rank_views[r][name + ".weight"], prod[rank_sl[r]].sum(axis=(0, 1)))
        ready(name + ".weight")
        gxhat = g * w
        gx = (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        ) * inv
        return gx.astype(np.float32)


def _ln_fwd(x, w, bvec, eps):
    """Layer-norm forward matching :func:`repro.tensor.functional.layer_norm`."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = (xhat * w + bvec).astype(np.float32)
    return out, xhat, inv

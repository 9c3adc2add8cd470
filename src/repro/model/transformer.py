"""Tiny transformer language models in pure numpy.

Two architecture families mirror the paper's model zoo:

* ``"llama"`` — RMSNorm, rotary position embeddings, SwiGLU FFN,
  pre-norm, tied embeddings (LLaMA-1/2 structure).
* ``"opt"`` — LayerNorm (gain+bias), learned absolute position
  embeddings, ReLU FFN, pre-norm, tied embeddings (OPT structure).

Every inference face runs one layer stack (``TransformerLM._stack``:
embedding → pre-norm blocks → final norm), so each block — W4
projections, A8 activation quantization on every projection input,
KV4 cache writes and reads in attention — is written once.  The faces
differ only in how attention meets the caches and how ``act_quant`` is
split up:

* :meth:`~TransformerLM.forward_logits` — teacher-forced, no cache;
  ``kv_quant`` intercepts the attention operands (Tbl. II's path) and
  ``act_quant`` sees each projection input whole.
* :meth:`~TransformerLM.forward_mixed` — the one cached forward, over
  any mix of decode rows and prompt chunks of many sequences.  It lays
  decode-only calls out per row ``(B, 1, d)`` (served MANT weights run
  the paper's Eq. 5 on recovered INT codes, other weights one GEMV per
  row; either way bitwise the single-sequence step) and packs calls
  with chunks along one time axis ``(1, T, d)``; ``act_quant`` runs
  per segment, or once per input for a row-local hook.
  :meth:`~TransformerLM.prefill`, :meth:`~TransformerLM.prefill_chunk`,
  :meth:`~TransformerLM.decode_step` and
  :meth:`~TransformerLM.decode_step_batch` are single calls of it.

The training path (:meth:`~TransformerLM.loss_and_grads`) keeps its own
taped forward and a full manual backward pass.

The inference faces accept the quantization hooks the accuracy
experiments plug in:

``weights``
    Substituted (fake-quantized) weight dict; a served MANT weight
    (:class:`~repro.core.fused.MantLevelWeight`) stands in for its dense
    array.
``act_quant(name, x)``
    Applied to the *input* of every linear projection — this is where
    group-wise INT8/INT4 activation quantization happens.
``kv_cache_factory()``
    Builds one :class:`repro.quant.kvcache.KVCache` per layer for
    generation; prefill-style evaluation uses ``kv_quant`` instead.

Caches may store tokens contiguously or in non-contiguous pages
(:mod:`repro.serve.paging`): ``keys()``/``values()`` results flow
straight into :func:`repro.model.layers.cached_attention_fwd`, which
gathers paged views before the attention math, so every generation
path here is storage-layout agnostic and bit-identical across
backends.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.fused import MantLevelWeight, recover_int_rows
from repro.model import layers as L

# Shared no-op context for untraced cache writes: generation methods
# accept an optional ``trace`` span factory (the serving engine's tick
# tracer) and must cost nothing when it is absent.
_NULL_CTX = nullcontext()

__all__ = ["ModelConfig", "MixedSegment", "TransformerLM", "init_params",
           "param_count"]


class MixedSegment:
    """One sequence's slice of a mixed prefill+decode forward.

    ``kind`` selects the KV-cache write path:

    * ``DECODE`` — one already-sampled token appended at ``offset``
      (the continuous-batching decode row; ``ids`` has length 1);
    * ``CHUNK`` — a window-aligned slice of a prompt prefill written at
      ``offset`` via :meth:`~repro.quant.kvcache.KVCache.prefill_chunk`;
    * ``CHUNK_FINAL`` — the prompt's last chunk (may be ragged); its
      last-position logits seed the sequence's first sampled token.
    """

    DECODE = "decode"
    CHUNK = "chunk"
    CHUNK_FINAL = "chunk_final"

    __slots__ = ("ids", "caches", "offset", "kind")

    def __init__(self, ids, caches: list, offset: int, kind: str):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError(f"segment ids must be non-empty 1-D, got {ids.shape}")
        if kind not in (self.DECODE, self.CHUNK, self.CHUNK_FINAL):
            raise ValueError(f"unknown segment kind {kind!r}")
        if kind == self.DECODE and ids.size != 1:
            raise ValueError("decode segments carry exactly one token")
        self.ids = ids
        self.caches = caches
        self.offset = int(offset)
        self.kind = kind

    @property
    def wants_logits(self) -> bool:
        return self.kind != self.CHUNK


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters."""

    vocab_size: int = 256
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    max_seq: int = 512
    arch: str = "llama"          # "llama" | "opt"
    rope_base: float = 10000.0
    seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise ValueError("d_model must divide by n_heads")
        if self.arch not in ("llama", "opt"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.arch == "llama" and (self.d_model // self.n_heads) % 2:
            raise ValueError("RoPE needs an even head dimension")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def linear_names(self) -> list[str]:
        """Names of every projection weight, in forward order."""
        names = []
        for i in range(self.n_layers):
            p = f"layers.{i}."
            names += [p + "attn.wq", p + "attn.wk", p + "attn.wv", p + "attn.wo"]
            if self.arch == "llama":
                names += [p + "ffn.wgate", p + "ffn.wup", p + "ffn.wdown"]
            else:
                names += [p + "ffn.w1", p + "ffn.w2"]
        return names


def init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    """Scaled-Gaussian initialisation; deterministic given the seed."""
    rng = np.random.default_rng(config.seed)
    d, f = config.d_model, config.d_ff
    params: dict[str, np.ndarray] = {}

    def w(shape, fan_in):
        return rng.standard_normal(shape) * (1.0 / np.sqrt(fan_in))

    params["embed"] = rng.standard_normal((config.vocab_size, d)) * 0.02
    if config.arch == "opt":
        params["pos_embed"] = rng.standard_normal((config.max_seq, d)) * 0.02
    for i in range(config.n_layers):
        p = f"layers.{i}."
        for name in ("attn.wq", "attn.wk", "attn.wv"):
            params[p + name] = w((d, d), d)
        # Residual-branch outputs scaled down for depth stability.
        params[p + "attn.wo"] = w((d, d), d) / np.sqrt(2 * config.n_layers)
        if config.arch == "llama":
            params[p + "ffn.wgate"] = w((f, d), d)
            params[p + "ffn.wup"] = w((f, d), d)
            params[p + "ffn.wdown"] = w((d, f), f) / np.sqrt(2 * config.n_layers)
            params[p + "norm1.g"] = np.ones(d)
            params[p + "norm2.g"] = np.ones(d)
        else:
            params[p + "ffn.w1"] = w((f, d), d)
            params[p + "ffn.w2"] = w((d, f), f) / np.sqrt(2 * config.n_layers)
            params[p + "norm1.g"] = np.ones(d)
            params[p + "norm1.b"] = np.zeros(d)
            params[p + "norm2.g"] = np.ones(d)
            params[p + "norm2.b"] = np.zeros(d)
    if config.arch == "llama":
        params["norm_f.g"] = np.ones(d)
    else:
        params["norm_f.g"] = np.ones(d)
        params["norm_f.b"] = np.zeros(d)
    return params


def param_count(params: dict[str, np.ndarray]) -> int:
    return int(sum(p.size for p in params.values()))


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _per_slice(act_quant, spans=(), axis=0, row_local=False):
    """The stack's ``q(name, h)``: ``act_quant`` applied to each
    ``[start, end)`` slice of ``h`` along ``axis`` on its own.

    Without ``spans``, or with one, it sees the whole tensor.  Tensor- or
    channel-granularity scales computed across slices would couple the
    sequences sharing a forward, so each sequence keeps its
    single-stream numerics.  A ``row_local`` hook — one whose output
    row depends only on its input row, like a per-token group
    quantizer — sees the whole tensor too: slicing cannot change it.
    """
    if act_quant is None:
        return lambda name, h: h
    if row_local or len(spans) <= 1:
        return act_quant
    index = [(slice(None),) * axis + (slice(s, e),) for s, e in spans]
    return lambda name, h: np.concatenate(
        [act_quant(name, h[i]) for i in index], axis=axis
    )


def _with_int_rows(q, p):
    """Wrap ``q`` so that an input headed for a served MANT weight
    (:class:`~repro.core.fused.MantLevelWeight`) carries its recovered
    INT codes, which :func:`~repro.model.layers.linear_fwd` turns into
    Eq. 5.  Recovered once per quantization point: q/k/v share one
    input, gate/up another."""
    def q_rows(name, h):
        x = q(name, h)
        w = p[name]
        if isinstance(w, MantLevelWeight):
            return recover_int_rows(x, w.group_size, w.act_qmax)
        return x
    return q_rows


class TransformerLM:
    """Stateless model wrapper: params dict in, logits/grads out."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None):
        self.config = config
        self.params = params if params is not None else init_params(config)
        if config.arch == "llama":
            self._cos, self._sin = L.rope_tables(
                config.d_head, config.max_seq, config.rope_base
            )
        else:
            self._cos = self._sin = None

    # ==================================================================
    # Normalisation helpers (arch-dependent)
    # ==================================================================
    def _norm_fwd(self, x, params, prefix):
        if self.config.arch == "llama":
            return L.rmsnorm_fwd(x, params[prefix + ".g"])
        return L.layernorm_fwd(x, params[prefix + ".g"], params[prefix + ".b"])

    # ==================================================================
    # The layer stack every inference face runs through
    # ==================================================================
    def _stack(self, ids, positions, p, q, rope, attend):
        """Embedding → ``n_layers`` pre-norm blocks → final norm.

        ``ids`` is ``(B, T)`` and ``positions`` (absolute, for the OPT
        position table) broadcasts against it.  The faces differ only in
        three strategies: ``q(name, h)`` quantizes the input of
        projection ``name``; ``rope(h)`` rotates ``(B, H, T, d_head)``
        queries and keys (llama only); ``attend(i, qh, kh, vh)`` writes
        layer ``i``'s caches, if any, and returns the attention output
        with heads merged, ``(B, T, d)``.
        """
        cfg = self.config
        x, _ = L.embedding_fwd(ids, p["embed"])
        if cfg.arch == "opt":
            x = x + p["pos_embed"][positions]
        for i in range(cfg.n_layers):
            pre = f"layers.{i}."
            h, _ = self._norm_fwd(x, p, pre + "norm1")
            h_in = q(pre + "attn.wq", h)
            qh, kh, vh = (_split_heads(L.linear_fwd(h_in, p[pre + w])[0], cfg.n_heads)
                          for w in ("attn.wq", "attn.wk", "attn.wv"))
            if cfg.arch == "llama":
                qh, kh = rope(qh), rope(kh)
            att = attend(i, qh, kh, vh)
            o, _ = L.linear_fwd(q(pre + "attn.wo", att), p[pre + "attn.wo"])
            x = x + o

            h2, _ = self._norm_fwd(x, p, pre + "norm2")
            if cfg.arch == "llama":
                h2q = q(pre + "ffn.wgate", h2)
                g, _ = L.linear_fwd(h2q, p[pre + "ffn.wgate"])
                u, _ = L.linear_fwd(h2q, p[pre + "ffn.wup"])
                act, _ = L.silu_fwd(g)
                ff, _ = L.linear_fwd(q(pre + "ffn.wdown", act * u), p[pre + "ffn.wdown"])
            else:
                a1, _ = L.linear_fwd(q(pre + "ffn.w1", h2), p[pre + "ffn.w1"])
                act, _ = L.relu_fwd(a1)
                ff, _ = L.linear_fwd(q(pre + "ffn.w2", act), p[pre + "ffn.w2"])
            x = x + ff
        return self._norm_fwd(x, p, "norm_f")[0]

    # ==================================================================
    # Inference faces (with quantization hooks)
    # ==================================================================
    def forward_logits(
        self,
        ids: np.ndarray,
        weights: dict[str, np.ndarray] | None = None,
        act_quant=None,
        kv_quant=None,
    ) -> np.ndarray:
        """Teacher-forced full-sequence logits ``(B, T, V)``.

        ``kv_quant(layer_idx, q, k, v) -> (q, k, v)`` intercepts the
        per-layer attention operands ``(B, H, T, d_head)`` —
        prefill-style KV cache quantization plus the 8-bit attention
        activation path (what the Wikitext rows of Tbl. II measure).
        ``act_quant`` sees each projection input whole.
        """
        p = self.params if weights is None else weights
        ids = np.atleast_2d(ids)

        def attend(i, qh, kh, vh):
            if kv_quant is not None:
                qh, kh, vh = kv_quant(i, qh, kh, vh)
            return _merge_heads(L.causal_attention_fwd(qh, kh, vh)[0])

        xf = self._stack(ids, np.arange(ids.shape[1]), p, _per_slice(act_quant),
                         lambda h: L.apply_rope(h, self._cos, self._sin), attend)
        return xf @ p["embed"].T

    def prefill(self, ids: np.ndarray, caches: list, weights=None, act_quant=None) -> np.ndarray:
        """Run the prompt into one fresh KVCache per layer.

        ``ids``: 1-D prompt.  Returns logits of the last position (V,).
        One :meth:`prefill_chunk` of the whole prompt: caches receive
        per-head ``(H, T, d_head)`` tensors through
        :meth:`~repro.quant.kvcache.KVCache.prefill_chunk`, which for a
        single final chunk is bit-identical to a plain ``prefill``.
        """
        return self.prefill_chunk(ids, caches, 0, final=True,
                                  weights=weights, act_quant=act_quant)

    def decode_step(self, token: int, caches: list, pos: int, weights=None, act_quant=None) -> np.ndarray:
        """One decode iteration: append to caches, return logits (V,)."""
        return self.forward_mixed(
            [MixedSegment([token], caches, pos, MixedSegment.DECODE)],
            weights=weights, act_quant=act_quant,
        )[0]

    def decode_step_batch(
        self,
        tokens,
        caches_per_seq: list[list],
        positions,
        weights=None,
        act_quant=None,
        trace=None,
    ) -> np.ndarray:
        """One fused decode step for ``B`` independent sequences.

        ``tokens``: length-``B`` ints (the token each sequence feeds in);
        ``caches_per_seq``: per-sequence lists of per-layer KV caches;
        ``positions``: length-``B`` absolute positions of those tokens.
        Returns logits ``(B, V)``, row ``b`` bit-identical to
        :meth:`decode_step` of sequence ``b`` alone: this is
        :meth:`forward_mixed` over ``B`` decode segments, which takes
        the per-row layout described there.
        """
        if not (len(tokens) == len(caches_per_seq) == len(positions)):
            raise ValueError("tokens, caches_per_seq and positions must align")
        return np.stack(self.forward_mixed(
            [MixedSegment([tok], caches, pos, MixedSegment.DECODE)
             for tok, caches, pos in zip(tokens, caches_per_seq, positions)],
            weights=weights, act_quant=act_quant, trace=trace,
        ))

    def prefill_chunk(self, ids, caches, offset=0, final=False,
                      weights=None, act_quant=None):
        """Run one window-aligned prompt chunk at ``offset`` into ``caches``.

        The single-sequence face of :meth:`forward_mixed`: chunk tokens
        attend to everything already in the caches plus themselves
        (causally), and the caches extend via
        :meth:`~repro.quant.kvcache.KVCache.prefill_chunk`, so feeding a
        prompt chunk by chunk (``final=True`` on the last call) leaves
        the caches bit-identical to one :meth:`prefill`.  Returns the
        chunk's last-position logits ``(V,)`` when ``final``, else
        ``None``.
        """
        kind = MixedSegment.CHUNK_FINAL if final else MixedSegment.CHUNK
        return self.forward_mixed(
            [MixedSegment(ids, caches, offset, kind)],
            weights=weights, act_quant=act_quant,
        )[0]

    def forward_mixed(self, segments, weights=None, act_quant=None,
                      trace=None, act_row_local=None):
        """The cached forward: decode rows *and* prefill chunks in one pass.

        ``segments`` is a list of :class:`MixedSegment`s — any mix of
        single-token decode rows and multi-token prompt chunks, each
        with its own per-layer caches and absolute ``offset``.  Every
        cached face (:meth:`prefill`, :meth:`prefill_chunk`,
        :meth:`decode_step`, :meth:`decode_step_batch`) is a call of
        this method.  Returns one entry per segment: last-position
        logits ``(V,)`` for decode rows and final chunks, ``None`` for
        non-final chunks (their logits are never sampled, so the
        vocabulary projection skips them).

        The operand layout follows the segments:

        * **All decode rows** — per-row ``(B, 1, d)``.  Each projection
          input headed for a served MANT weight
          (:class:`~repro.core.fused.MantLevelWeight`, what
          :func:`~repro.model.quantized.build_ptq` pairs with its
          group-INT activation quantizer) gets its INT codes recovered,
          and :func:`~repro.model.layers.linear_fwd` runs the paper's
          Eq. 5 on it: exact float32 integer partial sums per group,
          scaled after accumulation in a fixed order.  Rows off the INT
          grid (no ``act_quant``, another quantizer) and raw weights,
          the vocabulary projection included, run one float64 GEMV per
          row.  Either way row ``b`` is bit-identical to the
          single-sequence step whatever rows share the call — the
          invariant the serving engine's greedy equivalence rests on.
          Never flatten the rows to one ``(B, d)`` float64 GEMM: a GEMM
          sums in another order and moves rows in the last ulp.
        * **Any prompt chunk** — all segments packed along one time axis
          ``(1, T, d)``, so every dense op runs once for the whole tick,
          on the dense weights.  BLAS kernels are not bitwise invariant
          to row count, so packed output is token-identical
          (quantization grids absorb ulp noise), not
          logits-bitwise-identical, to unpacked runs.

        Either way RoPE gathers each token's own rotation row, decode
        rows fuse their cache appends through ``append_batch``, chunks
        extend their caches with ``prefill_chunk``, and attention walks
        each segment's own cache at its ragged position through
        :func:`~repro.model.layers.cached_attention_fwd`.  Per-token
        cache quantization is exactly the single-sequence math.

        ``act_quant`` is applied per segment: tensor- or
        channel-granularity scales computed across segments would couple
        sequences.  A chunked prefill is therefore quantized per chunk,
        which is exact for the per-token group-wise quantizers serving
        uses.  A hook that declares itself row-local
        (``act_quant.row_local``, as :func:`~repro.model.quantized.
        build_ptq`'s group quantizers do) is called once per projection
        input instead.  ``act_row_local``, when not None, overrides that
        declaration: the serving engine reads it once, where the hook
        enters the engine, so a hook wrapped later keeps the program.
        ``trace``, when given, is a span factory
        (``trace("append")`` returns a context manager) timing the
        per-layer cache writes — the serving engine's tick tracer plugs
        in here.
        """
        if not segments:
            return []
        p = self.params if weights is None else weights
        spans = []                                   # [start, end) per segment
        start = 0
        for seg in segments:
            spans.append((start, start + seg.ids.size))
            start += seg.ids.size
        ids = np.concatenate([seg.ids for seg in segments])
        positions = np.concatenate(
            [seg.offset + np.arange(seg.ids.size, dtype=np.int64) for seg in segments]
        )
        decode = [j for j, seg in enumerate(segments) if seg.kind == MixedSegment.DECODE]
        decode_starts = [spans[j][0] for j in decode]
        rows = len(decode) == len(segments)

        def rope(h):
            if rows:
                return L.apply_rope_at(h, self._cos, self._sin, positions)
            return L.apply_rope_ragged(h, self._cos, self._sin, positions)

        def attend(i, qh, kh, vh):
            caches = [seg.caches[i] for seg in segments]
            if rows:                                 # (B, H, 1, dh)
                q_seg, k_dec, v_dec = list(qh), kh[:, :, 0, :], vh[:, :, 0, :]
            else:                                    # (1, H, T, dh)
                qh, kh, vh = qh[0], kh[0], vh[0]
                q_seg = [qh[:, s:e, :] for s, e in spans]
                k_dec = kh[:, decode_starts, :].transpose(1, 0, 2)
                v_dec = vh[:, decode_starts, :].transpose(1, 0, 2)
            with _NULL_CTX if trace is None else trace("append"):
                if decode:                           # one fused append for every row
                    dec = [caches[j] for j in decode]
                    type(dec[0]).append_batch(dec, k_dec, v_dec)
                for seg, cache, (s, e) in zip(segments, caches, spans):
                    if seg.kind != MixedSegment.DECODE:
                        cache.prefill_chunk(kh[:, s:e, :], vh[:, s:e, :],
                                            final=seg.kind == MixedSegment.CHUNK_FINAL)
            att = [L.cached_attention_fwd(qs, cache.keys(), cache.values(), offset=seg.offset)
                   for qs, cache, seg in zip(q_seg, caches, segments)]
            return _merge_heads(np.stack(att) if rows else np.concatenate(att, axis=1)[None])

        if act_row_local is None:
            act_row_local = getattr(act_quant, "row_local", False)
        q = _per_slice(act_quant, spans, 0 if rows else 1, act_row_local)
        if rows and act_quant is not None:
            q = _with_int_rows(q, p)
        layout = (-1, 1) if rows else (1, -1)
        xf = self._stack(ids.reshape(layout), positions.reshape(layout), p,
                         q, rope, attend)
        if rows:
            logits, _ = L.linear_fwd(xf, p["embed"])          # (B, 1, V)
            return list(logits[:, 0])
        # Vocabulary projection only for rows something will sample.
        need = [j for j, seg in enumerate(segments) if seg.wants_logits]
        logits, _ = L.linear_fwd(xf[0, [spans[j][1] - 1 for j in need]], p["embed"])
        out: list = [None] * len(segments)
        for r, j in enumerate(need):
            out[j] = logits[r]
        return out

    # ==================================================================
    # Training: loss + full gradients
    # ==================================================================
    def loss_and_grads(self, ids: np.ndarray, targets: np.ndarray):
        """Mean next-token NLL and gradients for every parameter."""
        cfg = self.config
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        tapes = []

        x, emb_cache = L.embedding_fwd(ids, p["embed"])
        if cfg.arch == "opt":
            x = x + p["pos_embed"][: ids.shape[1]]

        for i in range(cfg.n_layers):
            pre = f"layers.{i}."
            tape: dict = {}
            h, tape["n1"] = self._norm_fwd(x, p, pre + "norm1")
            qp, tape["wq"] = L.linear_fwd(h, p[pre + "attn.wq"])
            kp, tape["wk"] = L.linear_fwd(h, p[pre + "attn.wk"])
            vp, tape["wv"] = L.linear_fwd(h, p[pre + "attn.wv"])
            qh = _split_heads(qp, cfg.n_heads)
            kh = _split_heads(kp, cfg.n_heads)
            vh = _split_heads(vp, cfg.n_heads)
            if cfg.arch == "llama":
                qh, tape["rope_q"] = L.rope_fwd(qh, self._cos, self._sin)
                kh, tape["rope_k"] = L.rope_fwd(kh, self._cos, self._sin)
            att, tape["attn"] = L.causal_attention_fwd(qh, kh, vh)
            att_m = _merge_heads(att)
            o, tape["wo"] = L.linear_fwd(att_m, p[pre + "attn.wo"])
            x = x + o

            h2, tape["n2"] = self._norm_fwd(x, p, pre + "norm2")
            if cfg.arch == "llama":
                g, tape["wgate"] = L.linear_fwd(h2, p[pre + "ffn.wgate"])
                u, tape["wup"] = L.linear_fwd(h2, p[pre + "ffn.wup"])
                act, tape["silu"] = L.silu_fwd(g)
                gated = act * u
                tape["gate_mul"] = (act, u)
                ff, tape["wdown"] = L.linear_fwd(gated, p[pre + "ffn.wdown"])
            else:
                a1, tape["w1"] = L.linear_fwd(h2, p[pre + "ffn.w1"])
                act, tape["relu"] = L.relu_fwd(a1)
                ff, tape["w2"] = L.linear_fwd(act, p[pre + "ffn.w2"])
            x = x + ff
            tapes.append(tape)

        xf, nf_cache = self._norm_fwd(x, p, "norm_f")
        logits = xf @ p["embed"].T
        loss, ce_cache = L.cross_entropy_fwd(logits, targets)

        # ----------------------------- backward -----------------------
        dlogits = L.cross_entropy_bwd(ce_cache)
        dxf = dlogits @ p["embed"]
        grads["embed"] += dlogits.reshape(-1, dlogits.shape[-1]).T @ xf.reshape(
            -1, xf.shape[-1]
        )
        if cfg.arch == "llama":
            dx, dg = L.rmsnorm_bwd(dxf, nf_cache)
            grads["norm_f.g"] += dg
        else:
            dx, dg, db = L.layernorm_bwd(dxf, nf_cache)
            grads["norm_f.g"] += dg
            grads["norm_f.b"] += db

        for i in reversed(range(cfg.n_layers)):
            pre = f"layers.{i}."
            tape = tapes[i]
            # FFN branch
            if cfg.arch == "llama":
                dgated, dwdown = L.linear_bwd(dx, tape["wdown"])
                grads[pre + "ffn.wdown"] += dwdown
                act, u = tape["gate_mul"]
                dact = dgated * u
                du = dgated * act
                dg_ = L.silu_bwd(dact, tape["silu"])
                dh2a, dwgate = L.linear_bwd(dg_, tape["wgate"])
                dh2b, dwup = L.linear_bwd(du, tape["wup"])
                grads[pre + "ffn.wgate"] += dwgate
                grads[pre + "ffn.wup"] += dwup
                dh2 = dh2a + dh2b
                dxn, dgain = L.rmsnorm_bwd(dh2, tape["n2"])
                grads[pre + "norm2.g"] += dgain
            else:
                dact, dw2 = L.linear_bwd(dx, tape["w2"])
                grads[pre + "ffn.w2"] += dw2
                da1 = L.relu_bwd(dact, tape["relu"])
                dh2, dw1 = L.linear_bwd(da1, tape["w1"])
                grads[pre + "ffn.w1"] += dw1
                dxn, dgain, dbias = L.layernorm_bwd(dh2, tape["n2"])
                grads[pre + "norm2.g"] += dgain
                grads[pre + "norm2.b"] += dbias
            dx = dx + dxn

            # Attention branch
            datt_m, dwo = L.linear_bwd(dx, tape["wo"])
            grads[pre + "attn.wo"] += dwo
            b, t, _ = datt_m.shape
            datt = _split_heads(datt_m, cfg.n_heads)
            dqh, dkh, dvh = L.causal_attention_bwd(datt, tape["attn"])
            if cfg.arch == "llama":
                dqh = L.rope_bwd(dqh, tape["rope_q"])
                dkh = L.rope_bwd(dkh, tape["rope_k"])
            dqp = _merge_heads(dqh)
            dkp = _merge_heads(dkh)
            dvp = _merge_heads(dvh)
            dh_q, dwq = L.linear_bwd(dqp, tape["wq"])
            dh_k, dwk = L.linear_bwd(dkp, tape["wk"])
            dh_v, dwv = L.linear_bwd(dvp, tape["wv"])
            grads[pre + "attn.wq"] += dwq
            grads[pre + "attn.wk"] += dwk
            grads[pre + "attn.wv"] += dwv
            dh = dh_q + dh_k + dh_v
            if cfg.arch == "llama":
                dxn, dgain = L.rmsnorm_bwd(dh, tape["n1"])
                grads[pre + "norm1.g"] += dgain
            else:
                dxn, dgain, dbias = L.layernorm_bwd(dh, tape["n1"])
                grads[pre + "norm1.g"] += dgain
                grads[pre + "norm1.b"] += dbias
            dx = dx + dxn

        if cfg.arch == "opt":
            grads["pos_embed"][: ids.shape[1]] += dx.sum(axis=0)
        grads["embed"] += L.embedding_bwd(dx, emb_cache)
        return loss, grads

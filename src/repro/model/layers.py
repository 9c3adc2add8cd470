"""Functional neural-network layers with manual backprop (pure numpy).

Each op comes as a ``*_fwd`` returning ``(output, cache)`` and a
``*_bwd`` consuming ``(grad_output, cache)``.  Shapes follow the
(batch, time, feature) convention; weights are stored ``(out_features,
in_features)`` like ``torch.nn.Linear``, which is also the layout the
quantizers expect (groups along ``in_features``, the accumulation dim).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TILE_BYTES",
    "linear_fwd", "linear_bwd",
    "embedding_fwd", "embedding_bwd",
    "rmsnorm_fwd", "rmsnorm_bwd",
    "layernorm_fwd", "layernorm_bwd",
    "rope_tables", "rope_fwd", "rope_bwd", "apply_rope", "apply_rope_at",
    "apply_rope_ragged",
    "silu_fwd", "silu_bwd",
    "relu_fwd", "relu_bwd",
    "causal_attention_fwd", "causal_attention_bwd", "cached_attention_fwd",
    "softmax", "cross_entropy_fwd", "cross_entropy_bwd",
]


# ----------------------------------------------------------------------
# Linear / embedding
# ----------------------------------------------------------------------
# Decode batches read a weight larger than this many bytes in tiles of
# output rows of about this size: small enough to stay in a core's L2
# cache while every row of the batch reads it (see :func:`linear_fwd`).
TILE_BYTES = 512 * 1024


def linear_fwd(x: np.ndarray, w: np.ndarray):
    """``y = x @ w.T`` for ``x (..., in)`` and ``w (out, in)``.

    Weight-stationary decode: for a batch ``x (B, 1, in)`` with ``B > 1``
    and a C-ordered ``w`` above :data:`TILE_BYTES`, ``y`` is computed in
    tiles of output rows, ``y[..., o:e] = x @ w[o:e].T``.  Each tile is
    read from memory once and the other ``B - 1`` rows find it in cache;
    untiled, every row streams the whole weight.  ``x`` keeps its
    ``(B, 1, in)`` shape, so numpy still runs one GEMV per row and each
    output stays the same dot product over the full input.  Row ``b``
    is therefore bitwise equal to ``x[b] @ w.T``, which rests on a GEMV
    output not depending on how many outputs share the call
    (``tests/test_model_layers.py`` checks it).  For that, tiles start on
    multiples of 16 rows, so every output stays in the same BLAS column
    block, and no tile is a single row, which numpy would run as a dot
    product.  A multi-threaded BLAS also splits the untiled call's
    outputs across threads; those splits must fall on such blocks too
    (they do for the model widths here on two threads, and always with
    one thread, as the serving benchmark runs).  Flattening the batch to
    one ``(B, in)`` GEMM would also read the weight once, but a GEMM
    sums in another order and moves rows in the last ulp.

    Every other shape — prefill and packed ``(1, T, in)``, single-stream
    ``(1, 1, in)``, 2-D inputs, training — and F-ordered or smaller
    weights take ``x @ w.T``.
    """
    if (x.ndim == 3 and x.shape[0] > 1 and x.shape[1] == 1
            and w.flags.c_contiguous and w.nbytes > TILE_BYTES):
        out = w.shape[0]
        rows = max(16, TILE_BYTES // w[0].nbytes // 16 * 16)
        starts = list(range(0, out, rows))
        if out - starts[-1] == 1:
            starts.pop()
        if len(starts) > 1:
            y = np.empty((x.shape[0], 1, out), dtype=np.result_type(x, w))
            for o, e in zip(starts, starts[1:] + [out]):
                y[..., o:e] = x @ w[o:e].T
            return y, (x, w)
    return x @ w.T, (x, w)


def linear_bwd(dy: np.ndarray, cache):
    x, w = cache
    dx = dy @ w
    dw = dy.reshape(-1, dy.shape[-1]).T @ x.reshape(-1, x.shape[-1])
    return dx, dw


def embedding_fwd(ids: np.ndarray, table: np.ndarray):
    return table[ids], (ids, table.shape)


def embedding_bwd(dy: np.ndarray, cache):
    ids, shape = cache
    dtable = np.zeros(shape)
    np.add.at(dtable, ids.ravel(), dy.reshape(-1, dy.shape[-1]))
    return dtable


# ----------------------------------------------------------------------
# Normalisation
# ----------------------------------------------------------------------
def rmsnorm_fwd(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6):
    """LLaMA-style RMSNorm: ``y = gain * x / rms(x)``."""
    ms = np.mean(x * x, axis=-1, keepdims=True)
    r = 1.0 / np.sqrt(ms + eps)
    xhat = x * r
    return xhat * gain, (x, xhat, r, gain)


def rmsnorm_bwd(dy: np.ndarray, cache):
    x, xhat, r, gain = cache
    dgain = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    # d/dx of x * (mean(x^2)+eps)^(-1/2):
    #   dx = r * (dxhat - xhat * mean(dxhat * xhat))
    dx = r * (dxhat - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True))
    return dx, dgain


def layernorm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """OPT-style LayerNorm with learned gain and bias."""
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    r = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * r
    return xhat * gain + bias, (xhat, r, gain)


def layernorm_bwd(dy: np.ndarray, cache):
    xhat, r, gain = cache
    d = xhat.shape[-1]
    reduce_axes = tuple(range(dy.ndim - 1))
    dgain = np.sum(dy * xhat, axis=reduce_axes)
    dbias = np.sum(dy, axis=reduce_axes)
    dxhat = dy * gain
    dx = (
        dxhat
        - np.mean(dxhat, axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    ) * r
    return dx, dgain, dbias


# ----------------------------------------------------------------------
# Rotary position embeddings (half-split convention, as in LLaMA)
# ----------------------------------------------------------------------
def rope_tables(d_head: int, max_seq: int, base: float = 10000.0):
    """Precompute (cos, sin) of shape ``(max_seq, d_head // 2)``."""
    half = d_head // 2
    inv_freq = base ** (-np.arange(0, half) / half)
    angles = np.arange(max_seq)[:, None] * inv_freq[None, :]
    return np.cos(angles), np.sin(angles)


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, offset: int = 0):
    """Rotate ``x (..., T, d_head)`` pairs ``(x1, x2) = split-half``.

    Constant within each rotation pair, so scaling both halves of a pair
    by the same factor commutes with RoPE — the property the
    outlier-injection pass in :mod:`repro.model.outliers` relies on.
    """
    t = x.shape[-2]
    c = cos[offset : offset + t]
    s = sin[offset : offset + t]
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)


def apply_rope_at(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, positions: np.ndarray):
    """Rotate single-token ``x (B, H, 1, d_head)`` at absolute ``positions (B,)``.

    The batched-decode counterpart of :func:`apply_rope`: each sequence
    in the batch sits at its own position, so the rotation row is
    gathered per sequence instead of sliced from a common offset.
    Elementwise ops match :func:`apply_rope` exactly, so a batch row
    equals the single-stream rotation at the same position.
    """
    positions = np.asarray(positions)
    c = cos[positions][:, None, None, :]        # (B, 1, 1, half)
    s = sin[positions][:, None, None, :]
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)


def apply_rope_ragged(x: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                      positions: np.ndarray):
    """Rotate ``x (..., T, d_head)`` where token ``j`` sits at ``positions[j]``.

    The mixed prefill+decode tick packs segments of many sequences along
    the T axis, so positions are arbitrary per token instead of one
    contiguous ``offset`` run.  The rotation rows are gathered from the
    tables and the elementwise ops match :func:`apply_rope` exactly, so
    each packed token equals its single-sequence rotation bit for bit.
    """
    positions = np.asarray(positions)
    c = cos[positions]                          # (T, half)
    s = sin[positions]
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)


def rope_fwd(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, offset: int = 0):
    return apply_rope(x, cos, sin, offset), (cos, sin, offset, x.shape[-2])


def rope_bwd(dy: np.ndarray, cache):
    cos, sin, offset, t = cache
    # Rotation is orthogonal: the gradient rotates by the inverse angle.
    c = cos[offset : offset + t]
    s = sin[offset : offset + t]
    half = dy.shape[-1] // 2
    d1, d2 = dy[..., :half], dy[..., half:]
    return np.concatenate([d1 * c + d2 * s, -d1 * s + d2 * c], axis=-1)


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
def silu_fwd(x: np.ndarray):
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, (x, sig)


def silu_bwd(dy: np.ndarray, cache):
    x, sig = cache
    return dy * (sig + x * sig * (1.0 - sig))


def relu_fwd(x: np.ndarray):
    return np.maximum(x, 0.0), (x > 0)


def relu_bwd(dy: np.ndarray, cache):
    return dy * cache


# ----------------------------------------------------------------------
# Attention core
# ----------------------------------------------------------------------
def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def causal_attention_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Scaled dot-product attention with a causal mask.

    ``q, k, v``: ``(B, H, T, d_head)``.  Returns output and the cache
    needed for the backward pass (attention probabilities are kept).
    """
    d_head = q.shape[-1]
    t = q.shape[-2]
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(d_head)
    mask = np.triu(np.full((t, t), -np.inf), k=1)
    scores = scores + mask
    probs = softmax(scores, axis=-1)
    out = probs @ v
    return out, (q, k, v, probs)


def cached_attention_fwd(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
                         offset: int = 0) -> np.ndarray:
    """Attention of ``q (H, t, d_head)`` against cached ``(H, S, d_head)``.

    Query ``j`` sits at absolute position ``offset + j`` and attends to
    cache entries at positions ``<= offset + j``.  This is the decode
    path both the single-stream and the batched generation loops share,
    which is what makes batched greedy decoding token-for-token
    identical to the one-sequence loop.

    ``keys``/``values`` may also be paged views over non-contiguous
    KV-cache pages (anything exposing ``gather()``, see
    :class:`repro.serve.paging.PagedView`); they are materialized here
    — duck-typed so this model layer needs no serving import — and the
    attention math below runs on the gathered array, making paged
    logits bit-identical to the contiguous-cache path.
    """
    if hasattr(keys, "gather"):
        keys = keys.gather()
    if hasattr(values, "gather"):
        values = values.gather()
    d_head = q.shape[-1]
    t = q.shape[-2]
    s = keys.shape[-2]
    scores = q @ np.swapaxes(keys, -1, -2) / np.sqrt(d_head)
    qpos = offset + np.arange(t)[:, None]
    kpos = np.arange(s)[None, :]
    scores = np.where(kpos <= qpos, scores, -np.inf)
    probs = softmax(scores, axis=-1)
    return probs @ values


def causal_attention_bwd(dout: np.ndarray, cache):
    q, k, v, probs = cache
    d_head = q.shape[-1]
    dv = np.swapaxes(probs, -1, -2) @ dout
    dprobs = dout @ np.swapaxes(v, -1, -2)
    dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
    dscores = dscores / np.sqrt(d_head)
    dq = dscores @ k
    dk = np.swapaxes(dscores, -1, -2) @ q
    return dq, dk, dv


# ----------------------------------------------------------------------
# Loss
# ----------------------------------------------------------------------
def cross_entropy_fwd(logits: np.ndarray, targets: np.ndarray):
    """Mean token NLL. ``logits (B, T, V)``, ``targets (B, T)`` int."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(z), axis=-1))
    b, t = targets.shape
    picked = z[np.arange(b)[:, None], np.arange(t)[None, :], targets]
    nll = logsumexp - picked
    loss = float(np.mean(nll))
    return loss, (z, targets)


def cross_entropy_bwd(cache):
    z, targets = cache
    b, t, _ = z.shape
    probs = np.exp(z) / np.sum(np.exp(z), axis=-1, keepdims=True)
    probs[np.arange(b)[:, None], np.arange(t)[None, :], targets] -= 1.0
    return probs / (b * t)

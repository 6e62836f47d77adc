"""Dense float64 numeric primitives shared by the target model, draft model and trainer.

Everything here is a pure function over immutable inputs.  All arrays are
float64; outputs are freshly allocated.  Reductions go through numpy on the
same shapes for every caller, so repeated runs are bit-identical.

The models forward many rows at once (a whole verification tree, a draft
tree level, a backlog of committed tokens) with the row helpers below, and
each row comes out bit for bit as it would alone.  Three rules make that
hold: linear layers run one matrix-vector product per row (``row_linear``;
a GEMM would block its sums differently), row-wise reductions run along
the contiguous last axis, where numpy sums every row as it would sum a
vector, and attention gathers each row's context in its sequential key
order and only batches rows of equal context length (``context_groups``,
``attn_row``), so every softmax reduces the same values in the same order.
"""

from __future__ import annotations

import numpy as np

LOG_CLAMP = 1e-12
PROB_SUM_TOL = 1e-9


def as_f64(x) -> np.ndarray:
    """Coerce to a float64 ndarray without copying when already one."""
    return np.asarray(x, dtype=np.float64)


def check_finite(x: np.ndarray, what: str = "value") -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite {what}")


def check_prob_vec(p: np.ndarray, what: str = "probability vector") -> None:
    """Validate a probability vector: finite, nonnegative, sums to 1 within tolerance."""
    p = as_f64(p)
    check_finite(p, what)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{what} must be a non-empty vector")
    if np.any(p < 0.0):
        raise ValueError(f"{what} has negative entries")
    s = float(np.sum(p))
    if abs(s - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{what} sums to {s!r}, expected 1 within {PROB_SUM_TOL}")


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over a vector of logits.

    Max-subtracted for stability; argmax (first-index tie break) is preserved
    for every temperature > 0.  A matrix is normalised row by row along its
    last axis, each row exactly as the vector alone.
    """
    z = as_f64(logits)
    if z.ndim == 0 or z.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logit")
    if not temperature > 0.0:
        raise ValueError("temperature must be > 0")
    z = z / temperature
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attn_row(q: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention of query rows against their own contexts.

    q is (..., dh) and keys/values are (..., n, dh): one query (a vector and
    an (n, dh) context) or a stack of them, such as a group of rows with
    their heads fused, (g, heads, dh) against (g, heads, n, dh).  The scores
    and the mix run as one matrix-vector product per query and the softmax
    along each score row, so every query gets the bits it would get alone.
    """
    scores = (keys @ q[..., None])[..., 0] / np.sqrt(float(keys.shape[-1]))
    w = softmax(scores)
    return (w[..., None, :] @ values)[..., 0, :]


def row_linear(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w applied to every row of x: row i is bit-identical to ``w @ x[i]``.

    A plain ``x @ w.T`` is one GEMM, whose blocked sums differ from the
    matrix-vector product in the last bits; the stacked form runs one
    matrix-vector product per row instead.
    """
    if x.shape[0] == 1:
        return (w @ x[0])[None]
    return (x[:, None, :] @ w.T)[:, 0]


# Rows x context entries gathered at once by one attention group: bounds the
# (rows, ctx, dim) working set of large trees to a few hundred kilobytes.
MAX_GATHER = 2048


def context_groups(mask: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows of a boolean (rows, columns) context mask, grouped for attention.

    Returns (rows, idx) pairs: the rows of one group share a context length
    n, and idx[r] holds row rows[r]'s n context columns in ascending order,
    which is the order a sequential decode appends keys in.  Groups are cut
    to at most MAX_GATHER rows x columns.
    """
    if mask.shape[0] == 1:
        return [(slice(None), np.flatnonzero(mask[0])[None])]
    lengths = mask.sum(axis=1)
    groups = []
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        idx = np.nonzero(mask[rows])[1].reshape(rows.size, n)
        step = max(1, MAX_GATHER // int(n))
        for s in range(0, rows.size, step):
            groups.append((rows[s : s + step], idx[s : s + step]))
    return groups


# context_groups of a single row that attends to every column in order
SINGLE_ROW = [(slice(None), None)]


def context_heads(kv: np.ndarray, idx: np.ndarray | None, n_heads: int) -> np.ndarray:
    """Gather (g, n_heads, n, dh) per-head contexts of a group from kv (columns, dim).

    idx None stands for a single row whose context is every column of kv in
    order, which needs no gather.
    """
    ctx = kv[None] if idx is None else kv[idx]
    g, n, d = ctx.shape
    return ctx.reshape(g, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def masked_attention(q, k, v, mask) -> np.ndarray:
    """Row-wise masked attention: row i attends only to positions j with mask[i][j].

    mask must allow the diagonal; a row with no allowed positions is an error.
    """
    q = as_f64(q)
    k = as_f64(k)
    v = as_f64(v)
    m = np.asarray(mask, dtype=bool)
    n = q.shape[0]
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("q, k, v must be matrices")
    if not (k.shape[0] == n and v.shape[0] == n and m.shape == (n, n)):
        raise ValueError("dimension mismatch between q, k, v and mask")
    if q.shape[1] != k.shape[1]:
        raise ValueError("q and k width mismatch")
    if not np.all(np.diagonal(m)):
        raise ValueError("mask must allow self-attention on the diagonal")
    out = np.empty((n, v.shape[1]), dtype=np.float64)
    for i in range(n):
        idx = np.flatnonzero(m[i])
        if idx.size == 0:
            raise ValueError(f"row {i} has no allowed positions")
        out[i] = attn_row(q[i], k[idx], v[idx])
    return out


def smooth_l1(pred, target, beta: float = 1.0) -> float:
    """Mean-reduced smooth L1: quadratic inside |diff| < beta, linear outside."""
    p = as_f64(pred)
    t = as_f64(target)
    if p.shape != t.shape:
        raise ValueError("length mismatch")
    if not beta > 0.0:
        raise ValueError("beta must be > 0")
    d = np.abs(p - t)
    per = np.where(d < beta, 0.5 * d * d / beta, d - 0.5 * beta)
    return float(np.mean(per))


def smooth_l1_grad(pred: np.ndarray, target: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """d smooth_l1 / d pred, same mean reduction as smooth_l1."""
    d = pred - target
    g = np.where(np.abs(d) < beta, d / beta, np.sign(d))
    return g / d.size


def cross_entropy(p_target, q_pred) -> float:
    """Cross entropy -sum(p * log q) with q clamped below at LOG_CLAMP."""
    p = as_f64(p_target)
    q = as_f64(q_pred)
    if p.shape != q.shape:
        raise ValueError("length mismatch")
    return float(-np.sum(p * np.log(np.maximum(q, LOG_CLAMP))))


def sinusoid_position(pos: int, dim: int) -> np.ndarray:
    """Classic fixed sinusoidal positional encoding for one position."""
    enc = np.empty(dim, dtype=np.float64)
    half = dim // 2
    i = np.arange(half, dtype=np.float64)
    freq = np.exp(-np.log(10000.0) * (2.0 * i / dim))
    enc[0::2] = np.sin(pos * freq)
    enc[1::2] = np.cos(pos * freq)
    if dim % 2 == 1:
        enc[-1] = np.sin(pos * np.exp(-np.log(10000.0)))
    return enc


def sinusoid_positions(positions, dim: int) -> np.ndarray:
    """(len(positions), dim) stack of ``sinusoid_position`` rows, each
    distinct position encoded once."""
    if len(positions) == 1:
        return sinusoid_position(int(positions[0]), dim)[None]
    uniq, inv = np.unique(np.asarray(positions, dtype=np.int64), return_inverse=True)
    return np.stack([sinusoid_position(int(p), dim) for p in uniq])[inv]


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def inverse_cdf_sample(probs: np.ndarray, u: float) -> int:
    """Draw an index from a probability vector by inverse CDF in index order."""
    c = 0.0
    last = probs.shape[0] - 1
    for i in range(probs.shape[0]):
        c += float(probs[i])
        if u < c:
            return i
    return last

"""Dense float64 numeric primitives shared by the target model, draft model and trainer.

Everything here is a pure function over immutable inputs.  All arrays are
float64; outputs are freshly allocated.  Reductions go through numpy on the
same shapes for every caller, so repeated runs are bit-identical.  The one
piece of state is a memo: ``sinusoid_positions`` gathers rows from a table
of ``sinusoid_position`` rows per width, built once and doubled when a
position runs past its end, so no pass recomputes an encoding.

The models forward many rows at once (a whole verification tree, a draft
tree level, a backlog of committed tokens) with the row helpers below, and
each row comes out bit for bit as it would alone.  Three rules make that
hold: linear layers run one matrix-vector product per row (``row_linear``;
a GEMM would block its sums differently), row-wise reductions run along
the contiguous last axis, where numpy sums every row as it would sum a
vector, and attention reads each row's context in its sequential key order
with the same strides whichever way it is formed and only batches rows of
equal context length (``attn_row``), so every softmax reduces the same
values in the same order.

Weights are stored fused to save calls.  Each model keeps q, k and v as
one (3 dim, dim) weight, the three stacked by rows, and projects them with
one ``row_linear``.  Its outputs equal three separate projections' bit for
bit when dim is a multiple of 4 (16 and 32 among them), since OpenBLAS's
gemv blocks a matrix's rows by 4; at other widths they differ in the last
bits, but every pass of a model shares the fused projection, so a tree path
still reproduces sequential decoding.  The draft stores its experts' weights
stacked along a leading expert axis and runs them as stacked matmuls,
(experts, 1, out, in) @ (experts, rows, in, 1): each entry is one expert's
own matrix-vector product, the same bits at every width.

A pass writes its own key/value rows into its cache's buffer past the
committed rows and reads every context from that buffer.  In a causal pass
(a decode step, a prompt prefill, a chain verify, a draft chain level) row
i attends to the first c+i+1 buffer rows, which it reads in place as a
slice.  Tree rows of one depth share one context length, so a branching
draft tree level is one group gathered from the rows' ancestor chains
(``chain_group``) and each depth of a verified tree one group extending the
depth before it (``target.tree_groups``).  No model pass builds a mask.

Importing this module pins glibc's malloc thresholds once for the process
(``_pin_malloc_thresholds``).  A tree verify gathers each attention group's
keys and values into fresh blocks of up to 512 KiB and frees them, and
every pass does so with its ``(rows, 4 * dim)`` MLP temporaries.  With
glibc's dynamic thresholds those frees trim the heap top, and the next pass
faults the same pages back in: a wide sampled tree verify then spends much
of its time in minor page faults.  Pinned, freed blocks stay on the heap
for reuse.  The pin changes no arithmetic and does nothing on other C
libraries.
"""

from __future__ import annotations

import ctypes
import platform

import numpy as np

LOG_CLAMP = 1e-12
PROB_SUM_TOL = 1e-9


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB (its 64-bit maximum) and its trim
    threshold at 64 MiB, the 2x pairing glibc's dynamic rule uses.

    Both are needed: a fixed trim threshold alone freezes the mmap threshold
    wherever the process's earlier frees left it, 128 KiB in a fresh
    process, and there every gather block becomes its own mmap that faults
    in on every pass.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_pin_malloc_thresholds()


def as_f64(x) -> np.ndarray:
    """Coerce to a float64 ndarray without copying when already one."""
    return np.asarray(x, dtype=np.float64)


def check_prob_vec(p: np.ndarray, what: str = "probability vector") -> None:
    """Validate a probability vector: finite, nonnegative, sums to 1 within tolerance."""
    p = as_f64(p)
    if not np.isfinite(p).all():
        raise ValueError(f"non-finite {what}")
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{what} must be a non-empty vector")
    if (p < 0.0).any():
        raise ValueError(f"{what} has negative entries")
    s = float(np.add.reduce(p))
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
    if not np.isfinite(z).all():
        raise ValueError("non-finite logit")
    if not temperature > 0.0:
        raise ValueError("temperature must be > 0")
    if temperature != 1.0:  # z / 1.0 is z
        z = z / temperature
    # the ufunc reductions ndarray.max and ndarray.sum call, without their wrappers
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


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


def cut_group(rows: np.ndarray, idx: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """One attention group (rows of equal context length and their (rows, n)
    context columns) cut into pieces of at most MAX_GATHER rows x columns."""
    step = max(1, MAX_GATHER // idx.shape[1])
    return [(rows[s : s + step], idx[s : s + step]) for s in range(0, idx.shape[0], step)]


def chain_group(c: int, rows: np.ndarray, chains: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The attention group of tree rows of one depth, cut by ``cut_group``.

    Row rows[r] attends to the c prefix columns, then to the columns c +
    chains[r]: its ancestor rows, root first, then itself, the order a
    sequential decode of its path appends keys in.
    """
    idx = np.empty((chains.shape[0], c + chains.shape[1]), dtype=np.intp)
    idx[:, :c] = np.arange(c)
    idx[:, c:] = c + chains
    return cut_group(rows, idx)


def context_heads(ctx: np.ndarray, n_heads: int) -> np.ndarray:
    """The (g, n_heads, n, dh) per-head view of g contexts ctx (g, n, dim):
    a gather ``kv[idx]`` or a slice ``kv[None, :n]`` of a key/value buffer,
    which share their row and column strides."""
    g, n, d = ctx.shape
    return ctx.reshape(g, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def sinusoid_position(pos: int, dim: int) -> np.ndarray:
    """Classic fixed sinusoidal positional encoding for one position."""
    enc = np.empty(dim, dtype=np.float64)
    half = dim // 2
    i = np.arange(half, dtype=np.float64)
    freq = np.exp(-np.log(10000.0) * (2.0 * i / dim))
    enc[0 : 2 * half : 2] = np.sin(pos * freq)
    enc[1 : 2 * half : 2] = np.cos(pos * freq)
    if dim % 2 == 1:
        enc[-1] = np.sin(pos * np.exp(-np.log(10000.0)))
    return enc


# per-dim (positions, dim) tables of sinusoid_position rows, doubled on demand
_POSITION_TABLES: dict[int, np.ndarray] = {}


def sinusoid_positions(positions, dim: int) -> np.ndarray:
    """(len(positions), dim) stack of ``sinusoid_position`` rows.

    The rows are gathered from a table of ``sinusoid_position`` rows per
    dim, built once and doubled whenever a position runs past its end, so
    every row is bit for bit the one-position encoding.  The table spans
    the largest position asked for, which a decode keeps near its length.
    """
    pos = np.asarray(positions, dtype=np.intp)
    # viewed unsigned, a negative position lies past the end of every table
    top = int(pos.view(np.uintp).max(initial=0))
    table = _POSITION_TABLES.get(dim)
    if table is None or top >= table.shape[0]:
        if top > np.iinfo(np.intp).max:
            raise ValueError("negative position")
        n = 256 if table is None else table.shape[0]
        while n <= top:
            n *= 2
        table = _POSITION_TABLES[dim] = np.stack([sinusoid_position(p, dim) for p in range(n)])
    return table[pos]


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    # np.add.reduce / n is what np.mean computes, without its Python-level wrappers
    n = x.shape[-1]
    d = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(d * d, axis=-1, keepdims=True) / n
    return gamma * d / np.sqrt(var + eps) + beta


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def inverse_cdf_sample(probs: np.ndarray, u: float) -> int:
    """Draw an index from a probability vector by inverse CDF in index order.

    Returns the first index whose running sum exceeds u, or the last index
    when rounding leaves the total at or below u.  The running sums are
    sequential, so the result is what a left-to-right scan would give.
    """
    return min(int(np.cumsum(probs).searchsorted(u, side="right")), probs.shape[0] - 1)


def inverse_cdf_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``inverse_cdf_sample`` of every row at once.

    probs is (..., V) and u is (..., k): entry [..., j] of the (..., k)
    result is drawn from row [...] of probs with u[..., j].  Counting the
    running sums at or below u is the search, since they never decrease.
    """
    c = np.cumsum(probs, axis=-1)
    return np.minimum((c[..., None, :] <= u[..., None]).sum(axis=-1), probs.shape[-1] - 1)

"""Dense float64 numeric primitives shared by the target model, draft model and trainer.

Everything here is a pure function over immutable inputs.  All arrays are
float64; outputs are freshly allocated.  Reductions go through numpy on the
same shapes for every caller, so repeated runs are bit-identical.  The only
state is three memos, built once and doubled when a caller runs past their
end: ``sinusoid_positions`` gathers rows from a table of
``sinusoid_position`` rows per width, so no pass recomputes an encoding,
and ``attn_row`` reads its normaliser's ones from one block and the
column numbers of its length mask from another.

The models forward many rows at once (a whole verification tree, a draft
tree level, a backlog of committed tokens) with the row helpers below, and
each row comes out bit for bit as it would alone.  Three rules make that
hold: linear layers run one matrix-vector product per row (``row_linear``;
a GEMM would block its sums differently), row-wise reductions run along
the contiguous last axis, where numpy sums every row as it would sum a
vector, and attention reads every context at a padded width whose bits do
not depend on the pass (``attn_row``, below).  Products go through numpy's
cheapest entry point to the same gemv: one row through ``ndarray.dot``,
and many rows through one ``w @ x[..., None]``, a stacked matrix-vector
product per row over the shared weight; both give each row the bits of
``w @ x[i]``.

Weights are stored fused to save calls.  Each model keeps q, k and v as
one (3 dim, dim) weight, the three stacked by rows, and projects them with
one ``row_linear``.  Its outputs equal three separate projections' bit for
bit when dim is a multiple of 4 (16 and 32 among them), since OpenBLAS's
gemv blocks a matrix's rows by 4; at other widths they differ in the last
bits, but every pass of a model shares the fused projection, so a tree path
still reproduces sequential decoding.  The draft stores its experts' weights
stacked along a leading expert axis and runs them as stacked matmuls,
(experts, 1, out, in) @ (rows, in, 1) for w1, whose input every expert
shares, and @ (experts, rows, in, 1) for w2: each entry is one expert's
own matrix-vector product, the same bits at every width.

A pass writes its own key/value rows into its cache's buffer past the
committed rows and reads every context from that buffer; they stay there
as the cache's tentative rows until a commit keeps a selection of them
(``target.KvCache``).  In a causal pass (a decode step, a prompt prefill,
a chain verify, a draft chain level, a draft round's pending row) row i
attends to the first c+i+1 buffer rows, and the whole pass is one
``attn_row`` call per layer over the buffer's first padded(c+m) rows, read
in place, with each row's later columns masked.  A branching pass gathers
its contexts through one padded index array, one row of compact columns
per pass row, and is one ``attn_row`` call per layer too, cut only by
MAX_GATHER: the rows of a branching draft tree level share one depth and
read their ancestor chains (``chain_group``), and the rows of a verified
tree read the prefix, their ancestors and themselves at the width of the
deepest, each masking the columns past its own length
(``target.tree_groups``).

Attention is batch-invariant by one rule: an n-column context is read at
width W = padded(n), the next multiple of PAD, and its columns past n are
masked with -inf before the row max, so they weigh exactly 0.  Scores
(keys @ q), the softmax normaliser (e @ ones, a (1, W) @ (W, 2) product)
and the mix (e @ values) are stacked matrix-vector products.  OpenBLAS's
gemv blocks a matrix by 4 rows or columns and takes another path for the
rest, so a score's bits depend on whether its column falls in a full block,
and a sum's on whether its terms do.  With W a multiple of 4 every column
is in a full block, and the trailing blocks of zero weights add exactly 0,
so a row gets the same bits alone, in a causal pass of any length or in a
gathered group read at any wider multiple of PAD, whatever the buffer
holds past its columns as long as it is finite.  Other sums do not hold
this: numpy's pairwise sum groups its terms by the width, and a single
ones column would make the normaliser a dot product, which unrolls
differently.  PAD is 4, the smallest block that holds on OpenBLAS;
``test_row_kernel``'s oracle checks the rule on the running BLAS, and also
that reading unpadded widths would break it.

A one-row pass (a decode step, a chain level) pays every kernel's fixed
cost per numpy call, not its arithmetic, so every kernel takes one row
through a branch of its own with the same bits: ``row_linear`` through
``ndarray.dot``, which issues the gemv ``@`` does for about half its
dispatch cost, ``layer_norm`` and ``softmax`` through Python floats, and
``attn_row`` through one row of every head as a stack of queries with
one int length.  The branches keep the row formula's numpy ops in its
order, ``np.exp`` included (``math.exp`` is the C library's, which
numpy's SIMD loops may differ from by an ulp), and drop what only a
stack of rows needs: the (1, 1) arrays between the reductions and the
ops on them, the per-row length array and mask of attention, and the
broadcast of gamma and beta against a (1, n) row, which ``layer_norm``
reads as a vector.  Their reductions run over the same contiguous row,
so numpy sums and compares the same elements in the same order; a max or
a min read at ``argmax`` or ``argmin`` is the same element, the first NaN
included; the results become Python floats, exactly; Python's division
and ``math.sqrt`` round correctly as numpy's do; and an array op with a
Python float broadcasts it as the float64 it is.  ``layer_norm`` and
``silu`` write each op over a temporary of their own, never over the
input.  The checks keep their messages and order: a NaN or an infinity
reaches a row's max or min, so the two are finite exactly when every
entry is, and each head's attention maxima are checked as Python floats.
``test_kernels`` compares each branch with the row formula and with the
same row inside a multi-row call; ``test_dispatch`` pins how often a
small decode calls each kernel through the names the model modules
import, the calls perfbench's tracer counts.  The multi-row paths keep the
row formula's ops in its order too, with fewer calls: every reduction,
sort and stack on the decode path is called as the ufunc or ndarray method
numpy's Python-level wrappers end in (``np.add.reduce`` for ``np.sum``,
``np.logical_and.reduce(..., None)`` for ``.all()``), and ``layer_norm``
and ``softmax`` write each op over a temporary they made themselves
(``out=``, ``/=``), never over an input.  ``softmax`` screens its logits
with the row max it needs anyway plus one global min.  ``test_dispatch``
profiles whole decodes and fails on any call into those wrappers.

Importing this module pins glibc's malloc thresholds once for the process
(``_pin_malloc_thresholds``).  Batched passes allocate and free large
temporaries over and over: a draft training step's (experts, rows,
hidden) activations and their gradients, a tree verify's gathered keys
and values (at most MAX_GATHER rows x columns at a time, in blocks of up
to 512 KiB) and every pass's ``(rows, 4 * dim)`` MLP temporaries.  With
glibc's dynamic thresholds those frees trim the heap top or unmap, and the
next use faults the same pages back in.  Pinned, freed blocks stay on the
heap for reuse.  What the pin protects today is training: on a 2-core x86
box with 1 BLAS thread, 6 alternating pairs of perfbench runs (``--seconds
8``) with and without it left every decode metric within 1.7%, while
``setup_s`` (62 training steps on 16 sequences) read 0.40 s pinned and
0.51 s unpinned, higher in every pair.  The pin changes no arithmetic and
does nothing on other C libraries.
"""

from __future__ import annotations

import ctypes
import math
import platform

import numpy as np

LOG_CLAMP = 1e-12
LN_EPS = 1e-6  # layer norm's variance floor, in decoding and in training
PROB_SUM_TOL = 1e-9
# attention contexts are read at widths padded to a multiple of PAD columns
PAD = 4


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
    check_prob_rows(as_f64(p)[None], what)


def check_prob_rows(p: np.ndarray, what: str) -> None:
    """``check_prob_vec`` of every row of a (rows, n) stack at once, with
    its messages; a bad sum is the first bad row's."""
    p = as_f64(p)
    if not np.logical_and.reduce(np.isfinite(p), None):
        raise ValueError(f"non-finite {what}")
    if p.ndim != 2 or p.shape[1] == 0:
        raise ValueError(f"{what} must be a non-empty vector")
    if np.logical_or.reduce(p < 0.0, None):
        raise ValueError(f"{what} has negative entries")
    s = np.add.reduce(p, axis=1)
    bad = np.abs(s - 1.0) > PROB_SUM_TOL
    if np.logical_or.reduce(bad, None):
        raise ValueError(f"{what} sums to {float(s[np.argmax(bad)])!r}, "
                         f"expected 1 within {PROB_SUM_TOL}")


class TemperatureOverflow(ValueError):
    """A temperature so small that the scaled logits overflow: a bad
    setting, not bad logits."""


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over a vector of logits.

    Max-subtracted for stability; argmax (first-index tie break) is preserved
    for every temperature > 0.  A matrix is normalised row by row along its
    last axis, each row exactly as the vector alone; a vector or a single
    row takes the one-row branch.  A temperature so small that a row's
    scaled max overflows raises ``TemperatureOverflow`` rather than return
    NaN.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 0 or z.size == 0:
        raise ValueError("empty input")
    if z.size == z.shape[-1]:
        # one row: its max, min and sum as Python floats (see the module
        # docstring); argmax and argmin find the first NaN too
        top = z.item(z.argmax())
        if not (math.isfinite(top) and math.isfinite(z.item(z.argmin()))):
            raise ValueError("non-finite logit")
        if not temperature > 0.0:
            raise ValueError("temperature must be > 0")
        if temperature != 1.0:
            # an overflow is reported below, as TemperatureOverflow
            with np.errstate(over="ignore"):
                z = z / temperature
            top = z.item(z.argmax())
            if not math.isfinite(top):
                raise TemperatureOverflow(
                    f"temperature {temperature!r} overflows the scaled logits")
        e = np.exp(z - top)
        e /= float(np.add.reduce(e, None))
        return e
    # the row maxima and one minimum are finite exactly when every logit is
    top = np.maximum.reduce(z, axis=-1, keepdims=True)
    if not (math.isfinite(float(np.maximum.reduce(top, None)))
            and math.isfinite(float(np.minimum.reduce(z, None)))):
        raise ValueError("non-finite logit")
    if not temperature > 0.0:
        raise ValueError("temperature must be > 0")
    if temperature != 1.0:  # z / 1.0 is z
        with np.errstate(over="ignore"):
            z = z / temperature
        top = np.maximum.reduce(z, axis=-1, keepdims=True)
        if not np.logical_and.reduce(np.isfinite(top), None):
            raise TemperatureOverflow(f"temperature {temperature!r} overflows the scaled logits")
    e = z - top
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


# the normaliser's ones operand and the column numbers of the mask:
# attn_row reads their first W rows, and doubles both when a context runs
# past their end
_ONES = np.ones((256, 2))
_COLUMNS = np.arange(256)


def padded(n: int) -> int:
    """n rounded up to a multiple of PAD: the width attention reads for an
    n-column context."""
    return -(-n // PAD) * PAD


def attn_row(q: np.ndarray, keys: np.ndarray, values: np.ndarray, n) -> np.ndarray:
    """Scaled dot-product attention of query rows over padded contexts.

    q is (..., dh) and keys/values are (..., W, dh), with W = padded(n) the
    width of the contexts: one query (a vector and a (W, dh) context) or a
    stack of them, such as m rows with their heads fused, (m, heads, dh)
    against (m, heads, W, dh), or against one shared (1, heads, W, dh)
    buffer view.  A query reads the first n columns of its context: n is an
    int for every query, or an array broadcast against q's leading axes,
    such as (m, 1) for m rows of every head.  The columns past n are masked
    with -inf and weigh exactly 0, so their values only need to be finite.
    Scores, normaliser and mix are stacked matrix-vector products whose bits
    do not depend on W (see the module docstring).  A NaN or +inf score
    reaches its row's max, and raises.
    """
    global _ONES, _COLUMNS
    w = keys.shape[-2]
    if _ONES.shape[0] < w:
        _ONES, _COLUMNS = np.ones((2 * w, 2)), np.arange(2 * w)
    if q.ndim == 2 and not isinstance(n, np.ndarray):
        # a stack of queries with one n, such as one row of every head: the
        # same products over (queries, W, 1) scores, without the row axis,
        # the per-row n or the mask, and the maxima checked as Python floats
        s = keys @ q[..., None]
        s /= math.sqrt(keys.shape[-1])
        if n < w:
            s[:, n:] = -np.inf
        top = np.maximum.reduce(s, axis=1, keepdims=True, initial=-np.inf)
        if not all(map(math.isfinite, top.ravel().tolist())):
            raise ValueError("non-finite attention score")
        s -= top
        e = np.exp(s, out=s).transpose(0, 2, 1)
        out = e @ values
        out /= (e @ _ONES[:w])[..., :1]
        return out.reshape(q.shape)
    scores = (keys @ q[..., None])[..., 0]
    scores /= math.sqrt(keys.shape[-1])
    if isinstance(n, np.ndarray):
        np.copyto(scores, -np.inf, where=_COLUMNS[:w] >= n[..., None])
    elif n < w:
        scores[..., n:] = -np.inf
    # initial: a pass of no rows over an empty cache reads width 0
    top = np.maximum.reduce(scores, axis=-1, keepdims=True, initial=-np.inf)
    if not np.logical_and.reduce(np.isfinite(top), None):
        raise ValueError("non-finite attention score")
    scores -= top
    e = np.exp(scores, out=scores)[..., None, :]
    # a (1, W) @ (W, 2) product is a gemv; one ones column would be a dot
    return (e @ values)[..., 0, :] / (e @ _ONES[:w])[..., 0, :1]


def row_linear(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w applied to every row of x: row i is bit-identical to ``w @ x[i]``.

    A plain ``x @ w.T`` is one GEMM, whose blocked sums differ from the
    matrix-vector product in the last bits.  One row, or one vector x,
    goes through ``ndarray.dot``, and more rows through one stacked
    ``w @ x[..., None]``, a matrix-vector product per row over the shared
    weight: both issue the gemv ``w @ x[i]`` does, at less dispatch cost
    than the ``@`` gufunc on one row or a broadcast of ``w.T`` on many.
    """
    if x.ndim == 1:  # one row as a vector
        return w.dot(x)
    if x.shape[0] == 1:
        return w.dot(x[0])[None]
    return (w @ x[..., None])[..., 0]


# Rows x context entries gathered at once by one attention group: bounds the
# (rows, ctx, dim) working set of large trees to a few hundred kilobytes.
MAX_GATHER = 2048


def cut_group(idx: np.ndarray, n) -> list[tuple[slice, np.ndarray, int | np.ndarray]]:
    """One attention group (a pass's rows, which read n context columns,
    and their (rows, W) column indices, W a multiple of PAD) cut into
    pieces of at most MAX_GATHER rows x columns, each with its slice of
    rows.  n is an int for every row, or a (rows, 1) array, sliced with
    its rows."""
    g = idx.shape[0]
    step = max(1, MAX_GATHER // idx.shape[1])
    return [(slice(s, min(s + step, g)), idx[s : s + step],
             n[s : s + step] if isinstance(n, np.ndarray) else n)
            for s in range(0, g, step)]


def chain_group(c: int, ancestors: np.ndarray,
                own: np.ndarray) -> list[tuple[slice, np.ndarray, int]]:
    """The attention group of the tree rows of one depth, cut by ``cut_group``.

    Row r attends to the c prefix columns, then to the columns c +
    ancestors[r], its ancestor rows root first, then to c + own[r], itself:
    the order a sequential decode of its path appends keys in.  The padding
    columns read column 0.
    """
    g, a = ancestors.shape
    n = c + a + 1
    idx = np.zeros((g, padded(n)), dtype=np.intp)
    idx[:, :c] = np.arange(c)
    idx[:, c : n - 1] = c + ancestors
    idx[:, n - 1] = c + own
    return cut_group(idx, n)


def context_heads(ctx: np.ndarray, n_heads: int) -> np.ndarray:
    """The (g, n_heads, n, dh) per-head view of g contexts ctx (g, n, dim):
    a gather ``kv[idx]`` or a slice ``kv[None, :W]`` of a key/value buffer,
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
    One position given as an int gives its row.
    """
    if type(positions) is int:  # one position: its row
        return _position_table(positions, dim)[positions]
    pos = np.asarray(positions, dtype=np.intp)
    # viewed unsigned, a negative position lies past the end of every table
    return _position_table(int(np.maximum.reduce(pos.view(np.uintp), None, initial=0)),
                           dim).take(pos, 0)


def _position_table(top: int, dim: int) -> np.ndarray:
    """The table of ``sinusoid_position`` rows for dim, doubled until it
    holds position top; a top below 0 or past intp's range (a negative
    position viewed unsigned) raises."""
    table = _POSITION_TABLES.get(dim)
    if table is None or not 0 <= top < table.shape[0]:
        if not 0 <= top <= np.iinfo(np.intp).max:
            raise ValueError("negative position")
        n = 256 if table is None else table.shape[0]
        while n <= top:
            n *= 2
        table = _POSITION_TABLES[dim] = np.array([sinusoid_position(p, dim) for p in range(n)])
    return table


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """gamma * (x - mean) / sqrt(var + LN_EPS) + beta over the last axis, row
    by row; one row takes the Python-float branch (see the module docstring)."""
    # np.add.reduce / n is what np.mean computes, without its Python-level wrappers
    n = x.shape[-1]
    if x.size == n:
        # a (1, n) row as a vector, so that gamma and beta do not broadcast
        v = x if x.ndim == 1 else x.reshape(n)
        d = v - float(np.add.reduce(v, None)) / n
        sd = math.sqrt(float(np.add.reduce(d * d, None)) / n + LN_EPS)
        np.multiply(gamma, d, out=d)
        d /= sd
        d += beta
        return d if x.ndim == 1 else d.reshape(x.shape)
    # the same ops in the same order, each written over a temporary of its own
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= n
    d = x - mean
    var = np.add.reduce(d * d, axis=-1, keepdims=True)
    var /= n
    var += LN_EPS
    np.sqrt(var, out=var)
    np.multiply(gamma, d, out=d)
    d /= var
    d += beta
    return d


def silu(x: np.ndarray) -> np.ndarray:
    """x / (1 + exp(-x)), each op written over one temporary."""
    t = np.negative(x)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(x, t, out=t)


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def inverse_cdf_sample(probs: np.ndarray, u: float) -> int:
    """Draw an index from a probability vector by inverse CDF in index order.

    Returns the first index whose running sum exceeds u, or the last index
    when rounding leaves the total at or below u.  The running sums are
    sequential, so the result is what a left-to-right scan would give.
    """
    return min(int(np.add.accumulate(probs).searchsorted(u, side="right")), probs.shape[0] - 1)


def inverse_cdf_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``inverse_cdf_sample`` of every row at once.

    probs is (..., V) and u is (..., k): entry [..., j] of the (..., k)
    result is drawn from row [...] of probs with u[..., j].  Counting the
    running sums at or below u is the search, since they never decrease.
    """
    c = np.add.accumulate(probs, axis=-1)
    return np.minimum(np.add.reduce(c[..., None, :] <= u[..., None], axis=-1),
                      probs.shape[-1] - 1)

"""Toy deterministic autoregressive transformer used as the verification target.

The model is small enough for brute-force oracles (default vocab 64, width 32,
2 layers) but produces nontrivial next-token distributions.  A model instance
is immutable after construction; each decoding session owns its KvCache.

Sequential decoding and tree verification share one row kernel,
``_forward_rows``, which forwards m rows through each layer at once: the
tokens of a prompt, or every node of a candidate tree in a single pass.
Each layer projects q, k and v with one fused (3 dim, dim) weight, writes
the rows' keys and values into the cache's buffer past its committed rows,
and each row attends to its own context there (the
cached prefix, then its tree ancestors, then itself, the order sequential
decoding appends keys in).  The kernel's helpers keep every row's
arithmetic equal to a lone row's (see kernels.py), so any root-to-leaf tree
path reproduces the sequential outputs bit for bit.  Every pass returns
its rows' logits and features stacked, (m, vocab) and (m, dim), and
callers read those arrays as they are; only ``forward_cached``, the
one-token step, hands its row back as a ``StepOutput``.

A pass is causal when row i attends to exactly the first c+i+1 rows: a
prompt prefill, a decode step (a one-token prefill) and a chain-shaped tree.
Its attention is one ``attn_row`` call per layer, over the buffer's first
padded(c+m) rows read in place, each row masking the columns past its own.
Any other tree arrives as parent pointers and depths in level order, and
its attention is one ``attn_row`` call per layer too, cut only by
MAX_GATHER: every row's context is one row of a padded index gathered
from the buffer, each row masking the columns past its own length
(``tree_groups``).  Every pass writes its rows as the cache's tentative
rows from the first on, replacing an earlier pass's, and they stay in
the buffer until ``KvCache.commit_rows`` keeps a selection of them, the
only way rows become committed: a prefill keeps all of its rows, a
verify the accepted path.  Rows already in place are not copied, so a
chain's commit copies nothing.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

import numpy as np

from .kernels import (attn_row, check_tokens, context_heads, cut_group, inverse_cdf_sample,
                      layer_norm, padded, row_linear, silu, sinusoid_positions, softmax)

MAGIC_TARGET = b"SDFM"
CHECKPOINT_VERSION = 1
# rows a fresh KvCache holds before its buffers double
KV_CAPACITY = 256


@dataclass(frozen=True)
class TargetConfig:
    vocab: int = 64
    dim: int = 32
    n_layers: int = 2
    n_heads: int = 2

    def __post_init__(self):
        for name in ("vocab", "dim", "n_layers", "n_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.dim % self.n_heads != 0:
            raise ValueError("dim must be divisible by n_heads")


@dataclass(frozen=True)
class StepOutput:
    """Logits over the vocabulary plus the pre-head hidden state they came from."""

    logits: np.ndarray
    feature: np.ndarray


@dataclass
class LayerParams:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wqkv: np.ndarray  # (3 dim, dim): wq, wk and wv stacked by rows
    wo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


class KvCache:
    """Per-layer key/value rows of one decoding session.

    Rows [:length] are committed and append-only.  Past them, each buffer
    holds the ``tentative`` rows of the passes since: a pass writes its
    rows there (``scratch``), replacing them or appended after them, and
    reads its contexts from the buffer, and ``commit_rows`` appends a
    selection of them and drops the rest.  The
    buffers reach at least the padded end of every pass, whose padding
    columns read spare rows: zeros, or rows an earlier pass wrote.  All
    of them are one (2, layers, capacity, dim) array, keys then values,
    so a commit moves rows with one gather and one write, and ``_k`` and
    ``_v`` hold each layer's view of it.
    """

    def __init__(self, n_layers: int, dim: int):
        self.n_layers = n_layers
        self.dim = dim
        self.length = 0
        self.tentative = 0
        self._set_buffer(np.zeros((2, n_layers, KV_CAPACITY, dim)))

    def _set_buffer(self, kv: np.ndarray) -> None:
        self._kv = kv
        self._k, self._v = list(kv[0]), list(kv[1])

    # a copy or a pickle holds the buffer alone, and views its own copy
    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("_k", "_v")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._set_buffer(self._kv)

    def _grow(self, need: int) -> None:
        cap = self._kv.shape[2]
        kv = np.zeros((2, self.n_layers, max(need, 2 * cap), self.dim))
        kv[:, :, :cap] = self._kv  # the tentative rows of a pass in flight too
        self._set_buffer(kv)

    def scratch(self, layer: int, start: int, new_k: np.ndarray,
                new_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write (m, dim) rows of one layer as tentative rows start onward,
        at buffer rows length + start onward, growing the buffers if
        needed; the cache then holds start + m tentative rows.  Returns the
        layer's key and value buffers, which reach past the padded end of
        the rows written, the width a causal pass over them reads."""
        m = new_k.shape[0]
        self.tentative = start + m
        end = self.length + self.tentative
        w = padded(end)
        if w > self._kv.shape[2]:
            self._grow(w)
        k, v = self._k[layer], self._v[layer]
        k[end - m : end] = new_k
        v[end - m : end] = new_v
        return k, v

    def commit_rows(self, indices) -> None:
        """Append the selected tentative rows, in order, as if decoded
        sequentially, and drop the rest.

        The leading run of rows i selected at position i (a prefill's or a
        chain's whole commit) is already in place; only the rest is copied.
        The rows of a path ascend: an index outside [0, tentative), or one
        not above the index before it, raises ValueError before any row
        moves.
        """
        t, c, n, run = self.tentative, self.length, len(indices), 0
        while run < n and indices[run] == run:
            run += 1
        rest = indices[run:]
        if run > t or run < n and (min(rest) < 0 or max(rest) >= t):
            raise ValueError(f"commit rows must be tentative rows, in [0, {t})")
        if run < n and any(map(operator.ge, [run - 1, *rest], rest)):
            raise ValueError("commit rows must ascend")
        if run < n:
            src = np.asarray(rest, dtype=np.intp) + c
            self._kv[:, :, c + run : c + n] = self._kv[:, :, src]  # the gather copies first
        self.length += n
        self.tentative = 0


def check_tree(parents: np.ndarray, depths: np.ndarray) -> None:
    """Raise ValueError unless m tree rows are in level order.

    parents[i] is the row of row i's parent, or -1 for a row that attends to
    the prefix only, and must be an earlier row; depths[i] must be 0 for
    such a row and its parent's + 1 otherwise; and depths must never
    decrease.  The message names the first row that breaks a rule.
    """
    rows = np.arange(parents.shape[0])
    bad = (parents < -1) | (parents >= rows)
    if np.logical_or.reduce(bad, None):
        raise ValueError(f"tree row {int(np.argmax(bad))}: parent must be an earlier row or -1")
    bad = depths != np.where(parents < 0, 0, depths[parents] + 1)
    if np.logical_or.reduce(bad, None):
        raise ValueError(f"tree row {int(np.argmax(bad))}: depth must be 0 without a parent "
                         "and the parent's depth + 1 otherwise")
    bad = depths[1:] < depths[:-1]
    if np.logical_or.reduce(bad, None):
        raise ValueError(f"tree row {int(np.argmax(bad)) + 1}: rows must come in depth order")


def tree_groups(c: int, parents: np.ndarray,
                depths: np.ndarray) -> list[tuple[slice, np.ndarray, np.ndarray]]:
    """The attention group of m tree rows forwarded after c committed
    columns, cut to MAX_GATHER by ``cut_group``.

    parents and depths must have passed ``check_tree``.  Row r reads n = c
    + depths[r] + 1 columns: the c committed columns, then c + each of its
    ancestor rows, root first, then c + r.  The group is one (m, W) index,
    W = padded(c + max depth + 1), whose columns past a row's n read column
    0, and the (m, 1) lengths n.  A row's columns stay compact and only its
    trailing ones are masked, so its bits are those of its own padded width
    (see kernels.py).  A row's columns in the pass are its parent's, which
    comes earlier, and its own, built as Python lists: a pass holds tens of
    rows, where one list per row costs fewer calls than numpy ops per depth
    run.
    """
    m = parents.shape[0]
    w = padded(c + 1 + (int(depths[-1]) if m else 0))  # depths never decrease
    # each row's own columns, its ancestors in the pass root first and then
    # itself, extend its parent's, and read column 0 past its length
    cols = []
    for r, p in enumerate(parents.tolist()):
        cols.append((cols[p] if p >= 0 else []) + [c + r])
    pad = [0] * (w - c)
    idx = np.empty((m, w), dtype=np.intp)
    idx[:, :c] = np.arange(c)
    idx[:, c:] = np.array([x + pad[len(x):] for x in cols], dtype=np.intp).reshape(m, w - c)
    return cut_group(idx, (c + 1 + depths)[:, None])


def attend(q: np.ndarray, keys: np.ndarray, values: np.ndarray, n_heads: int, c: int,
           groups: list[tuple[slice, np.ndarray, int | np.ndarray]] | None = None) -> np.ndarray:
    """Attention of the m rows of q over the key and value buffer rows of
    their pass: c context rows, then the pass's own.

    With groups None the pass is causal and one ``attn_row`` call: every row
    reads the buffer's first padded(c + m) rows in place and row i masks
    the columns past c + i; one row passes its heads as a stack of
    queries with one length.  Otherwise each (rows, idx, n) group, from
    ``tree_groups`` or ``chain_group``, gathers its rows' padded columns
    and is one ``attn_row`` call, its rows masking the columns past their
    n, an int or a (rows, 1) array; a group under MAX_GATHER is the whole
    pass.
    """
    m, dh = q.shape[0], q.shape[1] // n_heads
    if groups is None:
        w = padded(c + m)
        if m == 1:  # one row: its heads are attn_row's stack of queries
            kh = keys[:w].reshape(w, n_heads, dh).transpose(1, 0, 2)
            vh = values[:w].reshape(w, n_heads, dh).transpose(1, 0, 2)
            return attn_row(q.reshape(n_heads, dh), kh, vh, c + 1).reshape(q.shape)
        return attn_row(q.reshape(m, n_heads, dh), context_heads(keys[None, :w], n_heads),
                        context_heads(values[None, :w], n_heads),
                        c + 1 + np.arange(m)[:, None]).reshape(q.shape)
    att = np.empty_like(q)
    for rows, idx, n in groups:
        qh = q[rows].reshape(-1, n_heads, dh)
        att[rows] = attn_row(qh, context_heads(keys.take(idx, 0), n_heads),
                             context_heads(values.take(idx, 0), n_heads), n).reshape(qh.shape[0], -1)
    return att


class TargetModel:
    def __init__(self, config: TargetConfig, emb, layers, lnf_g, lnf_b, head):
        self.config = config
        self.emb = emb
        self.layers = layers
        self.lnf_g = lnf_g
        self.lnf_b = lnf_b
        self.head = head

    @property
    def vocab(self) -> int:
        return self.config.vocab

    @property
    def dim(self) -> int:
        return self.config.dim

    def new_cache(self) -> KvCache:
        return KvCache(self.config.n_layers, self.config.dim)

    def _forward_rows(self, tokens, positions, cache, groups):
        """The row kernel: forward m rows through the whole stack at once.

        Row i is token tokens[i] at absolute position positions[i].  Per
        layer, one ``row_linear`` of wqkv gives the rows' queries, keys and
        values, the keys and values are written to the cache's tentative
        rows, after its c committed rows, and each row attends to the
        buffer as ``attend`` gives it: causally after c columns with groups
        None, else by the (rows, columns) pairs of groups.  Returns logits
        (m, vocab) and features (m, dim); the rows' keys and values stay in
        the cache as its tentative rows.
        """
        c, d = cache.length, self.config.dim
        x = self.emb.take(tokens, 0) + sinusoid_positions(positions, d)
        for l, lp in enumerate(self.layers):
            a_in = layer_norm(x, lp.ln1_g, lp.ln1_b)
            qkv = row_linear(lp.wqkv, a_in)
            q, k, v = qkv[:, :d], qkv[:, d : 2 * d], qkv[:, 2 * d :]
            keys, values = cache.scratch(l, 0, k, v)
            x = x + row_linear(lp.wo, attend(q, keys, values, self.config.n_heads, c, groups))
            m_in = layer_norm(x, lp.ln2_g, lp.ln2_b)
            x = x + row_linear(lp.w2, silu(row_linear(lp.w1, m_in)))
        f = layer_norm(x, self.lnf_g, self.lnf_b)
        return row_linear(self.head, f), f

    def forward_cached(self, cache: KvCache, token: int) -> StepOutput:
        """Decode one token at the next position, extending the cache: a
        one-token ``prefill``, its one row as a step."""
        logits, f = self.prefill(cache, [token])
        return StepOutput(logits=logits[0], feature=f[0])

    def prefill(self, cache: KvCache, tokens: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Decode tokens at the next positions in one causal pass, extending
        the cache; returns logits (m, vocab) and features (m, dim).

        Row i attends to the cached prefix and rows 0..i, columns in order,
        so each output and key/value row is bit for bit the one decoding the
        tokens one at a time would give.
        """
        tok = check_tokens(tokens, self.config.vocab)
        m, c = len(tok), cache.length
        logits, f = self._forward_rows(tok, range(c, c + m), cache, None)
        cache.commit_rows(range(m))
        return logits, f

    def forward_tree_kv(self, cache, tokens, parents, positions, *, _checked=False):
        """Batched tentative forward over the rows of a tree.  Committed rows
        are not mutated; the rows' keys and values become the cache's
        tentative rows, which ``KvCache.commit_rows`` selects from.

        parents[i] is the row of row i's parent, or -1 for a row that
        attends to the cache only, and positions[i] is row i's depth, which
        is also its offset from the cache end (a chain uses 0, 1, 2, ...);
        see ``check_tree`` for the checks.  Each row attends to the cache,
        its ancestors root first, then itself, all rows in one pass; a
        chain is a causal pass.  Returns logits (m, vocab) and features
        (m, dim).

        The tokens and the layout are checked before any row is computed,
        unless ``_checked``: verification passes intp arrays cut from a
        tree it has already checked whole.
        """
        if _checked:
            tok, par, pos = tokens, parents, positions
        else:
            tok = check_tokens(tokens, self.config.vocab)
            par = np.asarray(parents, dtype=np.intp)
            pos = np.asarray(positions, dtype=np.intp)
            if not tok.shape == par.shape == pos.shape:
                raise ValueError("tokens, parents and positions differ in length")
        c = cache.length
        rows = np.arange(tok.shape[0])  # a chain: row i sits at i under row i - 1
        if (np.logical_and.reduce(pos == rows, None)
                and np.logical_and.reduce(par == rows - 1, None)):
            groups = None
        else:
            if not _checked:
                check_tree(par, pos)
            groups = tree_groups(c, par, pos)
        return self._forward_rows(tok, c + pos, cache, groups)

    def autoregressive_decode(self, prompt, max_new, temperature=0.0, rng_seed=0):
        """Vanilla decoding baseline; temperature 0 is greedy and rng-independent."""
        if not prompt:
            raise ValueError("prompt must be non-empty")
        if not temperature >= 0.0:  # NaN included
            raise ValueError("temperature must be >= 0")
        rng = np.random.Generator(np.random.PCG64(rng_seed))
        cache = self.new_cache()
        logits = self.prefill(cache, prompt)[0][-1]
        emitted: list[int] = []
        for _ in range(max_new):
            if temperature == 0.0:
                nxt = int(logits.argmax())
            else:
                probs = softmax(logits, temperature)
                nxt = inverse_cdf_sample(probs, rng.random())
            emitted.append(nxt)
            # no step for the last token: its logits would never be read
            if len(emitted) < max_new:
                logits = self.forward_cached(cache, nxt).logits
        return emitted


def init_target(config: TargetConfig, seed: int = 0) -> TargetModel:
    """Deterministic parameter initialization from a named seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d = config.dim
    scale = 1.0 / np.sqrt(d)
    emb = rng.normal(0.0, 1.0, size=(config.vocab, d))
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerParams(
                ln1_g=np.ones(d),
                ln1_b=np.zeros(d),
                # one draw of wq, wk and wv in turn, as three draws would give them
                wqkv=rng.normal(0.0, scale, size=(3 * d, d)),
                wo=rng.normal(0.0, scale, size=(d, d)),
                ln2_g=np.ones(d),
                ln2_b=np.zeros(d),
                w1=rng.normal(0.0, scale, size=(4 * d, d)),
                w2=rng.normal(0.0, 1.0 / np.sqrt(4 * d), size=(d, 4 * d)),
            )
        )
    lnf_g = np.ones(d)
    lnf_b = np.zeros(d)
    head = rng.normal(0.0, scale, size=(config.vocab, d))
    return TargetModel(config, emb, layers, lnf_g, lnf_b, head)


def _target_arrays(model: TargetModel):
    arrs = [model.emb]
    for lp in model.layers:
        arrs += [lp.ln1_g, lp.ln1_b, lp.wqkv, lp.wo, lp.ln2_g, lp.ln2_b, lp.w1, lp.w2]
    arrs += [model.lnf_g, model.lnf_b, model.head]
    return arrs


def save_target(model: TargetModel, path: str) -> None:
    cfg = model.config
    header = MAGIC_TARGET + struct.pack(
        "<5I", CHECKPOINT_VERSION, cfg.vocab, cfg.dim, cfg.n_layers, cfg.n_heads
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for a in _target_arrays(model):
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _target_size(cfg: TargetConfig) -> int:
    """Parameter count of a target, from its config alone."""
    d = cfg.dim
    # embedding and head; per layer two norms, wqkv, wo and the 4x MLP; final norm
    return 2 * cfg.vocab * d + cfg.n_layers * (4 * d + 4 * d * d + 8 * d * d) + 2 * d


def load_target(path: str) -> TargetModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 4 + 20
    if blob[:4] != MAGIC_TARGET:
        raise ValueError("bad magic: not a target checkpoint")
    if len(blob) < offset:
        raise ValueError("checkpoint header truncated")
    version, vocab, dim, n_layers, n_heads = struct.unpack_from("<5I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    cfg = TargetConfig(vocab=vocab, dim=dim, n_layers=n_layers, n_heads=n_heads)
    # checked before init_target allocates what the header asks for
    if len(blob) != offset + 8 * _target_size(cfg):
        raise ValueError("checkpoint length mismatch")
    model = init_target(cfg, seed=0)
    for a in _target_arrays(model):
        n = a.size
        vals = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(a.shape)
        a[...] = vals
        offset += 8 * n
    if not all(np.isfinite(a).all() for a in _target_arrays(model)):
        raise ValueError("non-finite parameter value in target checkpoint")
    return model

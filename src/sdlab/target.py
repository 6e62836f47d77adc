"""Toy deterministic autoregressive transformer used as the verification target.

The model is small enough for brute-force oracles (default vocab 64, width 32,
2 layers) but produces nontrivial next-token distributions.  A model instance
is immutable after construction; each decoding session owns its KvCache.

Sequential decoding and tree verification share one row kernel,
``_forward_rows``, which forwards m rows through each layer at once: one
row per decoded token, or every node of a candidate tree in a single pass.
Each row attends to its own context (the cached prefix, then its tree
ancestors, then itself, the order sequential decoding appends keys in), and
the kernel's helpers keep every row's arithmetic equal to a lone row's (see
kernels.py), so any root-to-leaf tree path reproduces the sequential outputs
bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .kernels import (SINGLE_ROW, attn_row, context_groups, context_heads, inverse_cdf_sample,
                      layer_norm, row_linear, silu, sinusoid_positions, softmax)

MAGIC_TARGET = b"SDFM"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TargetConfig:
    vocab: int = 64
    dim: int = 32
    n_layers: int = 2
    n_heads: int = 2
    eos_id: int | None = None

    def __post_init__(self):
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
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


class KvCache:
    """Append-only per-layer key/value store for one decoding session."""

    def __init__(self, n_layers: int, dim: int, capacity: int = 256):
        self.n_layers = n_layers
        self.dim = dim
        self.length = 0
        self._k = [np.zeros((capacity, dim)) for _ in range(n_layers)]
        self._v = [np.zeros((capacity, dim)) for _ in range(n_layers)]

    def _grow(self, need: int) -> None:
        cap = self._k[0].shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        for l in range(self.n_layers):
            for buf_list in (self._k, self._v):
                nb = np.zeros((new_cap, self.dim))
                nb[: self.length] = buf_list[l][: self.length]
                buf_list[l] = nb

    def keys(self, layer: int) -> np.ndarray:
        return self._k[layer][: self.length]

    def values(self, layer: int) -> np.ndarray:
        return self._v[layer][: self.length]

    def extend(self, new_k: list[np.ndarray], new_v: list[np.ndarray]) -> None:
        """Append m rows per layer: new_k[l] and new_v[l] are (m, dim)."""
        m = new_k[0].shape[0]
        self._grow(self.length + m)
        for l in range(self.n_layers):
            self._k[l][self.length : self.length + m] = new_k[l]
            self._v[l][self.length : self.length + m] = new_v[l]
        self.length += m

    def commit_rows(self, kv: "TreeKv", indices: list[int]) -> None:
        """Append the selected tree rows, in order, as if decoded sequentially."""
        self.extend([k[indices] for k in kv.k], [v[indices] for v in kv.v])

    def clone(self) -> "KvCache":
        c = KvCache(self.n_layers, self.dim, capacity=max(self.length, 1))
        c._grow(self.length)
        for l in range(self.n_layers):
            c._k[l][: self.length] = self._k[l][: self.length]
            c._v[l][: self.length] = self._v[l][: self.length]
        c.length = self.length
        return c

    def fingerprint(self) -> bytes:
        parts = [struct.pack("<q", self.length)]
        for l in range(self.n_layers):
            parts.append(self.keys(l).tobytes())
            parts.append(self.values(l).tobytes())
        return b"".join(parts)


@dataclass
class TreeKv:
    """Per-layer key/value rows computed for tentatively forwarded tree tokens."""

    k: list[np.ndarray]
    v: list[np.ndarray]


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

    def _check_token(self, token: int) -> None:
        if not 0 <= token < self.config.vocab:
            raise ValueError(f"token {token} out of vocab range [0, {self.config.vocab})")

    def _forward_rows(self, tokens, positions, prefix_k, prefix_v, groups):
        """The row kernel: forward m rows through the whole stack at once.

        Row i is token tokens[i] at absolute position positions[i].  Per
        layer, prefix_k / prefix_v are the (c, dim) context rows before the
        new ones; each row attends to the columns of concat(prefix, new
        rows) that ``groups`` (see ``context_groups``) gives it.  Returns
        logits (m, vocab), features (m, dim) and per-layer (m, dim) keys and
        values of the new rows.
        """
        H = self.config.n_heads
        x = self.emb[tokens] + sinusoid_positions(positions, self.config.dim)
        new_k, new_v = [], []
        for l, lp in enumerate(self.layers):
            a_in = layer_norm(x, lp.ln1_g, lp.ln1_b)
            q = row_linear(lp.wq, a_in)
            k = row_linear(lp.wk, a_in)
            v = row_linear(lp.wv, a_in)
            keys = np.concatenate((prefix_k[l], k))
            values = np.concatenate((prefix_v[l], v))
            att = np.empty_like(q)
            for rows, idx in groups:
                qh = q[rows].reshape(-1, H, q.shape[1] // H)
                att[rows] = attn_row(qh, context_heads(keys, idx, H),
                                     context_heads(values, idx, H)).reshape(qh.shape[0], -1)
            x = x + row_linear(lp.wo, att)
            m_in = layer_norm(x, lp.ln2_g, lp.ln2_b)
            x = x + row_linear(lp.w2, silu(row_linear(lp.w1, m_in)))
            new_k.append(k)
            new_v.append(v)
        f = layer_norm(x, self.lnf_g, self.lnf_b)
        return row_linear(self.head, f), f, new_k, new_v

    def forward_cached(self, cache: KvCache, token: int) -> StepOutput:
        """Decode one token at the next position, extending the cache."""
        self._check_token(token)
        L = self.config.n_layers
        logits, f, new_k, new_v = self._forward_rows(
            [token], [cache.length], [cache.keys(l) for l in range(L)],
            [cache.values(l) for l in range(L)], SINGLE_ROW)
        cache.extend(new_k, new_v)
        return StepOutput(logits=logits[0], feature=f[0])

    def prefill(self, cache: KvCache, tokens: list[int]) -> list[StepOutput]:
        return [self.forward_cached(cache, t) for t in tokens]

    def _check_tree(self, tokens, tree_mask) -> None:
        """Reject the first tree row, in row order, that is out of vocab,
        does not attend to itself or attends to a later row."""
        tok = np.asarray(tokens)
        bad = ((tok < 0) | (tok >= self.config.vocab) | ~np.diagonal(tree_mask)
               | np.triu(tree_mask, 1).any(axis=1))
        if not bad.any():
            return
        i = int(np.argmax(bad))
        self._check_token(tokens[i])
        if not tree_mask[i, i]:
            raise ValueError(f"tree token {i} must attend to itself")
        raise ValueError(f"tree token {i} references a later token")

    def forward_tree_kv(self, cache, tokens, mask, positions):
        """Batched tentative forward over tree tokens; the cache is not mutated.

        mask may be square over (cache length + len(tokens)) or rectangular
        with one row per new token; positions are offsets from the cache end
        (a chain would use 0, 1, 2, ...).  Returns outputs plus the computed
        key/value rows so accepted paths can be committed without recompute.
        All rows go through the row kernel in one pass.
        """
        m = len(tokens)
        c = cache.length
        L = self.config.n_layers
        if m == 0:
            return [], TreeKv(k=[np.zeros((0, self.dim)) for _ in range(L)],
                              v=[np.zeros((0, self.dim)) for _ in range(L)])
        mask = np.asarray(mask, dtype=bool)
        if mask.shape == (c + m, c + m):
            mask = mask[c:, :]
        if mask.shape != (m, c + m):
            raise ValueError("mask/token length mismatch")
        if len(positions) != m:
            raise ValueError("positions/token length mismatch")
        self._check_tree(tokens, mask[:, c:])
        logits, f, new_k, new_v = self._forward_rows(
            tokens, c + np.asarray(positions, dtype=np.int64),
            [cache.keys(l) for l in range(L)], [cache.values(l) for l in range(L)],
            context_groups(mask))
        outputs = [StepOutput(logits=lg, feature=ft) for lg, ft in zip(logits, f)]
        return outputs, TreeKv(k=new_k, v=new_v)

    def forward_tree(self, cache, tokens, mask, positions) -> list[StepOutput]:
        outputs, _ = self.forward_tree_kv(cache, tokens, mask, positions)
        return outputs

    def autoregressive_decode(self, prompt, max_new, temperature=0.0, rng_seed=0):
        """Vanilla decoding baseline; temperature 0 is greedy and rng-independent."""
        if not prompt:
            raise ValueError("prompt must be non-empty")
        if temperature < 0.0:
            raise ValueError("temperature must be >= 0")
        rng = np.random.Generator(np.random.PCG64(rng_seed))
        cache = self.new_cache()
        out = None
        for t in prompt:
            out = self.forward_cached(cache, t)
        emitted: list[int] = []
        for _ in range(max_new):
            if temperature == 0.0:
                nxt = int(np.argmax(out.logits))
            else:
                probs = softmax(out.logits, temperature)
                nxt = inverse_cdf_sample(probs, rng.random())
            emitted.append(nxt)
            if self.config.eos_id is not None and nxt == self.config.eos_id:
                break
            out = self.forward_cached(cache, nxt)
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
                wq=rng.normal(0.0, scale, size=(d, d)),
                wk=rng.normal(0.0, scale, size=(d, d)),
                wv=rng.normal(0.0, scale, size=(d, d)),
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
        arrs += [lp.ln1_g, lp.ln1_b, lp.wq, lp.wk, lp.wv, lp.wo, lp.ln2_g, lp.ln2_b, lp.w1, lp.w2]
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


def load_target(path: str) -> TargetModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC_TARGET:
        raise ValueError("bad magic: not a target checkpoint")
    version, vocab, dim, n_layers, n_heads = struct.unpack_from("<5I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    cfg = TargetConfig(vocab=vocab, dim=dim, n_layers=n_layers, n_heads=n_heads)
    model = init_target(cfg, seed=0)
    offset = 4 + 20
    expected = offset + 8 * sum(a.size for a in _target_arrays(model))
    if len(blob) != expected:
        raise ValueError("checkpoint length mismatch")
    for a in _target_arrays(model):
        n = a.size
        vals = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(a.shape)
        a[...] = vals
        offset += 8 * n
    if offset != len(blob):
        raise ValueError("checkpoint length mismatch")
    return model

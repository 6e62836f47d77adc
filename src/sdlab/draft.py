"""MoE-routed draft network with decoupled dual expert heads.

One reduction layer over concat(token embedding, previous feature), a single
decoder attention layer, an expert layer with top-k routing, and the target
model's embedding and LM head reused verbatim.  Each step emits the
features of its two branches (higher-scoring expert on the left) and the
gated mixture feature that carries the autoregression to the next step,
with its router scores and active experts.  Logits come from three heads
over those features, each computed only when a grower reads it:
``branch_logits`` (both branches, each scaled by its router score),
``mixture_logits`` and ``contrast_logits`` (beta * f_top1 - alpha * f_top2,
with the learned scalars beta and alpha); the trainer's loss reads the
last two heads' features, ``mixture_feature`` and ``contrast_feature``.

Every draft forward goes through one row kernel that takes m rows at once:
``_kv_rows`` (embedding, reduction, norm and one fused q/k/v projection),
then attention over each row's own context (``target.attend``), then
``_out_rows``: the expert layer (``_expert_rows``), then routing and the
mixture (``_route``).  Teacher-forced training runs the same kernel over a
batch of sequences and reads the intermediates its halves return
(``train._forward``).  A ``DraftSession`` owns a prompt's
cache, whose committed rows sit at positions 1 onward: a round's first
pass commits its backlog rows in one call (one token is one sequential
step), a tree level is one call over all its rows, and prefill needs only
the first half.  Linear layers run per row, routing takes a row softmax
and a stable row argsort, every expert runs on every row as one stacked
matmul per projection, and the gated mixture adds each row's chosen
experts in ascending order, so each row is bit for bit what a lone step
would give (see kernels.py for the attention).  A one-row pass, a chain
level or a round's pending row, runs the same ops on vectors from end to
end: it checks its token and feature as Python values, writes its input
row in place, takes its products through ``ndarray.dot`` and its experts
as (experts, ...) products, ranks its experts with Python's stable sort,
adds its chosen experts one by one and takes its best two by index: the
order and bits of a wider pass's concatenation, row stacks, row argsort,
masked sum and gathers, with fewer numpy calls.  The round's opening row
returns its step as it is, and a one-row tree level its step stacked
along the level's row axis.  Input checks run a cheap screen first
(Python's min and max of the tokens, two reductions of the ancestors)
and the exact scan only when it fails, so errors keep their messages and
precedence.  A round's tree rows are
the cache's tentative rows (``KvCache``), in creation order, until the
next round's first pass commits its backlog over them.  All rows of a
tree level share one depth, so a level takes its rows' ancestors as one
(rows, depth - 1) array, and its attention layout is one group gathered
from the buffer at its padded width: the committed rows, then the
ancestors in ascending order, then the row itself.  A one-row level whose
ancestors are all of the round's rows, a chain level, is a causal pass,
one ``attn_row`` call over the buffer in place, and so is a round's
pending row.  A tree level gets its outputs back as one
``DraftStepOutput`` whose fields carry a leading row axis, so tree growth
works on whole levels; the three heads take such a stack as well as a
single step.

Parameters live in a dict of float64 arrays in the layout the row kernel
reads: q, k and v fused as one (3 dim, dim) weight ``wqkv`` stacked by
rows, and every expert's w1 and w2 stacked along a leading expert axis.
The optimizer updates the same arrays in place.  ``param_blocks``
lists them as the checkpoint's blocks, in file order.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import chain_group, layer_norm, row_linear, silu, sinusoid_positions, softmax
from .target import KvCache, TargetModel, attend

MAGIC_DRAFT = b"SDFD"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class DraftConfig:
    vocab: int = 64
    dim: int = 32
    n_heads: int = 2
    n_experts: int = 2
    active_k: int = 2
    expert_hidden: int = 64

    def __post_init__(self):
        for name in ("vocab", "dim", "n_heads", "n_experts", "expert_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 1 <= self.active_k <= self.n_experts:
            raise ValueError("need 1 <= active_k <= n_experts")
        if self.dim % self.n_heads != 0:
            raise ValueError("dim must be divisible by n_heads")


class DraftStepOutput(NamedTuple):
    """One draft step's output, or a stack of them along a leading row axis;
    a named tuple, immutable and cheap to build."""

    feature_moe: np.ndarray
    feature_top1: np.ndarray
    feature_top2: np.ndarray
    # the full router softmax and the active experts, best first (ties to the lower index)
    scores: np.ndarray
    top: np.ndarray
    # router scores of the left and the right branch (the left alone when K=1)
    branch_scores: np.ndarray

    @property
    def active_k(self) -> int:
        return int(self.top.shape[-1])


class DraftModel:
    def __init__(self, config: DraftConfig, params: dict, emb: np.ndarray, head: np.ndarray):
        self.config = config
        self.params = params
        self.emb = emb
        self.head = head

    @property
    def vocab(self) -> int:
        return self.config.vocab

    @property
    def dim(self) -> int:
        return self.config.dim

    def _kv_rows(self, tokens, positions, prev_features):
        """First half of the row kernel: the input rows z (embedding plus
        position, then the fed feature), the reduced rows x, their norm a,
        and q, k, v.

        Row i is token tokens[i] at position positions[i], fed the feature
        prev_features[i] of the step before it.  Decoding reads x, q, k and
        v; the trainer's backward reads z and a too.  One row, a decode
        step, is checked on Python values and runs on vectors, with the
        bits and errors of its row in a wider call.
        """
        cfg = self.config
        p = self.params
        d = cfg.dim
        if len(tokens) == 1:
            # one row: the same checks, in order, on Python values, and its
            # input row written in place
            try:
                f = np.asarray(prev_features[0], np.float64) if len(prev_features) == 1 else None
            except ValueError:  # ragged
                f = None
            if f is None or f.shape != (d,):
                raise ValueError("prev_feature dimension mismatch")
            if not 0 <= tokens[0] < cfg.vocab:
                raise ValueError(f"token {tokens[0]} out of vocab range [0, {cfg.vocab})")
            z = np.empty((1, 2 * d))
            rows = z[0]  # the row as a vector
            np.add(self.emb[operator.index(tokens[0])], sinusoid_positions(positions[0], d),
                   out=rows[:d])
            rows[d:] = f
        else:
            try:
                feats = np.asarray(prev_features, dtype=np.float64)
            except ValueError:  # ragged: rows of different shapes
                feats = None
            if feats is None or feats.shape != (len(tokens), d):
                raise ValueError("prev_feature dimension mismatch")
            tok = np.asarray(tokens)
            listed = tok.tolist()
            # Python's min and max first; the scan finds the first bad token
            if listed and (min(listed) < 0 or max(listed) >= cfg.vocab):
                bad = (tok < 0) | (tok >= cfg.vocab)
                raise ValueError(f"token {tokens[int(np.argmax(bad))]} out of vocab range "
                                 f"[0, {cfg.vocab})")
            z = rows = np.concatenate(
                (self.emb.take(tok, 0) + sinusoid_positions(positions, d), feats), axis=1)
        x = row_linear(p["reduction"], rows)
        a = layer_norm(x, p["ln1_g"], p["ln1_b"])
        qkv = row_linear(p["wqkv"], a)
        if x.ndim == 1:  # one row's vectors, as rows
            x, a, qkv = x[None], a[None], qkv[None]
        return z, x, a, qkv[:, :d], qkv[:, d : 2 * d], qkv[:, 2 * d :]

    def _expert_rows(self, x, att):
        """The expert layer of the rows x, given their attention outputs
        att: the residual u, its norm v_in, the router softmax scores, and
        every expert's hidden layer, activation and output on every row as
        (experts, rows, ...), each projection one stacked matmul whose
        (expert, row) entries are the matrix-vector products a lone row gets.
        One row given as vectors x and att gives vectors, and (experts, ...)
        for the experts.
        """
        p = self.params
        u = x + row_linear(p["wo"], att)
        v_in = layer_norm(u, p["ln2_g"], p["ln2_b"])
        scores = softmax(row_linear(p["router"], v_in))
        if x.ndim == 1:
            # one row as vectors: (experts, ...) products, the gemvs of the
            # row stacks below
            hidden = p["w1"] @ v_in
            act = silu(hidden)
            return u, v_in, scores, hidden, act, (p["w2"] @ act[..., None])[..., 0]
        hidden = (p["w1"][:, None] @ v_in[..., None])[..., 0]
        act = silu(hidden)
        expert_out = (p["w2"][:, None] @ act[..., None])[..., 0]
        return u, v_in, scores, hidden, act, expert_out

    def _out_rows(self, x, att) -> DraftStepOutput:
        """Second half of the row kernel: the step outputs of the rows of x,
        given their attention outputs att, stacked along a leading row axis;
        the step itself for one row given as vectors."""
        u, _, scores, _, _, expert_out = self._expert_rows(x, att)
        return self._route(u, scores, expert_out)

    def _route(self, u, scores, expert_out) -> DraftStepOutput:
        """The step outputs of rows whose expert layer gave u, scores and
        expert_out: each row's active_k best experts, ties to the lower
        index, and the gated mixture of them in ascending order.  One row
        as vectors gives its step, adding the experts one by one; rows add
        an expert a row did not choose as -0.0."""
        cfg = self.config
        if u.ndim == 1:
            # one row, a step: Python's sort is stable, and reverse keeps
            # equal scores in index order
            s = scores.tolist()
            order = sorted(range(cfg.n_experts), key=s.__getitem__, reverse=True)[: cfg.active_k]
            f_moe = u
            for j in sorted(order):  # u, then the chosen experts in ascending order
                f_moe = f_moe + s[j] * expert_out[j]
            best = order[:2]
            return DraftStepOutput(f_moe, expert_out[best[0]] + u, expert_out[best[-1]] + u,
                                   scores, np.array(order), np.array([s[j] for j in best]))
        m = u.shape[0]
        top = (-scores).argsort(axis=1, kind="stable")[:, : cfg.active_k]
        gated = scores.T[..., None] * expert_out
        if cfg.active_k < cfg.n_experts:
            # adding -0.0 for an expert a row did not choose leaves every
            # bit of the sum, a -0.0 too
            chosen = np.logical_or.reduce(top[None] == np.arange(cfg.n_experts)[:, None, None],
                                          axis=2)
            gated = np.where(chosen[..., None], gated, -0.0)
        gated[0] += u
        f_moe = np.add.accumulate(gated, axis=0)[-1]  # u, then expert 0, 1, ... in turn
        best = top[:, :2]
        f_best = expert_out[best.T, np.arange(m)] + u
        s_best = scores[np.arange(m)[:, None], best]
        return DraftStepOutput(f_moe, f_best[0], f_best[-1], scores, top, s_best)

    def _head(self, f: np.ndarray) -> np.ndarray:
        """LM head of a feature vector, or of each row of a stack of them."""
        return self.head.dot(f) if f.ndim == 1 else row_linear(self.head, f)

    def branch_logits(self, step: DraftStepOutput) -> np.ndarray:
        """The two branch heads of a step, or of each row of a stack, as
        (..., 2, vocab): the LM head of the left and of the right branch
        feature, each scaled by its router score (the left twice when K=1)."""
        s = step.branch_scores
        f = np.empty((*s.shape[:-1], 2, self.dim))
        np.multiply(s[..., :1], step.feature_top1, out=f[..., 0, :])
        np.multiply(s[..., -1:], step.feature_top2, out=f[..., 1, :])
        return row_linear(self.head, f.reshape(-1, self.dim)).reshape(*f.shape[:-1], self.vocab)

    def contrast_feature(self, step: DraftStepOutput) -> np.ndarray:
        """The contrast head's feature beta * f_top1 - alpha * f_top2 of a
        step or of each row of a stack, with the learned scalars beta and
        alpha."""
        if step.active_k < 2:
            raise ValueError("contrastive branch requires two active experts")
        beta, alpha = float(self.params["beta"]), float(self.params["alpha"])
        return beta * step.feature_top1 - alpha * step.feature_top2

    def contrast_logits(self, step: DraftStepOutput) -> np.ndarray:
        """LM head of ``contrast_feature``."""
        return self._head(self.contrast_feature(step))

    def mixture_feature(self, step: DraftStepOutput) -> np.ndarray:
        """The single-distribution feature of a step (or of each row of a
        stack): the score-weighted branch mixture, or the gated feature
        when K=1."""
        if step.active_k < 2:
            return step.feature_moe
        s = step.branch_scores
        if s.size == 2:  # one row: its scores as Python floats
            s1, s2 = s.ravel().tolist()
            return s1 * step.feature_top1 + s2 * step.feature_top2
        return s[..., :1] * step.feature_top1 + s[..., 1:] * step.feature_top2

    def mixture_logits(self, step: DraftStepOutput) -> np.ndarray:
        """LM head of ``mixture_feature``."""
        return self._head(self.mixture_feature(step))


class DraftSession:
    """Per-prompt drafting state: a one-layer cache, whose committed row i
    sits at position 1 + i and whose tentative rows are this round's tree
    rows, and the draft forward-pass counter (one count per batched pass: a
    round's opening pass and each tree level)."""

    def __init__(self, model: DraftModel):
        self.model = model
        self.cache = KvCache(1, model.dim)
        self.passes = 0

    def _commit(self, tokens, prev_features):
        """Append committed rows at the next positions in one pass; returns
        the last row's x and q for its output half, and the cache's key and
        value buffers as ``KvCache.scratch`` gives them."""
        if len(tokens) != len(prev_features):
            raise ValueError("tokens/prev_features length mismatch")
        n, pos = len(tokens), self.cache.length + 1
        _, x, _, q, k, v = self.model._kv_rows(tokens, range(pos, pos + n), prev_features)
        keys, values = self.cache.scratch(0, 0, k, v)
        self.cache.commit_rows(range(n))
        return x[-1:], q[-1:], keys, values

    def prefill(self, tokens: list[int], prev_features: list[np.ndarray]) -> None:
        """Ingest committed history rows (positions 1..len); not counted as round passes."""
        if tokens:
            self._commit(tokens, prev_features)

    def begin_round(self, tokens: list[int], prev_features: list[np.ndarray]) -> DraftStepOutput:
        """First pass of a round: commit the backlog of newly accepted tokens
        and the pending token in one sequential pass; returns the pending
        token's step output, which attends to the whole cache and proposes
        depth-1 candidates.  With one token this is a single draft step."""
        if not tokens:
            raise ValueError("begin_round needs at least the pending token")
        self.passes += 1
        x, q, keys, values = self._commit(tokens, prev_features)
        # the pending token's row is the last committed one: a causal row
        att = attend(q, keys, values, self.model.config.n_heads, self.cache.length - 1)
        return self.model._out_rows(x[0], att[0])

    def tree_level(self, tokens, prev_features, ancestors) -> tuple[DraftStepOutput, np.ndarray]:
        """One tentative pass over a tree level.

        Row i is token tokens[i], fed prev_features[i]; ancestors is the
        (rows, depth - 1) array of each row's ancestor rows, root first,
        which index into this round's tentative rows (rows are numbered in
        creation order, so a path's ids ascend).  All rows of a level share
        one depth, so the level is one attention group: each row attends to
        the committed rows, then its ancestors, then itself.  Returns the
        rows' step outputs stacked along a leading row axis and their row
        ids, the cache's tentative rows they became; the next round's first
        pass drops them.
        """
        anc = np.asarray(ancestors, dtype=np.intp)
        m = len(tokens)
        if m < 1 or anc.ndim != 2 or anc.shape[0] != m:
            raise ValueError(f"a tree level needs a (rows, depth - 1) ancestor array for its "
                             f"{m} rows, got shape {anc.shape}")
        t = self.cache.tentative
        # one row whose ancestors are all t rows of the round, a chain level,
        # is a causal pass
        causal = m == 1 and anc.shape[1] == t and anc[0].tolist() == list(range(t))
        # else two reductions first: viewed unsigned, a negative row lies
        # past t too; the scans find the first bad row
        if not causal and anc.shape[1] and (
                np.maximum.reduce(anc.view(np.uintp), None) >= t
                or np.minimum.reduce(anc[:, 1:] - anc[:, :-1], None, initial=1) < 1):
            bad = ((anc < 0) | (anc >= t)).any(axis=1)
            if bad.any():
                raise ValueError(f"row {int(np.argmax(bad))}: ancestor row out of range [0, {t})")
            bad = (anc[:, 1:] <= anc[:, :-1]).any(axis=1)
            raise ValueError(f"row {int(np.argmax(bad))}: ancestor rows must ascend")
        self.passes += 1
        c = self.cache.length
        H = self.model.config.n_heads
        ids = np.arange(t, t + m)
        _, x, _, q, k, v = self.model._kv_rows(tokens, [c + 1 + anc.shape[1]] * m, prev_features)
        keys, values = self.cache.scratch(0, t, k, v)
        if causal:
            att = attend(q, keys, values, H, c + t)
        else:
            att = attend(q, keys, values, H, c, chain_group(c, anc, ids))
        if m == 1:  # the row's step, stacked
            f_moe, f1, f2, scores, top, s_best = self.model._out_rows(x[0], att[0])
            return DraftStepOutput(f_moe[None], f1[None], f2[None], scores[None], top[None],
                                   s_best[None]), ids
        return self.model._out_rows(x, att), ids


def init_draft(config: DraftConfig, target: TargetModel, seed: int = 1) -> DraftModel:
    """Deterministic draft init; embedding and head are shared with the target."""
    if target.vocab != config.vocab or target.dim != config.dim:
        raise ValueError("draft config does not match target vocab/dim")
    rng = np.random.Generator(np.random.PCG64(seed))
    d, n, h = config.dim, config.n_experts, config.expert_hidden
    p: dict[str, np.ndarray] = {}
    p["reduction"] = rng.normal(0.0, 1.0 / np.sqrt(2 * d), size=(d, 2 * d))
    p["ln1_g"] = np.ones(d)
    p["ln1_b"] = np.zeros(d)
    # one draw of wq, wk and wv in turn, as three draws would give them
    p["wqkv"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(3 * d, d))
    p["wo"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
    p["ln2_g"] = np.ones(d)
    p["ln2_b"] = np.zeros(d)
    p["router"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(n, d))
    p["w1"], p["w2"] = np.empty((n, h, d)), np.empty((n, d, h))
    for j in range(n):  # expert by expert, w1 then w2
        p["w1"][j] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(h, d))
        p["w2"][j] = rng.normal(0.0, 1.0 / np.sqrt(h), size=(d, h))
    p["beta"] = np.array(1.0)
    p["alpha"] = np.array(0.1)
    return DraftModel(config, p, target.emb, target.head)


def param_blocks(p: dict) -> list[np.ndarray]:
    """The checkpoint's blocks of a parameter dict, or of a gradient dict of
    the same layout, in file order, as views: reduction, the first norm, wq,
    wk and wv (the row blocks of wqkv), wo, the second norm, the router,
    each expert's w1 and w2 in turn, then beta and alpha."""
    experts = [w for pair in zip(p["w1"], p["w2"]) for w in pair]
    return [p["reduction"], p["ln1_g"], p["ln1_b"], *np.split(p["wqkv"], 3), p["wo"],
            p["ln2_g"], p["ln2_b"], p["router"], *experts, p["beta"], p["alpha"]]


def save_draft(model: DraftModel, path: str) -> None:
    cfg = model.config
    header = MAGIC_DRAFT + struct.pack(
        "<8I",
        CHECKPOINT_VERSION,
        cfg.vocab,
        cfg.dim,
        cfg.n_heads,
        cfg.n_experts,
        cfg.active_k,
        cfg.expert_hidden,
        1,  # the layer norm word: the draft always normalises
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for a in param_blocks(model.params):
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _draft_size(cfg: DraftConfig) -> int:
    """Parameter count of a draft, from its config alone."""
    d, e, h = cfg.dim, cfg.n_experts, cfg.expert_hidden
    # reduction (d, 2d); wqkv, wo; two norms; router; experts; beta, alpha
    return 2 * d * d + 4 * d * d + 4 * d + e * d + e * 2 * h * d + 2


def load_draft(path: str, target: TargetModel) -> DraftModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 4 + 32
    if blob[:4] != MAGIC_DRAFT:
        raise ValueError("bad magic: not a draft checkpoint")
    if len(blob) < offset:
        raise ValueError("checkpoint header truncated")
    version, vocab, dim, n_heads, n_exp, k, hid, ln = struct.unpack_from("<8I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if ln != 1:
        raise ValueError(f"unsupported layer norm word {ln}, expected 1")
    cfg = DraftConfig(vocab=vocab, dim=dim, n_heads=n_heads, n_experts=n_exp,
                      active_k=k, expert_hidden=hid)
    # checked before init_draft allocates what the header asks for
    if len(blob) != offset + 8 * _draft_size(cfg):
        raise ValueError("checkpoint length mismatch")
    model = init_draft(cfg, target, seed=0)
    for a in param_blocks(model.params):
        a[...] = np.frombuffer(blob, dtype="<f8", count=a.size, offset=offset).reshape(a.shape)
        offset += 8 * a.size
    if not all(np.isfinite(a).all() for a in model.params.values()):
        raise ValueError("non-finite parameter value in draft checkpoint")
    return model

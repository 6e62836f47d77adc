"""MoE-routed draft network with decoupled dual expert heads.

One reduction layer over concat(token embedding, previous feature), a single
decoder attention layer, an expert layer with top-k routing, and the target
model's embedding and LM head reused verbatim.  Each step emits two branch
logit vectors (higher-scoring expert on the left) plus the gated mixture
feature that carries the autoregression to the next step.

Every draft forward goes through one row kernel that takes m rows at once:
``_kv_rows`` (embedding, reduction, norm and the q/k/v projections) and
``_out_rows`` (attention over each row's own context, routing, experts and
heads).  A round's first pass commits its backlog rows in one call, a tree
level is one call over all its items, and prefill needs only the first
half.  Linear layers run per row, routing takes a row softmax and a stable
row argsort, each expert runs on just the rows that selected it, and the
gated mixture accumulates in ascending expert order, so each row is bit
for bit what a lone step would give (see kernels.py for the attention).

Parameters live in an ordered dict of float64 arrays so the trainer,
optimizer and checkpoint writer all walk them in one deterministic order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .kernels import (SINGLE_ROW, attn_row, context_groups, context_heads, layer_norm, row_linear,
                      silu, sinusoid_positions, softmax)
from .target import KvCache, TargetModel

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
    use_ln: bool = True

    def __post_init__(self):
        if not 1 <= self.active_k <= self.n_experts:
            raise ValueError("need 1 <= active_k <= n_experts")
        if self.dim % self.n_heads != 0:
            raise ValueError("dim must be divisible by n_heads")


@dataclass(frozen=True)
class ExpertScores:
    """Full router softmax plus the selected expert indices, best first."""

    scores: np.ndarray
    top_indices: np.ndarray


@dataclass(frozen=True)
class GateVector:
    gates: np.ndarray


@dataclass(frozen=True)
class ContrastParams:
    beta: float
    alpha: float


@dataclass(frozen=True)
class DraftStepOutput:
    feature_moe: np.ndarray
    feature_top1: np.ndarray
    feature_top2: np.ndarray
    logits_left: np.ndarray
    logits_right: np.ndarray
    scores: ExpertScores

    @property
    def active_k(self) -> int:
        return int(self.scores.top_indices.shape[0])


@dataclass
class DraftState:
    """A drafting session's cache: one attention layer plus the next position index."""

    cache: KvCache
    next_pos: int = 1


def route_experts(u: np.ndarray, centroids: np.ndarray, active_k: int):
    """Softmax router scores over expert centroids and the sparse top-k gates.

    Ties are broken toward the lower expert index so trees are deterministic.
    """
    scores = softmax(centroids @ u)
    order = np.argsort(-scores, kind="stable")
    top = order[:active_k]
    gates = np.zeros_like(scores)
    gates[top] = scores[top]
    return ExpertScores(scores=scores, top_indices=top), GateVector(gates=gates)


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

    def contrast_params(self) -> ContrastParams:
        return ContrastParams(beta=float(self.params["beta"]), alpha=float(self.params["alpha"]))

    def new_state(self) -> DraftState:
        return DraftState(cache=KvCache(1, self.config.dim), next_pos=1)

    def _kv_rows(self, tokens, positions, prev_features):
        """First half of the row kernel: the reduced rows x and their q, k, v.

        Row i is token tokens[i] at position positions[i], fed the feature
        prev_features[i] of the step before it.
        """
        cfg = self.config
        p = self.params
        for token, f in zip(tokens, prev_features):
            if np.shape(f) != (cfg.dim,):
                raise ValueError("prev_feature dimension mismatch")
            if not 0 <= token < cfg.vocab:
                raise ValueError(f"token {token} out of vocab range [0, {cfg.vocab})")
        e = self.emb[tokens] + sinusoid_positions(positions, cfg.dim)
        x = row_linear(p["reduction"], np.concatenate((e, np.stack(prev_features)), axis=1))
        a_in = layer_norm(x, p["ln1_g"], p["ln1_b"]) if cfg.use_ln else x
        return x, row_linear(p["wq"], a_in), row_linear(p["wk"], a_in), row_linear(p["wv"], a_in)

    def _out_rows(self, x, q, keys, values, groups) -> list[DraftStepOutput]:
        """Second half of the row kernel: one step output per row of x and q.

        Each row attends to the columns of keys / values that ``groups``
        gives it; then the router picks its experts and the heads turn the
        two best branches into logits.
        """
        cfg = self.config
        p = self.params
        H = cfg.n_heads
        att = np.empty_like(q)
        for rows, idx in groups:
            qh = q[rows].reshape(-1, H, cfg.dim // H)
            att[rows] = attn_row(qh, context_heads(keys, idx, H),
                                 context_heads(values, idx, H)).reshape(qh.shape[0], -1)
        u = x + row_linear(p["wo"], att)
        v_in = layer_norm(u, p["ln2_g"], p["ln2_b"]) if cfg.use_ln else u
        # route_experts row by row
        scores = softmax(row_linear(p["router"], v_in))
        top = np.argsort(-scores, axis=1, kind="stable")[:, : cfg.active_k]
        m = x.shape[0]
        picks = np.bincount(top.ravel(), minlength=cfg.n_experts)
        expert_out = np.zeros((cfg.n_experts, m, cfg.dim))
        f_moe = u.copy()
        for j in range(cfg.n_experts):
            if picks[j] == 0:
                continue
            # a slice when every row chose expert j: same rows, no gather
            sel = slice(None) if picks[j] == m else np.flatnonzero((top == j).any(axis=1))
            out = row_linear(p[f"expert{j}_w2"], silu(row_linear(p[f"expert{j}_w1"], v_in[sel])))
            expert_out[j, sel] = out
            f_moe[sel] = f_moe[sel] + scores[sel, j, None] * out
        best = top[:, :2]
        f_best = expert_out[best.T, np.arange(m)] + u
        s_best = np.take_along_axis(scores, best, axis=1)
        f_top1 = f_best[0]
        logits_left = row_linear(self.head, s_best[:, :1] * f_top1)
        if cfg.active_k >= 2:
            f_top2 = f_best[1]
            logits_right = row_linear(self.head, s_best[:, 1:] * f_top2)
        else:
            f_top2 = f_top1
            logits_right = logits_left
        return [
            DraftStepOutput(
                feature_moe=f_moe[i],
                feature_top1=f_top1[i],
                feature_top2=f_top2[i],
                logits_left=logits_left[i],
                logits_right=logits_right[i],
                scores=ExpertScores(scores=scores[i], top_indices=top[i]),
            )
            for i in range(m)
        ]

    def _commit(self, state: DraftState, tokens, prev_features):
        """Append committed rows at the state's next positions in one pass;
        returns the last row's x and q for its output half."""
        if len(tokens) != len(prev_features):
            raise ValueError("tokens/prev_features length mismatch")
        n = len(tokens)
        x, q, k, v = self._kv_rows(tokens, range(state.next_pos, state.next_pos + n), prev_features)
        state.cache.extend([k], [v])
        state.next_pos += n
        return x[-1:], q[-1:]

    def _commit_out(self, state: DraftState, tokens, prev_features) -> DraftStepOutput:
        """Commit rows, then the step output of the last, which attends to the whole cache."""
        x, q = self._commit(state, tokens, prev_features)
        return self._out_rows(x, q, state.cache.keys(0), state.cache.values(0), SINGLE_ROW)[0]

    def forward_cached(self, state: DraftState, token: int, prev_feature: np.ndarray) -> DraftStepOutput:
        """One committed draft step at the session's next position."""
        return self._commit_out(state, [token], [prev_feature])

    def contrastive_heads(self, step: DraftStepOutput, cparams: ContrastParams):
        """Mixture logits and contrast logits from the two active expert branches."""
        if step.active_k < 2:
            raise ValueError("contrastive branch requires two active experts")
        s = step.scores.scores
        s1 = float(s[int(step.scores.top_indices[0])])
        s2 = float(s[int(step.scores.top_indices[1])])
        mix = s1 * step.feature_top1 + s2 * step.feature_top2
        const = cparams.beta * step.feature_top1 - cparams.alpha * step.feature_top2
        return self.head @ mix, self.head @ const

    def mixture_logits(self, step: DraftStepOutput, cparams: ContrastParams | None = None) -> np.ndarray:
        """Single-distribution view of a step: branch mixture, or the gated feature when K=1."""
        if step.active_k < 2:
            return self.head @ step.feature_moe
        cp = cparams if cparams is not None else self.contrast_params()
        logits_moe, _ = self.contrastive_heads(step, cp)
        return logits_moe

    def parallel_final_step(self, step: DraftStepOutput, cparams: ContrastParams,
                            depth: int, gamma: int, temperature: float = 1.0):
        """Distributions for the last two tree depths out of one draft pass.

        The mixture head covers depth gamma-1 and the contrast head covers
        depth gamma; no extra draft forward is spent on the final depth.
        """
        if depth != gamma - 1:
            raise ValueError(f"parallel final step invoked at depth {depth}, expected {gamma - 1}")
        logits_moe, logits_const = self.contrastive_heads(step, cparams)
        return softmax(logits_moe, temperature), softmax(logits_const, temperature)


class DraftSession:
    """Per-prompt drafting state: committed rows, a per-round tentative row
    buffer for tree exploration, and the draft forward-pass counter (one count
    per batched pass: a round's opening pass and each tree level)."""

    def __init__(self, model: DraftModel):
        self.model = model
        self.state = model.new_state()
        self.passes = 0
        # this round's tentative rows: (rows, dim) keys and values
        self._tk = self._tv = np.zeros((0, model.dim))

    def prefill(self, tokens: list[int], prev_features: list[np.ndarray]) -> None:
        """Ingest committed history rows (positions 1..len); not counted as round passes."""
        if tokens:
            self.model._commit(self.state, tokens, prev_features)

    def begin_round(self, tokens: list[int], prev_features: list[np.ndarray]) -> DraftStepOutput:
        """First pass of a round: commit the backlog of newly accepted tokens
        and the pending token in one sequential pass; returns the pending
        token's step output, which proposes depth-1 candidates."""
        if not tokens:
            raise ValueError("begin_round needs at least the pending token")
        self.passes += 1
        self._tk = self._tv = np.zeros((0, self.model.dim))
        return self.model._commit_out(self.state, tokens, prev_features)

    def tree_level(self, items: list[tuple[int, np.ndarray, list[int], int]]) -> list[tuple[DraftStepOutput, int]]:
        """One tentative pass over a tree level.

        Each item is (token, prev_feature, ancestor_row_ids, depth); ancestors
        index into this round's tentative rows, root first (rows are numbered
        in creation order, so a path's ids ascend).  Returns (step output,
        row id) pairs; rows are discarded when the next round begins.
        """
        self.passes += 1
        if not items:
            return []
        cache = self.state.cache
        c = cache.length
        t = self._tk.shape[0]
        m = len(items)
        mask = np.zeros((m, c + t + m), dtype=bool)
        mask[:, :c] = True
        for i, (_token, _f, anc, _depth) in enumerate(items):
            if anc:
                if not 0 <= min(anc) <= max(anc) < t:
                    raise ValueError(f"item {i}: ancestor row out of range [0, {t})")
                mask[i, c + np.asarray(anc)] = True
        mask[np.arange(m), c + t + np.arange(m)] = True
        base = self.state.next_pos - 1
        x, q, k, v = self.model._kv_rows(
            [it[0] for it in items], [base + it[3] for it in items], [it[1] for it in items])
        keys = np.concatenate((cache.keys(0), self._tk, k))
        values = np.concatenate((cache.values(0), self._tv, v))
        outs = self.model._out_rows(x, q, keys, values, context_groups(mask))
        self._tk = keys[c:]
        self._tv = values[c:]
        return [(out, t + i) for i, out in enumerate(outs)]


def init_draft(config: DraftConfig, target: TargetModel, seed: int = 1) -> DraftModel:
    """Deterministic draft init; embedding and head are shared with the target."""
    if target.vocab != config.vocab or target.dim != config.dim:
        raise ValueError("draft config does not match target vocab/dim")
    rng = np.random.Generator(np.random.PCG64(seed))
    d = config.dim
    p: dict[str, np.ndarray] = {}
    p["reduction"] = rng.normal(0.0, 1.0 / np.sqrt(2 * d), size=(d, 2 * d))
    p["ln1_g"] = np.ones(d)
    p["ln1_b"] = np.zeros(d)
    for name in ("wq", "wk", "wv", "wo"):
        p[name] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
    p["ln2_g"] = np.ones(d)
    p["ln2_b"] = np.zeros(d)
    p["router"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(config.n_experts, d))
    for j in range(config.n_experts):
        p[f"expert{j}_w1"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(config.expert_hidden, d))
        p[f"expert{j}_w2"] = rng.normal(0.0, 1.0 / np.sqrt(config.expert_hidden), size=(d, config.expert_hidden))
    p["beta"] = np.array(1.0)
    p["alpha"] = np.array(0.1)
    return DraftModel(config, p, target.emb, target.head)


def param_order(config: DraftConfig) -> list[str]:
    names = ["reduction", "ln1_g", "ln1_b", "wq", "wk", "wv", "wo", "ln2_g", "ln2_b", "router"]
    for j in range(config.n_experts):
        names += [f"expert{j}_w1", f"expert{j}_w2"]
    names += ["beta", "alpha"]
    return names


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
        1 if cfg.use_ln else 0,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for name in param_order(cfg):
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def load_draft(path: str, target: TargetModel) -> DraftModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC_DRAFT:
        raise ValueError("bad magic: not a draft checkpoint")
    version, vocab, dim, n_heads, n_exp, k, hid, use_ln = struct.unpack_from("<8I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    cfg = DraftConfig(vocab=vocab, dim=dim, n_heads=n_heads, n_experts=n_exp,
                      active_k=k, expert_hidden=hid, use_ln=bool(use_ln))
    model = init_draft(cfg, target, seed=0)
    offset = 4 + 32
    expected = offset + 8 * sum(model.params[n].size for n in param_order(cfg))
    if len(blob) != expected:
        raise ValueError("checkpoint length mismatch")
    for name in param_order(cfg):
        a = model.params[name]
        n = a.size
        vals = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(a.shape)
        if a.shape == ():
            model.params[name] = np.array(float(vals))
        else:
            a[...] = vals
        offset += 8 * n
    if offset != len(blob):
        raise ValueError("checkpoint length mismatch")
    return model

"""Distillation of the draft model from a frozen target.

The teacher-forced training pass runs the draft's decode row kernel
(``DraftModel._kv_rows``, ``attn_row``, ``_expert_rows`` and ``_route``)
over every step of a batch at once and reads the features of the heads
decoding reads (``mixture_feature``, ``contrast_feature``), so each feature
and distribution the loss reads is bit for bit the one decoding computes
(tests check it).  Gradients are written by hand and audited with central
differences.  The backward reads the row kernel's intermediates and
recomputes only the attention weights and layer norm statistics; each
weight gradient is one matmul over the flattened rows, on the draft's own
parameter layout.  The objective combines two feature-regression terms and
two classification terms:

    total = reg_moe + W_CLS_MOE * cls_moe + reg_const + W_CLS_CONST * cls_const

where the mixture branch predicts one step ahead and the contrast branch two
steps ahead.  Every sequence of a batch is full length, so the contrast
terms cover all but each sequence's last step, which has no target two
tokens out; a draft with one active expert has no contrast head, and its
contrast terms are 0.
The regression terms are smooth L1 with beta SMOOTH_L1_BETA.  Each step is
one in-place Adam update (ADAM_BETA1, ADAM_BETA2) of the gradient clipped
to global norm GRAD_CLIP, the norm summed block by block in checkpoint
order (``draft.param_blocks``); a TrainConfig sets the learning rate, the
batch size and the seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .draft import DraftModel, param_blocks
from .kernels import (LN_EPS, LOG_CLAMP, attn_row, context_heads, padded, row_linear, silu_grad,
                      softmax)
from .target import TargetModel

MAGIC_CORPUS = b"SDFC"


W_CLS_MOE = 0.1        # weight of the mixture branch's classification term
W_CLS_CONST = 0.05     # weight of the contrast branch's classification term
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
GRAD_CLIP = 0.5        # bound on the global gradient norm of one step
SMOOTH_L1_BETA = 1.0   # the regression terms are quadratic inside |diff| < beta


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 16
    seed: int = 0


@dataclass
class TrainBatch:
    """Aligned (token, feature, next-token distribution) sequences from the target."""

    tokens: np.ndarray    # (B, T) int64
    features: np.ndarray  # (B, T, d)
    probs: np.ndarray     # (B, T, V); probs[b, t] is the distribution of tokens[b, t+1]

    @property
    def n_sequences(self) -> int:
        return self.tokens.shape[0]

    def take(self, idx) -> "TrainBatch":
        return TrainBatch(self.tokens[idx], self.features[idx], self.probs[idx])


def generate_distillation_corpus(target: TargetModel, n_sequences: int, seq_len: int,
                                 temperature: float = 1.0, seed: int = 0) -> TrainBatch:
    """Sample sequences from the frozen target, recording features and
    next-token distributions at every position."""
    rng = np.random.Generator(np.random.PCG64(seed))
    V, d = target.vocab, target.dim
    tokens = np.zeros((n_sequences, seq_len), dtype=np.int64)
    feats = np.zeros((n_sequences, seq_len, d))
    probs = np.zeros((n_sequences, seq_len, V))
    for b in range(n_sequences):
        cache = target.new_cache()
        t = int(rng.integers(0, V))
        for i in range(seq_len):
            tokens[b, i] = t
            out = target.forward_cached(cache, t)
            feats[b, i] = out.feature
            probs[b, i] = softmax(out.logits)
            if i + 1 < seq_len:
                if temperature == 0.0:
                    t = int(np.argmax(out.logits))
                else:
                    t = int(rng.choice(V, p=softmax(out.logits, temperature)))
    return TrainBatch(tokens=tokens, features=feats, probs=probs)


def save_corpus(batch: TrainBatch, path: str) -> None:
    n, t = batch.tokens.shape
    d = batch.features.shape[2]
    v = batch.probs.shape[2]
    with open(path, "wb") as fh:
        fh.write(MAGIC_CORPUS + struct.pack("<4I", n, t, v, d))
        for b in range(n):
            fh.write(batch.tokens[b].astype("<u4").tobytes())
            fh.write(np.ascontiguousarray(batch.features[b], dtype="<f8").tobytes())


def load_corpus(path: str, target: TargetModel) -> TrainBatch:
    """Read tokens and features; distributions are reconstructed through the
    target head (probs = softmax(head . feature)), one matrix-vector product
    per row as decoding computes them, so they are the generated corpus's
    bits."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC_CORPUS:
        raise ValueError("bad magic: not a corpus file")
    if len(blob) < 4 + 16:
        raise ValueError("corpus header truncated")
    n, t, v, d = struct.unpack_from("<4I", blob, 4)
    if v != target.vocab or d != target.dim:
        raise ValueError("corpus vocab/dim does not match the target model")
    # training reads next-token targets, so every sequence needs 2 tokens
    if n < 1 or t < 2:
        raise ValueError(f"corpus needs sequences of at least 2 tokens, got {n} of {t} tokens")
    # checked before the arrays the header asks for are allocated
    if len(blob) != 4 + 16 + n * t * (4 + 8 * d):
        raise ValueError("corpus length mismatch")
    tokens = np.zeros((n, t), dtype=np.int64)
    feats = np.zeros((n, t, d))
    off = 4 + 16
    for b in range(n):
        tokens[b] = np.frombuffer(blob, dtype="<u4", count=t, offset=off)
        off += 4 * t
        feats[b] = np.frombuffer(blob, dtype="<f8", count=t * d, offset=off).reshape(t, d)
        off += 8 * t * d
    if tokens.max() >= v:
        raise ValueError(f"corpus token {int(tokens.max())} out of vocab range [0, {v})")
    if not np.isfinite(feats).all():
        raise ValueError("non-finite feature in corpus")
    probs = softmax(row_linear(target.head, feats.reshape(-1, d))).reshape(n, t, v)
    return TrainBatch(tokens=tokens, features=feats, probs=probs)


def _ln_backward(dy, x, g):
    """Gradients of ``layer_norm(x, g, b)`` rows with respect to x, g and b,
    given dy; the statistics of x are recomputed in batched form."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    dxhat = dy * g
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, (dy * xhat).sum(axis=0), dy.sum(axis=0)


def _smooth_l1(diff):
    """Smooth L1 of pred - target rows, averaged over the feature and summed
    over the rows."""
    ad = np.abs(diff)
    b = SMOOTH_L1_BETA
    return float(np.where(ad < b, 0.5 * ad * ad / b, ad - 0.5 * b).mean(axis=-1).sum())


def _cross_entropy(qpred, ptgt):
    """-sum(p * log(max(q, clamp))), summed over the rows."""
    return float(-(ptgt * np.log(np.maximum(qpred, LOG_CLAMP))).sum())


def _forward(model: DraftModel, batch: TrainBatch):
    """Teacher-forced pass of every sequence of a batch through the draft's
    row kernel; returns the loss, its breakdown and the stash the backward
    pass reads.

    Row s of sequence b is the draft step that decode's ``begin_round``
    takes on the sequence's prefix: token s + 1 at position s + 1, fed the
    target's feature of token s.  The B·(T-1) rows share one ``_kv_rows``
    call, one causal attention call and one ``_expert_rows`` call; each
    sequence's keys and values are padded to padded(T - 1) columns of zeros,
    and row s reads its first s + 1, so every row, feature and distribution
    is bit for bit the decode step's (kernels.py).
    """
    mc = model.config
    B, T = batch.tokens.shape
    if T < 2:
        raise ValueError("sequence shorter than 2")
    S, d, H = T - 1, mc.dim, mc.n_heads
    M = B * S
    z, x, a, q, k, v = model._kv_rows(batch.tokens[:, 1:].ravel(), np.tile(np.arange(1, T), B),
                                      batch.features[:, :-1].reshape(M, d))
    kv = np.zeros((2, B, padded(S), d))
    kv[0, :, :S] = k.reshape(B, S, d)
    kv[1, :, :S] = v.reshape(B, S, d)
    att = attn_row(q.reshape(B, S, H, d // H), context_heads(kv[0], H)[:, None],
                   context_heads(kv[1], H)[:, None], np.arange(1, T)[:, None]).reshape(M, d)
    u, v_in, scores, hidden, act, expert_out = model._expert_rows(x, att)
    step = model._route(u, scores, expert_out)
    mix = model.mixture_feature(step)
    qm = softmax(model._head(mix))
    st = dict(B=B, S=S, z=z, x=x, a=a, q=q, k=k, v=v, att=att, u=u, v_in=v_in, scores=scores,
              hidden=hidden, act=act, expert_out=expert_out, step=step, mix=mix, qm=qm,
              diff_m=mix - batch.features[:, 1:].reshape(M, d),
              tgt_mp=batch.probs[:, 1:].reshape(M, -1))
    breakdown = {"reg_moe": _smooth_l1(st["diff_m"]) / M,
                 "cls_moe": _cross_entropy(qm, st["tgt_mp"]) / M,
                 "reg_const": 0.0, "cls_const": 0.0}
    # the contrast head reads two experts and targets two tokens out: every
    # step but each sequence's last
    if mc.active_k >= 2 and S > 1:
        fc = model.contrast_feature(step).reshape(B, S, d)[:, :-1].reshape(-1, d)
        n = fc.shape[0]
        st.update(fc=fc, qc=softmax(model._head(fc)),
                  diff_c=fc - batch.features[:, 2:].reshape(n, d),
                  tgt_cp=batch.probs[:, 2:].reshape(n, -1))
        breakdown["reg_const"] = _smooth_l1(st["diff_c"]) / n
        breakdown["cls_const"] = _cross_entropy(st["qc"], st["tgt_cp"]) / n
    total = (breakdown["reg_moe"] + W_CLS_MOE * breakdown["cls_moe"]
             + breakdown["reg_const"] + W_CLS_CONST * breakdown["cls_const"])
    breakdown["total"] = total
    return total, breakdown, st


def jakiro_loss(model: DraftModel, batch: TrainBatch):
    """Combined objective and its per-term breakdown."""
    total, breakdown, _ = _forward(model, batch)
    return total, breakdown


def _head_grad(model, diff, qpred, ptgt, w_cls):
    """Gradient on a branch's feature of its regression term plus w_cls times
    its classification term, each averaged over the rows: the element
    gradient of mean-over-feature smooth L1 at diff = pred - target, and
    the logit gradient of -sum(p * log(max(q, clamp))), q = softmax(logits),
    through the head."""
    n, b = diff.shape[0], SMOOTH_L1_BETA
    pa = ptgt * (qpred > LOG_CLAMP)
    dlogits = qpred * pa.sum(axis=-1, keepdims=True) - pa
    dreg = np.where(np.abs(diff) < b, diff / b, np.sign(diff)) / diff.shape[-1]
    return dreg / n + (dlogits * (w_cls / n)) @ model.head


def loss_and_grads(model: DraftModel, batch: TrainBatch):
    """The loss, its breakdown and the gradient of every parameter.

    The backward reads the row kernel's intermediates from the forward and
    recomputes only the attention weights and the layer norm statistics,
    in batched form; each weight gradient is one matmul over the flattened
    rows.
    """
    total, breakdown, st = _forward(model, batch)
    p, mc = model.params, model.config
    B, S, H, N = st["B"], st["S"], mc.n_heads, mc.n_experts
    M, d = st["x"].shape
    dh = d // H
    step, rows = st["step"], np.arange(M)
    grads = {}

    # the heads: d(loss) on u, on each expert's output and on the router scores
    dmix = _head_grad(model, st["diff_m"], st["qm"], st["tgt_mp"], W_CLS_MOE)
    d_out = np.zeros((N, M, d))
    d_scores = np.zeros((M, N))
    i1 = step.top[:, 0]
    if mc.active_k < 2:
        # the gated feature u + s1 * e1 of the one chosen expert
        du = dmix
        d_out[i1, rows] = step.branch_scores[:, :1] * dmix
        d_scores[rows, i1] = (dmix * st["expert_out"][i1, rows]).sum(axis=1)
        grads["beta"], grads["alpha"] = np.zeros(()), np.zeros(())
    else:
        # the mixture s1 * f1 + s2 * f2 and the contrast beta * f1 - alpha * f2
        # of the two best experts, with f = e + u
        dfc = np.zeros((B, S, d))
        if "fc" in st:
            dfc[:, :-1] = _head_grad(model, st["diff_c"], st["qc"], st["tgt_cp"],
                                     W_CLS_CONST).reshape(B, S - 1, d)
        dfc = dfc.reshape(M, d)
        f1, f2, i2 = step.feature_top1, step.feature_top2, step.top[:, 1]
        s = step.branch_scores
        df1 = s[:, :1] * dmix + float(p["beta"]) * dfc
        df2 = s[:, 1:] * dmix - float(p["alpha"]) * dfc
        du = df1 + df2
        d_out[i1, rows] = df1
        d_out[i2, rows] = df2
        d_scores[rows, i1] = (dmix * f1).sum(axis=1)
        d_scores[rows, i2] = (dmix * f2).sum(axis=1)
        grads["beta"], grads["alpha"] = np.array(np.vdot(dfc, f1)), np.array(-np.vdot(dfc, f2))

    # the router and the experts
    scores, v_in = st["scores"], st["v_in"]
    d_router = scores * (d_scores - (d_scores * scores).sum(axis=1, keepdims=True))
    grads["router"] = d_router.T @ v_in
    grads["w2"] = d_out.transpose(0, 2, 1) @ st["act"]
    d_hidden = (d_out @ p["w2"]) * silu_grad(st["hidden"])
    grads["w1"] = d_hidden.transpose(0, 2, 1) @ v_in
    dv_in = d_router @ p["router"] + (d_hidden @ p["w1"]).sum(axis=0)
    du_ln, grads["ln2_g"], grads["ln2_b"] = _ln_backward(dv_in, st["u"], p["ln2_g"])
    du = du + du_ln

    # attention, its weights recomputed per sequence and head
    grads["wo"] = du.T @ st["att"]
    datt = (du @ p["wo"]).reshape(B, S, H, dh).transpose(0, 2, 1, 3)
    q, k, v = (st[n].reshape(B, S, H, dh).transpose(0, 2, 1, 3) for n in "qkv")
    logits = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
    logits[..., np.triu(np.ones((S, S), dtype=bool), 1)] = -np.inf
    P = np.exp(logits - logits.max(axis=-1, keepdims=True))
    P /= P.sum(axis=-1, keepdims=True)
    dP = datt @ v.transpose(0, 1, 3, 2)
    d_logits = P * (dP - (dP * P).sum(axis=-1, keepdims=True)) / np.sqrt(dh)
    dqkv = np.concatenate([g.transpose(0, 2, 1, 3).reshape(M, d) for g in (
        d_logits @ k, d_logits.transpose(0, 1, 3, 2) @ q, P.transpose(0, 1, 3, 2) @ datt)], axis=1)
    grads["wqkv"] = dqkv.T @ st["a"]
    dx_ln, grads["ln1_g"], grads["ln1_b"] = _ln_backward(dqkv @ p["wqkv"], st["x"], p["ln1_g"])
    grads["reduction"] = (du + dx_ln).T @ st["z"]
    return total, breakdown, grads


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def init(cls, model: DraftModel) -> "AdamState":
        st = cls()
        for name, a in model.params.items():
            st.m[name] = np.zeros_like(a)
            st.v[name] = np.zeros_like(a)
        return st


def train_step(model: DraftModel, batch: TrainBatch, opt: AdamState, cfg: TrainConfig):
    """One clipped Adam update; raises (leaving params unchanged) on a
    non-finite loss or gradient."""
    total, breakdown, grads = loss_and_grads(model, batch)
    if not np.isfinite(total):
        raise ValueError("non-finite loss")
    sq = 0.0
    # summed block by block: one sum over all of wqkv would round differently
    for g in param_blocks(grads):
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient")
        sq += float(np.sum(g * g))
    norm = np.sqrt(sq)
    scale = min(1.0, GRAD_CLIP / norm) if norm > 0 else 1.0
    opt.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**opt.t
    c2 = 1.0 - b2**opt.t
    for name, w in model.params.items():
        g = grads[name] * scale
        opt.m[name] = b1 * opt.m[name] + (1.0 - b1) * g
        opt.v[name] = b2 * opt.v[name] + (1.0 - b2) * g * g
        w -= cfg.lr * (opt.m[name] / c1) / (np.sqrt(opt.v[name] / c2) + 1e-8)
    return total, breakdown


def train_draft(model: DraftModel, corpus: TrainBatch, cfg: TrainConfig, steps: int,
                log_every: int = 0):
    """Minibatch training loop over a fixed corpus; fully seed-deterministic."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    opt = AdamState.init(model)
    history = []
    n = corpus.n_sequences
    bs = min(cfg.batch_size, n)
    for step in range(steps):
        idx = rng.integers(0, n, size=bs)
        loss, breakdown = train_step(model, corpus.take(idx), opt, cfg)
        history.append(loss)
        if log_every and (step % log_every == 0 or step == steps - 1):
            terms = "  ".join(f"{name} {breakdown[name]:.4f}"
                              for name in ("reg_moe", "cls_moe", "reg_const", "cls_const"))
            print(f"step {step:5d}  loss {loss:.6f}  {terms}")
    return history


def finite_diff_check(model: DraftModel, batch: TrainBatch,
                      n_coords: int = 64, h: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Coordinates are sampled across every parameter group; beta and alpha are
    always included.
    """
    if not 1e-6 <= h <= 1e-4:
        raise ValueError("h must lie in [1e-6, 1e-4]")
    rng = np.random.Generator(np.random.PCG64(seed))
    _, _, grads = loss_and_grads(model, batch)
    blocks, grad_blocks = param_blocks(model.params), param_blocks(grads)
    coords = [(len(blocks) - 2, 0), (len(blocks) - 1, 0)]  # beta, alpha
    total_size = sum(b.size for b in blocks)
    for _ in range(max(0, n_coords - len(coords))):
        r = int(rng.integers(0, total_size))
        for i, b in enumerate(blocks):
            if r < b.size:
                coords.append((i, r))
                break
            r -= b.size
    worst = 0.0
    for i, flat_idx in coords:
        arr = blocks[i]
        orig = float(arr.flat[flat_idx])
        arr.flat[flat_idx] = orig + h
        lp, _ = jakiro_loss(model, batch)
        arr.flat[flat_idx] = orig - h
        lm, _ = jakiro_loss(model, batch)
        arr.flat[flat_idx] = orig
        numeric = (lp - lm) / (2.0 * h)
        analytic = float(grad_blocks[i].flat[flat_idx])
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst

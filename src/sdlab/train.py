"""Distillation of the draft model from a frozen target.

The teacher-forced training pass is a batched re-implementation of the draft
step (verified against the sequential path by tests); gradients are written
by hand and audited with central differences.  It reads and updates the
draft's own parameter arrays, the ones its row kernel decodes with, and
runs one GEMM per checkpoint block on views of them (q, k and v each on
their row block of ``wqkv``, each expert on its slice of ``w1``/``w2``).
The objective combines two feature-regression terms and two
classification terms:

    total = reg_moe + w_cls_moe * cls_moe + reg_const + w_cls_const * cls_const

where the mixture branch predicts one step ahead and the contrast branch two
steps ahead.  Every sequence of a batch is full length, so the contrast
terms cover all but each sequence's last step, which has no target two
tokens out.
The regression terms are smooth L1 with beta SMOOTH_L1_BETA.  Each step is
one in-place Adam update (ADAM_BETA1, ADAM_BETA2) of the gradient clipped
to global norm GRAD_CLIP, the norm summed block by block in checkpoint
order (``draft.param_blocks``); a TrainConfig sets the two classification
weights, the learning rate, the batch size and the seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .draft import DraftModel, param_blocks
from .kernels import LN_EPS, LOG_CLAMP, row_linear, silu, silu_grad, sinusoid_positions, softmax
from .target import TargetModel

MAGIC_CORPUS = b"SDFC"


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
GRAD_CLIP = 0.5        # bound on the global gradient norm of one step
SMOOTH_L1_BETA = 1.0   # the regression terms are quadratic inside |diff| < beta


@dataclass(frozen=True)
class TrainConfig:
    w_cls_moe: float = 0.1
    w_cls_const: float = 0.05
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


def _ln_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv, g)


def _ln_backward(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).reshape(-1, dy.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dg, db


def _forward(model: DraftModel, batch: TrainBatch, cfg: TrainConfig):
    """Teacher-forced batched pass; returns losses, breakdown and the stash
    the backward pass needs."""
    p = model.params
    mc = model.config
    B, T = batch.tokens.shape
    if T < 2:
        raise ValueError("sequence shorter than 2")
    if mc.n_experts < 2:
        raise ValueError(f"training needs n_experts >= 2 for its two expert branches, "
                         f"got {mc.n_experts}")
    S = T - 1
    d, H, N = mc.dim, mc.n_heads, mc.n_experts
    dh = d // H

    tok_in = batch.tokens[:, 1:]
    feat_in = batch.features[:, :-1]
    e_in = model.emb[tok_in] + sinusoid_positions(range(1, T), d)[None]
    z = np.concatenate((e_in, feat_in), axis=-1)
    h = z @ p["reduction"].T
    a_in, ln1c = _ln_forward(h, p["ln1_g"], p["ln1_b"])
    q, k, v = ((a_in @ w.T).reshape(B, S, H, dh).transpose(0, 2, 1, 3)
               for w in np.split(p["wqkv"], 3))
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
    tril = np.tril(np.ones((S, S), dtype=bool))
    scores = np.where(tril[None, None], scores, -1e30)
    P = softmax(scores)
    att = (P @ v).transpose(0, 2, 1, 3).reshape(B, S, d)
    u = h + att @ p["wo"].T
    v_in, ln2c = _ln_forward(u, p["ln2_g"], p["ln2_b"])
    rl = v_in @ p["router"].T
    s = softmax(rl)
    order = np.argsort(-s, axis=-1, kind="stable")
    i1, i2 = order[..., 0], order[..., 1]
    hid = np.stack([v_in @ p["w1"][j].T for j in range(N)], axis=2)   # (B,S,N,he)
    act = silu(hid)
    eout = np.stack([act[:, :, j] @ p["w2"][j].T for j in range(N)], axis=2)  # (B,S,N,d)
    e1 = np.take_along_axis(eout, i1[..., None, None], axis=2)[:, :, 0]
    e2 = np.take_along_axis(eout, i2[..., None, None], axis=2)[:, :, 0]
    s1 = np.take_along_axis(s, i1[..., None], axis=-1)[..., 0]
    s2 = np.take_along_axis(s, i2[..., None], axis=-1)[..., 0]
    f1 = e1 + u
    f2 = e2 + u
    mix = s1[..., None] * f1 + s2[..., None] * f2
    beta = float(p["beta"])
    alpha = float(p["alpha"])
    fc = beta * f1 - alpha * f2
    lm = mix @ model.head.T
    lc = fc @ model.head.T
    qm = softmax(lm)
    qc = softmax(lc)

    # targets: the mixture's at each of the S steps, the contrast head's at all but the last
    n_moe = B * S
    n_const = B * (S - 1)

    slb = SMOOTH_L1_BETA
    tgt_mf = batch.features[:, 1:]
    diff_m = mix - tgt_mf
    ad = np.abs(diff_m)
    per_m = np.where(ad < slb, 0.5 * ad * ad / slb, ad - 0.5 * slb).mean(axis=-1)
    reg_moe = float(per_m.sum() / n_moe)

    tgt_mp = batch.probs[:, 1:]
    ce_m = -(tgt_mp * np.log(np.maximum(qm, LOG_CLAMP))).sum(axis=-1)
    cls_moe = float(ce_m.sum() / n_moe)

    if n_const > 0:
        tgt_cf = batch.features[:, 2:]
        diff_c = fc[:, : S - 1] - tgt_cf
        adc = np.abs(diff_c)
        per_c = np.where(adc < slb, 0.5 * adc * adc / slb, adc - 0.5 * slb).mean(axis=-1)
        reg_const = float(per_c.sum() / n_const)
        tgt_cp = batch.probs[:, 2:]
        ce_c = -(tgt_cp * np.log(np.maximum(qc[:, : S - 1], LOG_CLAMP))).sum(axis=-1)
        cls_const = float(ce_c.sum() / n_const)
    else:
        reg_const = 0.0
        cls_const = 0.0

    total = reg_moe + cfg.w_cls_moe * cls_moe + reg_const + cfg.w_cls_const * cls_const
    breakdown = {
        "reg_moe": reg_moe,
        "cls_moe": cls_moe,
        "reg_const": reg_const,
        "cls_const": cls_const,
        "total": total,
    }
    stash = dict(
        B=B, S=S, d=d, H=H, dh=dh, N=N, z=z, h=h, a_in=a_in, ln1c=ln1c,
        q=q, k=k, v=v, P=P, att=att, u=u, v_in=v_in, ln2c=ln2c, s=s,
        i1=i1, i2=i2, hid=hid, act=act, e1=e1, e2=e2, s1=s1, s2=s2,
        f1=f1, f2=f2, mix=mix, fc=fc, qm=qm, qc=qc, beta=beta, alpha=alpha,
        n_moe=n_moe, n_const=n_const,
        diff_m=diff_m, tgt_mp=tgt_mp,
    )
    if n_const > 0:
        stash["diff_c"] = diff_c
        stash["tgt_cp"] = tgt_cp
    return total, breakdown, stash


def jakiro_loss(model: DraftModel, batch: TrainBatch, cfg: TrainConfig):
    """Combined objective and its per-term breakdown."""
    total, breakdown, _ = _forward(model, batch, cfg)
    return total, breakdown


def _ce_logit_grad(qpred, ptgt):
    """d/dlogits of -sum(p * log(max(q, clamp))) with q = softmax(logits)."""
    active = qpred > LOG_CLAMP
    pa = ptgt * active
    return qpred * pa.sum(axis=-1, keepdims=True) - pa


def _smooth_l1_elem_grad(diff, beta, dim):
    """Element gradient of mean-over-feature smooth L1, given pred - target."""
    return np.where(np.abs(diff) < beta, diff / beta, np.sign(diff)) / dim


def loss_and_grads(model: DraftModel, batch: TrainBatch, cfg: TrainConfig):
    total, breakdown, st = _forward(model, batch, cfg)
    p = model.params
    B, S, d, H, dh, N = st["B"], st["S"], st["d"], st["H"], st["dh"], st["N"]
    slb = SMOOTH_L1_BETA
    grads = {name: np.zeros_like(a) for name, a in p.items()}

    dmix = _smooth_l1_elem_grad(st["diff_m"], slb, d) / st["n_moe"]
    dlm = _ce_logit_grad(st["qm"], st["tgt_mp"]) * (cfg.w_cls_moe / st["n_moe"])
    dmix = dmix + dlm @ model.head

    dfc = np.zeros((B, S, d))
    if st["n_const"] > 0:
        dfc_v = _smooth_l1_elem_grad(st["diff_c"], slb, d) / st["n_const"]
        dlc = _ce_logit_grad(st["qc"][:, : S - 1], st["tgt_cp"]) * (cfg.w_cls_const / st["n_const"])
        dfc[:, : S - 1] = dfc_v + dlc @ model.head

    f1, f2, s1, s2 = st["f1"], st["f2"], st["s1"], st["s2"]
    beta, alpha = st["beta"], st["alpha"]
    df1 = s1[..., None] * dmix + beta * dfc
    df2 = s2[..., None] * dmix - alpha * dfc
    ds1 = np.einsum("bsd,bsd->bs", dmix, f1)
    ds2 = np.einsum("bsd,bsd->bs", dmix, f2)
    grads["beta"] = np.array(np.einsum("bsd,bsd->", dfc, f1))
    grads["alpha"] = np.array(-np.einsum("bsd,bsd->", dfc, f2))

    ds = np.zeros((B, S, N))
    np.put_along_axis(ds, st["i1"][..., None], ds1[..., None], axis=-1)
    np.put_along_axis(ds, st["i2"][..., None], ds2[..., None], axis=-1)
    s = st["s"]
    drl = s * (ds - (ds * s).sum(axis=-1, keepdims=True))
    dv_in = drl @ p["router"]
    grads["router"] = np.einsum("bsn,bsd->nd", drl, st["v_in"])

    du = df1 + df2
    for j in range(N):
        sel = (st["i1"] == j)[..., None] * df1 + (st["i2"] == j)[..., None] * df2
        grads["w2"][j] = np.einsum("bsd,bsh->dh", sel, st["act"][:, :, j])
        dact = sel @ p["w2"][j]
        dhid = dact * silu_grad(st["hid"][:, :, j])
        grads["w1"][j] = np.einsum("bsh,bsd->hd", dhid, st["v_in"])
        dv_in = dv_in + dhid @ p["w1"][j]

    dup, grads["ln2_g"], grads["ln2_b"] = _ln_backward(dv_in, st["ln2c"])
    du = du + dup

    att = st["att"]
    datt = du @ p["wo"]
    grads["wo"] = np.einsum("bsd,bse->de", du, att)
    dh_ = du.copy()
    datt_h = datt.reshape(B, S, H, dh).transpose(0, 2, 1, 3)
    P, q, k, v = st["P"], st["q"], st["k"], st["v"]
    dP = datt_h @ v.transpose(0, 1, 3, 2)
    dv_h = P.transpose(0, 1, 3, 2) @ datt_h
    dscores = P * (dP - (dP * P).sum(axis=-1, keepdims=True))
    dq_h = dscores @ k / np.sqrt(dh)
    dk_h = dscores.transpose(0, 1, 3, 2) @ q / np.sqrt(dh)
    dq = dq_h.transpose(0, 2, 1, 3).reshape(B, S, d)
    dk = dk_h.transpose(0, 2, 1, 3).reshape(B, S, d)
    dv = dv_h.transpose(0, 2, 1, 3).reshape(B, S, d)
    a_in = st["a_in"]
    wq, wk, wv = np.split(p["wqkv"], 3)
    da_in = dq @ wq + dk @ wk + dv @ wv
    grads["wqkv"] = np.concatenate([np.einsum("bsd,bse->de", g, a_in) for g in (dq, dk, dv)])

    dhp, grads["ln1_g"], grads["ln1_b"] = _ln_backward(da_in, st["ln1c"])
    dh_ = dh_ + dhp

    grads["reduction"] = np.einsum("bsd,bse->de", dh_, st["z"])
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
    total, breakdown, grads = loss_and_grads(model, batch, cfg)
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


def finite_diff_check(model: DraftModel, batch: TrainBatch, cfg: TrainConfig,
                      n_coords: int = 64, h: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Coordinates are sampled across every parameter group; beta and alpha are
    always included.
    """
    if not 1e-6 <= h <= 1e-4:
        raise ValueError("h must lie in [1e-6, 1e-4]")
    rng = np.random.Generator(np.random.PCG64(seed))
    _, _, grads = loss_and_grads(model, batch, cfg)
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
        lp, _ = jakiro_loss(model, batch, cfg)
        arr.flat[flat_idx] = orig - h
        lm, _ = jakiro_loss(model, batch, cfg)
        arr.flat[flat_idx] = orig
        numeric = (lp - lm) / (2.0 * h)
        analytic = float(grad_blocks[i].flat[flat_idx])
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst

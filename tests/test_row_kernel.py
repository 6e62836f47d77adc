"""The batched row kernels against the per-token loops they replaced.

The reference functions below are the one-row-at-a-time target and draft
steps, with the vector attention and softmax they used.  Every batched
forward must reproduce them bit for bit (``np.array_equal``): the greedy
losslessness gate and the pinned snapshots depend on it.
"""

import numpy as np
import pytest

from sdlab.draft import DraftConfig, DraftSession, init_draft
from sdlab.kernels import layer_norm, silu, sinusoid_position
from sdlab.target import TargetConfig, init_target


# ---------------------------------------------------------------- references

def ref_softmax(z):
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def ref_attn_row(q, keys, values):
    scores = keys @ q / np.sqrt(float(keys.shape[1]))
    return ref_softmax(scores) @ values


def ref_heads_attention(q, K, V, n_heads):
    dh = q.shape[0] // n_heads
    out = np.empty(q.shape[0])
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        out[sl] = ref_attn_row(q[sl], K[:, sl], V[:, sl])
    return out


def ref_token_step(model, token, position, ctx_k, ctx_v):
    """One token through the target stack; ctx_k / ctx_v are per-layer earlier rows."""
    x = model.emb[token] + sinusoid_position(position, model.dim)
    new_k, new_v = [], []
    for l, lp in enumerate(model.layers):
        a_in = layer_norm(x, lp.ln1_g, lp.ln1_b)
        q, k, v = lp.wq @ a_in, lp.wk @ a_in, lp.wv @ a_in
        K = np.concatenate((ctx_k[l], k[None, :]), axis=0)
        V = np.concatenate((ctx_v[l], v[None, :]), axis=0)
        x = x + lp.wo @ ref_heads_attention(q, K, V, model.config.n_heads)
        m_in = layer_norm(x, lp.ln2_g, lp.ln2_b)
        x = x + lp.w2 @ silu(lp.w1 @ m_in)
        new_k.append(k)
        new_v.append(v)
    f = layer_norm(x, model.lnf_g, model.lnf_b)
    return model.head @ f, f, new_k, new_v


def ref_forward_tree(model, cache, tokens, mask, positions):
    """Row-by-row tree forward: (logits, features, per-layer k, per-layer v)."""
    m, c, L = len(tokens), cache.length, model.config.n_layers
    ks = [np.zeros((m, model.dim)) for _ in range(L)]
    vs = [np.zeros((m, model.dim)) for _ in range(L)]
    logits, feats = [], []
    for i in range(m):
        pref = np.flatnonzero(mask[i, :c])
        anc = np.flatnonzero(mask[i, c : c + i])
        ctx_k = [np.concatenate((cache.keys(l)[pref], ks[l][anc])) for l in range(L)]
        ctx_v = [np.concatenate((cache.values(l)[pref], vs[l][anc])) for l in range(L)]
        lg, f, k, v = ref_token_step(model, tokens[i], c + int(positions[i]), ctx_k, ctx_v)
        for l in range(L):
            ks[l][i] = k[l]
            vs[l][i] = v[l]
        logits.append(lg)
        feats.append(f)
    return logits, feats, ks, vs


def ref_draft_step(draft, token, position, prev_feature, ctx_k, ctx_v):
    """One draft step: (feature_moe, f_top1, f_top2, logits_left, logits_right, scores, top, k, v)."""
    cfg, p = draft.config, draft.params
    e = draft.emb[token] + sinusoid_position(position, cfg.dim)
    x = p["reduction"] @ np.concatenate((e, prev_feature))
    a_in = layer_norm(x, p["ln1_g"], p["ln1_b"]) if cfg.use_ln else x
    q, k, v = p["wq"] @ a_in, p["wk"] @ a_in, p["wv"] @ a_in
    K = np.concatenate((ctx_k, k[None, :]), axis=0)
    V = np.concatenate((ctx_v, v[None, :]), axis=0)
    u = x + p["wo"] @ ref_heads_attention(q, K, V, cfg.n_heads)
    v_in = layer_norm(u, p["ln2_g"], p["ln2_b"]) if cfg.use_ln else u
    scores = ref_softmax(p["router"] @ v_in)
    top = np.argsort(-scores, kind="stable")[: cfg.active_k]
    expert_out = {int(j): p[f"expert{j}_w2"] @ silu(p[f"expert{j}_w1"] @ v_in) for j in top}
    f_moe = u.copy()
    for j in sorted(expert_out):
        f_moe = f_moe + scores[j] * expert_out[j]
    t1 = int(top[0])
    f_top1 = expert_out[t1] + u
    left = draft.head @ (float(scores[t1]) * f_top1)
    if cfg.active_k >= 2:
        t2 = int(top[1])
        f_top2 = expert_out[t2] + u
        right = draft.head @ (float(scores[t2]) * f_top2)
    else:
        f_top2, right = f_top1, left
    return (f_moe, f_top1, f_top2, left, right, scores, top), k, v


class RefDraftSession:
    """The per-item draft session: one reference step per committed or tree row."""

    def __init__(self, draft):
        self.draft = draft
        self.k = np.zeros((0, draft.dim))
        self.v = np.zeros((0, draft.dim))
        self.next_pos = 1
        self.tk, self.tv = [], []

    def commit(self, tokens, feats):
        out = None
        for t, f in zip(tokens, feats):
            out, k, v = ref_draft_step(self.draft, t, self.next_pos, f, self.k, self.v)
            self.k = np.concatenate((self.k, k[None]))
            self.v = np.concatenate((self.v, v[None]))
            self.next_pos += 1
        self.tk, self.tv = [], []
        return out

    def tree_level(self, items):
        res = []
        for token, f, anc, depth in items:
            ctx_k = np.concatenate([self.k] + [self.tk[a][None] for a in anc])
            ctx_v = np.concatenate([self.v] + [self.tv[a][None] for a in anc])
            out, k, v = ref_draft_step(self.draft, token, self.next_pos - 1 + depth, f, ctx_k, ctx_v)
            self.tk.append(k)
            self.tv.append(v)
            res.append((out, len(self.tk) - 1))
        return res


def assert_step_equal(got, want):
    f_moe, f1, f2, left, right, scores, top = want
    assert np.array_equal(got.feature_moe, f_moe)
    assert np.array_equal(got.feature_top1, f1)
    assert np.array_equal(got.feature_top2, f2)
    assert np.array_equal(got.logits_left, left)
    assert np.array_equal(got.logits_right, right)
    assert np.array_equal(got.scores.scores, scores)
    assert np.array_equal(got.scores.top_indices, top)


# -------------------------------------------------------------------- target

@pytest.fixture(scope="module")
def target():
    return init_target(TargetConfig(), seed=0)


def random_tree_mask(rng, c, m, partial_prefix):
    """(m, c + m) mask of a random tree over m rows, optionally with random prefix holes."""
    mask = np.zeros((m, c + m), dtype=bool)
    mask[:, :c] = rng.random((m, c)) < 0.7 if partial_prefix else True
    depth = np.zeros(m, dtype=int)
    for i in range(m):
        if i > 0 and rng.random() < 0.85:
            parent = int(rng.integers(0, i))
            mask[i, c:] = mask[parent, c:]
            depth[i] = depth[parent] + 1
        mask[i, c + i] = True
    return mask, depth


def cached(target, prompt):
    cache = target.new_cache()
    for t in prompt:
        target.forward_cached(cache, t)
    return cache


@pytest.mark.parametrize("m", [1, 2, 7, 65, 300])
@pytest.mark.parametrize("partial_prefix", [False, True])
def test_forward_tree_kv_matches_row_loop(target, m, partial_prefix):
    rng = np.random.default_rng(1000 * m + partial_prefix)
    c = int(rng.integers(1, 41))
    cache = cached(target, [int(t) for t in rng.integers(0, target.vocab, size=c)])
    mask, depth = random_tree_mask(rng, c, m, partial_prefix)
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=m)]
    positions = list(depth)
    outs, kv = target.forward_tree_kv(cache, tokens, mask, positions)
    logits, feats, ks, vs = ref_forward_tree(target, cache, tokens, mask, positions)
    for o, lg, f in zip(outs, logits, feats):
        assert np.array_equal(o.logits, lg)
        assert np.array_equal(o.feature, f)
    for l in range(target.config.n_layers):
        assert np.array_equal(kv.k[l], ks[l])
        assert np.array_equal(kv.v[l], vs[l])


def test_forward_tree_kv_square_mask_and_empty_prefix(target):
    rng = np.random.default_rng(5)
    cache = target.new_cache()
    mask, depth = random_tree_mask(rng, 0, 20, False)
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=20)]
    outs, _ = target.forward_tree_kv(cache, tokens, mask, list(depth))
    logits, _, _, _ = ref_forward_tree(target, cache, tokens, mask, list(depth))
    assert all(np.array_equal(o.logits, lg) for o, lg in zip(outs, logits))
    cache = cached(target, [3, 1, 4])
    square = np.zeros((23, 23), dtype=bool)
    square[3:, :3] = True
    square[3:, 3:] = mask
    outs_sq, _ = target.forward_tree_kv(cache, tokens, square, list(depth))
    outs_rect, _ = target.forward_tree_kv(cache, tokens, square[3:], list(depth))
    assert all(np.array_equal(a.logits, b.logits) for a, b in zip(outs_sq, outs_rect))


def test_forward_cached_matches_token_step(target):
    rng = np.random.default_rng(7)
    cache = target.new_cache()
    ctx_k = [np.zeros((0, target.dim)) for _ in range(target.config.n_layers)]
    ctx_v = [np.zeros((0, target.dim)) for _ in range(target.config.n_layers)]
    for pos, t in enumerate(int(t) for t in rng.integers(0, target.vocab, size=40)):
        out = target.forward_cached(cache, t)
        lg, f, k, v = ref_token_step(target, t, pos, ctx_k, ctx_v)
        assert np.array_equal(out.logits, lg)
        assert np.array_equal(out.feature, f)
        ctx_k = [np.concatenate((a, b[None])) for a, b in zip(ctx_k, k)]
        ctx_v = [np.concatenate((a, b[None])) for a, b in zip(ctx_v, v)]
    for l in range(target.config.n_layers):
        assert np.array_equal(cache.keys(l), ctx_k[l])
        assert np.array_equal(cache.values(l), ctx_v[l])


def test_tree_must_attend_to_itself(target):
    cache = cached(target, [1, 2])
    mask = np.ones((2, 4), dtype=bool)
    mask[1, 3] = False
    mask[0, 3] = False
    with pytest.raises(ValueError, match="tree token 1 must attend to itself"):
        target.forward_tree_kv(cache, [5, 6], mask, [0, 1])


def test_tree_token_out_of_vocab(target):
    cache = cached(target, [1, 2])
    mask = np.concatenate((np.ones((2, 2), dtype=bool), np.eye(2, dtype=bool)), axis=1)
    with pytest.raises(ValueError, match="out of vocab range"):
        target.forward_tree_kv(cache, [5, target.vocab], mask, [0, 0])
    with pytest.raises(ValueError, match="out of vocab range"):
        target.forward_tree_kv(cache, [-1, 5], mask, [0, 0])


# --------------------------------------------------------------------- draft

def draft_level_check(draft, rng, levels=4, width=9):
    """Grow a random tree level by level in both sessions; every output equal."""
    ctx_len = int(rng.integers(2, 12))
    tokens = [int(t) for t in rng.integers(0, draft.vocab, size=ctx_len)]
    feats = list(rng.normal(size=(ctx_len, draft.dim)))
    sess, ref = DraftSession(draft), RefDraftSession(draft)
    sess.prefill(tokens[:-2], feats[:-2])
    ref.commit(tokens[:-2], feats[:-2])
    for _round in range(2):
        out = sess.begin_round(tokens[-2:], feats[-2:])
        assert_step_equal(out, ref.commit(tokens[-2:], feats[-2:]))
        paths = [[]]
        for depth in range(1, levels + 1):
            items = []
            for _ in range(int(rng.integers(1, width + 1))):
                path = paths[int(rng.integers(0, len(paths)))]
                items.append((int(rng.integers(0, draft.vocab)), rng.normal(size=draft.dim),
                              path, depth))
            got = sess.tree_level(items)
            want = ref.tree_level(items)
            for (g_out, g_row), (w_out, w_row) in zip(got, want):
                assert g_row == w_row
                assert_step_equal(g_out, w_out)
            paths = [it[2] + [row] for it, (_o, row) in zip(items, got)]
        tokens = tokens[1:] + [int(rng.integers(0, draft.vocab))]
        feats = feats[1:] + [rng.normal(size=draft.dim)]


@pytest.mark.parametrize("n_experts,active_k", [(2, 1), (2, 2), (3, 2), (4, 2), (4, 3)])
def test_tree_level_matches_per_item_steps(target, n_experts, active_k):
    draft = init_draft(DraftConfig(n_experts=n_experts, active_k=active_k), target, seed=3)
    draft_level_check(draft, np.random.default_rng(10 * n_experts + active_k))


def test_tree_level_without_layer_norm(target):
    draft = init_draft(DraftConfig(use_ln=False), target, seed=4)
    draft_level_check(draft, np.random.default_rng(99))


def test_tree_level_rejects_unknown_ancestor(target):
    draft = init_draft(DraftConfig(), target, seed=1)
    sess = DraftSession(draft)
    f = np.zeros(draft.dim)
    sess.begin_round([1, 2], [f, f])
    [(_out, row)] = sess.tree_level([(3, f, [], 1)])
    with pytest.raises(ValueError, match="ancestor row out of range"):
        sess.tree_level([(4, f, [row + 1], 2)])


def test_draft_forward_cached_matches_step(target):
    draft = init_draft(DraftConfig(), target, seed=1)
    rng = np.random.default_rng(8)
    state, ref = draft.new_state(), RefDraftSession(draft)
    for t in rng.integers(0, draft.vocab, size=12):
        f = rng.normal(size=draft.dim)
        assert_step_equal(draft.forward_cached(state, int(t), f), ref.commit([int(t)], [f]))
    assert np.array_equal(state.cache.keys(0), ref.k)

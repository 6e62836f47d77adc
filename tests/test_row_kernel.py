"""The batched row kernels against the per-token loops they replaced.

The reference functions below are the one-row-at-a-time target and draft
steps, with the vector attention and softmax they used.  Every batched
forward must reproduce them bit for bit (``np.array_equal``): the greedy
losslessness gate and the pinned snapshots depend on it.
"""

import copy
import pickle

import numpy as np
import pytest

import sdlab.target
from sdlab.bench import RunConfig, build_models, decode_prompt, make_prompts
from sdlab import kernels
from sdlab.draft import DraftConfig, DraftModel, DraftSession, init_draft
from sdlab.kernels import (MAX_GATHER, PAD, attn_row, chain_group, context_heads, layer_norm,
                           padded, row_linear, silu, sinusoid_position, sinusoid_positions,
                           softmax)
from sdlab.target import KV_CAPACITY, TargetConfig, TargetModel, attend, init_target, tree_groups
from sdlab.tree import grow_static_tree
from sdlab.train import TrainConfig, generate_distillation_corpus, train_draft

from test_draft import step_row


# ---------------------------------------------------------------- references

def committed(cache, layer):
    """The committed key and value rows of one layer of a KvCache."""
    return cache._k[layer][: cache.length], cache._v[layer][: cache.length]


def ref_softmax(z):
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def ref_attn_row(q, keys, values, n):
    """Attention of one row over the first n rows of its (W, dh) context,
    W a multiple of PAD: the scores past n are masked with -inf, the
    normaliser is a (1, W) @ (W, 2) ones product, and the mix is divided by
    it."""
    w = keys.shape[0]
    scores = keys @ q / np.sqrt(float(keys.shape[1]))
    scores[n:] = -np.inf
    e = np.exp(scores - np.max(scores))
    return (e @ values) / (e[None] @ np.ones((w, 2)))[0, 0]


def ref_heads_attention(q, K, V, n_heads):
    """Each head of one row over its (n, dim) context, padded with zero rows
    to padded(n).  The heads are column slices of the (W, dim) context, the
    layout the models read: OpenBLAS's gemv takes another path for a
    three-column matrix whose rows are contiguous."""
    n, dim = K.shape
    dh = dim // n_heads
    Kp, Vp = np.zeros((padded(n), dim)), np.zeros((padded(n), dim))
    Kp[:n], Vp[:n] = K, V
    out = np.empty(dim)
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        out[sl] = ref_attn_row(q[sl], Kp[:, sl], Vp[:, sl], n)
    return out


def ref_token_step(model, token, position, ctx_k, ctx_v):
    """One token through the target stack; ctx_k / ctx_v are per-layer earlier rows."""
    x = model.emb[token] + sinusoid_position(position, model.dim)
    new_k, new_v = [], []
    for l, lp in enumerate(model.layers):
        a_in = layer_norm(x, lp.ln1_g, lp.ln1_b)
        q, k, v = np.split(lp.wqkv @ a_in, 3)  # the fused q/k/v projection
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
        ctx_k = [np.concatenate((committed(cache, l)[0][pref], ks[l][anc])) for l in range(L)]
        ctx_v = [np.concatenate((committed(cache, l)[1][pref], vs[l][anc])) for l in range(L)]
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
    a_in = layer_norm(x, p["ln1_g"], p["ln1_b"])
    q, k, v = np.split(p["wqkv"] @ a_in, 3)  # the fused q/k/v projection
    K = np.concatenate((ctx_k, k[None, :]), axis=0)
    V = np.concatenate((ctx_v, v[None, :]), axis=0)
    u = x + p["wo"] @ ref_heads_attention(q, K, V, cfg.n_heads)
    v_in = layer_norm(u, p["ln2_g"], p["ln2_b"])
    scores = ref_softmax(p["router"] @ v_in)
    top = np.argsort(-scores, kind="stable")[: cfg.active_k]
    expert_out = {int(j): p["w2"][j] @ silu(p["w1"][j] @ v_in) for j in top}
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


def assert_step_equal(draft, got, want):
    f_moe, f1, f2, left, right, scores, top = want
    assert np.array_equal(got.feature_moe, f_moe)
    assert np.array_equal(got.feature_top1, f1)
    assert np.array_equal(got.feature_top2, f2)
    assert np.array_equal(draft.branch_logits(got), [left, right])
    assert np.array_equal(got.scores, scores)
    assert np.array_equal(got.top, top)
    assert np.array_equal(got.branch_scores, scores[top[:2]])


def ref_build_mask(parents):
    """The (m, m) ancestor-or-self mask verification used to build from the
    tree (tree.build_mask): row i copies its parent's row, then sets itself."""
    m = len(parents)
    mask = np.zeros((m, m), dtype=bool)
    for i, p in enumerate(parents):
        if p >= 0:
            mask[i] = mask[p]
        mask[i, i] = True
    return mask


def ref_tree_mask(c, parents):
    """(m, c + m) context mask of tree rows after c prefix columns."""
    return np.concatenate((np.ones((len(parents), c), dtype=bool), ref_build_mask(parents)), axis=1)


def assert_groups_equal(got, mask):
    """tree_groups' pieces against a (rows, columns) context mask: they
    cover the rows in order, each piece at most MAX_GATHER rows x columns
    (or one row), all at the one width padded(widest context); row r reads
    n = its mask's column count, its mask's columns in order, and padding
    that reads column 0."""
    lengths = mask.sum(axis=1)
    w = padded(int(lengths.max()))
    assert len(got) == -(-mask.shape[0] // max(1, MAX_GATHER // w))
    end = 0
    for rows, idx, n in got:
        assert rows == slice(end, end + idx.shape[0])
        assert idx.shape[1] == w and n.shape == (idx.shape[0], 1)
        assert idx.size <= MAX_GATHER or idx.shape[0] == 1
        for r, ix, k in zip(range(rows.start, rows.stop), idx, n[:, 0]):
            assert k == lengths[r]
            assert np.array_equal(ix[:k], np.flatnonzero(mask[r]))
            assert not ix[k:].any()
        end = rows.stop
    assert end == mask.shape[0]


def random_tree(rng, m, p_child=0.85):
    """Parents and depths of a random level-ordered tree over m rows: row i
    hangs under a random earlier row with probability p_child, so with
    p_child < 1 it is usually a forest; then the rows are stably sorted by
    depth and the parents renumbered."""
    parents = np.full(m, -1)
    depth = np.zeros(m, dtype=int)
    for i in range(1, m):
        if rng.random() < p_child:
            parents[i] = int(rng.integers(0, i))
            depth[i] = depth[parents[i]] + 1
    order = np.argsort(depth, kind="stable")
    new = np.empty(m, dtype=int)
    new[order] = np.arange(m)
    parents = parents[order]
    return np.where(parents < 0, -1, new[parents]), depth[order]


# ------------------------------------------------------------------- layouts

@pytest.mark.parametrize("seed", range(40))
def test_tree_groups_match_mask_oracle(seed):
    rng = np.random.default_rng(seed)
    m, c = int(rng.integers(1, 120)), int(rng.integers(0, 60))
    parents, depth = random_tree(rng, m, p_child=rng.uniform(0.5, 1.0))
    assert_groups_equal(tree_groups(c, parents, depth), ref_tree_mask(c, parents))


def test_tree_groups_one_row_and_forests():
    rng = np.random.default_rng(3)
    for c in (0, 1, 17):
        one = np.array([-1])
        assert_groups_equal(tree_groups(c, one, np.zeros(1, dtype=int)), ref_tree_mask(c, one))
    for m in (2, 65, 300):
        roots = np.full(m, -1)  # every row attends to the prefix only
        assert_groups_equal(tree_groups(30, roots, np.zeros(m, dtype=int)),
                            ref_tree_mask(30, roots))
        for p_child in (0.85, 1.0):
            parents, depth = random_tree(rng, m, p_child)
            assert_groups_equal(tree_groups(30, parents, depth), ref_tree_mask(30, parents))


@pytest.mark.parametrize("seed", range(10))
def test_tree_groups_under_ancestors(seed):
    # the subtree of a row v, forwarded after v's a ancestors are committed
    # from the whole tree's rows, reads the key rows each of its rows reads
    # in one pass over the whole tree, in order: the prefix, then the
    # ancestors, then its own ancestors and itself
    rng = np.random.default_rng(seed)
    m, c = int(rng.integers(2, 60)), int(rng.integers(0, 140))
    parents, depth = random_tree(rng, m, p_child=rng.uniform(0.5, 1.0))
    whole = {}
    for rows, idx, n in tree_groups(c, parents, depth):
        for r, ix, k in zip(range(rows.start, rows.stop), idx, n[:, 0]):
            whole[r] = ix[:k].tolist()
    for v in rng.choice(m, size=min(m, 8), replace=False).tolist():
        anc = [v]
        while parents[anc[0]] >= 0:
            anc.insert(0, int(parents[anc[0]]))
        anc.pop()
        sub = [r for r in range(v, m) if r == v or c + v in whole[r][:-1]]
        local = {r: k for k, r in enumerate(sub)}
        sub_par = np.array([local.get(int(parents[r]), -1) for r in sub])
        # committed column c + i holds ancestor i, column c + a + k row sub[k]
        key = list(range(c)) + [c + i for i in anc] + [c + r for r in sub]
        end = 0
        for rows, idx, n in tree_groups(c + len(anc), sub_par, depth[sub] - len(anc)):
            assert rows.start == end
            assert idx.shape[1] == padded(c + 1 + int(depth[sub].max()))
            for r, ix, k in zip(range(rows.start, rows.stop), idx, n[:, 0]):
                assert [key[j] for j in ix[:k]] == whole[sub[r]] and not ix[k:].any()
            end = rows.stop
        assert end == len(sub)


def test_tree_groups_cut_at_max_gather():
    # 1001- and 1002-column rows, all read at width 1004: two per piece,
    # a piece may mix depths
    parents = np.array([-1, -1, -1, -1, -1, 0, 0, 3])
    depth = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    groups = tree_groups(1000, parents, depth)
    assert_groups_equal(groups, ref_tree_mask(1000, parents))
    assert [len(idx) for _, idx, _ in groups] == [2, 2, 2, 2]
    assert [n[:, 0].tolist() for _, _, n in groups] == [[1001, 1001], [1001, 1001],
                                                        [1001, 1002], [1002, 1002]]
    # 3000-column rows: one per piece
    groups = tree_groups(2999, parents[:5], depth[:5])
    assert [len(idx) for _, idx, _ in groups] == [1] * 5
    parents, depth = random_tree(np.random.default_rng(4), 400)
    assert_groups_equal(tree_groups(500, parents, depth), ref_tree_mask(500, parents))


def test_sinusoid_positions_match_one_position_rows():
    rng = np.random.default_rng(6)
    pos = rng.integers(0, 3001, size=5000)  # unsorted, repeated, past the first table
    for dim in (32, 6, 9):
        want = np.stack([sinusoid_position(int(p), dim) for p in pos])
        assert np.array_equal(sinusoid_positions(pos, dim), want)
        assert np.array_equal(sinusoid_positions(list(pos[:1]), dim), want[:1])
        assert sinusoid_positions([], dim).shape == (0, dim)
        for i in range(0, 5000, 250):  # one position as an int: its row
            assert np.array_equal(sinusoid_positions(int(pos[i]), dim), want[i])
    for bad in ([3, -1], -1):
        with pytest.raises(ValueError, match="negative position"):
            sinusoid_positions(bad, 32)


@pytest.mark.parametrize("dim", [6, 9])
def test_sinusoid_position_interleaves_sin_and_cos(dim):
    # an odd width carries one extra sine at the lowest frequency in its last slot
    for pos in (0, 1, 7, 2999):
        enc = sinusoid_position(pos, dim)
        for i in range(dim // 2):
            angle = pos * np.exp(-np.log(10000.0) * (2.0 * i / dim))
            assert abs(enc[2 * i] - np.sin(angle)) < 1e-12
            assert abs(enc[2 * i + 1] - np.cos(angle)) < 1e-12
        if dim % 2:
            assert abs(enc[-1] - np.sin(pos * 1e-4)) < 1e-12


# ------------------------------------------------------- attention invariance

ORACLE_CONTEXTS = [*range(141), 200, 251, 300, 517]


def unpadded_attention(q, keys, values, n_heads, n):
    """One row's heads over the first n buffer rows, read at width n itself."""
    return attn_row(q.reshape(n_heads, -1), context_heads(keys[None, :n], n_heads)[0],
                    context_heads(values[None, :n], n_heads)[0], n).reshape(-1)


@pytest.mark.parametrize("dim,n_heads", [(32, 2), (30, 2), (9, 3), (6, 2)])
def test_attention_rows_do_not_depend_on_the_pass(dim, n_heads):
    # row i of a causal pass over c context rows is, bit for bit, the lone
    # row at c + i and the one-row gathered group over the same columns;
    # finite garbage in the rows none of them reads moves no bit
    rng = np.random.default_rng(dim)
    rows = padded(max(ORACLE_CONTEXTS) + 9)
    garbage = np.where(rng.random((rows, dim)) < 0.5, -1e300, 1e300)
    for c in ORACLE_CONTEXTS:
        for m in (1, 2, 6, 9):
            keys, values = rng.normal(size=(2, padded(c + m), dim))
            q = rng.normal(size=(m, dim))
            full = attend(q, keys, values, n_heads, c)
            spoilt_k, spoilt_v = keys.copy(), values.copy()
            spoilt_k[c + m :] = spoilt_v[c + m :] = garbage[: padded(c + m) - c - m]
            assert np.array_equal(attend(q, spoilt_k, spoilt_v, n_heads, c), full)
            for i in range(m):
                n = c + i + 1
                spoilt_k[:n], spoilt_v[:n] = keys[:n], values[:n]
                spoilt_k[n:] = spoilt_v[n:] = garbage[: padded(c + m) - n]
                # the row alone, as a one-row group with no ancestors
                group = chain_group(n - 1, np.empty((1, 0), dtype=np.intp),
                                    np.zeros(1, dtype=np.intp))
                for k, v in ((keys, values), (spoilt_k, spoilt_v)):
                    lone = attend(q[i : i + 1], k, v, n_heads, n - 1)
                    gathered = attend(q[i : i + 1], k, v, n_heads, n - 1, group)
                    assert np.array_equal(lone[0], full[i]), (c, m, i)
                    assert np.array_equal(gathered[0], full[i]), (c, m, i)


@pytest.mark.parametrize("dim,n_heads", [(32, 2), (30, 2), (9, 3), (6, 2)])
def test_attention_width_matters_on_this_blas(dim, n_heads):
    # the negative control: read at its own width n, some row comes out
    # different from the padded read, so the padding above is what makes
    # the rows invariant; if no width differs, the BLAS blocks its gemv
    # some other way and the rule needs a fresh look
    rng = np.random.default_rng(dim + 1)
    moved = []
    for n in range(1, 141):
        keys, values = rng.normal(size=(2, padded(n), dim))
        q = rng.normal(size=(1, dim))
        if not np.array_equal(unpadded_attention(q[0], keys, values, n_heads, n),
                              attend(q, keys, values, n_heads, n - 1)[0]):
            moved.append(n)
    assert moved, "every unpadded width read the padded bits"
    assert all(n % PAD for n in moved)  # a width that needs no padding is the padded read


def test_attention_rejects_a_non_finite_score():
    rng = np.random.default_rng(30)
    q = rng.normal(size=(2, 8))
    keys, values = rng.normal(size=(2, 2, 8, 8))
    keys[1, 5, 0], q[1, 0] = np.inf, 1.0
    with pytest.raises(ValueError, match="non-finite attention score"):
        attn_row(q, keys, values, 7)
    keys[1, 5, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite attention score"):
        attn_row(q, keys, values, np.array([6, 7]))
    # a column past n is masked before the check
    assert np.isfinite(attn_row(q, keys, values, 5)).all()


def test_attention_passes_finite_scores_near_the_float_limit():
    # two heads whose top scores would overflow if they were summed
    q = np.full((1, 2, 1), 1.5)
    keys = np.full((1, 2, 4, 1), 1e308)
    values = np.arange(8.0).reshape(1, 2, 4, 1)
    out = attn_row(q, keys, values, 1)
    assert np.array_equal(out, values[:, :, 0])


@pytest.mark.parametrize("pass_", ["step", "prefill", "chain", "tree", "draft"])
def test_a_nan_cached_key_raises(target, pass_):
    cache = cached(target, [1, 2, 3, 4, 5])
    cache._k[1][2, 5] = np.nan  # one cached key of the second layer
    with pytest.raises(ValueError, match="non-finite attention score"):
        if pass_ == "step":
            target.forward_cached(cache, 6)
        elif pass_ == "prefill":
            target.prefill(cache, [6, 7, 8])
        elif pass_ == "chain":
            target.forward_tree_kv(cache, [6, 7, 8], [-1, 0, 1], [0, 1, 2])
        elif pass_ == "tree":
            target.forward_tree_kv(cache, [6, 7, 8], [-1, 0, 0], [0, 1, 1])
        else:
            draft = init_draft(DraftConfig(), target, seed=3)
            sess = DraftSession(draft)
            sess.prefill([1, 2, 3], list(np.zeros((3, draft.dim))))
            sess.cache._k[0][1, 0] = np.nan
            sess.begin_round([4], [np.zeros(draft.dim)])


# -------------------------------------------------------------------- target

@pytest.fixture(scope="module")
def target():
    return init_target(TargetConfig(), seed=0)


def cached(target, prompt):
    cache = target.new_cache()
    for t in prompt:
        target.forward_cached(cache, t)
    return cache


@pytest.mark.parametrize("m,c", [
    *(pytest.param(m, None, id=str(m)) for m in (1, 2, 7, 65, 300)),
    # prefixes past 128 columns, where shallow rows read wider than their
    # own padded width
    *(pytest.param(m, c, id=f"{m}-c{c}") for c in (129, 300) for m in (7, 65)),
])
def test_forward_tree_kv_matches_row_loop(target, m, c):
    rng = np.random.default_rng(1000 * m)
    drawn = int(rng.integers(1, 41))  # drawn always, so each m keeps its tree
    c = drawn if c is None else c
    cache = cached(target, [int(t) for t in rng.integers(0, target.vocab, size=c)])
    parents, depth = random_tree(rng, m)
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=m)]
    positions = list(depth)
    logits, feats = target.forward_tree_kv(cache, tokens, list(parents), positions)
    assert logits.shape == (m, target.vocab) and feats.shape == (m, target.dim)
    assert cache.length == c and cache.tentative == m
    want_logits, want_feats, ks, vs = ref_forward_tree(target, cache, tokens,
                                                       ref_tree_mask(c, parents), positions)
    for lg, f, w_lg, w_f in zip(logits, feats, want_logits, want_feats):
        assert np.array_equal(lg, w_lg)
        assert np.array_equal(f, w_f)
    for l in range(target.config.n_layers):
        assert np.array_equal(cache._k[l][c : c + m], ks[l])
        assert np.array_equal(cache._v[l][c : c + m], vs[l])


def test_forward_tree_kv_empty_prefix_and_no_rows(target):
    rng = np.random.default_rng(5)
    cache = target.new_cache()
    parents, depth = random_tree(rng, 20)
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=20)]
    logits, _ = target.forward_tree_kv(cache, tokens, parents, depth)
    want, _, _, _ = ref_forward_tree(target, cache, tokens, ref_tree_mask(0, parents), depth)
    assert all(np.array_equal(lg, w) for lg, w in zip(logits, want))
    cache = cached(target, [3])
    logits, feats = target.forward_tree_kv(cache, [], [], [])
    assert logits.shape == (0, target.vocab) and feats.shape == (0, target.dim)
    assert cache.length == 1 and cache.tentative == 0


def test_branching_tree_verify_is_one_attention_call_per_layer(target, monkeypatch):
    # every depth of a branching tree under MAX_GATHER reads its context
    # from one padded index: one attn_row call per layer, not one per depth
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return attn_row(*args)

    rng = np.random.default_rng(19)
    c = 20
    cache = cached(target, [int(t) for t in rng.integers(0, target.vocab, size=c)])
    parents, depth = random_tree(rng, 40)
    assert depth[-1] >= 3 and 40 * padded(c + int(depth[-1]) + 1) <= MAX_GATHER
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=40)]
    monkeypatch.setattr(sdlab.target, "attn_row", counted)
    logits, _ = target.forward_tree_kv(cache, tokens, parents, depth)
    assert len(calls) == target.config.n_layers
    assert all(np.array_equal(n[:, 0], c + 1 + depth) for n in calls)
    want, _, _, _ = ref_forward_tree(target, cache, tokens, ref_tree_mask(c, parents), depth)
    assert np.array_equal(logits, want)


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
        assert np.array_equal(committed(cache, l)[0], ctx_k[l])
        assert np.array_equal(committed(cache, l)[1], ctx_v[l])


@pytest.mark.parametrize("c", [0, 1, 9])
@pytest.mark.parametrize("m", [1, 2, 8, 33])
def test_prefill_matches_forward_cached_loop(target, c, m):
    rng = np.random.default_rng(100 * c + m)
    prefix = [int(t) for t in rng.integers(0, target.vocab, size=c)]
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=m)]
    seq = cached(target, prefix)
    want = [target.forward_cached(seq, t) for t in tokens]
    cache = cached(target, prefix)
    got = target.prefill(cache, tokens)
    assert len(got) == m and cache.length == seq.length == c + m
    for o, w in zip(got, want):
        assert np.array_equal(o.logits, w.logits)
        assert np.array_equal(o.feature, w.feature)
    for l in range(target.config.n_layers):
        assert np.array_equal(committed(cache, l)[0], committed(seq, l)[0])
        assert np.array_equal(committed(cache, l)[1], committed(seq, l)[1])


def test_odd_width_forward_cached_and_prefill():
    odd = init_target(TargetConfig(dim=9, n_heads=3), seed=2)
    rng = np.random.default_rng(8)
    tokens = [int(t) for t in rng.integers(0, odd.vocab, size=12)]
    cache = odd.new_cache()
    ctx_k = [np.zeros((0, odd.dim)) for _ in range(odd.config.n_layers)]
    ctx_v = [np.zeros((0, odd.dim)) for _ in range(odd.config.n_layers)]
    want = []
    for pos, t in enumerate(tokens):
        out = odd.forward_cached(cache, t)
        lg, f, k, v = ref_token_step(odd, t, pos, ctx_k, ctx_v)
        assert np.array_equal(out.logits, lg) and np.array_equal(out.feature, f)
        ctx_k = [np.concatenate((a, b[None])) for a, b in zip(ctx_k, k)]
        ctx_v = [np.concatenate((a, b[None])) for a, b in zip(ctx_v, v)]
        want.append(out)
    pre = odd.new_cache()
    got = odd.prefill(pre, tokens)
    assert all(np.array_equal(o.logits, w.logits) for o, w in zip(got, want))
    for l in range(odd.config.n_layers):
        assert np.array_equal(committed(pre, l)[0], committed(cache, l)[0])
        assert np.array_equal(committed(pre, l)[1], committed(cache, l)[1])


@pytest.mark.parametrize("dim,n_heads", [(32, 2), (9, 3)])
@pytest.mark.parametrize("m", [1, 6, 40])
def test_chain_verify_matches_prefill(dim, n_heads, m):
    # a chain-shaped tree is a causal pass: its rows are the prefill's rows
    model = init_target(TargetConfig(dim=dim, n_heads=n_heads), seed=5)
    rng = np.random.default_rng(m + dim)
    prefix = [int(t) for t in rng.integers(0, model.vocab, size=int(rng.integers(0, 30)))]
    tokens = [int(t) for t in rng.integers(0, model.vocab, size=m)]
    cache = cached(model, prefix)
    logits, feats = model.forward_tree_kv(cache, tokens, np.arange(m) - 1, np.arange(m))
    c = len(prefix)
    assert cache.length == c and cache.tentative == m
    pre = cached(model, prefix)
    want = model.prefill(pre, tokens)
    assert np.array_equal(logits, [o.logits for o in want])
    assert np.array_equal(feats, [o.feature for o in want])
    for l in range(model.config.n_layers):
        assert np.array_equal(cache._k[l][c : c + m], committed(pre, l)[0][c:])
        assert np.array_equal(cache._v[l][c : c + m], committed(pre, l)[1][c:])


@pytest.mark.parametrize("chain", [True, False], ids=["chain", "tree"])
def test_verify_across_kv_capacity(target, chain):
    # the cache's buffers double mid-pass; every row equals the row loop,
    # which reads the committed rows alone, and the committed rows stay put
    rng = np.random.default_rng(11)
    c = KV_CAPACITY - 5
    cache = cached(target, [int(t) for t in rng.integers(0, target.vocab, size=c)])
    before = [tuple(a.copy() for a in committed(cache, l)) for l in range(target.config.n_layers)]
    m = 12
    parents, depth = (np.arange(m) - 1, np.arange(m)) if chain else random_tree(rng, m)
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=m)]
    logits, feats = target.forward_tree_kv(cache, tokens, parents, depth)
    want_logits, want_feats, ks, vs = ref_forward_tree(target, cache, tokens,
                                                       ref_tree_mask(c, parents), depth)
    assert np.array_equal(logits, want_logits) and np.array_equal(feats, want_feats)
    for l, (k, v) in enumerate(before):
        assert np.array_equal(cache._k[l][c : c + m], ks[l])
        assert np.array_equal(cache._v[l][c : c + m], vs[l])
        assert np.array_equal(committed(cache, l)[0], k) and np.array_equal(committed(cache, l)[1], v)


@pytest.mark.parametrize("chain", [True, False], ids=["chain", "tree"])
def test_commit_after_verify_then_step_matches_sequential(target, chain):
    # the verify leaves scratch rows past the committed path; the commit
    # and the steps after it must never read them
    rng = np.random.default_rng(12)
    prefix = [int(t) for t in rng.integers(0, target.vocab, size=9)]
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=7)]
    parents, depth = (np.arange(7) - 1, np.arange(7)) if chain else (
        np.array([-1, 0, 0, 1, 2, 2, 4]), np.array([0, 1, 1, 2, 2, 2, 3]))
    path = [0, 1] if chain else [0, 2, 4]
    cache = cached(target, prefix)
    target.forward_tree_kv(cache, tokens, parents, depth)
    cache.commit_rows(path)
    after = [int(t) for t in rng.integers(0, target.vocab, size=4)]
    got = [target.forward_cached(cache, after[0]), *target.prefill(cache, after[1:])]
    seq = cached(target, prefix + [tokens[i] for i in path])
    want = [target.forward_cached(seq, t) for t in after]
    for o, w in zip(got, want):
        assert np.array_equal(o.logits, w.logits) and np.array_equal(o.feature, w.feature)
    for l in range(target.config.n_layers):
        assert np.array_equal(committed(cache, l)[0], committed(seq, l)[0])
        assert np.array_equal(committed(cache, l)[1], committed(seq, l)[1])


def spy_writes(cache):
    """Record the index of every write into the cache's key/value buffer."""
    writes = []

    class Spied(np.ndarray):
        def __setitem__(self, rows, value):
            writes.append(rows)
            super().__setitem__(rows, value)

    cache._kv = cache._kv.view(Spied)
    return writes


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_cache_views_its_own_buffer(target, clone):
    # the layer views of a copy read and write the copy's buffer, which a
    # commit moves rows in, and never the original's
    cache = cached(target, [1, 2, 3])
    target.forward_tree_kv(cache, [4, 5, 6], [-1, 0, 0], [0, 1, 1])
    before = buffers(cache)
    twin = clone(cache)
    twin.commit_rows([0, 2])
    assert buffers(cache) == before
    seq = cached(target, [1, 2, 3, 4, 6])
    for l in range(target.config.n_layers):
        assert twin._k[l].base is twin._kv and twin._v[l].base is twin._kv
        assert np.array_equal(committed(twin, l)[0], committed(seq, l)[0])
        assert np.array_equal(committed(twin, l)[1], committed(seq, l)[1])


@pytest.mark.parametrize("path,copied", [([0, 1, 2, 3], 0), ([0, 1, 3], 1), ([0, 2, 4], 2)])
def test_commit_copies_only_rows_out_of_place(target, path, copied):
    # rows i committed at position i were written there by the verify: a
    # chain's commit writes no buffer row, a tree path only the rows past
    # its leading run, of every layer's keys and values in one write, and
    # the cache ends as sequential decoding leaves it
    rng = np.random.default_rng(14)
    prefix = [int(t) for t in rng.integers(0, target.vocab, size=5)]
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=7)]
    chain = path == [0, 1, 2, 3]
    parents, depth = (np.arange(7) - 1, np.arange(7)) if chain else (
        np.array([-1, 0, 0, 1, 2, 2, 4]), np.array([0, 1, 1, 2, 2, 2, 3]))
    cache = cached(target, prefix)
    target.forward_tree_kv(cache, tokens, parents, depth)
    writes = spy_writes(cache)
    cache.commit_rows(path)
    c, run = len(prefix), len(path) - copied
    assert writes == ([(slice(None), slice(None), slice(c + run, c + len(path)))]
                      if copied else [])
    assert cache.length == c + len(path) and cache.tentative == 0
    seq = cached(target, prefix + [tokens[i] for i in path])
    for l in range(target.config.n_layers):
        assert np.array_equal(committed(cache, l)[0], committed(seq, l)[0])
        assert np.array_equal(committed(cache, l)[1], committed(seq, l)[1])


@pytest.mark.parametrize("m2", [1, 2])
def test_commit_past_a_shorter_second_pass_raises(target, m2):
    # the second pass overwrote the first one's rows and left m2 tentative
    # rows, so rows 0..2 of the first pass are gone
    rng = np.random.default_rng(15 + m2)
    cache = cached(target, [int(t) for t in rng.integers(0, target.vocab, size=6)])
    target.forward_tree_kv(cache, [1, 2, 3, 4, 5], np.arange(5) - 1, np.arange(5))
    target.forward_tree_kv(cache, [6, 7][:m2], np.arange(m2) - 1, np.arange(m2))
    with pytest.raises(ValueError, match=rf"commit rows must be tentative rows, in \[0, {m2}\)"):
        cache.commit_rows([0, 1, 2])
    assert cache.length == 6 and cache.tentative == m2


def test_commit_after_a_prefill_or_of_a_negative_row_raises(target):
    cache = cached(target, [1, 2, 3])
    target.prefill(cache, [4, 5])  # a prefill commits every row it wrote
    with pytest.raises(ValueError, match=r"tentative rows, in \[0, 0\)"):
        cache.commit_rows([0])
    target.forward_tree_kv(cache, [6, 7, 8], [-1, 0, 0], [0, 1, 1])
    for rows in ([-1], [0, -1], [0, 3]):
        with pytest.raises(ValueError, match=r"tentative rows, in \[0, 3\)"):
            cache.commit_rows(rows)
    assert cache.length == 5 and cache.tentative == 3


@pytest.mark.parametrize("rows", [[2, 2, 0], [1, 0], [0, 2, 1], [0, 1, 1], [0, 0], [2, 1]])
def test_commit_rows_that_repeat_or_descend_raise_before_any_row_moves(target, rows):
    # a path's rows ascend; a commit of [2, 2, 0] would keep row 2 twice
    # and row 0 after it, a cache no sequential decode gives
    cache = cached(target, [1, 2, 3, 4])
    target.forward_tree_kv(cache, [6, 7, 8], [-1, 0, 0], [0, 1, 1])
    before = cache._kv.copy()
    with pytest.raises(ValueError, match="^commit rows must ascend$"):
        cache.commit_rows(rows)
    assert cache.length == 4 and cache.tentative == 3
    assert np.array_equal(cache._kv, before)
    cache.commit_rows([0, 2])  # an ascending path still commits
    assert cache.length == 6 and cache.tentative == 0


def test_commit_after_a_longer_second_pass_takes_its_rows(target):
    # the second pass's rows replace the first's: the commit keeps its path
    rng = np.random.default_rng(17)
    prefix = [int(t) for t in rng.integers(0, target.vocab, size=6)]
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=7)]
    cache = cached(target, prefix)
    target.forward_tree_kv(cache, tokens[:3], np.arange(3) - 1, np.arange(3))
    target.forward_tree_kv(cache, tokens, [-1, 0, 0, 1, 2, 2, 4], [0, 1, 1, 2, 2, 2, 3])
    path = [0, 2, 4, 6]
    cache.commit_rows(path)
    seq = cached(target, prefix + [tokens[i] for i in path])
    for l in range(target.config.n_layers):
        assert np.array_equal(committed(cache, l)[0], committed(seq, l)[0])
        assert np.array_equal(committed(cache, l)[1], committed(seq, l)[1])
    nxt = int(rng.integers(0, target.vocab))
    got, want = target.forward_cached(cache, nxt), target.forward_cached(seq, nxt)
    assert np.array_equal(got.logits, want.logits) and np.array_equal(got.feature, want.feature)


def test_prefill_rejects_out_of_vocab_before_any_row(target):
    cache = cached(target, [1, 2])
    assert target.prefill(cache, []) == []
    with pytest.raises(ValueError, match=f"token {target.vocab} out of vocab range"):
        target.prefill(cache, [3, target.vocab, 4])
    assert cache.length == 2


def test_tree_token_out_of_vocab(target):
    cache = cached(target, [1, 2])
    with pytest.raises(ValueError, match=f"token {target.vocab} out of vocab range"):
        target.forward_tree_kv(cache, [5, target.vocab], [-1, 0], [0, 1])
    with pytest.raises(ValueError, match="token -1 out of vocab range"):
        target.forward_tree_kv(cache, [-1, 5], [-1, 0], [0, 1])


@pytest.mark.parametrize("parents,row", [([-1, 2, 0], 1), ([-1, 1, 0], 1), ([-1, 0, -2], 2)],
                         ids=["forward", "self", "no-row"])
def test_tree_parent_must_be_an_earlier_row(target, parents, row):
    cache = cached(target, [1, 2])
    with pytest.raises(ValueError, match=f"tree row {row}: parent must be an earlier row or -1"):
        target.forward_tree_kv(cache, [5, 6, 7], parents, [0, 1, 1])


def test_tree_depth_must_follow_the_parent(target):
    cache = cached(target, [1, 2])
    with pytest.raises(ValueError, match="tree row 2: depth must be 0 without a parent"):
        target.forward_tree_kv(cache, [5, 6, 7], [-1, 0, 0], [0, 1, 2])
    with pytest.raises(ValueError, match="tree row 0: depth must be 0 without a parent"):
        target.forward_tree_kv(cache, [5, 6], [-1, 0], [1, 2])
    with pytest.raises(ValueError, match="tree row 1: depth must be 0 without a parent"):
        target.forward_tree_kv(cache, [5, 6], [-1, -1], [0, 1])


def test_tree_rows_must_come_in_depth_order(target):
    cache = cached(target, [1, 2])
    with pytest.raises(ValueError, match="tree row 2: rows must come in depth order"):
        target.forward_tree_kv(cache, [5, 6, 7, 8], [-1, 0, -1, 2], [0, 1, 0, 1])


def test_tree_length_mismatch(target):
    cache = cached(target, [1, 2])
    with pytest.raises(ValueError, match="tokens, parents and positions differ in length"):
        target.forward_tree_kv(cache, [5, 6], [-1, 0], [0])
    with pytest.raises(ValueError, match="tokens, parents and positions differ in length"):
        target.forward_tree_kv(cache, [5, 6], [-1], [0, 1])
    assert cache.length == 2


def buffers(cache):
    """The cache's counters and whole key and value buffer, as bytes."""
    return cache.length, cache.tentative, cache._kv.tobytes()


def test_rows_under_ancestors_sit_past_them(target):
    # rows forwarded after their ancestors are committed, as a verify's
    # second pass is, count their positions from the committed end: a
    # parentless row at position 1 raises before any row, and at 0 it is
    # the row a sequential decode gives
    cache = cached(target, [1, 2])
    target.forward_tree_kv(cache, [5, 6, 7], [-1, 0, 0], [0, 1, 1])
    cache.commit_rows([0, 2])
    before = buffers(cache)
    with pytest.raises(ValueError, match="tree row 0: depth must be 0 without a parent"):
        target.forward_tree_kv(cache, [8], [-1], [1])
    assert buffers(cache) == before
    logits, feats = target.forward_tree_kv(cache, [8], [-1], [0])
    want = target.forward_cached(cached(target, [1, 2, 5, 7]), 8)
    assert np.array_equal(logits[0], want.logits) and np.array_equal(feats[0], want.feature)


def test_a_chain_after_committed_rows_is_a_causal_pass(target, monkeypatch):
    # the rows a chain's causal pass gives, split in two passes whose second
    # runs after the first's rows are committed: no gathered group, and the
    # same bits
    rng = np.random.default_rng(23)
    prefix = [int(t) for t in rng.integers(0, target.vocab, size=130)]
    tokens = [int(t) for t in rng.integers(0, target.vocab, size=7)]
    cache = cached(target, prefix)
    logits, feats = target.forward_tree_kv(cache, tokens, np.arange(7) - 1, np.arange(7))
    target.forward_tree_kv(cache, tokens[:3], np.arange(3) - 1, np.arange(3))
    cache.commit_rows([0, 1, 2])
    monkeypatch.setattr(sdlab.target, "tree_groups", None)
    got, got_f = target.forward_tree_kv(cache, tokens[3:], np.arange(4) - 1, np.arange(4))
    assert np.array_equal(got, logits[3:]) and np.array_equal(got_f, feats[3:])
    assert cache.tentative == 4
    # a commit of the second pass's first rows is the sequential decode's
    cache.commit_rows([0, 1])
    seq = cached(target, prefix + tokens[:5])
    for l in range(target.config.n_layers):
        assert np.array_equal(committed(cache, l)[0], committed(seq, l)[0])
        assert np.array_equal(committed(cache, l)[1], committed(seq, l)[1])


# --------------------------------------------------------------------- draft

def draft_level_check(draft, rng, levels=4, width=9, ctx_len=None):
    """Grow a random tree level by level in both sessions; every output equal."""
    ctx_len = ctx_len or int(rng.integers(2, 12))
    tokens = [int(t) for t in rng.integers(0, draft.vocab, size=ctx_len)]
    feats = list(rng.normal(size=(ctx_len, draft.dim)))
    sess, ref = DraftSession(draft), RefDraftSession(draft)
    sess.prefill(tokens[:-2], feats[:-2])
    ref.commit(tokens[:-2], feats[:-2])
    for _round in range(2):
        out = sess.begin_round(tokens[-2:], feats[-2:])
        assert_step_equal(draft, out, ref.commit(tokens[-2:], feats[-2:]))
        paths = [[]]
        for depth in range(1, levels + 1):
            items = []
            for _ in range(int(rng.integers(1, width + 1))):
                path = paths[int(rng.integers(0, len(paths)))]
                items.append((int(rng.integers(0, draft.vocab)), rng.normal(size=draft.dim),
                              path, depth))
            level_tokens, level_feats, ancestors, _depths = zip(*items)
            got, rows = sess.tree_level(level_tokens, level_feats, ancestors)
            want = ref.tree_level(items)
            assert len(rows) == len(want)
            for i, (w_out, w_row) in enumerate(want):
                assert rows[i] == w_row
                assert_step_equal(draft, step_row(got, i), w_out)
            paths = [it[2] + [row] for it, row in zip(items, rows)]
        tokens = tokens[1:] + [int(rng.integers(0, draft.vocab))]
        feats = feats[1:] + [rng.normal(size=draft.dim)]


@pytest.mark.parametrize("n_experts,active_k", [(2, 1), (2, 2), (3, 2), (4, 2), (4, 3)])
def test_tree_level_matches_per_item_steps(target, n_experts, active_k):
    draft = init_draft(DraftConfig(n_experts=n_experts, active_k=active_k), target, seed=3)
    draft_level_check(draft, np.random.default_rng(10 * n_experts + active_k))


def test_tree_levels_across_kv_capacity(target):
    # random rounds whose tentative rows run past the first buffer
    draft = init_draft(DraftConfig(), target, seed=3)
    for seed in range(3):
        draft_level_check(draft, np.random.default_rng(seed), width=12, ctx_len=KV_CAPACITY - 8)


def test_tree_levels_keep_tentative_rows_through_a_reallocation(target):
    # level 1 fills the buffer's last row, so level 2 doubles it with the
    # round's first tentative row live; later levels read it, gathered by a
    # branching level and as a slice by a one-row level over every row
    draft = init_draft(DraftConfig(), target, seed=3)
    rng = np.random.default_rng(21)
    sess, ref = DraftSession(draft), RefDraftSession(draft)
    c = KV_CAPACITY - 1
    tokens = [int(t) for t in rng.integers(0, draft.vocab, size=c)]
    feats = list(rng.normal(size=(c, draft.dim)))
    sess.prefill(tokens[:-1], feats[:-1])
    ref.commit(tokens[:-1], feats[:-1])
    assert_step_equal(draft, sess.begin_round(tokens[-1:], feats[-1:]), ref.commit(tokens[-1:], feats[-1:]))
    for ancestors in ([[]], [[0]] * 3, [[0, 1], [0, 3]], [[0, 1, 2, 3, 4, 5]]):
        items = [(int(rng.integers(0, draft.vocab)), rng.normal(size=draft.dim), anc, len(anc) + 1)
                 for anc in ancestors]
        level_tokens, level_feats, _, _ = zip(*items)
        got, rows = sess.tree_level(level_tokens, level_feats, ancestors)
        for i, (w_out, w_row) in enumerate(ref.tree_level(items)):
            assert rows[i] == w_row
            assert_step_equal(draft, step_row(got, i), w_out)
    assert np.array_equal(committed(sess.cache, 0)[0], ref.k)


def test_tree_level_rejects_unknown_ancestor(target):
    draft = init_draft(DraftConfig(), target, seed=1)
    sess = DraftSession(draft)
    f = np.zeros(draft.dim)
    sess.begin_round([1, 2], [f, f])
    _out, (row,) = sess.tree_level([3], [f], [[]])
    with pytest.raises(ValueError, match="ancestor row out of range"):
        sess.tree_level([4], [f], [[row + 1]])


def test_tree_level_range_error_wins_over_an_earlier_order_error(target):
    draft = init_draft(DraftConfig(), target, seed=1)
    sess = DraftSession(draft)
    f = np.zeros(draft.dim)
    sess.begin_round([1, 2], [f, f])
    sess.tree_level([3, 5], [f, f], np.zeros((2, 0), dtype=int))
    sess.tree_level([4, 6], [f, f], [[0], [1]])
    # row 0 descends, row 1 reads row 9 of 4: the range check runs first
    with pytest.raises(ValueError, match=r"^row 1: ancestor row out of range \[0, 4\)$"):
        sess.tree_level([7, 8], [f, f], [[2, 0], [1, 9]])
    with pytest.raises(ValueError, match=r"^row 1: ancestor row out of range \[0, 4\)$"):
        sess.tree_level([7, 8], [f, f], [[2, 0], [-1, 3]])
    with pytest.raises(ValueError, match=r"^row 0: ancestor rows must ascend$"):
        sess.tree_level([7, 8], [f, f], [[2, 0], [1, 3]])
    # a negative row in an ascending path is out of range too
    with pytest.raises(ValueError, match=r"^row 1: ancestor row out of range \[0, 4\)$"):
        sess.tree_level([7, 8], [f, f], [[0, 2], [-1, 2]])
    # one row over all of the round's rows but out of order is no causal pass
    with pytest.raises(ValueError, match=r"^row 0: ancestor rows must ascend$"):
        sess.tree_level([7], [f], [[0, 2, 1, 3]])
    assert sess.passes == 3


def test_kv_rows_names_a_bad_token_in_the_middle_of_the_batch(target):
    draft = init_draft(DraftConfig(), target, seed=1)
    f = np.zeros((5, draft.dim))
    for bad in (draft.vocab, draft.vocab + 7, -1):
        tokens = [3, 4, bad, 5, draft.vocab + 1]
        with pytest.raises(ValueError, match=rf"^token {bad} out of vocab range \[0, {draft.vocab}\)$"):
            draft._kv_rows(tokens, range(1, 6), f)
        with pytest.raises(ValueError, match=rf"^token {bad} out of vocab range"):
            draft._kv_rows(np.array(tokens), range(1, 6), f)
        # the only bad token, whichever side of the range it lies on
        with pytest.raises(ValueError, match=rf"^token {bad} out of vocab range"):
            draft._kv_rows([3, bad, 4], range(1, 4), f[:3])


def test_tree_level_rejects_bad_ancestor_shapes_and_paths(target):
    draft = init_draft(DraftConfig(), target, seed=1)
    sess = DraftSession(draft)
    f = np.zeros(draft.dim)
    sess.begin_round([1, 2], [f, f])
    _out, rows = sess.tree_level([3, 5], [f, f], np.zeros((2, 0), dtype=int))
    assert rows.tolist() == [0, 1] and sess.passes == 2
    shape = r"needs a \(rows, depth - 1\) ancestor array"
    for tokens, ancestors in (([4, 6], [[0]]),         # one ancestor row for two rows
                              ([4, 6], [0, 1]),         # not one row per token
                              ([], np.zeros((0, 1)))):  # an empty level
        with pytest.raises(ValueError, match=shape):
            sess.tree_level(tokens, [f] * len(tokens), ancestors)
    with pytest.raises(ValueError, match="row 1: ancestor rows must ascend"):
        sess.tree_level([4, 6], [f, f], [[0, 1], [1, 0]])
    assert sess.passes == 2  # a rejected level is no pass


def test_draft_single_token_rounds_match_step(target):
    draft = init_draft(DraftConfig(), target, seed=1)
    rng = np.random.default_rng(8)
    sess, ref = DraftSession(draft), RefDraftSession(draft)
    for t in rng.integers(0, draft.vocab, size=12):
        f = rng.normal(size=draft.dim)
        assert_step_equal(draft, sess.begin_round([int(t)], [f]), ref.commit([int(t)], [f]))
    assert np.array_equal(committed(sess.cache, 0)[0], ref.k)
    assert sess.cache.length + 1 == ref.next_pos


# ------------------------------------------------------------ row products

def model_weights(dim, n_heads):
    """Every weight shape row_linear is called with: the target's layer
    weights and head, the draft's reduction, attention weights and
    routers of 1 to 3 experts, and an expert's w1 and w2 at hidden widths
    64 and 30."""
    target = init_target(TargetConfig(dim=dim, n_heads=n_heads), seed=dim)
    lp = target.layers[0]
    weights = {"wqkv": lp.wqkv, "wo": lp.wo, "w1": lp.w1, "w2": lp.w2, "head": target.head}
    for n_experts, hidden in ((1, 64), (2, 30), (3, 64)):
        p = init_draft(DraftConfig(dim=dim, n_heads=n_heads, n_experts=n_experts, active_k=1,
                                   expert_hidden=hidden), target, seed=dim).params
        weights.update({f"draft.{name}": p[name] for name in ("reduction", "wqkv", "wo")})
        weights[f"router{n_experts}"] = p["router"]
        weights[f"expert.w1.{hidden}"], weights[f"expert.w2.{hidden}"] = p["w1"][-1], p["w2"][-1]
    return weights


@pytest.mark.parametrize("dim,n_heads", [(9, 3), (30, 2), (32, 2)])
@pytest.mark.parametrize("m", [1, 2, 6, 65])
def test_row_linear_rows_are_lone_matrix_vector_products(dim, n_heads, m):
    # both branches, one row through ndarray.dot and more through a stacked
    # matmul, give each row the bits of w @ x[i], on contiguous rows and on
    # a column slice of wider rows, as q, k and v are of qkv
    rng = np.random.default_rng(dim + m)
    for name, w in model_weights(dim, n_heads).items():
        n = w.shape[1]
        wide = rng.normal(size=(m, 3 * n))
        for x in (wide[:, :n].copy(), wide[:, n : 2 * n]):
            got = row_linear(w, x)
            assert got.shape == (m, w.shape[0])
            for i in range(m):
                want = (w @ x[i]).tobytes()
                assert got[i].tobytes() == want, (name, i)
                assert row_linear(w, x[i : i + 1]).tobytes() == want, (name, i)


@pytest.mark.parametrize("dim,n_heads", [(9, 3), (30, 2), (32, 2)])
def test_draft_head_of_a_vector_is_its_row_through_the_stack(dim, n_heads):
    target = init_target(TargetConfig(dim=dim, n_heads=n_heads), seed=dim)
    draft = init_draft(DraftConfig(dim=dim, n_heads=n_heads), target, seed=dim)
    f = np.random.default_rng(dim).normal(size=(6, dim))
    rows = draft._head(f)
    for i in range(6):
        assert draft._head(f[i]).tobytes() == rows[i].tobytes() == (draft.head @ f[i]).tobytes()


# ------------------------------------------------------------ fused weights

@pytest.mark.parametrize("dim", [16, 32])
@pytest.mark.parametrize("m", [1, 6, 65])
def test_fused_qkv_equals_three_projections(dim, m):
    # at widths that are multiples of 4 the fused projection moves no bit
    model = init_target(TargetConfig(dim=dim), seed=dim)
    draft = init_draft(DraftConfig(dim=dim), model, seed=dim)
    x = np.random.default_rng(dim + m).normal(size=(m, dim))
    for fused in [*(lp.wqkv for lp in model.layers), draft.params["wqkv"]]:
        assert np.array_equal(row_linear(fused, x),
                              np.concatenate([row_linear(w, x) for w in np.split(fused, 3)], axis=1))


def ref_expert_rows(draft, x, att):
    """The per-expert expert layer: each expert runs on just the rows that
    chose it, and the gated mixture adds them in ascending expert order;
    returns (feature_moe, feature_top1, feature_top2)."""
    cfg, p = draft.config, draft.params
    u = x + row_linear(p["wo"], att)
    v_in = layer_norm(u, p["ln2_g"], p["ln2_b"])
    scores = softmax(row_linear(p["router"], v_in))
    top = np.argsort(-scores, axis=1, kind="stable")[:, : cfg.active_k]
    f_moe, f_expert = u.copy(), {}
    for j in range(cfg.n_experts):
        sel = np.flatnonzero((top == j).any(axis=1))
        if sel.size:
            out = row_linear(p["w2"][j], silu(row_linear(p["w1"][j], v_in[sel])))
            f_moe[sel] = f_moe[sel] + scores[sel, j, None] * out
            f_expert.update({(j, int(r)): o + u[r] for r, o in zip(sel, out)})
    f_top = [np.array([f_expert[int(j), r] for r, j in enumerate(top[:, b])]) for b in (0, 1)]
    return f_moe, f_top[0], f_top[1]


@pytest.mark.parametrize("n_experts,active_k", [(2, 2), (3, 2), (3, 3), (4, 2)])
@pytest.mark.parametrize("hidden", [64, 30])
@pytest.mark.parametrize("m", [1, 6, 65])
def test_dense_experts_equal_per_expert_reference(target, n_experts, active_k, hidden, m):
    # every expert on every row, bit for bit (signs of zero included) what
    # running each expert on the rows that chose it gives, at any hidden width
    draft = init_draft(DraftConfig(n_experts=n_experts, active_k=active_k, expert_hidden=hidden),
                       target, seed=10 * n_experts + active_k)
    rng = np.random.default_rng(m + hidden)
    x, att = rng.normal(size=(2, m, draft.dim))
    got = draft._out_rows(x, att)
    for g, w in zip((got.feature_moe, got.feature_top1, got.feature_top2),
                    ref_expert_rows(draft, x, att)):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("dim,n_heads", [(9, 3), (30, 2)])
def test_greedy_streams_at_widths_where_fusion_moves_bits(dim, n_heads):
    # the fused projection differs from three in the last bits here, and
    # every pass shares it, so greedy trees still reproduce vanilla decoding
    cfg = RunConfig(dim=dim, n_heads=n_heads, gamma=4, max_new=12, n_prompts=6, seed=dim)
    target, draft = build_models(cfg)
    x = np.random.default_rng(dim).normal(size=(65, dim))
    lp = target.layers[0]
    assert not np.array_equal(row_linear(lp.wqkv, x),
                              np.concatenate([row_linear(w, x) for w in np.split(lp.wqkv, 3)], 1))
    # a briefly distilled draft, so greedy walks accept past depth 0
    train_draft(draft, generate_distillation_corpus(target, 32, 12), TrainConfig(lr=3e-3,
                batch_size=8), steps=100)
    for method in ("chain", "jakiro_full"):
        run = RunConfig(**{**cfg.__dict__, "method": method})
        tokens = forwards = 0
        for prompt in make_prompts(run):
            r = decode_prompt(target, draft, run, prompt, np.random.default_rng(0))
            assert r["tokens"] == target.autoregressive_decode(prompt, run.max_new)
            tokens, forwards = tokens + len(r["tokens"]), forwards + r["target_forwards"]
        assert tokens > 1.2 * forwards, (method, tokens, forwards)


# ----------------------------------------------------------- one-row passes

def test_kv_rows_of_one_row_is_its_row_of_a_multi_row_call(target):
    # the one-row branch writes its input row in place and runs the
    # products on vectors; each output is the row of a wider call, bit for
    # bit, whatever form the token, position and feature come in
    draft = init_draft(DraftConfig(), target, seed=3)
    rng = np.random.default_rng(40)
    tokens = [int(t) for t in rng.integers(0, draft.vocab, size=7)]
    positions = [int(p) for p in rng.integers(1, 700, size=7)]
    feats = rng.normal(size=(7, draft.dim))
    many = draft._kv_rows(tokens, positions, feats)
    for i in range(7):
        for tok, pos, f in (([tokens[i]], [positions[i]], feats[i : i + 1]),
                            (np.array(tokens[i : i + 1]), range(positions[i], positions[i] + 1),
                             [list(feats[i])]),
                            ((np.intp(tokens[i]),), np.array([positions[i]]), [feats[i]])):
            one = draft._kv_rows(tok, pos, f)
            for got, want in zip(one, many):
                assert got.shape == (1, *want.shape[1:])
                assert np.array_equal(got[0], want[i])


def test_kv_rows_of_one_row_past_the_position_table_grows_it(target, monkeypatch):
    # a position past the table doubles it, as a wider call's would
    monkeypatch.setattr(kernels, "_POSITION_TABLES", {})
    draft = init_draft(DraftConfig(), target, seed=3)
    f = np.linspace(-1.0, 1.0, draft.dim)[None]
    one = draft._kv_rows([5], [700], f)
    assert kernels._POSITION_TABLES[draft.dim].shape[0] == 1024
    many = draft._kv_rows([5, 6], [700, 3], np.concatenate((f, f)))
    for got, want in zip(one, many):
        assert np.array_equal(got[0], want[0])
    assert np.array_equal(one[0][0, : draft.dim],
                          draft.emb[5] + sinusoid_position(700, draft.dim))


def one_row_chain(draft, steps=3):
    """A session after a round's opening row and steps chain levels."""
    sess = DraftSession(draft)
    f = np.linspace(-1.0, 1.0, draft.dim)
    sess.prefill([1, 2, 3], [f, f, f])
    sess.begin_round([4], [f])
    for t in range(steps):
        sess.tree_level([5 + t], [f], [list(range(t))])
    return sess, f


@pytest.mark.parametrize("how", ["chain level", "opening row", "two rows"])
def test_one_row_input_errors_are_the_multi_row_errors(target, how):
    # bad tokens and features fail on the one-row branches with the
    # multi-row path's errors and messages, and before any row is written
    draft = init_draft(DraftConfig(), target, seed=3)
    sess, f = one_row_chain(draft)
    g = np.zeros(draft.dim)
    cases = [([draft.vocab], [g], rf"^token {draft.vocab} out of vocab range \[0, {draft.vocab}\)$"),
             ([-1], [g], rf"^token -1 out of vocab range \[0, {draft.vocab}\)$"),
             ([3], [np.zeros(draft.dim - 1)], "^prev_feature dimension mismatch$"),
             ([3], [np.zeros((1, draft.dim))], "^prev_feature dimension mismatch$"),
             ([3], [g, g], "^prev_feature dimension mismatch$"),
             ([draft.vocab], [np.zeros(3)], "^prev_feature dimension mismatch$")]
    for tokens, feats, message in cases:
        if how == "opening row" and len(feats) != len(tokens):  # checked first there
            message = "^tokens/prev_features length mismatch$"
        before = sess.cache._kv.copy()
        with pytest.raises(ValueError, match=message):
            if how == "chain level":
                sess.tree_level(tokens, feats, [list(range(3))])
            elif how == "opening row":
                sess.begin_round(tokens, feats)
            else:  # the same row second in a two-row level
                sess.tree_level([7, *tokens], [g, *feats], [[0, 1, 2], [0, 1, 2]])
        assert np.array_equal(sess.cache._kv, before)


@pytest.mark.parametrize("pass_", ["chain level", "vanilla step"])
def test_one_row_nan_inputs_raise_the_multi_row_errors(target, pass_):
    # a NaN cached key reaches a one-row attention's score, and a NaN
    # logit the one-row softmax
    draft = init_draft(DraftConfig(), target, seed=3)
    if pass_ == "chain level":
        sess, f = one_row_chain(draft, steps=2)
        sess.cache._k[0][1, 3] = np.nan
        with pytest.raises(ValueError, match="^non-finite attention score$"):
            sess.tree_level([9], [f], [[0, 1]])
        # a NaN logit: the head's row of token 11 proposes NaN
        head = draft.head.copy()
        head[11, 0] = np.nan
        bad = DraftModel(draft.config, draft.params, draft.emb, head)
        with pytest.raises(ValueError, match="^non-finite logit$"):
            grow_static_tree(DraftSession(bad), f, 4, 3, 1)
    else:
        cache = cached(target, [1, 2, 3])
        cache._k[0][1, 3] = np.nan
        with pytest.raises(ValueError, match="^non-finite attention score$"):
            target.forward_cached(cache, 4)
        head = target.head.copy()
        head[11, 0] = np.nan
        bad = TargetModel(target.config, target.emb, target.layers, target.lnf_g, target.lnf_b,
                          head)
        with pytest.raises(ValueError, match="^non-finite logit$"):
            bad.autoregressive_decode([1, 2, 3], 4, temperature=1.0)

"""Level-at-a-time tree growth against the candidate-by-candidate grower it replaced.

``ref_grow`` below is that grower: it proposes, dedups and prunes one
candidate at a time, with the scalar inverse-CDF scan and the per-step
mixture and contrast heads, and expands the beam-best nodes of every level,
the parallel final level included.  It keeps one node object per node and
feeds each draft pass per-item ancestor lists.  The level-wise ``_grow`` must
emit the same tree column for column (token, parent, depth, tag, cum_score,
the drawn token's probability and the q_dist bytes), spend the same draft
passes and leave the sampling rng in the same state, for every kind, mode
and tree shape.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from sdlab.draft import DraftConfig, DraftSession, DraftStepOutput, init_draft
from sdlab.kernels import softmax
from sdlab.target import TargetConfig, init_target
from sdlab.tree import (BRANCH_LEFT, BRANCH_NONE, BRANCH_RIGHT, BRANCH_TAGS, NO_BRANCH, NODE,
                        _add_level, _grow, _top_k)

from test_draft import step_row
from test_kernels import ref_inverse_cdf_sample


# ----------------------------------------------------------------- reference

def ref_mixture_logits(model, step):
    if step.active_k < 2:
        return model.head @ step.feature_moe
    s = step.scores
    s1 = float(s[int(step.top[0])])
    s2 = float(s[int(step.top[1])])
    return model.head @ (s1 * step.feature_top1 + s2 * step.feature_top2)


def ref_contrast_logits(model, step):
    beta, alpha = float(model.params["beta"]), float(model.params["alpha"])
    return model.head @ (beta * step.feature_top1 - alpha * step.feature_top2)


def ref_pick(dist, mode, rng):
    if mode == "greedy":
        return int(np.argmax(dist))
    return ref_inverse_cdf_sample(dist, rng.random())


@dataclass
class RefNode:
    token: int
    parent: int          # index into RefTree.nodes, or -1 for the root
    depth: int
    q_prob: float
    cum_score: float
    branch_tag: str
    q_dist: np.ndarray


@dataclass
class RefTree:
    nodes: list[RefNode]
    root_token: int
    root_context_len: int


@dataclass
class Cand:
    parent: int
    token: int
    depth: int
    q_prob: float
    cum: float
    tag: str
    q_dist: np.ndarray
    src: DraftStepOutput


def ref_propose(dist, parent_idx, parent_cum, depth, tag, branch_logscore, top_k, mode, rng, src):
    if mode == "greedy":
        toks = [int(t) for t in np.argsort(-dist, kind="stable")[:top_k]]
    else:
        toks = [ref_pick(dist, mode, rng) for _ in range(top_k)]
    out = []
    for t in toks:
        q = float(dist[t])
        cum = parent_cum + branch_logscore + np.log(max(q, 1e-300))
        out.append(Cand(parent_idx, t, depth, q, cum, tag, dist, src))
    return out


def ref_dedup_siblings(cands):
    best, order = {}, []
    for c in cands:
        key = (c.parent, c.token)
        if key not in best:
            best[key] = c
            order.append(key)
        elif c.cum > best[key].cum:
            best[key] = c
    return [best[k] for k in order]


def ref_grow(session, prev_feature, start_token, gamma, *, kind, top_k=1, beam=60,
             parallel=False, mode="greedy", temperature=1.0, rng=None,
             backlog_tokens=(), backlog_features=(), context_len=0):
    model = session.model
    out0 = session.begin_round([*backlog_tokens, start_token], [*backlog_features, prev_feature])
    nodes = []
    frontier = [(-1, out0, [])]
    last_step_depth = gamma - 1 if parallel else gamma
    for depth in range(1, last_step_depth + 1):
        cands = []
        for pidx, pout, _rows in frontier:
            pcum = 0.0 if pidx == -1 else nodes[pidx].cum_score
            if kind == "moe":
                s = pout.scores
                s1 = float(s[int(pout.top[0])])
                s2 = float(s[int(pout.top[1])])
                dl, dr = softmax(model.branch_logits(pout), temperature)
                pc = ref_propose(dl, pidx, pcum, depth, BRANCH_LEFT, np.log(s1), top_k, mode, rng, pout)
                pc += ref_propose(dr, pidx, pcum, depth, BRANCH_RIGHT, np.log(s2), top_k, mode, rng, pout)
                if mode == "greedy":
                    pc = ref_dedup_siblings(pc)
            else:
                dist = softmax(ref_mixture_logits(model, pout), temperature)
                pc = ref_propose(dist, pidx, pcum, depth, BRANCH_NONE, 0.0, top_k, mode, rng, pout)
            cands.extend(pc)
        if mode == "greedy" and len(cands) > beam:
            ranked = sorted(range(len(cands)), key=lambda i: (-cands[i].cum, i))
            cands = [cands[i] for i in sorted(ranked[:beam])]
        layer_idx = []
        for c in cands:
            nodes.append(RefNode(c.token, c.parent, c.depth, c.q_prob, c.cum, c.tag, c.q_dist))
            layer_idx.append(len(nodes) - 1)
        # the beam-best nodes get children, on the parallel final level too
        exp = layer_idx
        if len(exp) > beam:
            ranked = sorted(exp, key=lambda i: (-nodes[i].cum_score, i))
            exp = sorted(ranked[:beam])
        if depth == last_step_depth:
            if parallel:
                final = []
                for j in exp:
                    src = cands[j - layer_idx[0]].src
                    distc = softmax(ref_contrast_logits(model, src), temperature)
                    final += ref_propose(distc, j, nodes[j].cum_score, gamma,
                                         BRANCH_NONE, 0.0, top_k, mode, rng, src)
                if mode == "greedy":
                    final = ref_dedup_siblings(final)
                    if len(final) > beam:
                        ranked = sorted(range(len(final)), key=lambda i: (-final[i].cum, i))
                        final = [final[i] for i in sorted(ranked[:beam])]
                for c in final:
                    nodes.append(RefNode(c.token, c.parent, gamma, c.q_prob, c.cum, c.tag, c.q_dist))
            break
        by_node = {pidx: (out, rows) for pidx, out, rows in frontier}
        items = []
        for i in exp:
            pout, parent_rows = by_node[nodes[i].parent]
            items.append((nodes[i].token, pout.feature_moe, parent_rows))
        level, ids = session.tree_level(*zip(*items))  # tokens, features, ancestor rows
        frontier = [(i, step_row(level, r), by_node[nodes[i].parent][1] + [ids[r]])
                    for r, i in enumerate(exp)]
    return RefTree(nodes, start_token, context_len)


# --------------------------------------------------------------------- tests

@pytest.fixture(scope="module")
def target():
    return init_target(TargetConfig(), seed=0)


def assert_same_tree(got, want):
    assert (got.root_token, got.root_context_len) == (want.root_token, want.root_context_len)
    w = want.nodes
    for field, attr in (("token", "token"), ("parent", "parent"), ("depth", "depth"),
                        ("cum_score", "cum_score"), ("tag", "branch_tag")):
        assert np.array_equal(got.nodes[field], [getattr(n, attr) for n in w]), field
    assert np.array_equal(got.q_dist, np.array([n.q_dist for n in w]))
    q = got.q_dist[np.arange(len(got)), got.nodes["token"]]
    assert np.array_equal(q, [n.q_prob for n in w])


def compare_growth(draft, kind, parallel, mode, shapes, seed, temperatures=(1.0,)):
    """Grow one round per (gamma, top_k, beam, temperature) in two sessions
    fed the same history; returns the trees grown.  The reference takes the
    mode and the temperature apart, _grow one temperature, 0 for greedy."""
    rng = np.random.default_rng(seed)
    sess, ref = DraftSession(draft), DraftSession(draft)
    ctx = [int(t) for t in rng.integers(0, draft.vocab, size=3)]
    feats = list(rng.normal(size=(3, draft.dim)))
    sess.prefill(ctx, feats)
    ref.prefill(ctx, feats)
    trees = []
    for gamma, top_k, beam in shapes:
        for temperature in temperatures:
            n = int(rng.integers(0, 3))
            kw = dict(kind=kind, top_k=top_k, beam=beam, parallel=parallel, mode=mode,
                      temperature=temperature,
                      backlog_tokens=[int(t) for t in rng.integers(0, draft.vocab, size=n)],
                      backlog_features=list(rng.normal(size=(n, draft.dim))),
                      context_len=int(rng.integers(0, 50)))
            start, f = int(rng.integers(0, draft.vocab)), rng.normal(size=draft.dim)
            draw_seed = int(rng.integers(0, 2**32))
            g_rng, r_rng = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
            want = ref_grow(ref, f, start, gamma, rng=r_rng, **kw)
            kw["temperature"] = 0.0 if kw.pop("mode") == "greedy" else temperature
            kw["moe"] = kw.pop("kind") == "moe"
            got = _grow(sess, f, start, gamma, rng=g_rng, **kw)
            assert_same_tree(got, want)
            assert sess.passes == ref.passes
            assert g_rng.bit_generator.state == r_rng.bit_generator.state
            trees.append(got)
    return trees


SHAPES = [(g, k, b) for g in (2, 3, 5) for k in (1, 2, 3) for b in (1, 4, 60)]
# a chain is the static tree of width one: its cases grow top_k 1 only
CHAIN_SHAPES = [(g, k, b) for g, k, b in SHAPES if k == 1]
CASES = [(kind, parallel, nk) for kind in ("chain", "static", "moe") for parallel in (False, True)
         for nk in ((2, 2), (3, 2), (4, 3))] + [("static", False, (2, 1)), ("chain", False, (2, 1))]


def shapes_of(kind):
    return CHAIN_SHAPES if kind == "chain" else SHAPES


@pytest.mark.parametrize("mode", ["greedy", "sample"])
@pytest.mark.parametrize("kind,parallel,nk", CASES, ids=lambda v: f"NK{v[0]}{v[1]}" if isinstance(v, tuple) else str(v))
def test_level_growth_matches_candidate_growth(target, kind, parallel, nk, mode):
    draft = init_draft(DraftConfig(n_experts=nk[0], active_k=nk[1]), target, seed=nk[0] + nk[1])
    temps = (1.0,) if mode == "greedy" else (1.0, 0.6)
    seed = 1000 * nk[0] + 100 * nk[1] + 10 * parallel + ("chain", "static", "moe").index(kind)
    compare_growth(draft, kind, parallel, mode, shapes_of(kind), seed, temps)


@pytest.mark.parametrize("twins", [False, True])
def test_greedy_dedup_keeps_the_better_copy(target, twins):
    # A right copy that beats its left twin takes the twin's place.  Equal
    # router scores (a zero router) make that common; with identical experts
    # on top, every copy ties and the left one stays.
    draft = init_draft(DraftConfig(), target, seed=4)
    draft.params["router"][:] = 0.0
    if twins:
        draft.params["w1"][1] = draft.params["w1"][0]
        draft.params["w2"][1] = draft.params["w2"][0]
    trees = compare_growth(draft, "moe", False, "greedy", [(3, 3, 60)] * 6, 7)
    swapped = 0
    for tree in trees:
        for i in range(-1, len(tree)):
            tags = tree.nodes["tag"][tree.nodes["parent"] == i].tolist()
            swapped += BRANCH_RIGHT in tags and BRANCH_LEFT in tags[tags.index(BRANCH_RIGHT):]
    if twins:
        assert all((tree.nodes["tag"] == BRANCH_LEFT).all() for tree in trees)
    else:
        assert swapped > 0


@pytest.mark.parametrize("top_k,beam", [(0, 4), (2, 0), (0, 0)])
def test_empty_trees_are_rejected(target, top_k, beam):
    # top_k or beam 0 would leave a level without nodes
    draft = init_draft(DraftConfig(), target, seed=2)
    sess = DraftSession(draft)
    for temperature, rng in ((0.0, None), (1.0, np.random.default_rng(0))):
        with pytest.raises(ValueError, match="top_k and beam must be >= 1"):
            _grow(sess, np.zeros(draft.dim), 3, 4, moe=True, top_k=top_k, beam=beam,
                  parallel=True, temperature=temperature, rng=rng)
    assert sess.passes == 0


# ------------------------------------------------- one greedy moe level

def hand_dist(V, probs):
    """A distribution over V tokens holding the given {token: probability}
    and spreading the rest evenly over the other tokens."""
    d = np.full(V, (1.0 - sum(probs.values())) / max(V - len(probs), 1))
    for t, p in probs.items():
        d[t] = p
    return d


def ref_level(dist, parents, pcum, logw, top_k, beam):
    """A greedy two-branch level candidate by candidate: each row's left
    then right draws, ``ref_dedup_siblings``, then the beam cut.  A
    candidate's parent is its row."""
    cands = []
    for r in range(dist.shape[0]):
        row = []
        for b, tag in enumerate((BRANCH_LEFT, BRANCH_RIGHT)):
            row += ref_propose(dist[r, b], r, float(pcum[r]), 3, tag, float(logw[r, b]), top_k,
                               "greedy", None, None)
        cands += ref_dedup_siblings(row)
    if len(cands) > beam:
        ranked = sorted(range(len(cands)), key=lambda i: (-cands[i].cum, i))
        cands = [cands[i] for i in sorted(ranked[:beam])]
    return cands


HALF = np.log(0.5)
LEVELS = {
    # token 5 has one probability and one branch score in both branches:
    # the cum_scores tie and the left copy stays
    "tie": ([[{2: 0.4, 5: 0.3}, {6: 0.35, 5: 0.3}]], [[HALF, HALF]], 2, 60,
            [[(2, "left"), (5, "left"), (6, "right")]]),
    # the right draw of rank 0 beats its twin, the left draw of rank 1, and
    # takes its place; the right draw of rank 1 loses to its twin
    "rank": ([[{3: 0.5, 7: 0.3}, {7: 0.6, 3: 0.2}]], [[HALF, HALF]], 2, 60,
             [[(3, "left"), (7, "right")]]),
    # only row 0 repeats a token; row 1 keeps all four draws
    "one_row": ([[{1: 0.5, 2: 0.3}, {2: 0.45, 4: 0.3}], [{1: 0.5, 2: 0.3}, {3: 0.5, 4: 0.3}]],
                [[HALF, HALF], [np.log(0.7), np.log(0.3)]], 2, 60,
                [[(1, "left"), (2, "right"), (4, "right")],
                 [(1, "left"), (2, "left"), (3, "right"), (4, "right")]]),
    # top_k 6 of 4 tokens: every right draw repeats a left one
    "past_vocab": ([[{0: 0.1, 1: 0.4, 2: 0.3, 3: 0.2}, {0: 0.25, 1: 0.15, 2: 0.35, 3: 0.25}]],
                   [[np.log(0.6), np.log(0.4)]], 6, 60,
                   [[(1, "left"), (2, "left"), (3, "left"), (0, "right")]]),
    # the dedupe leaves three candidates per row and the beam keeps three;
    # rows 0 and 1 tie candidate for candidate, so row 0's copy of token 3
    # takes the last place
    "beam": ([[{3: 0.5, 7: 0.3}, {7: 0.6, 1: 0.2}]] * 2 + [[{3: 0.2, 7: 0.1}, {7: 0.3, 1: 0.1}]],
             [[HALF, HALF]] * 3, 2, 3,
             [[(3, "left"), (7, "right")], [(7, "right")], []]),
}


@pytest.mark.parametrize("case", LEVELS)
def test_greedy_moe_level_matches_the_candidate_dedupe(case):
    probs, logw, top_k, beam, want = LEVELS[case]
    V = 4 if case == "past_vocab" else 8
    dist = np.array([[hand_dist(V, p) for p in row] for row in probs])
    m = dist.shape[0]
    logw = np.array(logw)
    parents, pcum = np.arange(10, 10 + m), np.full(m, -0.5)
    ref = ref_level(dist, parents, pcum, logw, top_k, beam)
    # each case reaches what it is named for
    assert [[(c.token, c.tag) for c in ref if c.parent == r] for r in range(m)] == want
    nodes, q_dist = np.zeros(2 * m * V + 1, NODE), np.zeros((2 * m * V + 1, V))
    rows, cum = _add_level(nodes, q_dist, 1, 3, dist, parents, pcum, BRANCH_TAGS, top_k, True,
                           beam, None, logw)
    got = nodes[1 : 1 + len(rows)]
    assert rows.tolist() == [c.parent for c in ref]
    assert got["token"].tolist() == [c.token for c in ref]
    assert got["parent"].tolist() == parents[rows].tolist()
    assert (got["depth"] == 3).all() and got["tag"].tolist() == [c.tag for c in ref]
    assert got["cum_score"].tobytes() == cum.tobytes() == np.array([c.cum for c in ref]).tobytes()
    assert np.array_equal(q_dist[1 : 1 + len(rows)], [c.q_dist for c in ref])
    # nothing is written outside the level's rows
    rest = np.r_[0, 1 + len(rows) : len(nodes)]
    assert not nodes[rest].tobytes().strip(b"\0") and not q_dist[rest].any()


@pytest.mark.parametrize("nb", [1, 2], ids=["static", "moe"])
def test_greedy_top_1_level_takes_each_distributions_first_maximum(nb):
    # a top_k 1 level's tokens and q_dist rows are what _top_k(rows, 1)
    # gives, ties to the lower token, on rows with planted tied maxima
    V, m = 8, 5
    rng = np.random.default_rng(30 + nb)
    dist = rng.dirichlet(np.ones(V), size=(m, nb))
    ties = {(0, 0): (2, 6), (1, nb - 1): (0, 7), (3, 0): (5, 6)}
    for (r, b), (lo, hi) in ties.items():
        dist[r, b] = hand_dist(V, {lo: 0.3, hi: 0.3})
    dist[4, nb - 1] = 1.0 / V  # every token ties
    flat = dist.reshape(m * nb, V)
    want = _top_k(flat, 1)[:, 0]
    assert [want[r * nb + b] for r, b in ties] == [lo for lo, _ in ties.values()]
    assert want[4 * nb + nb - 1] == 0
    parents, pcum = np.arange(10, 10 + m), np.full(m, -0.5)
    logw = None if nb == 1 else np.log(rng.dirichlet(np.ones(2), size=m))
    nodes, q_dist = np.zeros(m * nb + 1, NODE), np.zeros((m * nb + 1, V))
    rows, cum = _add_level(nodes, q_dist, 1, 2, dist, parents, pcum,
                           NO_BRANCH if nb == 1 else BRANCH_TAGS, 1, True, 60, None, logw)
    got = nodes[1 : 1 + len(rows)]
    # the (row, branch) each node was drawn from
    src = rows * nb + (got["tag"] == BRANCH_RIGHT)
    assert got["token"].tolist() == want[src].tolist()
    assert np.array_equal(q_dist[1 : 1 + len(rows)], flat[src])
    assert got["parent"].tolist() == parents[rows].tolist()
    if nb == 1:
        assert len(rows) == m and got["cum_score"].tobytes() == cum.tobytes() == (
            pcum + np.log(flat[np.arange(m), want])).tobytes()
    else:  # a row whose branches pick one token keeps one copy
        ref = ref_level(dist, parents, pcum, logw, 1, 60)
        assert got["token"].tolist() == [c.token for c in ref]
        assert got["tag"].tolist() == [c.tag for c in ref]
        assert got["cum_score"].tobytes() == cum.tobytes() == np.array([c.cum for c in ref]).tobytes()


@pytest.mark.parametrize("case", ["random", "tie", "all_tie", "zero", "tiny"])
def test_one_candidate_level_is_its_row_of_the_generic_level(case):
    # a greedy top-1 level of one distribution takes the one-candidate
    # branch; its record, q_dist row, row and cum_score are those the same
    # distribution gets as the first row of a two-row level, which takes
    # the generic path: ties to the lower token, and a zero probability
    # clamped to 1e-300 before the log
    V = 8
    rng = np.random.default_rng(40)
    row = {"random": rng.dirichlet(np.ones(V)),
           "tie": hand_dist(V, {5: 0.3, 2: 0.3}),
           "all_tie": np.full(V, 1.0 / V),
           "zero": np.zeros(V),
           "tiny": np.where(np.arange(V) == 6, 5e-324, 0.0)}[case]
    other = rng.dirichlet(np.ones(V))
    pcum = np.array([-0.75, -1.5])
    one, two = (np.zeros(4, NODE), np.zeros((4, V))), (np.zeros(4, NODE), np.zeros((4, V)))
    rows1, cum1 = _add_level(*one, 1, 3, row[None, None], np.array([9]), pcum[:1], NO_BRANCH,
                             1, True, 60, None)
    rows2, cum2 = _add_level(*two, 1, 3, np.stack((row, other))[:, None], np.array([9, 10]), pcum,
                             NO_BRANCH, 1, True, 60, None)
    assert rows1.tolist() == rows2[:1].tolist() == [0]
    assert cum1.tobytes() == cum2[:1].tobytes()
    assert one[0][1].tobytes() == two[0][1].tobytes()
    assert one[1][1].tobytes() == two[1][1].tobytes()
    assert one[0][1]["token"] == {"tie": 2, "all_tie": 0, "zero": 0, "tiny": 6}.get(
        case, int(np.argmax(row)))
    if case in ("zero", "tiny"):
        assert cum1[0] == -0.75 + np.log(1e-300)
    # nothing is written outside the node's row
    assert not one[0][[0, 2, 3]].tobytes().strip(b"\0") and not one[1][[0, 2, 3]].any()


def test_nan_temperature_is_rejected_before_the_round_opens(target):
    # the backlog is committed only once the round opens
    draft = init_draft(DraftConfig(), target, seed=2)
    sess = DraftSession(draft)
    with pytest.raises(ValueError, match="temperature must be >= 0"):
        _grow(sess, np.zeros(draft.dim), 3, 4, moe=True, top_k=2, temperature=float("nan"),
              rng=np.random.default_rng(0), backlog_tokens=[5, 6],
              backlog_features=[np.zeros(draft.dim)] * 2)
    assert sess.passes == 0 and sess.cache.length == 0


@pytest.mark.parametrize("kind", ["static", "moe"])
def test_greedy_top_k_past_the_vocab_gives_every_parent_all_tokens(kind):
    # top_k 7 of a 4-token vocab draws each parent's 4 tokens once; every
    # parent keeps its own children (a level used to number its nodes by
    # top_k rather than by the draws it made, shifting them to later parents)
    small = init_target(TargetConfig(vocab=4, dim=8, n_heads=2), seed=0)
    draft = init_draft(DraftConfig(vocab=4, dim=8, n_heads=2), small, seed=1)
    sess = DraftSession(draft)
    sess.prefill([1, 2], [np.zeros(8)] * 2)
    tree = _grow(sess, np.zeros(8), 3, 2, moe=kind == "moe", top_k=7, beam=64)
    # moe keeps one copy of the token both branches of a parent propose
    for parent in range(-1, 4):
        kids = tree.nodes["token"][tree.nodes["parent"] == parent]
        assert sorted(kids.tolist()) == [0, 1, 2, 3]
    assert len(tree) == 4 + 4 * 4


def test_tied_probabilities_take_the_lower_token(target):
    # tokens 2 and 50 share a head row, so they tie in every distribution
    tied = init_target(TargetConfig(), seed=0)
    tied.head[50] = tied.head[2]
    draft = init_draft(DraftConfig(), tied, seed=1)
    for kind in ("static", "moe"):
        trees = compare_growth(draft, kind, True, "greedy", [(3, 3, 60), (4, 2, 16)] * 4, 5)
        picked = {t for tree in trees for t in tree.nodes["token"].tolist()}
        assert {2, 50} <= picked  # the tie was reached


def levels_of(tree, gamma):
    return [np.flatnonzero(tree.nodes["depth"] == d).tolist() for d in range(1, gamma + 1)]


@pytest.mark.parametrize("kind,parallel,nk", CASES, ids=lambda v: f"NK{v[0]}{v[1]}" if isinstance(v, tuple) else str(v))
def test_sampled_growth_expands_the_beam_best_nodes_of_every_level(target, kind, parallel, nk):
    # Sampling never discards a drawn node, so each level holds exactly
    # top_k draws per branch of every expanded node, and the expanded nodes
    # are the beam best of the level above by cum_score, ties to the
    # earlier: no level expands more than beam nodes.
    draft = init_draft(DraftConfig(n_experts=nk[0], active_k=nk[1]), target, seed=nk[0] + nk[1])
    rng = np.random.default_rng(100 * nk[0] + 10 * nk[1] + parallel)
    sess = DraftSession(draft)
    for gamma, top_k, beam in shapes_of(kind):
        tree = _grow(sess, rng.normal(size=draft.dim), int(rng.integers(0, draft.vocab)), gamma,
                     moe=kind == "moe", top_k=top_k, beam=beam, parallel=parallel, temperature=1.0,
                     rng=rng)
        levels = levels_of(tree, gamma)
        parent, cum = tree.nodes["parent"], tree.nodes["cum_score"]
        expanded = [-1]
        for d, level in enumerate(levels, start=1):
            assert sorted(set(parent[level].tolist())) == expanded
            contrast = parallel and d == gamma
            assert len(level) == len(expanded) * (2 if kind == "moe" and not contrast else 1) * top_k
            ranked = sorted(level, key=lambda i: (-cum[i], i))
            expanded = sorted(ranked[:beam])


def test_sampled_jakiro_round_at_the_bench_shape_has_180_nodes(target):
    # gamma 5, top_k 2, beam 16: 4 + 16 + 64 + 64 + 32 nodes, of which the
    # contrast level grows from the 16 beam-best depth-4 nodes
    draft = init_draft(DraftConfig(), target, seed=3)
    rng = np.random.default_rng(5)
    sess = DraftSession(draft)
    for temperature in (1.0, 0.6, 1.0):
        tree = _grow(sess, rng.normal(size=draft.dim), int(rng.integers(0, draft.vocab)), 5,
                     moe=True, top_k=2, beam=16, parallel=True, temperature=temperature,
                     rng=rng)
        assert [len(level) for level in levels_of(tree, 5)] == [4, 16, 64, 64, 32]
        assert len(tree) == 180
        assert len(set(tree.nodes["parent"][levels_of(tree, 5)[4]].tolist())) == 16

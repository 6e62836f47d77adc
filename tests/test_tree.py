"""Draft tree construction tests: growth policies and the attention layout
verification takes from a tree."""

import numpy as np
import pytest

from sdlab.draft import DraftConfig, DraftSession, init_draft
from sdlab.kernels import PAD, softmax
from sdlab.target import TargetConfig, init_target, tree_groups
from sdlab.tree import NODE, DraftTree, grow_moe_tree, grow_static_tree
from sdlab.verify import verify_tree

from test_draft import step_row
from test_row_kernel import random_tree
from test_target import cache_bytes

GOLDEN_MOE_DUMP = """0 -1 1 49 left 0.0554376111048 -3.17314381566
1 -1 1 48 left 0.0552924830365 -3.17576511121
2 -1 1 15 right 0.025365035108 -5.08208573609
3 0 2 15 left 0.130095186291 -5.25253689783
4 0 2 49 left 0.0944009443555 -5.57325220573
5 0 2 24 right 0.0174189383622 -10.4645008152
6 1 2 49 left 0.153755149265 -5.0970584575
7 1 2 15 left 0.0821557144495 -5.72380345155
8 1 2 21 right 0.018119684626 -10.2288604289
9 2 2 4 left 0.13027046467 -7.1758997033
10 2 2 49 left 0.0729484744629 -7.75575912732
11 2 2 15 right 0.0184622406773 -11.9901073993
12 2 2 52 right 0.0178174540711 -12.0256564585"""


def dump_tree(tree: DraftTree) -> str:
    """Stable textual dump for golden-file comparisons."""
    lines = []
    for i, (token, parent, depth, cum_score, tag) in enumerate(tree.nodes.tolist()):
        q = tree.q_dist[i, token]
        lines.append(f"{i} {parent} {depth} {token} {tag} {q:.12g} {cum_score:.12g}")
    return "\n".join(lines)


def layout_tree(triples, root_token=0, context_len=0, vocab=64):
    """A hand-built tree of (token, parent, depth) nodes with zero scores and
    uniform draft distributions."""
    nodes = np.array([(t, p, d, 0.0, "none") for t, p, d in triples], dtype=NODE)
    return DraftTree(nodes, np.full((len(nodes), vocab), 1.0 / vocab), root_token, context_len)


def context_columns(groups, m):
    """Each of m rows' context columns, as lists, from its attention group:
    the first n of its row of the padded index, whose padding past n reads
    column 0."""
    cols = [None] * m
    for rows, idx, n in groups:
        assert idx.shape[1] % PAD == 0 and n.shape == (idx.shape[0], 1)
        for r, ix, k in zip(np.arange(m)[rows], idx, n[:, 0]):
            assert k <= idx.shape[1] and not ix[k:].any()
            cols[r] = ix[:k].tolist()
    return cols


def ancestor_walk(parents, i):
    """Row i and its ancestors, root first, by following parent pointers."""
    walk = []
    while i != -1:
        walk.append(i)
        i = parents[i]
    return walk[::-1]


def tree_rows(tree):
    """Parent rows and depths of tree's verification forward: row 0 is the
    pending root token and row 1 + i is node i."""
    return (np.concatenate(([-1], tree.nodes["parent"] + 1)),
            np.concatenate(([0], tree.nodes["depth"])))


def tree_columns(tree):
    """The context columns of each row of tree's verification forward."""
    parents, depths = tree_rows(tree)
    return context_columns(tree_groups(tree.root_context_len, parents, depths), len(parents))


def assert_columns_follow_parents(tree):
    c = tree.root_context_len
    parents, _ = tree_rows(tree)
    cols = tree_columns(tree)
    for i in range(len(parents)):
        assert cols[i] == list(range(c)) + [c + j for j in ancestor_walk(parents, i)]


@pytest.fixture(scope="module")
def target():
    return init_target(TargetConfig(), seed=0)


@pytest.fixture(scope="module")
def draft(target):
    return init_draft(DraftConfig(), target, seed=1)


@pytest.fixture()
def root_feature(target):
    cache = target.new_cache()
    return target.forward_cached(cache, 0).feature


def make_session(draft):
    return DraftSession(draft)


class TestChain:
    def test_single_node(self, draft, root_feature):
        tree = grow_static_tree(make_session(draft), [5], [root_feature], 1, 1)
        assert len(tree) == 1
        assert tree.nodes["depth"][0] == 1 and tree.nodes["parent"][0] == -1

    def test_greedy_determinism(self, draft, root_feature):
        t1 = grow_static_tree(make_session(draft), [5], [root_feature], 4, 1)
        t2 = grow_static_tree(make_session(draft), [5], [root_feature], 4, 1)
        assert dump_tree(t1) == dump_tree(t2)

    def test_chain_matches_draft_greedy_replay(self, draft, root_feature):
        # replay oracle: drive the draft by hand, taking argmax of the mixture
        gamma = 3
        tree = grow_static_tree(make_session(draft), [5], [root_feature], gamma, 1)
        s = make_session(draft)
        out = s.begin_round([5], [root_feature])
        want = []
        rows = []
        for depth in range(1, gamma + 1):
            dist = softmax(draft.mixture_logits(out))
            tok = int(np.argmax(dist))
            want.append(tok)
            if depth < gamma:
                level, (row,) = s.tree_level([tok], [out.feature_moe], [rows])
                out = step_row(level, 0)
                rows.append(row)
        assert tree.nodes["token"].tolist() == want

    def test_q_dist_recorded(self, draft, root_feature):
        tree = grow_static_tree(make_session(draft), [5], [root_feature], 3, 1)
        assert tree.q_dist.shape == (3, draft.vocab)
        assert np.allclose(tree.q_dist.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        q = tree.q_dist[np.arange(3), tree.nodes["token"]]
        assert (0.0 < q).all() and (q <= 1.0).all()

    def test_sampling_mode(self, draft, root_feature):
        rng = np.random.default_rng(0)
        tree = grow_static_tree(make_session(draft), [5], [root_feature], 3, 1, temperature=1.0,
                                rng=rng)
        assert len(tree) == 3
        rng2 = np.random.default_rng(0)
        tree2 = grow_static_tree(make_session(draft), [5], [root_feature], 3, 1, temperature=1.0,
                                 rng=rng2)
        assert dump_tree(tree) == dump_tree(tree2)

    def test_temperature_zero_is_greedy(self, draft, root_feature):
        greedy = grow_static_tree(make_session(draft), [5], [root_feature], 3, 1)
        same = grow_static_tree(make_session(draft), [5], [root_feature], 3, 1, temperature=0.0)
        assert dump_tree(same) == dump_tree(greedy)
        with pytest.raises(ValueError, match="needs an rng"):
            grow_static_tree(make_session(draft), [5], [root_feature], 3, 1, temperature=0.6)
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            grow_static_tree(make_session(draft), [5], [root_feature], 3, 1, temperature=-1.0,
                             rng=np.random.default_rng(0))


class TestStaticTree:
    def test_topk1_collapses_to_chain(self, draft, root_feature):
        # a chain draft is the width-1 static tree: each node the child of the one before
        static = grow_static_tree(make_session(draft), [5], [root_feature], 3, 1)
        assert static.nodes["parent"].tolist() == [-1, 0, 1]
        assert static.nodes["depth"].tolist() == [1, 2, 3]
        assert (static.nodes["tag"] == "none").all()

    def test_exhaustive_enumeration_oracle(self, draft, root_feature):
        # gamma=2, top_k=2, beam=2: brute-force the expected node set
        tree = grow_static_tree(make_session(draft), [5], [root_feature], 2, 2, beam=2)
        s = make_session(draft)
        out = s.begin_round([5], [root_feature])
        d0 = softmax(draft.mixture_logits(out))
        top2 = np.argsort(-d0, kind="stable")[:2]
        layer1 = [(int(t), float(np.log(d0[t]))) for t in top2]
        expect = [(t, 1, -1) for t, _ in layer1]
        children = []
        for idx, (t, logq) in enumerate(layer1):
            o2 = step_row(s.tree_level([t], [out.feature_moe], [[]])[0], 0)
            d2 = softmax(draft.mixture_logits(o2))
            for t2 in np.argsort(-d2, kind="stable")[:2]:
                children.append((int(t2), 2, idx, logq + float(np.log(d2[t2]))))
        children.sort(key=lambda c: -c[3])
        expect += [(t, d, p) for t, d, p, _ in children[:2]]
        assert tree.nodes[["token", "depth", "parent"]].tolist() == expect

    def test_layout_invariants_after_build(self, draft, root_feature):
        tree = grow_static_tree(make_session(draft), [5], [root_feature], 3, 2, beam=4,
                                context_len=2)
        assert_columns_follow_parents(tree)

    def test_cum_score_monotone(self, draft, root_feature):
        tree = grow_static_tree(make_session(draft), [5], [root_feature], 4, 3, beam=6)
        parent, cum = tree.nodes["parent"], tree.nodes["cum_score"]
        inner = parent >= 0
        assert inner.any()
        assert (cum[inner] <= cum[parent[inner]] + 1e-12).all()


class TestMoeTree:
    def test_golden_dump(self, draft, root_feature):
        tree = grow_moe_tree(make_session(draft), [5], [root_feature], 2, 2, context_len=1)
        assert dump_tree(tree) == GOLDEN_MOE_DUMP

    def test_requires_two_active_experts(self, target, root_feature):
        d1 = init_draft(DraftConfig(n_experts=1, active_k=1), target, seed=3)
        with pytest.raises(ValueError, match="K < 2"):
            grow_moe_tree(DraftSession(d1), [5], [root_feature], 2, 2)

    def test_branch_tags_and_order(self, draft, root_feature):
        tree = grow_moe_tree(make_session(draft), [5], [root_feature], 3, 2, beam=8)
        assert set(tree.nodes["tag"].tolist()) <= {"left", "right"}
        by_parent = {}
        for i, parent in enumerate(tree.nodes["parent"].tolist()):
            by_parent.setdefault(parent, []).append(i)
        for kids in by_parent.values():
            tags = tree.nodes["tag"][kids].tolist()
            # lefts precede rights among each parent's children
            if "left" in tags and "right" in tags:
                assert tags.index("right") > max(i for i, t in enumerate(tags) if t == "left")

    def test_left_right_score_ordering(self, draft, root_feature):
        # reconstructed emitting-branch score: exp(cum - parent_cum) / q
        tree = grow_moe_tree(make_session(draft), [5], [root_feature], 2, 2, beam=8)
        nodes = tree.nodes
        by_parent = {}
        for i, parent in enumerate(nodes["parent"].tolist()):
            by_parent.setdefault(parent, []).append(i)
        for kids in by_parent.values():
            def branch_score(i):
                parent = nodes["parent"][i]
                pc = 0.0 if parent == -1 else nodes["cum_score"][parent]
                return np.exp(nodes["cum_score"][i] - pc) / tree.q_dist[i, nodes["token"][i]]
            lefts = [branch_score(i) for i in kids if nodes["tag"][i] == "left"]
            rights = [branch_score(i) for i in kids if nodes["tag"][i] == "right"]
            if lefts and rights:
                assert min(lefts) >= max(rights) - 1e-12

    def test_gamma1_topk2_candidate_order(self, draft, root_feature):
        # direct sort of (branch score desc, token prob desc) pairs
        tree = grow_moe_tree(make_session(draft), [5], [root_feature], 1, 2)
        s = make_session(draft)
        out = s.begin_round([5], [root_feature])
        dl, dr = softmax(draft.branch_logits(out))
        lt = [int(t) for t in np.argsort(-dl, kind="stable")[:2]]
        rt = [int(t) for t in np.argsort(-dr, kind="stable")[:2]]
        expected = [(t, "left") for t in lt]
        seen = set(lt)
        for t in rt:
            if t not in seen:
                expected.append((t, "right"))
        got = tree.nodes[["token", "tag"]].tolist()
        assert got[: len(expected)] == expected
        assert len(tree) <= 4

    def test_identical_experts_reduce_to_static(self, target, root_feature):
        d = init_draft(DraftConfig(), target, seed=5)
        d.params["w1"][1] = d.params["w1"][0]
        d.params["w2"][1] = d.params["w2"][0]
        tree = grow_moe_tree(DraftSession(d), [5], [root_feature], 2, 2, beam=8)
        # equal branch distributions collide token-for-token; dedup keeps the left copies
        assert (tree.nodes["tag"] == "left").all()
        static = grow_static_tree(DraftSession(d), [5], [root_feature], 2, 2, beam=8)
        assert np.array_equal(tree.nodes["token"], static.nodes["token"])

    def test_parallel_final_level_from_contrast_head(self, draft, root_feature):
        gamma = 3
        sess = make_session(draft)
        tree = grow_moe_tree(sess, [5], [root_feature], gamma, 2, parallel=True, beam=8)
        assert sess.passes == gamma - 1
        deepest = tree.nodes[tree.nodes["depth"] == gamma]
        assert len(deepest) and (deepest["tag"] == "none").all()
        non_parallel = grow_moe_tree(make_session(draft), [5], [root_feature], gamma, 2, beam=8)
        assert non_parallel.nodes["depth"].max() == gamma

    def test_chain_parallel_pass_counts(self, draft, root_feature):
        # gamma=5 chain: 4 draft passes with the parallel final step, 5 without
        sess = make_session(draft)
        tree = grow_static_tree(sess, [5], [root_feature], 5, 1, parallel=True)
        assert sess.passes == 4
        assert tree.nodes["depth"].tolist() == [1, 2, 3, 4, 5]
        sess2 = make_session(draft)
        grow_static_tree(sess2, [5], [root_feature], 5, 1)
        assert sess2.passes == 5


class TestLayout:
    def test_chain_layout(self):
        cols = tree_columns(layout_tree([(1, -1, 1), (2, 0, 2), (3, 1, 3)], context_len=3))
        assert cols == [[0, 1, 2] + list(range(3, 4 + i)) for i in range(4)]

    def test_star_layout(self):
        cols = tree_columns(layout_tree([(1, -1, 1)] + [(t, 0, 2) for t in (2, 3, 4)]))
        for i in range(2, 5):
            assert cols[i] == [0, 1, i]

    def test_root_only_tree(self):
        assert tree_columns(layout_tree([], root_token=1, context_len=2)) == [[0, 1, 2]]

    def test_random_trees_match_ancestor_walk(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            parents, depth = random_tree(rng, int(rng.integers(1, 65)), p_child=0.75)
            triples = [(int(rng.integers(0, 64)), int(p), int(d) + 1) for p, d in zip(parents, depth)]
            assert_columns_follow_parents(
                layout_tree(triples, context_len=int(rng.integers(0, 5))))

    def test_grown_tree_layout(self, draft, root_feature):
        tree = grow_moe_tree(make_session(draft), [5], [root_feature], 3, 2, beam=6,
                             context_len=4)
        cols = tree_columns(tree)
        for i, (parent, depth) in enumerate(tree.nodes[["parent", "depth"]].tolist()):
            assert len(cols[1 + i]) == 4 + 1 + depth
            assert cols[1 + i][-2] == 4 + 1 + parent  # the root row for parent == -1
        assert_columns_follow_parents(tree)

    def test_malformed_trees(self, target):
        fwd = [(1, 1, 1), (2, -1, 1)]
        bad_depth = [(1, -1, 1), (2, 0, 3)]
        root_depth = [(1, -1, 2)]
        unordered = [(1, -1, 1), (2, 0, 2), (3, -1, 1)]
        for triples, why in ((fwd, "parent must be an earlier row"), (bad_depth, "depth must be"),
                             (root_depth, "depth must be"), (unordered, "depth order")):
            cache = target.new_cache()
            target.prefill(cache, [5, 6, 7])
            before = cache_bytes(cache)
            # every row is checked before any is computed, leaves included
            with pytest.raises(ValueError, match=why):
                verify_tree(layout_tree(triples, context_len=3), target, cache, 0.0, None)
            assert cache_bytes(cache) == before

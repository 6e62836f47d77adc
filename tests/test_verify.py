"""Verification tests: acceptance algebra, residual resampling, and the
lossless tree walk, checked by analytic identities, exhaustive enumeration
and Monte Carlo coupling to the real pipeline."""

import copy
import dataclasses
import itertools

import numpy as np
import pytest

import sdlab.target
import sdlab.verify
from sdlab.bench import RunConfig, build_models, decode_prompt, make_prompts
from sdlab.draft import DraftConfig, DraftSession, init_draft
from sdlab.kernels import inverse_cdf_sample, softmax
from sdlab.target import TargetConfig, init_target
from sdlab.tree import NODE, DraftTree, grow_moe_tree, grow_static_tree
from sdlab.verify import _accepts, residual_dist, verify_tree

from test_draft import step_row
from test_row_kernel import random_tree
from test_target import cache_bytes, clone_cache

V = 8


def resample_residual(p, q, u):
    """Replacement token drawn from norm(max(0, p - q)) by inverse CDF."""
    return inverse_cdf_sample(residual_dist(p, q), u)


@pytest.fixture(scope="module")
def small_target():
    return init_target(TargetConfig(vocab=V, dim=16, n_layers=2, n_heads=2), seed=0)


@pytest.fixture(scope="module")
def small_draft(small_target):
    return init_draft(
        DraftConfig(vocab=V, dim=16, n_heads=2, n_experts=2, active_k=2, expert_hidden=32),
        small_target,
        seed=1,
    )


def rand_dist(rng, n=V):
    return rng.dirichlet(np.ones(n))


class TestAcceptToken:
    """The walk's acceptance rule of one token, ``_accepts``."""

    def test_equal_dists_always_accept(self):
        p = np.full(4, 0.25)
        for u in np.linspace(0, 0.999, 20):
            assert _accepts(p, p, 2, float(u))

    def test_zero_target_prob_always_rejects(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        for u in np.linspace(0, 0.999, 20):
            assert not _accepts(p, q, 1, float(u))

    def test_half_ratio_analytic_and_monte_carlo(self):
        # p(t)=0.3, q(t)=0.6: acceptance probability exactly 0.5
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        assert _accepts(p, q, 0, 0.499999)
        assert not _accepts(p, q, 0, 0.5)
        rng = np.random.default_rng(0)
        n = 100_000
        hits = sum(_accepts(p, q, 0, float(rng.random())) for _ in range(n))
        sigma = np.sqrt(n * 0.25)
        assert abs(hits - 0.5 * n) < 3 * sigma

    def test_unproposed_token_error(self):
        with pytest.raises(ValueError, match="not proposed"):
            _accepts(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1, 0.1)


class TestResidual:
    def test_disjoint_support(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        for u in np.linspace(0, 0.999, 10):
            assert resample_residual(p, q, float(u)) == 0

    def test_single_positive_component(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.4, 0.6])
        assert np.allclose(residual_dist(p, q), [1.0, 0.0])
        assert resample_residual(p, q, 0.73) == 0

    def test_hand_evaluated_case(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.5, 0.3])
        assert np.allclose(residual_dist(p, q), [1.0, 0.0, 0.0])
        assert resample_residual(p, q, 0.99) == 0

    def test_empty_residual_returns_p(self):
        # max(0, p - q) has no mass: p <= q everywhere, so p and q agree up
        # to rounding, the rejection had at most that probability, and p stands
        p = np.array([0.5, 0.5])
        assert residual_dist(p, p) is p
        p = np.array([0.5, 0.5 - 1e-12])
        assert residual_dist(p, np.array([0.5, 0.5])) is p


class TestSingleStepIdentity:
    def test_accept_plus_residual_reproduces_target(self):
        # q(t) min(1, p(t)/q(t)) + (total rejected mass) * residual(t) == p(t)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = rand_dist(rng)
            q = rand_dist(rng)
            a = np.minimum(1.0, p / q)
            rejected_mass = float(np.sum(q * (1.0 - a)))
            out = q * a
            if rejected_mass > 0:
                out = out + rejected_mass * residual_dist(p, q)
            assert np.max(np.abs(out - p)) < 1e-12

    def test_multi_sibling_level_identity(self):
        # two independent proposals with the recursive residual update
        rng = np.random.default_rng(2)
        for _ in range(300):
            p = rand_dist(rng)
            q1 = rand_dist(rng)
            q2 = rand_dist(rng)
            out = np.zeros(V)
            a1 = np.minimum(1.0, p / q1)
            out += q1 * a1
            for c1 in range(V):
                w = q1[c1] * (1.0 - a1[c1])
                if w <= 0:
                    continue
                p2 = residual_dist(p, q1)
                a2 = np.minimum(1.0, p2 / q2)
                out += w * (q2 * a2)
                rej2 = float(np.sum(q2 * (1.0 - a2)))
                if rej2 > 0:
                    out += w * rej2 * residual_dist(p2, q2)
            assert np.max(np.abs(out - p)) < 1e-12


class ScriptedRng:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def records(triples):
    """NODE records of (token, parent, depth) triples, with zero scores."""
    return np.array([(t, p, d, 0.0, "none") for t, p, d in triples], dtype=NODE)


def star_tree(tokens, dists, root_token, context_len):
    nodes = records([(t, -1, 1) for t in tokens])
    return DraftTree(nodes, np.array(dists), root_token, context_len)


def chain_tree(tokens, dist, root_token, context_len):
    """A chain of tokens under the root, each drawn from dist."""
    nodes = records([(t, d - 2, d) for d, t in enumerate(tokens, start=1)])
    return DraftTree(nodes, np.tile(dist, (len(tokens), 1)), root_token, context_len)


# ------------------------------------------------------------ walk oracles

def tree_columns(tree):
    """Tokens, parent rows and positions of tree's verification forward:
    row 0 is the pending root token and row 1 + i is node i."""
    nodes = tree.nodes.tolist()
    return ([tree.root_token] + [n[0] for n in nodes], [-1] + [n[1] + 1 for n in nodes],
            [0] + [n[2] for n in nodes])


def accepts(p, q, token, u):
    """The speculative acceptance rule: u < min(1, p(token) / q(token))."""
    return u < min(1.0, float(p[token]) / float(q[token]))


def walk_oracle(tree, logits, temperature, rng):
    """The node-by-node walks: children from a dict of child lists in node
    order, the greedy walk at temperature 0 and residual speculative
    sampling otherwise, where a node without children ends the walk with a
    draw from the target; (path, final token)."""
    nodes = tree.nodes.tolist()
    kids = {}
    for i, n in enumerate(nodes):
        kids.setdefault(n[1], []).append(i)
    path, cur = [], -1
    while True:
        if temperature == 0.0:
            t_star = int(np.argmax(logits[cur + 1]))
            match = [ch for ch in kids.get(cur, []) if nodes[ch][0] == t_star]
            if not match:
                return path, t_star
            cur = match[0]
        else:
            p = softmax(logits[cur + 1], temperature)
            if cur not in kids:
                return path, inverse_cdf_sample(p, rng.random())
            for ch in kids[cur]:
                if accepts(p, tree.q_dist[ch], nodes[ch][0], rng.random()):
                    break
                p = residual_dist(p, tree.q_dist[ch])
            else:
                return path, inverse_cdf_sample(p, rng.random())
            cur = ch
        path.append(cur)


def split_oracle(parents, depths):
    """The verify passes' split of a branching tree by brute force, for rows
    in verify's layout (row 0 the root): (h, subtree, cost), where
    subtree[r] lists row r's subtree rows in order and cost[h] is the rows
    of the first pass at split depth h (the root and the rows with a child
    down to depth h) plus the largest subtree under a depth h + 1 row.  h
    is the shallowest depth of least cost, over the depths with a row with
    a child."""
    parents, depths = list(parents), list(depths)
    subtree = [[r] for r in range(len(parents))]
    for r in range(1, len(parents)):
        a = parents[r]
        while a >= 0:
            subtree[a].append(r)
            a = parents[a]
    inner = [r for r in range(len(parents)) if len(subtree[r]) > 1]
    cost = [sum(depths[r] <= h for r in inner)
            + max(len(subtree[r]) for r in range(len(parents)) if depths[r] == h + 1)
            for h in range(max(depths[r] for r in inner) + 1)]
    return cost.index(min(cost)), [sorted(s) for s in subtree], cost


def likely_path_oracle(tree):
    """The rows of the draft's most likely path by brute force: from row 0,
    the child of highest cum_score, the earliest of a tie, to a leaf."""
    _, parents, _ = tree_columns(tree)
    cum = [0.0, *tree.nodes["cum_score"].tolist()]
    path = [0]
    while kids := [r for r in range(len(parents)) if parents[r] == path[-1]]:
        path.append(max(kids, key=lambda r: (cum[r], -r)))
    return path


def expected_passes(tree, path, temperature):
    """The rows, in verify's layout, of each target pass verify_tree makes
    for a tree whose walk accepts path: a chain's one pass over every row;
    else a first pass over the draft's most likely path at temperature 0
    and over the root and the rows with a child down to the split depth
    above it, then, when path reaches a node that pass left out, that
    node's subtree."""
    tokens, parents, depths = tree_columns(tree)
    if depths[-1] == len(tree.nodes):
        return [list(range(len(tokens)))]
    h, subtree, _ = split_oracle(parents, depths)
    if temperature == 0.0:
        first = likely_path_oracle(tree)
    else:
        first = [r for r in range(len(tokens)) if len(subtree[r]) > 1 and depths[r] <= h]
    out = [r for r in (1 + i for i in path) if r not in first]
    return [first, subtree[out[0]]] if out else [first]


class ScriptedCache:
    """The cache of a ScriptedTarget, by token path: ``rows`` holds the
    tentative rows' paths, the last pass's, and ``committed`` the paths
    ``commit_rows`` kept, in order."""

    def __init__(self):
        self.rows, self.committed = [], []

    @property
    def length(self):
        return len(self.committed)

    @property
    def tentative(self):
        return len(self.rows)

    def commit_rows(self, indices):
        assert all(0 <= r < len(self.rows) for r in indices)
        self.committed += [self.rows[r] for r in indices]
        self.rows = []


class ScriptedTarget:
    """A target whose passes return fixed logits by each row's token path,
    root first, as a real target's depend on the path alone: rows holding
    one path get one row of logits in any pass, and a path the table lacks
    fails.  A row's features are its logits' first two entries.  Each
    pass's row paths are recorded in ``passes``.  A pass's rows become its
    ScriptedCache's tentative rows; its parentless row hangs under the
    last committed path, and positions count from the committed rows, as
    a real cache's do."""

    vocab = V

    def __init__(self, by_path):
        self.by_path, self.passes = by_path, []

    def new_cache(self):
        return ScriptedCache()

    def forward_tree_kv(self, cache, tokens, parents, positions, _checked=False):
        up = cache.committed[-1] if cache.committed else ()
        # the committed rows are one path, root first
        assert cache.committed == [up[: k + 1] for k in range(len(up))]
        paths = []
        for t, p, d in zip(*(np.asarray(c).tolist() for c in (tokens, parents, positions))):
            assert (p >= 0) == bool(paths) and p < len(paths)  # only row 0 is parentless
            paths.append((paths[p] if p >= 0 else up) + (t,))
            assert d == len(paths[-1]) - 1 - len(up)
        self.passes.append(paths)
        cache.rows = paths
        logits = np.stack([self.by_path[path] for path in paths])
        return logits, logits[:, :2]


def random_walk_tree(rng):
    """A random level-ordered forest under the root with scripted target
    logits, (tree, target, each tree row's token path).  Rows are stably
    sorted by depth, so a level's parent column often decreases, which the
    grower never emits.  Each node's token is its parent's argmax half the
    time, and its draft distribution is half the target's (at T=1) and half
    a random one, so walks go deep.  Siblings with one token share their
    logits, as they would from a real target.  cum_scores are small
    integers, so siblings often tie."""
    m = int(rng.integers(1, 40))
    parents, depth = random_tree(rng, m, p_child=rng.uniform(0.6, 1.0))
    fresh = rng.normal(scale=2.0, size=(m + 1, V))
    coin, other = rng.random(m), rng.integers(0, V, m)
    paths = [(int(rng.integers(0, V)),)]
    by_path = {paths[0]: fresh[0]}
    for i, p in enumerate(parents.tolist()):
        up = paths[p + 1]
        t = int(by_path[up].argmax()) if coin[i] < 0.5 else int(other[i])
        paths.append(up + (t,))
        by_path.setdefault(paths[-1], fresh[i + 1])
    logits = np.stack([by_path[path] for path in paths])
    rows = parents + 1
    nodes = records(zip([path[-1] for path in paths[1:]], parents.tolist(), (depth + 1).tolist()))
    q_dist = 0.5 * softmax(logits[rows]) + 0.5 * rng.dirichlet(np.ones(V), size=m)
    nodes["cum_score"] = -rng.integers(0, 3, m)
    return DraftTree(nodes, q_dist, paths[0][0], 0), ScriptedTarget(by_path), paths


def test_walks_match_the_node_by_node_oracle_on_random_trees():
    rng = np.random.default_rng(2024)
    decreasing = deep = second = above = 0
    for _ in range(250):
        tree, target, paths = random_walk_tree(rng)
        decreasing += bool((np.diff(tree.nodes["parent"]) < 0).any())
        logits = np.stack([target.by_path[path] for path in paths])
        _, parents, depths = tree_columns(tree)
        for temperature in (0.0, 0.6, 1.0):
            seed = int(rng.integers(0, 2**32))
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            target.passes.clear()
            cache = target.new_cache()
            out = verify_tree(tree, target, cache, temperature, got_rng)
            path, final = walk_oracle(tree, logits, temperature, ref_rng)
            assert out.accepted == tree.nodes["token"][path].tolist()
            assert out.final_token == final
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            # each pass forwards the rows the split rule names
            want = expected_passes(tree, path, temperature)
            assert target.passes == [[paths[r] for r in rows] for rows in want]
            assert out.second_pass == (len(want) == 2)
            assert out.rows == sum(map(len, want))
            # the verify commits the accepted path and leaves no tentative rows
            want = [paths[0]] + [paths[1 + i] for i in path]
            assert cache.committed == want and cache.tentative == 0
            assert all(np.array_equal(f, target.by_path[w][:2])
                       for f, w in zip(out.committed_features, want, strict=True))
            deep += len(path) >= 2
            if out.second_pass:
                second += 1
                # pass 2 starts above the deepest depth with a row with a child
                inner = [depths[r] for r in range(len(parents)) if r in parents]
                above += len(target.passes[1][0]) - 1 <= max(inner)
    # the cases the walks could get wrong were reached
    assert decreasing > 100 and deep > 250 and second > 400 and above > 400


# ------------------------------------------- split passes, bit for bit

def assert_split_passes_match_one_pass(target, cache, tokens, parents, depths, monkeypatch):
    """The passes verify_tree splits a tree into give every row the bits of
    one pass over the whole tree: the first pass over row 0 and every row
    with a child, the greedy first pass over the path from row 0 to each
    leaf, a causal pass, and, for every other row v, a pass over v's
    subtree after v's ancestors are committed from the first pass's rows,
    on a copy of the cache.  A subtree pass builds a ``tree_groups`` index
    unless the subtree is one row or a chain, a causal pass.  The rows are
    a tree in verify's layout (row 0 the root); returns the number of
    causal and of gathered subtree passes."""
    tokens, parents, depths = (np.asarray(c) for c in (tokens, parents, depths))
    logits, features = target.forward_tree_kv(cache, tokens, parents, depths)
    _, subtree, _ = split_oracle(parents, depths)
    inner = [r for r in range(len(tokens)) if len(subtree[r]) > 1]
    new = {r: k for k, r in enumerate(inner)}
    got = target.forward_tree_kv(cache, tokens[inner], [new.get(p, -1) for p in parents[inner]],
                                 depths[inner])
    assert np.array_equal(got[0], logits[inner]) and np.array_equal(got[1], features[inner])
    built, build = [], sdlab.target.tree_groups
    monkeypatch.setattr(sdlab.target, "tree_groups", lambda *a: built.append(a) or build(*a))
    causal = 0
    for v in range(1, len(tokens)):
        anc = [int(parents[v])]
        while anc[0] > 0:
            anc.insert(0, int(parents[anc[0]]))
        sub = subtree[v]
        local = {r: k for k, r in enumerate(sub)}
        after = copy.deepcopy(cache)
        after.commit_rows([new[a] for a in anc])
        built.clear()
        got = target.forward_tree_kv(after, tokens[sub], [local.get(p, -1) for p in parents[sub]],
                                     depths[sub] - len(anc))
        assert np.array_equal(got[0], logits[sub]) and np.array_equal(got[1], features[sub])
        chain = depths[sub[-1]] - depths[v] == len(sub) - 1
        assert (built == []) == chain
        causal += chain
    monkeypatch.setattr(sdlab.target, "tree_groups", build)
    # last, as each replaces the first pass's tentative rows
    for leaf in (r for r in range(len(tokens)) if len(subtree[r]) == 1):
        path = [leaf]
        while path[0] > 0:
            path.insert(0, int(parents[path[0]]))
        got = target.forward_tree_kv(cache, tokens[path], np.arange(-1, len(path) - 1),
                                     depths[path])
        assert np.array_equal(got[0], logits[path]) and np.array_equal(got[1], features[path])
    return causal, len(tokens) - 1 - causal


@pytest.mark.parametrize("seed", range(6))
def test_split_passes_match_one_pass_on_random_trees(seed, monkeypatch):
    # contexts past 128 columns, where attention reads several padded blocks
    target = init_target(TargetConfig(), seed=0)
    rng = np.random.default_rng(seed)
    cache = target.new_cache()
    target.prefill(cache, rng.integers(0, 64, int(rng.integers(129, 200))).tolist())
    m = int(rng.integers(20, 120))
    parents, depth = random_tree(rng, m, p_child=rng.uniform(0.6, 1.0))
    causal, gathered = assert_split_passes_match_one_pass(
        target, cache, rng.integers(0, 64, m + 1), np.concatenate(([-1], parents + 1)),
        np.concatenate(([0], depth + 1)), monkeypatch)
    assert causal > 1 and gathered > 0


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_split_passes_match_one_pass_on_grown_jakiro_trees(temperature, monkeypatch):
    target, draft = build_models(RunConfig())
    rng = np.random.default_rng(5)
    for n in (12, 140):
        prompt = rng.integers(0, target.vocab, n).tolist()
        cache = target.new_cache()
        feats = target.prefill(cache, prompt[:-1])[1]
        sess = DraftSession(draft)
        sess.prefill(prompt[1:-1], feats[:-1])
        tree = grow_moe_tree(sess, prompt[-1:], feats[-1:], 5, 2, parallel=True, beam=16,
                             temperature=temperature, rng=rng, context_len=cache.length)
        causal, gathered = assert_split_passes_match_one_pass(
            target, cache, *tree_columns(tree), monkeypatch)
        assert causal > 1 and gathered > 0


# Hand-built trees in verify's layout, (parents, depths, h): the rows with a
# child down to h, plus the largest subtree under a depth h + 1 row, is
# the least, and ties go to the shallower h.
SPLITS = {
    # a star: only the root has a child
    "star": ([-1, 0, 0, 0], [0, 1, 1, 1], 0),
    # a stem under a wide last level: 3 + 1 rows at h = 2 against 8 and 8
    "stem": ([-1, 0, 1, 2, 2, 2, 2, 2], [0, 1, 2, 3, 3, 3, 3, 3], 2),
    # four two-row branches: 1 + 2 rows at h = 0 against 5 + 1 at h = 1
    "bushes": ([-1, 0, 0, 0, 0, 1, 2, 3, 4], [0, 1, 1, 1, 1, 2, 2, 2, 2], 0),
    # two nodes of three children with a child each: 3 + 2 at h = 1
    # against 1 + 7 at h = 0 and 9 + 1 at h = 2
    "middle": ([-1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 4, 5, 6, 7, 8],
               [0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3], 1),
    # a chain ties at every depth
    "chain": ([-1, 0, 1, 2], [0, 1, 2, 3], 0),
}


@pytest.mark.parametrize("name", SPLITS)
def test_split_depth_on_hand_built_trees(name):
    parents, depths, h = SPLITS[name]
    got, size = sdlab.verify.split_depth(parents, depths)
    want, subtree, _ = split_oracle(parents, depths)
    assert got == want == h
    assert size == [len(s) for s in subtree]


def test_split_depth_never_forwards_more_than_the_rows_with_a_child_and_one():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(1, 200))
        parents, depth = random_tree(rng, m, p_child=rng.uniform(0.3, 1.0))
        parents, depths = [-1, *(parents + 1).tolist()], [0, *(depth + 1).tolist()]
        h, size = sdlab.verify.split_depth(parents, depths)
        want, subtree, cost = split_oracle(parents, depths)
        assert h == want and size == [len(s) for s in subtree]
        inner = sum(len(s) > 1 for s in subtree)
        first = sum(len(s) > 1 and d <= h for s, d in zip(subtree, depths))
        largest = max(len(s) for s, d in zip(subtree, depths) if d == h + 1)
        assert first + largest == cost[h] <= inner + 1


# ------------------------------------ the greedy first pass, a likely path

def scripted_tree(triples, cum, next_token):
    """A tree of (token, parent, depth) triples with cum_scores cum under
    root token 7, and a ScriptedTarget whose argmax after each row's path
    is next_token.get(path, 0); (tree, target, each row's token path)."""
    nodes = records(triples)
    nodes["cum_score"] = cum
    paths = [(7,)]
    for t, p, _ in triples:
        paths.append(paths[p + 1] + (t,))
    by_path = {path: 3.0 * np.eye(V)[next_token.get(path, 0)] for path in paths}
    return DraftTree(nodes, np.full((len(triples), V), 1.0 / V), 7, 0), ScriptedTarget(by_path), paths


# name: (triples, cum_scores, argmax after a path, pass rows, accepted, final)
LIKELY_PATHS = {
    # the root's two children tie, and the earlier one is on the path,
    # whose walk never leaves it; node 4 outscores both but hangs under
    # the later one
    "tie": ([(1, -1, 1), (2, -1, 1), (3, 0, 2), (4, 0, 2), (5, 1, 2)],
            [-1.0, -1.0, -2.0, -1.5, -0.5], {(7,): 1, (7, 1): 4},
            [[0, 1, 4]], [1, 4], 0),
    # the path ends at the tree's last node, and the walk leaves it at
    # the root, so the second pass is node 0's subtree
    "last node": ([(1, -1, 1), (2, -1, 1), (3, 0, 2), (4, 1, 2)],
                  [-1.0, -0.5, -2.0, -1.0], {(7,): 1, (7, 1): 3, (7, 1, 3): 5},
                  [[0, 2, 4], [1, 3]], [1, 3], 5),
}


@pytest.mark.parametrize("name", LIKELY_PATHS)
def test_a_greedy_first_pass_is_the_likely_path(name):
    triples, cum, next_token, passes, accepted, final = LIKELY_PATHS[name]
    tree, target, paths = scripted_tree(triples, cum, next_token)
    cache = target.new_cache()
    out = verify_tree(tree, target, cache, 0.0, None)
    assert target.passes == [[paths[r] for r in rows] for rows in passes]
    assert (out.accepted, out.final_token) == (accepted, final)
    assert out.rows == sum(map(len, passes)) and out.second_pass == (len(passes) == 2)
    # the oracles agree: the one-pass walk and the passes it implies
    path, want = walk_oracle(tree, np.stack([target.by_path[p] for p in paths]), 0.0, None)
    assert (tree.nodes["token"][path].tolist(), want) == (accepted, final)
    assert expected_passes(tree, path, 0.0) == passes
    assert cache.committed == [(7, *accepted[:k]) for k in range(len(accepted) + 1)]
    assert cache.tentative == 0


def test_a_greedy_jakiro_verify_gathers_nothing_in_its_first_pass(monkeypatch):
    # the likely path is a chain, so pass 1 is causal and builds no
    # tree_groups index; the split pass 1 of a sampled tree builds one
    target, draft = build_models(RunConfig())
    groups, passes = [], []
    build, forward = sdlab.target.tree_groups, target.forward_tree_kv
    monkeypatch.setattr(sdlab.target, "tree_groups",
                        lambda *a, **kw: groups.append(1) or build(*a, **kw))

    def counted(*a, **kw):
        before = len(groups)
        out = forward(*a, **kw)
        passes.append(len(groups) - before)
        return out

    monkeypatch.setattr(target, "forward_tree_kv", counted)
    rng = np.random.default_rng(5)
    for temperature, want in ((0.0, 0), (1.0, 1)):
        for _ in range(4):
            prompt = rng.integers(0, target.vocab, 12).tolist()
            cache = target.new_cache()
            feats = target.prefill(cache, prompt[:-1])[1]
            sess = DraftSession(draft)
            sess.prefill(prompt[1:-1], feats[:-1])
            tree = grow_moe_tree(sess, prompt[-1:], feats[-1:], 5, 2, parallel=True, beam=16,
                                 temperature=temperature, rng=rng, context_len=cache.length)
            assert tree.nodes["depth"][-1] < len(tree.nodes)  # branching
            passes.clear()
            verify_tree(tree, target, cache, temperature, rng)
            assert passes[0] == want, temperature


# ------------------------------ the commit contract, in real decodes

# the forms a verify takes at each temperature: a chain's one pass; a
# branching tree's first pass alone (the likely path at T=0, the split
# above); and a second pass, causal over a leaf or a chain subtree, else
# gathered
VERIFY_FORMS = {0.0: {"chain", "path", "causal pass 2", "gathered pass 2"},
                1.0: {"chain", "split", "causal pass 2", "gathered pass 2"}}


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_every_verify_leaves_the_cache_a_prefill_of_the_accepted_stream(monkeypatch,
                                                                        temperature):
    # after each verify of a decode the target cache holds, bit for bit,
    # what a fresh prefill of the prompt, the tokens emitted before the
    # round and the round's accepted nodes holds, with no tentative rows,
    # and the committed features, the next round's draft input, are that
    # prefill's features of the pending token and the accepted nodes; a
    # vocab of 8 makes acceptance common, so every form is reached
    base = RunConfig(temperature=temperature, vocab=8, gamma=3, beam=4, max_new=16, seed=3)
    built, forms, verify = [], set(), sdlab.bench.verify_tree
    build = sdlab.target.tree_groups
    monkeypatch.setattr(sdlab.target, "tree_groups", lambda *a: built.append(a) or build(*a))
    for method in sdlab.bench.TREES:
        cfg = dataclasses.replace(base, method=method)
        target, draft = build_models(cfg)
        forward, passes = target.forward_tree_kv, []

        def counted(*a, **kw):
            before = len(built)
            out = forward(*a, **kw)
            passes.append(len(built) > before)
            return out

        monkeypatch.setattr(target, "forward_tree_kv", counted)
        stream = []  # the prompt and every token emitted so far

        def checked(tree, target, cache, temp, rng):
            passes.clear()
            out = verify(tree, target, cache, temp, rng)
            seq = stream + out.accepted
            fresh = target.new_cache()
            feats = target.prefill(fresh, seq)[1]
            assert cache_bytes(cache) == cache_bytes(fresh) and cache.tentative == 0
            got = out.committed_features
            assert got.dtype == np.float64 and got.shape == (1 + len(out.accepted), target.dim)
            assert got.tobytes() == feats[len(stream) - 1 :].tobytes()
            stream[:] = seq + [out.final_token]
            if tree.nodes["depth"][-1] == len(tree.nodes):
                forms.add("chain")
            elif out.second_pass:
                forms.add("gathered pass 2" if passes[1] else "causal pass 2")
            else:
                forms.add("path" if temp == 0.0 else "split")
            return out

        monkeypatch.setattr(sdlab.bench, "verify_tree", checked)
        rng = np.random.default_rng(cfg.seed)
        for prompt in make_prompts(cfg):
            stream[:] = prompt
            decode_prompt(target, draft, cfg, prompt, rng)
    assert forms == VERIFY_FORMS[temperature]


# ---------------------------- the real sampling walk, enumerated exactly

class PathTable(dict):
    """Rows of width w by key, drawn for a key on first use from a
    generator seeded by the key and then kept: target logits by token path,
    or draft distributions by a parent's path and a child's place."""

    def __init__(self, w, draw):
        super().__init__()
        self.w, self.draw = w, draw

    def __missing__(self, key):
        self[key] = self.draw(np.random.default_rng(list(key)), self.w)
        return self[key]


class BranchingRng:
    """The uniforms of one branch of an exact enumeration: draw i is
    script[i], draws past the script read 0.5, and ``cuts`` gets, for each
    draw in order, the intervals of [0, 1) on which its use treats it
    alike, from spies on the walk's two uses of a uniform."""

    def __init__(self, script):
        self.script, self.draws, self.cuts = script, 0, []

    def random(self):
        self.draws += 1
        return self.script[self.draws - 1] if self.draws <= len(self.script) else 0.5


class WalkLaw:
    """The exact law of verify_tree's (accepted tokens, final token, second
    pass) on one tree, by depth first enumeration of its uniforms: an
    acceptance test splits its uniform at a = min(1, p / q) into [0, a)
    and [a, 1), and an inverse-CDF draw at the running sums, one interval
    per token, the last up to 1.  Each branch replays the real walk with
    the midpoint of its interval and weighs the outcome by the product of
    the interval lengths.  Spies on the walk's two uses of a uniform record
    the intervals in the current branch's rng."""

    def __init__(self, monkeypatch):
        accepts, sample = sdlab.verify._accepts, sdlab.verify.inverse_cdf_sample
        self.rng = None

        def spy_accepts(p, q, token, u):
            a = min(1.0, float(p[token]) / float(q[token]))
            self.rng.cuts.append([(0.0, a), (a, 1.0)])
            return accepts(p, q, token, u)

        def spy_sample(p, u):
            edges = [0.0, *np.minimum(np.cumsum(p)[:-1], 1.0).tolist(), 1.0]
            self.rng.cuts.append(list(zip(edges[:-1], edges[1:])))
            return sample(p, u)

        monkeypatch.setattr(sdlab.verify, "_accepts", spy_accepts)
        monkeypatch.setattr(sdlab.verify, "inverse_cdf_sample", spy_sample)

    def __call__(self, tree, target, temperature):
        law, stack = {}, [((), 1.0)]
        while stack:
            script, w = stack.pop()
            rng = self.rng = BranchingRng(script)
            out = verify_tree(tree, target, target.new_cache(), temperature, rng)
            assert len(rng.cuts) == rng.draws  # one use per uniform
            if rng.draws > len(script):
                stack += [(script + ((lo + hi) / 2,), w * (hi - lo))
                          for lo, hi in rng.cuts[len(script)] if hi > lo]
            else:
                key = (tuple(out.accepted), out.final_token, out.second_pass)
                law[key] = law.get(key, 0.0) + w
        return law


# (parent, depth) pairs of tree shapes whose walk can take a second pass:
# the split puts the first at depth 0 (pass 1 the root alone, pass 2 a
# depth-1 node's subtree) and at depth 1 (pass 2 a depth-1 leaf or a
# depth-2 node)
ENUMERATED = {"split at the root": ([(-1, 1), (-1, 1), (0, 2)], 0),
              "split at depth 1": ([(-1, 1), (-1, 1), (0, 2), (0, 2)], 1)}


@pytest.mark.parametrize("temperature", [0.6, 1.0])
@pytest.mark.parametrize("name", ENUMERATED)
def test_the_real_sampling_walk_is_lossless_by_exact_enumeration(name, temperature, monkeypatch):
    # over a 3-token vocab, every draw of the tree's tokens (each node's
    # from its own draft distribution, which depends on its parent's path
    # and its place among its siblings), then every uniform of verify_tree
    (shape, h), w = ENUMERATED[name], 3
    assert sdlab.verify.split_depth([-1, *(p + 1 for p, _ in shape)],
                                    [0, *(d for _, d in shape)])[0] == h
    logits = PathTable(w, lambda g, w: g.normal(scale=1.5, size=w))
    drafts = PathTable(w, lambda g, w: g.dirichlet(np.ones(w)))
    target = ScriptedTarget(logits)
    target.vocab = w
    walk_law, law, second = WalkLaw(monkeypatch), {}, 0.0
    for toks in itertools.product(range(w), repeat=len(shape)):
        paths, q = [(0,)], []
        for (p, _), t in zip(shape, toks):
            q.append(drafts[(*paths[p + 1], sum(x == p for x, _ in shape[:len(q)]))])
            paths.append(paths[p + 1] + (t,))
        tree = DraftTree(records((t, p, d) for t, (p, d) in zip(toks, shape)), np.array(q), 0, 0)
        drawn = float(np.prod([qi[t] for qi, t in zip(q, toks)]))
        for key, pr in walk_law(tree, target, temperature).items():
            law[key[:2]] = law.get(key[:2], 0.0) + drawn * pr
            second += drawn * pr * key[2]
    assert abs(sum(law.values()) - 1.0) < 1e-12
    assert second > 0.1  # the walk reaches second passes
    # a one-token round's second token comes from the next round, which
    # draws it from the target
    joint = np.zeros((w, w))
    for (accepted, final), pr in law.items():
        emitted = (*accepted, final)
        if len(emitted) >= 2:
            joint[emitted[:2]] += pr
        else:
            joint[final] += pr * softmax(logits[(0, final)], temperature)
    exact = softmax(logits[(0,)], temperature)[:, None] * np.stack(
        [softmax(logits[(0, t)], temperature) for t in range(w)])
    assert np.max(np.abs(joint - exact)) < 1e-12


class TestWalkMechanics:
    def test_single_node_equal_dists_always_accepted(self, small_target):
        cache = small_target.new_cache()
        out = None
        for t in [1, 2]:
            out = small_target.forward_cached(cache, t)
        pending = 3
        # q at the root position equals p exactly
        root_logits = small_target.forward_tree_kv(cache, [pending], [-1], [0])[0][0]
        p = softmax(root_logits, 1.0)
        tok = int(np.argmax(p))
        tree = star_tree([tok], [p], pending, cache.length)
        for u in (0.0, 0.3, 0.999):
            outcome = verify_tree(tree, small_target, clone_cache(cache), 1.0,
                                  ScriptedRng([u, 0.5]))
            assert outcome.accepted == [tok]

    def test_forced_rejection_resamples_from_residual(self, small_target):
        cache = small_target.new_cache()
        for t in [1, 2]:
            small_target.forward_cached(cache, t)
        pending = 3
        root_logits = small_target.forward_tree_kv(cache, [pending], [-1], [0])[0][0]
        p = softmax(root_logits, 1.0)
        tok = 0
        q = 0.5 * p
        q[tok] += 0.5  # q(tok) > p(tok): acceptance ratio strictly below 1
        a = min(1.0, p[tok] / q[tok])
        res = residual_dist(p, q)
        tree = star_tree([tok], [q], pending, cache.length)
        # u0 just above the acceptance threshold forces rejection; u1 picks by CDF
        u1 = 0.5
        outcome = verify_tree(tree, small_target, cache, 1.0,
                              ScriptedRng([min(a + 1e-9, 0.9999999), u1]))
        assert outcome.accepted == []
        cdf = np.cumsum(res)
        expected = int(np.searchsorted(cdf, u1, side="right"))
        assert outcome.final_token == expected

    def test_rejection_with_an_empty_residual_draws_from_p(self, small_target):
        cache = small_target.new_cache()
        for t in [1, 2]:
            small_target.forward_cached(cache, t)
        pending = 3
        root_logits = small_target.forward_tree_kv(cache, [pending], [-1], [0])[0][0]
        p = softmax(root_logits, 1.0)
        tok = int(np.argmax(p))
        q = p.copy()
        q[tok] += 1e-12  # q >= p everywhere: the residual has no mass
        assert not np.maximum(0.0, p - q).any()
        tree = star_tree([tok], [q], pending, cache.length)
        # u0 above p(tok)/q(tok) = 1 - O(1e-12) rejects; u1 draws from p itself
        u1 = 0.5
        outcome = verify_tree(tree, small_target, cache, 1.0, ScriptedRng([1.0 - 1e-15, u1]))
        assert outcome.accepted == []
        assert outcome.final_token == int(np.searchsorted(np.cumsum(p), u1, side="right"))

    def test_verify_commits_the_accepted_path(self, small_target, small_draft):
        # the pending token and the accepted nodes end committed, as a
        # prefill of them leaves them, with no tentative rows
        cache = small_target.new_cache()
        feats = [small_target.forward_cached(cache, t).feature for t in [1, 2]]
        sess = DraftSession(small_draft)
        tree = grow_static_tree(sess, [3], feats[-1:], 2, 2, context_len=cache.length)
        outcome = verify_tree(tree, small_target, cache, 0.0, None)
        assert len(outcome.committed_features) == 1 + len(outcome.accepted)
        assert cache.length == 3 + len(outcome.accepted) and cache.tentative == 0
        fresh = small_target.new_cache()
        small_target.prefill(fresh, [1, 2, 3] + outcome.accepted)
        assert cache_bytes(cache) == cache_bytes(fresh)

    def test_greedy_perfect_draft_accepts_full_path(self, small_target):
        # a tree holding the target's own greedy continuation is fully accepted
        prompt = [1, 5, 2]
        gamma = 3
        greedy = small_target.autoregressive_decode(prompt, gamma + 1)
        cache = small_target.new_cache()
        for t in prompt[:-1]:
            small_target.forward_cached(cache, t)
        tree = chain_tree(greedy[:gamma], np.full(V, 1.0 / V), prompt[-1], cache.length)
        seq = clone_cache(cache)
        outcome = verify_tree(tree, small_target, cache, 0.0, None)
        assert outcome.accepted == greedy[:gamma]
        assert outcome.final_token == greedy[gamma]
        assert len(outcome.accepted) + 1 == gamma + 1  # tau = gamma + 1 this round
        # the committed rows carry the features of decoding them one by one
        want = [small_target.forward_cached(seq, t).feature for t in prompt[-1:] + greedy[:gamma]]
        assert len(outcome.committed_features) == gamma + 1
        assert all(np.array_equal(f, w) for f, w in zip(outcome.committed_features, want))
        assert cache_bytes(cache) == cache_bytes(seq) and cache.tentative == 0

    def test_greedy_uniform_draft_tau_near_one(self):
        # chains of token 0 against a vocab-64 target: tau stays in [1, 1.2]
        target = init_target(TargetConfig(), seed=0)
        rng = np.random.default_rng(9)
        uniform = np.full(64, 1.0 / 64)
        rounds = 0
        emitted = 0
        for _ in range(250):
            prompt = [int(t) for t in rng.integers(0, 64, size=3)]
            cache = target.new_cache()
            for t in prompt[:-1]:
                target.forward_cached(cache, t)
            tree = chain_tree([0, 0, 0], uniform, prompt[-1], cache.length)
            outcome = verify_tree(tree, target, cache, 0.0, None)
            rounds += 1
            emitted += len(outcome.accepted) + 1
        tau = emitted / rounds
        assert 1.0 <= tau <= 1.2

    def test_temperature_picks_the_walk(self, small_target, small_draft):
        cache = small_target.new_cache()
        feats = [small_target.forward_cached(cache, t).feature for t in [1, 2]]
        sess = DraftSession(small_draft)
        tree = grow_static_tree(sess, [3], feats[-1:], 2, 2, context_len=cache.length)
        logits, features = small_target.forward_tree_kv(cache, *tree_columns(tree))

        def walked(out, path, final):
            """The outcome is the oracle's walk over the one-pass forward,
            with that forward's features of the accepted path."""
            rows = [0] + [1 + i for i in path]
            return (out.accepted == tree.nodes["token"][path].tolist() and out.final_token == final
                    and np.array_equal(out.committed_features, features[rows]))

        greedy = verify_tree(tree, small_target, clone_cache(cache), 0.0, None)  # no rng needed
        assert walked(greedy, *walk_oracle(tree, logits, 0.0, None))
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        sampled = verify_tree(tree, small_target, clone_cache(cache), 0.6, rng)
        assert walked(sampled, *walk_oracle(tree, logits, 0.6, ref))
        assert rng.bit_generator.state == ref.bit_generator.state
        for bad in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="temperature must be >= 0"):
                verify_tree(tree, small_target, cache, bad, np.random.default_rng(0))

    def test_sampling_checks_every_draft_distribution_up_front(self, small_target):
        # the first child is the target's own p, always accepted, so the
        # walk never tries the second; its bad q still raises, before any
        # row is computed, while the greedy walk reads no q at all
        cache = small_target.new_cache()
        small_target.prefill(cache, [1, 2])
        p = softmax(small_target.forward_tree_kv(cache, [3], [-1], [0])[0][0])
        negative = np.full(V, 1.0 / V)
        negative[:2] += (-2.0 / V, 2.0 / V)
        for bad, why in ((np.full(V, 0.5 / V), "q sums to 0.5"),
                         (np.where(np.arange(V) == 1, np.nan, 1.0 / V), "non-finite q"),
                         (negative, "q has negative entries")):
            tree = star_tree([int(p.argmax()), 0], [p, bad], 3, cache.length)
            before = cache_bytes(cache)
            with pytest.raises(ValueError, match=why):
                verify_tree(tree, small_target, cache, 1.0, ScriptedRng([0.0, 0.5]))
            assert cache_bytes(cache) == before
            assert verify_tree(tree, small_target, clone_cache(cache), 0.0,
                               None).accepted == [int(p.argmax())]

    def test_a_branching_verify_checks_its_tree_once(self, small_target, monkeypatch):
        # a star of two leaves whose first is the target argmax and whose
        # second the draft's likelier: the walk accepts the first leaf, off
        # the likely path, so the verify forwards the root and the second
        # leaf, then the first leaf, and checks the whole tree's tokens and
        # layout once
        cache = small_target.new_cache()
        small_target.prefill(cache, [1, 2])
        best = int(small_target.forward_tree_kv(cache, [3], [-1], [0])[0][0].argmax())
        tree = star_tree([best, (best + 1) % V], [np.full(V, 1.0 / V)] * 2, 3, cache.length)
        tree.nodes["cum_score"] = [-1.0, 0.0]
        calls = []
        tokens, layout = sdlab.target.check_tokens, sdlab.target.check_tree
        counted = lambda t, v: calls.append("tokens") or tokens(t, v)
        monkeypatch.setattr(sdlab.target, "check_tokens", counted)
        monkeypatch.setattr(sdlab.verify, "check_tokens", counted)
        counted = lambda p, d: calls.append("layout") or layout(p, d)
        monkeypatch.setattr(sdlab.target, "check_tree", counted)
        monkeypatch.setattr(sdlab.verify, "check_tree", counted)
        out = verify_tree(tree, small_target, cache, 0.0, None)
        assert out.accepted == [best] and out.second_pass
        assert sorted(calls) == ["layout", "tokens"]

    def test_sampling_without_an_rng_raises_before_any_pass(self, small_target, small_draft,
                                                            monkeypatch):
        cache = small_target.new_cache()
        feats = small_target.prefill(cache, [1, 2])[1]
        sess = DraftSession(small_draft)
        sess.prefill([2], feats[:1])
        tree = grow_moe_tree(sess, [3], feats[-1:], 3, 2, temperature=1.0,
                             rng=np.random.default_rng(0), context_len=cache.length)
        passes = []
        forward = small_target.forward_tree_kv
        monkeypatch.setattr(small_target, "forward_tree_kv",
                            lambda *a, **kw: passes.append(a) or forward(*a, **kw))
        before = cache_bytes(cache), cache.tentative
        with pytest.raises(ValueError, match="sampling verification needs an rng"):
            verify_tree(tree, small_target, cache, 1.0, None)
        assert passes == [] and (cache_bytes(cache), cache.tentative) == before

    @pytest.mark.parametrize("reshape", ["three rows short", "a column short", "a column over"])
    def test_sampling_checks_the_draft_distributions_shape_before_any_pass(
            self, small_target, small_draft, monkeypatch, reshape):
        # every row still sums to 1, so only the shape is wrong
        cache = small_target.new_cache()
        feats = small_target.prefill(cache, [1, 2])[1]
        sess = DraftSession(small_draft)
        sess.prefill([2], feats[:1])
        tree = grow_moe_tree(sess, [3], feats[-1:], 3, 2, temperature=1.0,
                             rng=np.random.default_rng(0), context_len=cache.length)
        q = tree.q_dist
        tree.q_dist = {"three rows short": q[:-3],
                       "a column short": np.column_stack((q[:, :-2], q[:, -2:].sum(axis=1))),
                       "a column over": np.column_stack((q, np.zeros(len(q))))}[reshape]
        passes = []
        forward = small_target.forward_tree_kv
        monkeypatch.setattr(small_target, "forward_tree_kv",
                            lambda *a, **kw: passes.append(a) or forward(*a, **kw))
        before = cache_bytes(cache), cache.tentative
        with pytest.raises(ValueError, match=r"q_dist must be \(nodes, vocab\)"):
            verify_tree(tree, small_target, cache, 1.0, np.random.default_rng(1))
        assert passes == [] and (cache_bytes(cache), cache.tentative) == before


# ---------------------------------------------------------------------------
# exhaustive enumeration of grow+verify rounds (depth 2, 2 siblings per level)
# ---------------------------------------------------------------------------

def target_dists(target, ctx, temperature=1.0):
    cache = target.new_cache()
    out = None
    for t in ctx:
        out = target.forward_cached(cache, t)
    p0 = softmax(out.logits, temperature)
    p1 = {}
    for t in range(V):
        c2 = clone_cache(cache)
        o = target.forward_cached(c2, t)
        p1[t] = softmax(o.logits, temperature)
    return p0, p1


def draft_level_dists(target, draft, ctx, kind, temperature=1.0):
    """Emitting distributions of the real draft at the root step and after
    each possible depth-1 token, mirroring the growers' sampling policy."""
    cache = target.new_cache()
    feats = [target.forward_cached(cache, t).feature for t in ctx]
    sess = DraftSession(draft)
    if len(ctx) > 2:
        sess.prefill(ctx[1:-1], feats[: len(ctx) - 2])
    out0 = sess.begin_round([ctx[-1]], [feats[-2]])

    def dists(step):
        if kind == "static":
            d = softmax(draft.mixture_logits(step), temperature)
            return [d, d]  # top_k=2: two independent draws from one dist
        return list(softmax(draft.branch_logits(step), temperature))

    lvl1 = dists(out0)
    lvl2 = {}
    for t in range(V):
        stp = step_row(sess.tree_level([t], [out0.feature_moe], [[]])[0], 0)
        lvl2[t] = dists(stp)
    return lvl1, lvl2


def enumerate_jakiro_round(target, draft, ctx):
    """enumerate_round for a jakiro_full round with gamma 2, top_k 1 and beam 1.

    The root pass draws a left and a right depth-1 node; only the one with
    the better cum_score (the left on a tie) gets a depth-2 child, drawn
    from the contrast head of the root pass.  Which node that is depends
    on both depth-1 draws; the other node's path ends in a bonus draw.
    Keys are enumerate_round's with the number of accepted draft tokens
    appended."""
    p0, p1 = target_dists(target, ctx)
    cache = target.new_cache()
    feats = [target.forward_cached(cache, t).feature for t in ctx]
    sess = DraftSession(draft)
    sess.prefill(ctx[1:-1], feats[: len(ctx) - 2])
    out0 = sess.begin_round([ctx[-1]], [feats[-2]])
    qa, qb = softmax(draft.branch_logits(out0))
    qc = softmax(draft.contrast_logits(out0))
    cum_a = np.log(out0.branch_scores[0]) + np.log(np.maximum(qa, 1e-300))
    cum_b = np.log(out0.branch_scores[1]) + np.log(np.maximum(qb, 1e-300))
    out = {}

    def add(key, pr):
        if pr > 0:
            out[key] = out.get(key, 0.0) + pr

    def level2(t1, w, expanded):
        p = p1[t1]
        if not expanded:
            for b in range(V):
                add((t1, b, 1), w * p[b])
            return
        for d in range(V):
            wd = w * qc[d]
            if wd <= 0:
                continue
            a = min(1.0, p[d] / qc[d])
            add((t1, d, 2), wd * a)
            rw = wd * (1.0 - a)
            if rw > 1e-18:
                res = residual_dist(p, qc)
                for r in range(V):
                    add((t1, r, 1), rw * res[r])

    for c1 in range(V):
        for c2 in range(V):
            w = qa[c1] * qb[c2]
            if w <= 0:
                continue
            left_expanded = cum_a[c1] >= cum_b[c2]
            a1 = min(1.0, p0[c1] / qa[c1])
            level2(c1, w * a1, left_expanded)
            rw = w * (1.0 - a1)
            if rw > 0:
                pr_ = residual_dist(p0, qa)
                a2 = min(1.0, pr_[c2] / qb[c2])
                level2(c2, rw * a2, not left_expanded)
                rw2 = rw * (1.0 - a2)
                if rw2 > 1e-18:
                    prr = residual_dist(pr_, qb)
                    for r in range(V):
                        add((r, 0), rw2 * prr[r])
    return out, p0, p1


def enumerate_round(target, draft, ctx, kind):
    """Exact distribution over a round's emitted prefix (bonus marginalized):
    keys are (t1,) for full rejection or (t1, t2) otherwise."""
    if kind == "jakiro":
        out, p0, p1 = enumerate_jakiro_round(target, draft, ctx)
        prefix = {}
        for key, pr in out.items():
            prefix[key[:-1]] = prefix.get(key[:-1], 0.0) + pr
        return prefix, p0, p1
    p0, p1 = target_dists(target, ctx)
    lvl1, lvl2 = draft_level_dists(target, draft, ctx, kind)
    out = {}

    def add(key, pr):
        if pr > 0:
            out[key] = out.get(key, 0.0) + pr

    def level2(t1, w):
        p = p1[t1]
        qa, qb = lvl2[t1]
        for d1 in range(V):
            wa = w * qa[d1]
            if wa <= 0:
                continue
            a1 = min(1.0, p[d1] / qa[d1])
            add((t1, d1), wa * a1)
            rw = wa * (1.0 - a1)
            if rw > 0:
                pr_ = residual_dist(p, qa)
                for d2 in range(V):
                    wb = rw * qb[d2]
                    if wb <= 0:
                        continue
                    a2 = min(1.0, pr_[d2] / qb[d2])
                    add((t1, d2), wb * a2)
                    rw2 = wb * (1.0 - a2)
                    if rw2 > 1e-18:
                        prr = residual_dist(pr_, qb)
                        for r in range(V):
                            add((t1, r), rw2 * prr[r])

    qa, qb = lvl1
    for c1 in range(V):
        w1 = qa[c1]
        if w1 <= 0:
            continue
        a1 = min(1.0, p0[c1] / qa[c1])
        level2(c1, w1 * a1)
        rw = w1 * (1.0 - a1)
        if rw > 0:
            pr_ = residual_dist(p0, qa)
            for c2 in range(V):
                w2 = rw * qb[c2]
                if w2 <= 0:
                    continue
                a2 = min(1.0, pr_[c2] / qb[c2])
                level2(c2, w2 * a2)
                rw2 = w2 * (1.0 - a2)
                if rw2 > 1e-18:
                    prr = residual_dist(pr_, qb)
                    for r in range(V):
                        add((r,), rw2 * prr[r])
    return out, p0, p1


@pytest.mark.parametrize("kind", ["static", "moe", "jakiro"])
def test_tree_sampling_losslessness_by_enumeration(small_target, small_draft, kind):
    ctx = [3, 1, 4]
    dist, p0, p1 = enumerate_round(small_target, small_draft, ctx, kind)
    assert abs(sum(dist.values()) - 1.0) < 1e-12

    marg1 = np.zeros(V)
    for key, pr in dist.items():
        marg1[key[0]] += pr
    assert np.max(np.abs(marg1 - p0)) < 1e-10

    joint = np.zeros((V, V))
    for key, pr in dist.items():
        if len(key) == 2:
            joint[key] += pr
        else:
            # one-token rounds: the next round's first token at ctx + [a]
            sub, sp0, _ = enumerate_round(small_target, small_draft, ctx + [key[0]], kind)
            sm = np.zeros(V)
            for k2, pr2 in sub.items():
                sm[k2[0]] += pr2
            assert np.max(np.abs(sm - sp0)) < 1e-10
            joint[key[0]] += pr * sm
    exact = p0[:, None] * np.stack([p1[t] for t in range(V)])
    assert np.max(np.abs(joint - exact)) < 1e-10


def real_rounds(target, draft, ctx, n, grow, top_k, **kw):
    """n real gamma-2 grow+verify rounds from ctx with one rng: each round's
    emitted tokens and its number of accepted draft tokens."""
    scratch = target.new_cache()
    feats = [target.forward_cached(scratch, t).feature for t in ctx]
    cache0 = target.new_cache()
    for t in ctx[:-1]:
        target.forward_cached(cache0, t)  # pending token stays out of the cache
    rng = np.random.default_rng(7)
    for _ in range(n):
        sess = DraftSession(draft)
        sess.prefill(ctx[1:-1], feats[: len(ctx) - 2])
        cache = clone_cache(cache0)
        tree = grow(sess, ctx[-1:], feats[-2:-1], 2, top_k, temperature=1.0,
                    rng=rng, context_len=cache.length, **kw)
        outcome = verify_tree(tree, target, cache, 1.0, rng)
        yield outcome.accepted + [outcome.final_token], len(outcome.accepted)


# upper 1e-4 point of the standard normal
Z_1E4 = 3.719016485455709


def chi_square(law, counts, n):
    """Pearson's statistic of counts of n draws against the law, and the
    upper 1e-4 point of its chi-square null.

    The rarest keys of the law are pooled into one bin until it expects 5
    draws; every other key is a bin of its own.  Drawn keys the law does not
    have land in the pooled bin.  The critical value is Wilson and
    Hilferty's approximation, within 0.2 of the exact one at these 66-67
    degrees of freedom."""
    keys = sorted(law, key=law.get)
    pooled = 0.0
    while n * pooled < 5:
        pooled += law[keys.pop(0)]
    expect = n * np.array([pooled] + [law[k] for k in keys])
    seen = np.array([counts.get(k, 0) for k in keys])
    observed = np.concatenate(([n - seen.sum()], seen))
    df = len(keys)
    crit = df * (1 - 2 / (9 * df) + Z_1E4 * np.sqrt(2 / (9 * df))) ** 3
    return float(((observed - expect) ** 2 / expect).sum()), crit


@pytest.mark.parametrize("kind", ["static", "moe"])
def test_monte_carlo_coupling_to_real_pipeline(small_target, small_draft, kind):
    """The real grow+verify round follows the enumerated distribution.

    Half the total variation of 3000 rounds has a noise of about 0.05 on its
    own, so its bound only catches gross errors.  The chi-square test at
    level 1e-4 has a critical excess over its mean of about 52.  A residual
    that subtracts only half of each rejected draft distribution moves the
    law by a total variation of 0.11-0.13 and the statistic's mean by 270
    (static) and 1070 (moe), over five times that excess."""
    ctx = [3, 1, 4]
    enum, _, _ = enumerate_round(small_target, small_draft, ctx, kind)
    grow = grow_static_tree if kind == "static" else grow_moe_tree
    top_k = 2 if kind == "static" else 1
    n = 3000
    counts = {}
    for emitted, _ in real_rounds(small_target, small_draft, ctx, n, grow, top_k, beam=64):
        key = tuple(emitted[:2]) if len(emitted) >= 2 else (emitted[0],)
        counts[key] = counts.get(key, 0) + 1
    tv = 0.0
    for key in set(enum) | set(counts):
        tv += abs(enum.get(key, 0.0) - counts.get(key, 0) / n)
    assert tv / 2 < 0.05
    stat, crit = chi_square(enum, counts, n)
    assert stat < crit


def test_monte_carlo_jakiro_round_expands_the_enumerated_node(small_target, small_draft):
    """The real jakiro_full round at top_k 1 and beam 1 gives the contrast
    child to the node the enumeration does.  Every lossless expansion rule
    emits tokens with the same law, so the test counts accepted draft tokens
    per round, which the rule moves: expanding both depth-1 nodes shifts
    about 0.09 of the rounds from one accepted token to two, against a
    standard error of 0.009."""
    ctx = [3, 1, 4]
    enum, p0, _ = enumerate_jakiro_round(small_target, small_draft, ctx)
    want_acc, want_first = np.zeros(3), np.zeros(V)
    for key, pr in enum.items():
        want_acc[key[-1]] += pr
        want_first[key[0]] += pr
    assert np.max(np.abs(want_first - p0)) < 1e-10
    n = 3000
    acc, first = np.zeros(3), np.zeros(V)
    for emitted, accepted in real_rounds(small_target, small_draft, ctx, n, grow_moe_tree, 1,
                                         parallel=True, beam=1):
        acc[accepted] += 1 / n
        first[emitted[0]] += 1 / n
    assert np.max(np.abs(acc - want_acc)) < 0.035
    assert np.max(np.abs(first - want_first)) < 0.035


# ------------------------------------------- enumeration at K=3, gamma=3

class BeamOneRound:
    """Exact law of a sampled round at temperature 1, beam 1 and gamma 3.

    Every level draws top_k=1 child per branch of the one node the level
    before expanded (two draws from the mixture for static, whose top_k is
    2), and expands its best child by cum_score, the earlier on a tie: the
    tree the growers build at beam 1.  The law is over the first gamma + 1
    tokens the round emits, each round that stops earlier continued by the
    target, so a lossless round's law is the target's.  The draft's passes
    run on one session, memoized by path; a path's tentative row is found
    by its ancestors, as the grower finds it.
    """

    def __init__(self, target, draft, ctx, kind, gamma=3):
        self.target, self.draft, self.kind, self.gamma = target, draft, kind, gamma
        cache = target.new_cache()
        outs = [target.forward_cached(cache, t) for t in ctx]
        self.feats = feats = [o.feature for o in outs]
        self.sess = DraftSession(draft)
        self.sess.prefill(ctx[1:-1], feats[: len(ctx) - 2])
        self.passes = {(): (self.sess.begin_round([ctx[-1]], [feats[-2]]), [])}
        self.caches = {(): cache}
        self.dists, self.target_laws, self.laws = {(): softmax(outs[-1].logits)}, {}, {}

    def p(self, path):
        """The target's distribution after ctx + path."""
        if path not in self.dists:
            cache = clone_cache(self.caches[path[:-1]])
            self.dists[path] = softmax(self.target.forward_cached(cache, path[-1]).logits)
            if len(path) < self.gamma:
                self.caches[path] = cache
        return self.dists[path]

    def step(self, path):
        """The draft pass of the node at path and its tentative ancestor rows."""
        if path not in self.passes:
            out, anc = self.step(path[:-1])
            level, ids = self.sess.tree_level([path[-1]], [out.feature_moe], [anc])
            self.passes[path] = (step_row(level, 0), anc + [int(ids[0])])
        return self.passes[path]

    def children(self, path):
        """The (dist, log branch score or None) of each child slot of the
        node at path, in tree order."""
        if self.kind == "jakiro" and len(path) == self.gamma - 1:
            return [(softmax(self.draft.contrast_logits(self.step(path[:-1])[0])), None)]
        out = self.step(path)[0]
        if self.kind in ("moe", "jakiro"):
            branch = softmax(self.draft.branch_logits(out))
            return [(branch[b], np.log(out.branch_scores[b])) for b in (0, 1)]
        mix = softmax(self.draft.mixture_logits(out))
        return [(mix, None)] * (2 if self.kind == "static" else 1)

    def target_law(self, path, r):
        """(V,) * r law of the target's next r tokens after ctx + path."""
        if r == 0:
            return np.ones(())
        if (path, r) not in self.target_laws:
            p = self.p(path)
            self.target_laws[path, r] = np.stack(
                [p[x] * self.target_law(path + (x,), r - 1) for x in range(V)])
        return self.target_laws[path, r]

    def law(self, path=(), pcum=0.0, r=None):
        """Law of the next r tokens emitted from the expanded node at path,
        whose cum_score is pcum, over its children's draws and the walk."""
        r = self.gamma + 1 if r is None else r
        if (path, pcum) in self.laws:
            return self.laws[path, pcum]
        slots = self.children(path)
        leaf = len(path) + 1 == self.gamma
        law = np.zeros((V,) * r)
        for draw in np.ndindex(*(V,) * len(slots)):
            w = np.prod([q[t] for (q, _), t in zip(slots, draw)])
            cums = [(pcum if lw is None else pcum + lw) + np.log(max(q[t], 1e-300))
                    for (q, lw), t in zip(slots, draw)]
            best = int(np.argmax(cums))  # first of equal maxima: the earlier node
            p = self.p(path)
            for i, ((q, _), t) in enumerate(zip(slots, draw)):
                a = min(1.0, p[t] / q[t])
                child = path + (t,)
                if i == best and not leaf:
                    law[t] += w * a * self.law(child, cums[i], r - 1)
                else:
                    law[t] += w * a * self.target_law(child, r - 1)
                w *= 1.0 - a
                p = residual_dist(p, q)
            law += w * np.stack([p[x] * self.target_law(path + (x,), r - 1) for x in range(V)])
        self.laws[path, pcum] = law
        return law


GROWERS = {"chain": (grow_static_tree, {"top_k": 1}), "static": (grow_static_tree, {"top_k": 2}),
           "moe": (grow_moe_tree, {"top_k": 1}), "jakiro": (grow_moe_tree, {"top_k": 1,
                                                                            "parallel": True})}


@pytest.fixture(scope="module", params=[(3, 3), (4, 3)], ids=["N3K3", "N4K3"])
def k3_draft(small_target, request):
    n, k = request.param
    return init_draft(DraftConfig(vocab=V, dim=16, n_heads=2, n_experts=n, active_k=k,
                                  expert_hidden=32), small_target, seed=n + k)


@pytest.mark.parametrize("kind", ["chain", "static", "moe", "jakiro"])
def test_k3_gamma3_round_is_lossless_by_enumeration(small_target, k3_draft, kind):
    ctx = [3, 1, 4]
    oracle = BeamOneRound(small_target, k3_draft, ctx, kind)
    law = oracle.law()
    assert abs(law.sum() - 1.0) < 1e-12
    assert np.max(np.abs(law - oracle.target_law((), 4))) < 1e-10

    # the oracle's tree is the grower's: each real level holds the children
    # of the one node expanded before it, drawn from the oracle's
    # distributions, and the real tree expands the node the oracle does
    grow, kw = GROWERS[kind]
    rng = np.random.default_rng(3)
    for _ in range(10):
        sess = DraftSession(k3_draft)
        sess.prefill(ctx[1:-1], oracle.feats[: len(ctx) - 2])
        tree = grow(sess, ctx[-1:], oracle.feats[-2:-1], 3, temperature=1.0, rng=rng, beam=1,
                    **kw)
        nodes, path, pcum, parent = tree.nodes, (), 0.0, -1
        for depth in (1, 2, 3):
            level = np.flatnonzero(nodes["depth"] == depth)
            slots = oracle.children(path)
            assert len(level) == len(slots) and (nodes["parent"][level] == parent).all()
            cums = []
            for i, (q, lw) in zip(level, slots):
                assert np.array_equal(tree.q_dist[i], q)
                base = pcum if lw is None else pcum + lw
                cums.append(base + np.log(max(q[nodes["token"][i]], 1e-300)))
            assert np.array_equal(nodes["cum_score"][level], cums)
            parent = int(level[int(np.argmax(cums))])
            path, pcum = path + (int(nodes["token"][parent]),), cums[int(np.argmax(cums))]
        assert len(nodes) == sum(len(oracle.children(path[:d])) for d in range(3))

"""Lossless verification of draft trees against the target model.

Target forward passes score the pending token plus the tree nodes.  A
pass's attention layout comes from the rows' parent pointers, one padded
index of every row's context (``tree_groups``; a chain is a causal pass),
so its attention is one call per layer, and it returns every row's
logits and features stacked.  The walk reads a row's logits only at a node
it has accepted.  A chain is one causal pass over all its rows.  A
branching tree is verified in at most two passes.  At temperature 0 pass
1 forwards the root and the draft's most likely path: from the root, the
child of highest cum_score at each node (ties to the earlier node) down
to a leaf.  The path is a chain, so pass 1 is a causal pass with no
gathered index.  Above 0, pass 1 forwards the root and every node with a
child down to a depth h (``split_depth``) chosen from the tree's shape
before any pass, a set closed under parent and so a level-ordered tree of
its own once renumbered.  Both plans need no tuned constant.  Pass 2 runs
only when the walk accepts a node v that pass 1 left out: the root and
v's ancestors are committed from pass 1's rows, and v's whole subtree,
in node order, is forwarded as an ordinary tree pass after them (a
causal pass when it is a leaf or a chain).  The walk then resumes at v
over pass 2, with the same path and the same rng stream.  h minimises
pass 1's rows plus the largest subtree under a depth h + 1 node, the
most rows a round can forward; at the deepest h pass 2 is the accepted
leaf alone.  Pass 2's rows read the same key rows, in the same order, as
in a one-pass forward.  A greedy walk stays on the likely path in 45% of
the bench's seed-11 greedy_tree rounds, a sampled walk in 12% of its
sample_tree rounds, so only temperature 0 takes the path.  Every row a
pass computes is bit for bit the row a one-pass forward of the whole
tree would give (see kernels.py), so the plan changes no token, feature
or uniform draw.  The whole tree's layout and tokens are checked once,
before any row is computed; the passes over its sub-trees are not
checked again.

The greedy rule accepts the child that matches the target argmax exactly,
so the emitted stream equals vanilla greedy decoding bit for bit, and
draws no uniform.  The sampling rule is recursive residual speculative
sampling: siblings are tried in tree order, each rejection updates the
working distribution to norm(max(0, p - q_child)), and full rejection
resamples from the final residual.  Uniform draws are consumed in
documented order (children in tree order, then the residual or bonus draw)
so runs replay exactly.  The tree's draft distributions are checked once,
up front, rather than at every sibling.  The one walk takes a node's
children from one stable argsort of the parent column, so siblings
come in ascending node order.  Each verify ends by committing the
accepted path with ``KvCache.commit_rows``, so the cache is left with no
tentative rows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .kernels import as_f64, check_prob_rows, check_prob_vec, inverse_cdf_sample, softmax
from .target import KvCache, TargetModel, check_tree
from .tree import DraftTree


@dataclass
class VerifyOutcome:
    accepted: list[int]
    final_token: int
    # the target features of (pending token, accepted nodes), the rows the
    # verify committed, in order
    committed_features: list[np.ndarray]
    # target rows forwarded, over both passes
    rows: int
    # whether the walk accepted a node the first pass left out, which took
    # a second pass over that node's subtree
    second_pass: bool


def _accepts(p: np.ndarray, q: np.ndarray, token: int, u: float) -> bool:
    qt = float(q[token])
    if qt <= 0.0:
        raise ValueError("token not proposed by draft")
    return u < min(1.0, float(p[token]) / qt)


def accept_token(p: np.ndarray, q: np.ndarray, token: int, u: float) -> bool:
    """Speculative acceptance test: accept iff u < min(1, p(token)/q(token)).

    p and q are probability vectors of one length, token an index into
    them and u a uniform in [0, 1); anything else raises ValueError before
    either vector is read at token.
    """
    p, q = as_f64(p), as_f64(q)
    check_prob_vec(p, "p")
    check_prob_vec(q, "q")
    v = p.shape[0]
    if q.shape[0] != v:
        raise ValueError(f"p and q differ in length: {v} and {q.shape[0]}")
    if not (isinstance(token, (int, np.integer)) and 0 <= token < v):
        raise ValueError(f"token must be an index in [0, {v}), got {token!r}")
    if not 0.0 <= u < 1.0:  # NaN included
        raise ValueError(f"u must be a uniform in [0, 1), got {u!r}")
    return _accepts(p, q, token, u)


def residual_dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Normalized positive part of (p - q).

    A residual with no mass means p <= q everywhere, so p and q agree up to
    rounding and the rejection that led here had at most the rounding error
    as its probability; p itself is returned then.
    """
    r = np.maximum(0.0, p - q)
    s = float(np.add.reduce(r, None))
    if s <= 0.0:
        return p
    r /= s
    return r


def _children(tree: DraftTree) -> tuple[list[int], list[int], list[int]]:
    """(order, bounds, token): the children of node i (-1 for the root) are
    order[bounds[i + 1]:bounds[i + 2]], ascending, from one stable argsort
    of the parent column, and token lists the nodes' tokens."""
    parent = tree.nodes["parent"]
    order = parent.argsort(kind="stable")
    bounds = parent.take(order).searchsorted(np.arange(-1, len(parent) + 1))
    return order.tolist(), bounds.tolist(), tree.nodes["token"].tolist()


def _subtree_sizes(parents: list[int]) -> list[int]:
    """Each row's subtree size, the row itself included, for rows whose
    parents come earlier (row 0 the root)."""
    size = [1] * len(parents)
    # a row's subtree is complete once every later row has been added
    for p, r in zip(parents[:0:-1], range(len(parents) - 1, 0, -1)):
        size[p] += size[r]
    return size


def split_depth(parents: list[int], depths: list[int]) -> tuple[int, list[int]]:
    """(h, size) for the rows of a branching tree in verify's layout (row 0
    the root, every row's parent an earlier row, depths never decreasing):
    the split depth h of its two passes and each row's subtree size, the
    row itself included.

    The first pass forwards the rows with a child down to depth h, and a
    second pass at most the largest subtree under a depth h + 1 row.  h
    minimises the two added together, the most rows a verify can forward,
    and the shallowest h of a tie has the smaller first pass.  At the
    deepest h, the deepest depth that has a row with a child, every depth
    h + 1 row is a leaf, so the sum is at most the rows with a child plus
    one.
    """
    size = _subtree_sizes(parents)
    # depth d's rows are rows at[d]:at[d + 1], and its rows with a child
    # are the parents of depth d + 1's rows
    at = [bisect_left(depths, d) for d in range(depths[-1] + 2)]
    h, best, rows = 0, len(parents) + 1, 0
    for d in range(depths[-1]):
        below = slice(at[d + 1], at[d + 2])
        rows += len(set(parents[below]))
        cost = rows + max(size[below])
        if cost < best:
            h, best = d, cost
    return h, size


def _likely_path(children, cum: list[float]) -> list[int]:
    """The rows, in verify's layout (row 1 + i for node i), of the draft's
    most likely path: the root, then at each node the child of highest
    cum_score, ties to the earlier node, down to a leaf; children is
    ``_children(tree)`` and cum the nodes' cum_scores."""
    order, bounds, _ = children
    path, cur = [0], -1
    while True:
        kids = order[bounds[cur + 1]:bounds[cur + 2]]
        if not kids:
            return path
        cur = max(kids, key=cum.__getitem__)  # the first of equal maxima
        path.append(cur + 1)


def _walk(tree: DraftTree, children, logits: np.ndarray, row, temperature: float, rng,
          path: list[int]) -> int | None:
    """Walk down the tree from path's last node (the root when path is
    empty) over the rows of one pass, appending each node it accepts to
    path: row[i + 1] is node i's row, row[0] the root's, -1 for a node the
    pass left out, and children is ``_children(tree)``.  Returns the final
    token, or None when the walk accepted a node the pass left out, which
    ends path then; resumed there over a pass that holds that node's
    subtree, the walk draws what one walk over every row would.  A node
    whose children are all rejected, or that has none, ends the walk with
    the target argmax at temperature 0 and a draw from its working
    distribution otherwise."""
    order, bounds, token = children
    cur = path[-1] if path else -1
    while True:
        r = row[cur + 1]
        if r < 0:
            return None
        kids = order[bounds[cur + 1]:bounds[cur + 2]]
        if temperature == 0.0:
            t_star = int(logits[r].argmax())
            for ch in kids:
                if token[ch] == t_star:
                    break
            else:
                return t_star
        else:
            p = softmax(logits[r], temperature)
            for ch in kids:
                q = tree.q_dist[ch]
                if _accepts(p, q, token[ch], rng.random()):
                    break
                p = residual_dist(p, q)
            else:
                return inverse_cdf_sample(p, rng.random())
        path.append(ch)
        cur = ch


def verify_tree(tree: DraftTree, target: TargetModel, cache: KvCache,
                temperature: float, rng) -> VerifyOutcome:
    """Verify a tree: one target pass over a chain; over a branching tree,
    a first pass, then a second pass over the subtree of the node the walk
    accepts, if the first pass left it out.  At temperature 0 the first
    pass is the draft's most likely path, a causal pass; above 0 it is the
    rows with a child down to the split depth.  The cache ends with the
    pending root token and the accepted nodes committed, as decoding them
    one at a time would leave them, and no tentative rows; a second pass
    commits the root and v's ancestors before it runs.

    Temperature 0 takes the greedy rule, which needs no rng; a temperature
    above 0 takes the sampling rule, which needs one and a ``q_dist`` of
    one vocab-wide row per node, and preserves the target distribution at
    that temperature, the one the tree must have been grown at.  Bad
    arguments raise before any pass.
    """
    if not temperature >= 0.0:
        raise ValueError("temperature must be >= 0")
    if tree.root_context_len != cache.length:
        raise ValueError("tree root context length does not match the cache")
    nodes = tree.nodes
    n = len(nodes)
    if temperature > 0.0:
        if rng is None:
            raise ValueError("sampling verification needs an rng")
        if tree.q_dist.shape != (n, target.vocab):
            raise ValueError(f"q_dist must be (nodes, vocab) = {(n, target.vocab)}, "
                             f"got {tree.q_dist.shape}")
        check_prob_rows(tree.q_dist, "q")
    # row 0 is the root and row 1 + i node i, so a node's parent row is its
    # parent index + 1 (the root for -1) and its position offset its depth
    tokens = np.concatenate(([tree.root_token], nodes["token"]))
    parents = np.concatenate(([-1], nodes["parent"] + 1))
    depths = np.concatenate(([0], nodes["depth"]))
    children = _children(tree)
    size = None
    if depths[-1] == n:  # a level-ordered tree this deep is a chain
        first = row = list(range(n + 1))
        logits, features = target.forward_tree_kv(cache, tokens, parents, depths)
    else:
        # the whole tree is checked here, once, so its sub-trees are not
        target.check_tokens(tokens)
        check_tree(parents, depths)
        par = parents.tolist()
        if temperature == 0.0:
            # pass 1: the draft's most likely path, a chain, so one causal
            # pass; sizes are needed only by a second pass
            first = _likely_path(children, nodes["cum_score"].tolist())
        else:
            # pass 1: the rows with a child down to depth h, in order
            dep = depths.tolist()
            h, size = split_depth(par, dep)
            first = [r for r in range(bisect_right(dep, h)) if size[r] > 1]
        # row[r] is row r's row in pass 1, -1 for a row it leaves out; the
        # root's parent is not looked up, as row[-1] is the last row's
        row = [-1] * (n + 1)
        for k, r in enumerate(first):
            row[r] = k
        logits, features = target.forward_tree_kv(
            cache, tokens.take(first), np.array([-1, *(row[par[r]] for r in first[1:])],
                                                dtype=np.intp),
            depths.take(first), _checked=True)
    path: list[int] = []
    final = _walk(tree, children, logits, row, temperature, rng, path)
    if final is not None:  # always for a chain, whose pass holds every row
        commit = [0, *(row[1 + i] for i in path)]
        cache.commit_rows(commit)
        return VerifyOutcome(accepted=nodes["token"][path].tolist(), final_token=final,
                             committed_features=list(features[commit]), rows=len(first),
                             second_pass=False)
    # pass 2: the walk accepted v, a node pass 1 left out.  The root and v's
    # ancestors are committed first, so v's subtree, in row order, is a
    # tree pass of its own after them; row2 maps its rows to pass 2's, and
    # the walk resumes at v over them
    if size is None:
        size = _subtree_sizes(par)
    v = path[-1] + 1
    anc = [0, *(row[1 + i] for i in path[:-1])]
    cache.commit_rows(anc)
    sub, sub_par, row2 = [v], [-1], [-1] * (n + 1)
    row2[v] = 0
    for r in range(v + 1, n + 1) if size[v] > 1 else ():
        k = row2[par[r]]
        if k >= 0:
            row2[r] = len(sub)
            sub.append(r)
            sub_par.append(k)
            if len(sub) == size[v]:
                break
    logits2, features2 = target.forward_tree_kv(
        cache, tokens.take(sub), np.array(sub_par, dtype=np.intp), depths.take(sub) - len(anc),
        _checked=True)
    d = len(path) - 1  # v's place in path
    final = _walk(tree, children, logits2, row2, temperature, rng, path)
    tail = [row2[1 + i] for i in path[d:]]
    cache.commit_rows(tail)
    return VerifyOutcome(
        accepted=nodes["token"][path].tolist(),
        final_token=final,
        committed_features=[*features[anc], *features2[tail]],
        rows=len(first) + len(sub),
        second_pass=True,
    )

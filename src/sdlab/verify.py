"""Lossless verification of draft trees against the target model.

Target forward passes score the pending token plus the tree nodes.  A
pass's attention layout comes from the rows' parent pointers, one padded
index of every row's context (``tree_groups``; a chain is a causal pass),
so its attention is one call per layer, and it returns every row's
logits and features stacked.  The walk reads a row's logits only at a node
it has accepted, and a leaf's only when it accepts that leaf, at most once
a round.  So a branching tree is verified in two passes.  The tree pass
forwards the root and every node with a child, a set closed under parent
and so a level-ordered tree of its own once renumbered.  Only when the
walk accepts a leaf does a path pass forward the accepted path, root to
leaf, as one causal chain.  A chain keeps one causal pass over all its
rows: its one leaf is one row of a few.  Every row a pass computes is bit
for bit the row a one-pass forward of the whole tree would give (see
kernels.py), so the split changes no token, feature or uniform draw.  The
whole tree's layout and tokens are checked once, before any row is
computed; the passes over its sub-trees are not checked again.

The greedy rule accepts the child that matches the target argmax exactly,
so the emitted stream equals vanilla greedy decoding bit for bit, and
draws no uniform.  The sampling rule is recursive residual speculative
sampling: siblings are tried in tree order, each rejection updates the
working distribution to norm(max(0, p - q_child)), and full rejection
resamples from the final residual.  Uniform draws are consumed in
documented order (children in tree order, then the residual or bonus draw)
so runs replay exactly.  The tree's draft distributions are checked once,
up front, rather than at every sibling.  The one walk takes a node's
children from one stable argsort of the tree's parent column, so siblings
come in ascending node order.  Each pass leaves its rows' keys and values
in the cache as its tentative rows, the last pass's holding the accepted
path, so the session commits it with ``KvCache.commit_rows(commit_indices)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import check_prob_rows, check_prob_vec, inverse_cdf_sample, softmax
from .target import KvCache, TargetModel, check_tree
from .tree import DraftTree


@dataclass
class VerifyOutcome:
    accepted: list[int]
    final_token: int
    # plumbing for the decode session: which tentative rows to commit and the
    # target features of (pending token, accepted nodes), in commit order
    commit_indices: list[int]
    committed_features: list[np.ndarray]
    # whether the walk accepted a leaf of a branching tree, which took a
    # path pass after the tree pass
    leaf_pass: bool


def _accepts(p: np.ndarray, q: np.ndarray, token: int, u: float) -> bool:
    qt = float(q[token])
    if qt <= 0.0:
        raise ValueError("token not proposed by draft")
    return u < min(1.0, float(p[token]) / qt)


def accept_token(p: np.ndarray, q: np.ndarray, token: int, u: float) -> bool:
    """Speculative acceptance test: accept iff u < min(1, p(token)/q(token))."""
    check_prob_vec(p, "p")
    check_prob_vec(q, "q")
    return _accepts(p, q, token, u)


def residual_dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Normalized positive part of (p - q).

    A residual with no mass means p <= q everywhere, so p and q agree up to
    rounding and the rejection that led here had at most the rounding error
    as its probability; p itself is returned then.
    """
    r = np.maximum(0.0, p - q)
    s = float(np.sum(r))
    if s <= 0.0:
        return p
    return r / s


def _children(tree: DraftTree) -> tuple[list[int], list[int]]:
    """(order, bounds): the children of node i (-1 for the root) are
    order[bounds[i + 1]:bounds[i + 2]], ascending, from one stable argsort
    of the parent column."""
    parent = tree.nodes["parent"]
    order = parent.argsort(kind="stable")
    return order.tolist(), parent.take(order).searchsorted(np.arange(-1, len(parent) + 1)).tolist()


def _walk(tree: DraftTree, logits: np.ndarray, row: list[int], temperature: float,
          rng) -> tuple[list[int], int | None]:
    """Walk down the tree over the rows of one pass: row[i + 1] is node i's
    row, row[0] the root's, -1 for a node the pass left out.  Returns the
    accepted node path and the final token, or None for the final token
    when the walk accepted a node the pass left out.  A node whose children
    are all rejected, or that has none, ends the walk with the target
    argmax at temperature 0 and a draw from its working distribution
    otherwise."""
    order, bounds = _children(tree)
    token = tree.nodes["token"].tolist()
    path: list[int] = []
    cur = -1
    while True:
        r = row[cur + 1]
        if r < 0:
            return path, None
        kids = order[bounds[cur + 1]:bounds[cur + 2]]
        if temperature == 0.0:
            t_star = int(logits[r].argmax())
            for ch in kids:
                if token[ch] == t_star:
                    break
            else:
                return path, t_star
        else:
            p = softmax(logits[r], temperature)
            for ch in kids:
                q = tree.q_dist[ch]
                if _accepts(p, q, token[ch], rng.random()):
                    break
                p = residual_dist(p, q)
            else:
                return path, inverse_cdf_sample(p, rng.random())
        path.append(ch)
        cur = ch


def verify_tree(tree: DraftTree, target: TargetModel, cache: KvCache,
                temperature: float, rng) -> VerifyOutcome:
    """Verify a tree: one target pass over a chain, and over the internal
    nodes of a branching tree, then a path pass if the walk accepts a leaf.
    The cache's committed rows are left untouched, and its tentative rows
    are the last pass's rows.

    Temperature 0 takes the greedy rule, which needs no rng; a temperature
    above 0 takes the sampling rule, which needs one and preserves the
    target distribution at that temperature, the one the tree must have
    been grown at.  Bad arguments raise before any pass.
    """
    if not temperature >= 0.0:
        raise ValueError("temperature must be >= 0")
    if tree.root_context_len != cache.length:
        raise ValueError("tree root context length does not match the cache")
    if temperature > 0.0:
        if rng is None:
            raise ValueError("sampling verification needs an rng")
        check_prob_rows(tree.q_dist, "q")
    # row 0 is the root and row 1 + i node i, so a node's parent row is its
    # parent index + 1 (the root for -1) and its position offset its depth
    nodes = tree.nodes
    n = len(nodes)
    tokens = np.concatenate(([tree.root_token], nodes["token"]))
    parents = np.concatenate(([-1], nodes["parent"] + 1))
    depths = np.concatenate(([0], nodes["depth"]))
    if depths[-1] == n:  # a level-ordered tree this deep is a chain
        logits, features = target.forward_tree_kv(cache, tokens, parents, depths)
        row = list(range(n + 1))
    else:
        # the whole tree is checked here, once, so its sub-trees are not
        target.check_tokens(tokens)
        check_tree(parents, depths)
        # the root and every node with a child, renumbered in order: new[r]
        # is row r's row in the tree pass, -1 for a leaf; the last node is
        # a leaf, so the root's parent -1 reads -1
        keep = np.zeros(n + 1, dtype=bool)
        keep[parents[1:]] = True
        rows = np.flatnonzero(keep)
        new = np.full(n + 1, -1)
        new[rows] = np.arange(rows.size)
        logits, features = target.forward_tree_kv(cache, tokens.take(rows),
                                                   new.take(parents.take(rows)),
                                                   depths.take(rows), _checked=True)
        row = new.tolist()
    path, final = _walk(tree, logits, row, temperature, rng)
    leaf_pass = final is None
    if leaf_pass:
        # the walk accepted a leaf the tree pass left out: one causal pass
        # over the accepted path, root to leaf, whose last row ends the walk
        d = len(path)
        logits, features = target.forward_tree_kv(cache, tokens.take([0] + [1 + i for i in path]),
                                                   np.arange(-1, d), np.arange(d + 1),
                                                   _checked=True)
        final = (int(logits[d].argmax()) if temperature == 0.0
                 else inverse_cdf_sample(softmax(logits[d], temperature), rng.random()))
        commit = list(range(d + 1))
    else:
        commit = [0] + [row[1 + i] for i in path]
    return VerifyOutcome(
        accepted=nodes["token"][path].tolist(),
        final_token=final,
        commit_indices=commit,
        committed_features=list(features[commit]),
        leaf_pass=leaf_pass,
    )

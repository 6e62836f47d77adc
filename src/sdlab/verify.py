"""Lossless verification of draft trees against the target model.

One target forward pass scores the pending token plus every tree node.  Its
attention layout comes from the nodes' parent pointers (``tree_groups``; a
chain is a causal pass), and it returns every row's logits and features
stacked.  The greedy walk accepts
children that match the target argmax exactly, so the emitted stream equals
vanilla greedy decoding bit for bit.  The sampling walk implements
recursive residual speculative sampling: siblings are tried in tree order,
each rejection updates the working distribution to norm(max(0, p - q_child)),
and full rejection resamples from the final residual.  Uniform draws are
consumed in documented order (children in tree order, then the residual or
bonus draw) so runs replay exactly.  ``verify_tree`` runs the forward, then
the greedy walk at temperature 0 and the sampling walk otherwise.  Both
walks take a node's children from one stable argsort of the tree's parent
column, so siblings come in ascending node order, and return the accepted
node path and the final token; one helper turns that into the accepted
tokens, the rows to commit and their features.  The forward leaves every
row's keys and values in the cache as its tentative rows, so the session
commits the accepted path with ``KvCache.commit_rows(commit_indices)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import check_prob_vec, inverse_cdf_sample, softmax
from .target import KvCache, TargetModel
from .tree import DraftTree


@dataclass
class VerifyOutcome:
    accepted: list[int]
    final_token: int
    # plumbing for the decode session: which tentative rows to commit and the
    # target features of (pending token, accepted nodes), in commit order
    commit_indices: list[int]
    committed_features: list[np.ndarray]


def accept_token(p: np.ndarray, q: np.ndarray, token: int, u: float) -> bool:
    """Speculative acceptance test: accept iff u < min(1, p(token)/q(token))."""
    check_prob_vec(p, "p")
    check_prob_vec(q, "q")
    qt = float(q[token])
    if qt <= 0.0:
        raise ValueError("token not proposed by draft")
    ratio = min(1.0, float(p[token]) / qt)
    return u < ratio


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


def _forward_with_root(tree: DraftTree, target: TargetModel, cache: KvCache):
    """One batched target forward over [pending root token] + tree nodes.

    Row 0 is the root and row 1 + i is node i, so a node's parent row is its
    parent index + 1 (the root for -1) and its position offset its depth.
    """
    if tree.root_context_len != cache.length:
        raise ValueError("tree root context length does not match the cache")
    nodes = tree.nodes
    return target.forward_tree_kv(cache, np.concatenate(([tree.root_token], nodes["token"])),
                                  np.concatenate(([-1], nodes["parent"] + 1)),
                                  np.concatenate(([0], nodes["depth"])))


def _outcome(tree: DraftTree, path: list[int], final: int, features: np.ndarray) -> VerifyOutcome:
    """The outcome of a walk that accepted the nodes of path, then final."""
    commit = [0] + [1 + i for i in path]
    return VerifyOutcome(
        accepted=tree.nodes["token"][path].tolist(),
        final_token=final,
        commit_indices=commit,
        committed_features=list(features[commit]),
    )


def _children(tree: DraftTree) -> tuple[list[int], list[int]]:
    """(order, bounds): the children of node i (-1 for the root) are
    order[bounds[i + 1]:bounds[i + 2]], ascending, from one stable argsort
    of the parent column."""
    parent = tree.nodes["parent"]
    order = parent.argsort(kind="stable")
    return order.tolist(), parent.take(order).searchsorted(np.arange(-1, len(parent) + 1)).tolist()


def _walk_greedy(tree: DraftTree, logits: np.ndarray) -> tuple[list[int], int]:
    """Follow the child that matches the target argmax; (path, final token)."""
    order, bounds = _children(tree)
    token = tree.nodes["token"].tolist()
    path: list[int] = []
    cur = -1
    while True:
        t_star = int(logits[cur + 1].argmax())
        for ch in order[bounds[cur + 1]:bounds[cur + 2]]:
            if token[ch] == t_star:
                break
        else:
            return path, t_star
        path.append(ch)
        cur = ch


def _walk_sampling(tree: DraftTree, logits: np.ndarray, temperature: float,
                   rng) -> tuple[list[int], int]:
    """Recursive residual speculative sampling down the tree; (path, final
    token).  A node whose children are all rejected, or that has none, ends
    the walk with a draw from its working distribution."""
    order, bounds = _children(tree)
    token = tree.nodes["token"].tolist()
    path: list[int] = []
    cur = -1
    while True:
        p = softmax(logits[cur + 1], temperature)
        for ch in order[bounds[cur + 1]:bounds[cur + 2]]:
            q = tree.q_dist[ch]
            if accept_token(p, q, token[ch], rng.random()):
                break
            p = residual_dist(p, q)
        else:
            return path, inverse_cdf_sample(p, rng.random())
        path.append(ch)
        cur = ch


def verify_tree(tree: DraftTree, target: TargetModel, cache: KvCache,
                temperature: float, rng) -> VerifyOutcome:
    """Verify a tree in one target forward; the cache's committed rows are
    left untouched, and its tentative rows are the tree's rows.

    Temperature 0 takes the greedy walk, which needs no rng; a temperature
    above 0 takes the sampling walk, which preserves the target
    distribution at that temperature, the one the tree must have been
    grown at.
    """
    if not temperature >= 0.0:
        raise ValueError("temperature must be >= 0")
    logits, features = _forward_with_root(tree, target, cache)
    if temperature == 0.0:
        return _outcome(tree, *_walk_greedy(tree, logits), features)
    return _outcome(tree, *_walk_sampling(tree, logits, temperature, rng), features)

"""Pinned decode streams: the bit-exactness gate for refactors.

Each case decodes a few prompts with the default (untrained) draft and
hashes what a refactor of tree growth, drafting or verification must not
change: the emitted tokens, every target tree forward (its token, parent
and position columns and the logits and features it returns), every draft
row-kernel call (its tokens, positions and input features), the target and
draft forward counts, the draft passes of every round and the rng state
left after the last prompt.  The digests are pinned; a change that moves
any of them changes the decoded streams or the random stream they consume.

To re-pin on purpose, run ``python tests/test_stream_snapshot.py`` and say
why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from sdlab.bench import RunConfig, build_models, decode_prompt, make_prompts

METHODS = ("chain", "static_tree", "moe_tree", "jakiro_full")
TEMPERATURES = (0.0, 0.6, 1.0)
# drafts the default (N, K) = (2, 2) never decodes with: a one-expert
# mixture (K=1) for the methods that allow it, and unchosen experts (K<N)
EXPERTS = {"chain": (2, 1), "static_tree": (2, 1), "moe_tree": (3, 2), "jakiro_full": (3, 2)}

DIGESTS = {
    "chain@0.0": "e7b65be9b1fb33d947d0a0d3841ab7a87891309a272eb8800cf87c0e07bfa90f",
    "chain@0.6": "6766bb3b28c18a9440bb7dd01caec5c51519c5e7f4f23388a7c58856994caca3",
    "chain@1.0": "5ca4da52eebf02f3e6b8a286fff154d10dbab053aada4ec25720999302ae56d7",
    "static_tree@0.0": "b9f25c034fee6e3909652f4e0f54d2f932acd5c9da229b77fbe7c1e5e804edf7",
    "static_tree@0.6": "5065256ff927db69c974f96b9b7f4386dbe0d6d55237f746d18cb022bebe7ca4",
    "static_tree@1.0": "174defec4472a0405d25559a60cf39b9331c3b00189c1909ecc32a6d1a2adc9a",
    "moe_tree@0.0": "30267f712daf1c6e6aed8d39945493921eeed99a8b1e03ba56dec59a14e2e973",
    "moe_tree@0.6": "6b0ffc804a6c7399632d61578917227b94e6b5ade958711f132d81a9edce473f",
    "moe_tree@1.0": "e7d2ba8d4ddead9674b2369085812977bccff3e4a5be39683dffbf6cd4ff29c6",
    "jakiro_full@0.0": "7a27f7b0eae16f763aca906f1b252a19073d75929a83b5f20bd3b03d1a699b03",
    "jakiro_full@0.6": "97623dcb924c6f0d9cf45955b3b393694676c16e43d0646237cf7a23457b3f08",
    "jakiro_full@1.0": "e6eeb530676ae535fdc70e1d2d24a99e56a52d7e8975377237f6f2cca3ad78c1",
    "chain@0.0/N2K1": "e325d1d52796a112d277985d9df6b8668b8a28d401e8f8e4c127b508977102dc",
    "chain@0.6/N2K1": "3efa43e149eae52d077b3b37e6e6ba4fa375dfbfb1590a0d45e4a8b4b62832bf",
    "chain@1.0/N2K1": "438bd15d36528b86562cedcbbfeee42643e721c81398f7195df6db4536e83dfa",
    "static_tree@0.0/N2K1": "c40bbd82ca1c37229f331a1c7290bf007baa6b55743f955951530da775442647",
    "static_tree@0.6/N2K1": "997c44d1c2a784b3a2686dd8991f5088c204c22996d8090cb488483ae9c34b18",
    "static_tree@1.0/N2K1": "66eeac7fc60341bef6c590213ee72ee9bdb6aabe424791cb46a8a5efdb15da84",
    "moe_tree@0.0/N3K2": "1bc67c855f941a857239a39fbba10dc3eb71a74f6dcd25fb8e008f0f00f23952",
    "moe_tree@0.6/N3K2": "4923889100c01b9636867b60c0e3fcf955fb73f6307d5bcabfa7a994ce2f06ac",
    "moe_tree@1.0/N3K2": "95d58cc85f481dad1d9012c45d82f574191f60e81601762a2df6cbda9c1f930e",
    "jakiro_full@0.0/N3K2": "c7084a6754217d99946d41772cb1c1d671b8d85c6c14e655d9cfe3b58cda7831",
    "jakiro_full@0.6/N3K2": "deb5079bc51c66bfb57917a6d02760473198f5e7877cfa430b1072555b4eb8c9",
    "jakiro_full@1.0/N3K2": "c116b5e227a4197b900cbad3406e723e6d8497f0876667f4c7f822e65c0c3b29",
}


def _ints(xs) -> list[int]:
    return np.asarray(list(xs), dtype=np.int64).tolist()


def stream_digest(method: str, temperature: float, n_experts: int = 2, active_k: int = 2) -> str:
    """One sha256 over a case's decode, taken through instance-level wraps
    of the target's tree forward and the draft's row kernel."""
    target, draft = build_models(RunConfig(n_experts=n_experts, active_k=active_k))
    h = hashlib.sha256()
    tree_kv, kv_rows = target.forward_tree_kv, draft._kv_rows

    def traced_tree_kv(cache, tokens, parents, positions):
        logits, features = tree_kv(cache, tokens, parents, positions)
        h.update(json.dumps(["target", cache.length, _ints(tokens), _ints(parents),
                             _ints(positions)]).encode())
        h.update(np.ascontiguousarray(logits).tobytes())
        h.update(np.ascontiguousarray(features).tobytes())
        return logits, features

    def traced_kv_rows(tokens, positions, prev_features):
        h.update(json.dumps(["draft", _ints(tokens), _ints(positions)]).encode())
        h.update(np.array(prev_features, dtype=np.float64).tobytes())
        return kv_rows(tokens, positions, prev_features)

    target.forward_tree_kv = traced_tree_kv
    draft._kv_rows = traced_kv_rows
    config = RunConfig(method=method, temperature=temperature, max_new=16, n_prompts=3, seed=5,
                       n_experts=n_experts, active_k=active_k)
    rng = np.random.Generator(np.random.PCG64(2024))
    for prompt in make_prompts(config):
        r = decode_prompt(target, draft, config, prompt, rng)
        h.update(json.dumps([_ints(r["tokens"]), r["target_forwards"], r["draft_forwards"],
                             r["draft_passes_per_round"]]).encode())
    h.update(json.dumps(rng.bit_generator.state).encode())
    return h.hexdigest()


@pytest.mark.parametrize("temperature", TEMPERATURES)
@pytest.mark.parametrize("method", METHODS)
def test_stream_matches_pinned_digest(method, temperature):
    assert stream_digest(method, temperature) == DIGESTS[f"{method}@{temperature}"]


@pytest.mark.parametrize("temperature", TEMPERATURES)
@pytest.mark.parametrize("method", METHODS)
def test_stream_matches_pinned_digest_at_other_experts(method, temperature):
    n, k = EXPERTS[method]
    assert stream_digest(method, temperature, n, k) == DIGESTS[f"{method}@{temperature}/N{n}K{k}"]


if __name__ == "__main__":
    for m in METHODS:
        for t in TEMPERATURES:
            print(f'    "{m}@{t}": "{stream_digest(m, t)}",')
    for m in METHODS:
        n, k = EXPERTS[m]
        for t in TEMPERATURES:
            print(f'    "{m}@{t}/N{n}K{k}": "{stream_digest(m, t, n, k)}",')

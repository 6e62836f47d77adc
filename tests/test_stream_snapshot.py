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

DIGESTS = {
    "chain@0.0": "fd8c84a6fbd722a8610575d1fd0890518267e5faa2bb6c9b79c5b16fb9af2655",
    "chain@0.6": "0d8c943edccef7f30c44d5c9a0196a9c32280e4b6603074b45c8e542f5b404de",
    "chain@1.0": "252ed778bbd0a1b36a327af3a11ea4e2d1a2f1ccc7f0728617c5943f61208e3c",
    "static_tree@0.0": "725114ea8f1fe0739f54d78e058e3373d2c25bf217e1c0b0af26f2cab30ae6c2",
    "static_tree@0.6": "b863415c5859eb519a3c60b7d10b82eeebb2a7788c50f42760ffd24967e58121",
    "static_tree@1.0": "aedb7cba67d8de6cdf4877fdc3eca0d1a125e979e996f38a1a4c120496a9b4dd",
    "moe_tree@0.0": "70d2c0d176192e5d416450dbe73577c19bef132a99ee423167031a31cc4c34f0",
    "moe_tree@0.6": "2c3c5873546567756b1b19f6f33f2f345471091aa226f7c9973f3ddf38caac57",
    "moe_tree@1.0": "61ce6b0ba36e44c4946335933b900178b9f856ed6d771c76546c53e9667a55f7",
    "jakiro_full@0.0": "006cb9024bb6cbe0d172cedbd6143297fb4ba1a07e64bfbd6b760c6c4b8afe15",
    "jakiro_full@0.6": "db7e501fdbb3f46cc715b96523758a8ae1410b25564f85300faa38950dfa9d78",
    "jakiro_full@1.0": "058829151a9c0cdf17fd6675db4543f9ce101149c6aaeca7238266c1d548246e",
}


def _ints(xs) -> list[int]:
    return np.asarray(list(xs), dtype=np.int64).tolist()


def stream_digest(method: str, temperature: float) -> str:
    """One sha256 over a case's decode, taken through instance-level wraps
    of the target's tree forward and the draft's row kernel."""
    target, draft = build_models(RunConfig())
    h = hashlib.sha256()
    tree_kv, kv_rows = target.forward_tree_kv, draft._kv_rows

    def traced_tree_kv(cache, tokens, parents, positions):
        logits, features, kv = tree_kv(cache, tokens, parents, positions)
        h.update(json.dumps(["target", cache.length, _ints(tokens), _ints(parents),
                             _ints(positions)]).encode())
        h.update(np.ascontiguousarray(logits).tobytes())
        h.update(np.ascontiguousarray(features).tobytes())
        return logits, features, kv

    def traced_kv_rows(tokens, positions, prev_features):
        h.update(json.dumps(["draft", _ints(tokens), _ints(positions)]).encode())
        h.update(np.array(prev_features, dtype=np.float64).tobytes())
        return kv_rows(tokens, positions, prev_features)

    target.forward_tree_kv = traced_tree_kv
    draft._kv_rows = traced_kv_rows
    config = RunConfig(method=method, temperature=temperature, max_new=16, n_prompts=3, seed=5)
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


if __name__ == "__main__":
    for m in METHODS:
        for t in TEMPERATURES:
            print(f'    "{m}@{t}": "{stream_digest(m, t)}",')

"""Pinned decode streams: the bit-exactness gate for refactors.

Each case decodes a few prompts with the default (untrained) draft and
hashes what a decode consumes, which a refactor of tree growth, drafting or
verification must not change: every round's accepted tokens, final token
and committed target features, every draft row-kernel call (its tokens,
positions and input features), the emitted tokens, the target and draft
forward counts, the draft passes of every round and the rng state left
after the last prompt.  Which rows a verify forwards, and in how many
passes, is left out: verification may split its rows between passes as
long as every row it reads carries the same bits.  The digests are pinned;
a change that moves any of them changes the decoded streams, the features
the draft reads or the random stream they consume.

To re-pin on purpose, run ``python tests/test_stream_snapshot.py`` and say
why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

import sdlab.bench
from sdlab.bench import RunConfig, build_models, decode_prompt, make_prompts

METHODS = ("chain", "static_tree", "moe_tree", "jakiro_full")
TEMPERATURES = (0.0, 0.6, 1.0)
# drafts the default (N, K) = (2, 2) never decodes with: a one-expert
# mixture (K=1) for the methods that allow it, and unchosen experts (K<N)
EXPERTS = {"chain": (2, 1), "static_tree": (2, 1), "moe_tree": (3, 2), "jakiro_full": (3, 2)}

DIGESTS = {
    "chain@0.0": "e8a7cd022db713ea0bc874579f030a531ebd31d994061403ddcf5c9c12091ae3",
    "chain@0.6": "d8f847b978a95a7eafe0839cf0adfca768a32d5709f59f7aa8a5e2bedd3b77c6",
    "chain@1.0": "6b492e2e00ec9943679e1ebbb4dd0f94e59ba2767f23b0d27bbb119a17ede627",
    "static_tree@0.0": "cac6d308089edd529b05edf37b13177a57cd7211ab1a002ad4ed1c6a98e27426",
    "static_tree@0.6": "97d77187ea083eba96d3e0ed167cd1020e96b4ffb113d28ce150e79325bb30c5",
    "static_tree@1.0": "338e41e1f464dd87ebc257ddb94c4f882e51a7d2fe87a3e52f40817be78bb6aa",
    "moe_tree@0.0": "1d349b1c29b1e94406b041cc020acf09ca1befbb7a78e2be9cc74dc112bf9405",
    "moe_tree@0.6": "d324deca4d817a8dc9e8c10f1170570aa606e24e9cec5ba4492e2317b79c6dc3",
    "moe_tree@1.0": "8ce6f70dd90fe744ebf8104050a1699e8620bf137f23b1f1ed865cb0a772ba8d",
    "jakiro_full@0.0": "e2d9f3495d9e0d1906e0a1cb457b9651b7c53644c97557c9de75e1fd35aea2aa",
    "jakiro_full@0.6": "bd073565c7c099abe44eba8b981cafe37af10c00775555e5f746a5db8d762d01",
    "jakiro_full@1.0": "8d5582179d78019c2ed0545f5f675598b4477f5d0e79fca082d865196f3c8d32",
    "chain@0.0/N2K1": "53170529a4c837782e5adc4f80bb24c8cc17fc47a442e7bfa50e42086f0f7dee",
    "chain@0.6/N2K1": "c131f26b6fa2cfa9c437931587210bddcab8bd59862d3c384fd8111ea255006b",
    "chain@1.0/N2K1": "be4c13e53549faeae51d75a4a25310b9767df5ab331a1528ee776b6a783e25fb",
    "static_tree@0.0/N2K1": "a5bdc0d93ff497e518ffa740e0fb89d84c4cbbf066960951461ee0334b3670f7",
    "static_tree@0.6/N2K1": "eb42dc0812dd62855081ed63fb3b65de70d6dbc07136ad1294fd5d3891da676e",
    "static_tree@1.0/N2K1": "ea99b015413e97196aeabca087efe91fc0f3f92f4e37dceacfd3e77456005982",
    "moe_tree@0.0/N3K2": "e7cc96acefa8c5c4fbdecded543485929237fc322c78f2518e33e1b6114e73fd",
    "moe_tree@0.6/N3K2": "a00095039b61d9e30302448b436b3ca3d31cfdb5c6e2cf861601a34d95dc2db7",
    "moe_tree@1.0/N3K2": "2920689a37b7491c83d62c76c9fc602c6b400803f1e007555b9a81c4a66d70dc",
    "jakiro_full@0.0/N3K2": "35491876d3c56cccb756c1ce31a0b7bacb22c3c034dc9910b2b3d415428b16dc",
    "jakiro_full@0.6/N3K2": "631b8fd870ffd4e93daa0730445f38fa1109662a3b3880326894c59889ba037a",
    "jakiro_full@1.0/N3K2": "eb4070c4f060c708e5e1b27eac66e63255b97de91c2bbf80e45e66735bcd8762",
}


def _ints(xs) -> list[int]:
    return np.asarray(list(xs), dtype=np.int64).tolist()


def stream_digest(method: str, temperature: float, n_experts: int = 2, active_k: int = 2) -> str:
    """One sha256 over a case's decode, taken through a wrap of the
    session's verify and an instance-level wrap of the draft's row kernel."""
    target, draft = build_models(RunConfig(n_experts=n_experts, active_k=active_k))
    h = hashlib.sha256()
    verify_tree, kv_rows = sdlab.bench.verify_tree, draft._kv_rows

    def traced_verify(tree, *args):
        out = verify_tree(tree, *args)
        h.update(json.dumps(["round", _ints(out.accepted), int(out.final_token)]).encode())
        h.update(np.array(out.committed_features, dtype=np.float64).tobytes())
        return out

    def traced_kv_rows(tokens, positions, prev_features):
        h.update(json.dumps(["draft", _ints(tokens), _ints(positions)]).encode())
        h.update(np.array(prev_features, dtype=np.float64).tobytes())
        return kv_rows(tokens, positions, prev_features)

    draft._kv_rows = traced_kv_rows
    config = RunConfig(method=method, temperature=temperature, max_new=16, n_prompts=3, seed=5,
                       n_experts=n_experts, active_k=active_k)
    rng = np.random.Generator(np.random.PCG64(2024))
    sdlab.bench.verify_tree = traced_verify
    try:
        for prompt in make_prompts(config):
            r = decode_prompt(target, draft, config, prompt, rng)
            h.update(json.dumps([_ints(r["tokens"]), r["target_forwards"], r["draft_forwards"],
                                 r["draft_passes_per_round"]]).encode())
    finally:
        sdlab.bench.verify_tree = verify_tree
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

"""Pinned training runs: the bit-exactness gate for trainer and checkpoint refactors.

Each case builds a small target and an untrained draft, distils a corpus
from the target and hashes what a refactor of the draft's parameter layout,
the trainer or the checkpoint format must not change: the ``save_draft``
bytes at init and after TRAIN_STEPS ``train_draft`` steps, the loss
history, and the ``finite_diff_check`` value of the untrained draft (as
``float.hex()``).  The digests are pinned; a change that moves any of them
changes what training computes or what a checkpoint holds.

To re-pin on purpose, run ``python tests/test_train_snapshot.py`` and say
why in CHANGES.md.
"""

import hashlib
import os
import tempfile

import numpy as np
import pytest

from sdlab.draft import DraftConfig, init_draft, save_draft
from sdlab.target import TargetConfig, init_target
from sdlab.train import TrainConfig, finite_diff_check, generate_distillation_corpus, train_draft

TRAIN_STEPS = 40

# (dim, n_heads, n_experts, active_k, expert_hidden)
CASES = {
    "d32-n2k2h64": (32, 2, 2, 2, 64),
    "d30-n3k2h20": (30, 2, 3, 2, 20),
    "d6-n3k1h30": (6, 2, 3, 1, 30),
}

PINNED = {
    "d32-n2k2h64": (
        "95c37985ed0ffbabc56fcb6adc1d44125c97aa770eba6a15bae13e89a93ccc7d",
        "923faa9af7ffb3c0ea15dcab7cfb0c46ca76743aabaf799ea43f6580ad2bb357",
        "30b513de1472360667b68cff3677e8ed8f2cb7ca2c99cd5efc1f4dd92122c911",
        "0x1.206ed5c813d40p-24",
    ),
    "d30-n3k2h20": (
        "576bdf749d09b238ccaf44e5c0bad1f6f1fb55c4546d0f1ab4c0675f904a2297",
        "ea02c12e8d4c69eb7a9e52a70bc3ec153d3ab759e2ed104f09831dba6d54ba12",
        "19972f108569e7c1b4b0fd88999c3844253df8fbce4149b3ba3c3b881d7db6c1",
        "0x1.c27a3ac7a7973p-25",
    ),
    "d6-n3k1h30": (
        "e307c53a1c7a54a8bf5b834cb580e41d8e07b45e807a80994319cae5e5687063",
        "7383f75bf6ff9822bd3d15dbd3cd4290c20ffc320e29e6461dff1e78a82d47f1",
        "e364310bd7f74d7ca942f6c47ad2c08ad0f4995bde045e4e4b942bcfdb1f6768",
        "0x1.25ac775418a19p-25",
    ),
}


def _checkpoint_digest(draft) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "draft.bin")
        save_draft(draft, path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def training_snapshot(case: str) -> tuple[str, str, str, str]:
    """(init checkpoint sha256, trained checkpoint sha256, loss history
    sha256, finite_diff_check value as float.hex()) of one case."""
    dim, n_heads, n_experts, active_k, hidden = CASES[case]
    target = init_target(TargetConfig(vocab=48, dim=dim, n_heads=n_heads), seed=3)
    draft = init_draft(DraftConfig(vocab=48, dim=dim, n_heads=n_heads, n_experts=n_experts,
                                   active_k=active_k, expert_hidden=hidden), target, seed=7)
    corpus = generate_distillation_corpus(target, 10, 8, temperature=1.0, seed=11)
    cfg = TrainConfig(lr=2e-3, batch_size=4, seed=5)
    init_digest = _checkpoint_digest(draft)
    fd = finite_diff_check(draft, corpus.take(np.arange(4)), cfg, n_coords=24)
    history = train_draft(draft, corpus, cfg, TRAIN_STEPS)
    losses = hashlib.sha256(np.array(history, dtype="<f8").tobytes()).hexdigest()
    return init_digest, _checkpoint_digest(draft), losses, fd.hex()


@pytest.mark.parametrize("case", sorted(CASES))
def test_training_matches_pinned_snapshot(case):
    assert training_snapshot(case) == PINNED[case]


if __name__ == "__main__":
    for c in CASES:
        print(f'    "{c}": (')
        for part in training_snapshot(c):
            print(f'        "{part}",')
        print("    ),")

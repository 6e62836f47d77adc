"""Set-up for the decode benchmark: the target, the trained draft, and the
timed set-up that ``setup_s`` reports.

The draft used for decoding follows the ROADMAP bench config: the default
target, a 512 x 24 distillation corpus sampled at seed 42, and 2000 Adam
steps at lr 2e-3.  That costs about 30 s on a 2-core x86 box, too long to
repeat in every run, so it is trained once per checkout and cached under
``.perfbench_cache/``, keyed by a hash of ``src/sdlab`` and the config;
training is seed-deterministic, so the cached draft is the one a fresh
training would give.  ``setup_s`` instead times the same pipeline at 1/32
of the size, five times per run, so that a change to set-up cost shows in
every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from pathlib import Path

from sdlab.bench import RunConfig, build_models
from sdlab.draft import load_draft, save_draft
from sdlab.train import TrainConfig, generate_distillation_corpus, train_draft

ROOT = Path(__file__).resolve().parents[1]
CACHE_DIR = ROOT / ".perfbench_cache"

BENCH_SETUP = {"sequences": 512, "seq_len": 24, "corpus_seed": 42, "steps": 2000,
               "lr": 2e-3, "batch_size": 16, "train_seed": 0}
SETUP_SCALE = 32
SETUP_REPEATS = 5


def source_digest() -> str:
    """sha256 over the library sources; identifies the code without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "sdlab").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _setup(sequences: int, steps: int):
    """Build the models, sample the corpus and train the draft; timed by stage."""
    s = BENCH_SETUP
    t0 = time.perf_counter()
    target, draft = build_models(RunConfig())
    t1 = time.perf_counter()
    corpus = generate_distillation_corpus(target, sequences, s["seq_len"], seed=s["corpus_seed"])
    t2 = time.perf_counter()
    history = train_draft(draft, corpus,
                          TrainConfig(lr=s["lr"], batch_size=s["batch_size"], seed=s["train_seed"]),
                          steps=steps)
    t3 = time.perf_counter()
    timing = {"setup_s": t3 - t0, "corpus_s": t2 - t1, "train_s": t3 - t2,
              "final_loss": float(history[-1])}
    return target, draft, timing


def timed_setups() -> dict:
    """Median stage times of SETUP_REPEATS set-ups at 1/SETUP_SCALE size.

    Not scaled by the host-speed probe: training is mostly batched matmuls,
    which track the probe poorly, and scaling did not narrow the spread.
    """
    s = BENCH_SETUP
    runs = [_setup(s["sequences"] // SETUP_SCALE, s["steps"] // SETUP_SCALE)[2]
            for _ in range(SETUP_REPEATS)]
    return {k: statistics.median(r[k] for r in runs) for k in ("setup_s", "corpus_s")} | {
        "repeats": SETUP_REPEATS, "size": 1 / SETUP_SCALE}


def bench_models():
    """The target and the ROADMAP-config trained draft, training it on a cache miss.

    Returns (target, draft, info) where info holds the full training's final
    loss and timing as recorded when it was trained.
    """
    key = hashlib.sha256((source_digest() + json.dumps(BENCH_SETUP, sort_keys=True))
                         .encode()).hexdigest()[:16]
    ckpt = CACHE_DIR / f"draft-{key}.bin"
    meta = CACHE_DIR / f"draft-{key}.json"
    target, _ = build_models(RunConfig())
    if ckpt.exists() and meta.exists():
        info = json.loads(meta.read_text(encoding="utf-8"))
        return target, load_draft(str(ckpt), target), info | {"cached": True}
    s = BENCH_SETUP
    target, draft, info = _setup(s["sequences"], s["steps"])
    CACHE_DIR.mkdir(exist_ok=True)
    # each file appears whole, the checkpoint last, so a concurrent run
    # never reads a partial cache entry
    tmp = CACHE_DIR / f"draft-{key}.tmp{os.getpid()}"
    tmp.write_text(json.dumps(info, sort_keys=True), encoding="utf-8")
    os.replace(tmp, meta)
    save_draft(draft, str(tmp))
    os.replace(tmp, ckpt)
    # decode with the checkpoint itself, as every later run does
    return target, load_draft(str(ckpt), target), info | {"cached": False}

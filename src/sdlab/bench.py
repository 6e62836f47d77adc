"""End-to-end decoding sessions, metrics and report plumbing.

A session decodes prompts with one of five methods (vanilla, chain SD, static
top-k tree, MoE tree, or the full pipeline with the contrastive parallel
final step).  The speculative ones grow their drafts with
``grow_static_tree`` or ``grow_moe_tree`` (``TREES``); a chain is the
static tree of width one.  A session counts forward passes exactly: one
target tree verify per speculative round, and gamma or gamma-1 draft passes
per round depending on whether the parallel final step is active.  A
branching tree's verify adds a second target pass, over the subtree of
the accepted node its first pass left out, in the rounds whose walk leaves
the first pass: the draft's most likely path at temperature 0, the rows
with a child down to the split depth above it.  Those rounds are counted
apart as ``second_pass_rounds``, so tau stays tokens per round, the
paper's acceptance length.  ``target_rows_per_round`` counts the target
rows the verify passes forwarded, one per vanilla step.

A round's draft input is what the last verify committed, as it returned
it: the accepted tokens and the final token, fed in turn the stacked
target features of the rows it committed, the pending token's and the
accepted nodes'.  The first round's is the last prompt token, fed the
prefill's last feature row.

Wall-clock numbers are reported but never asserted; the portable speedup
proxy is the target forward-pass ratio.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import get_args, get_type_hints

import numpy as np

from .draft import DraftConfig, DraftModel, DraftSession, init_draft, load_draft
from .target import TargetConfig, TargetModel, init_target, load_target
from .tree import grow_moe_tree, grow_static_tree
from .verify import verify_tree

# the tree each speculative method grows: (MoE branches, parallel final step)
TREES = {"chain": (False, False), "static_tree": (False, False),
         "moe_tree": (True, False), "jakiro_full": (True, True)}
METHODS = ("vanilla", *TREES)


class ConfigError(ValueError):
    """Bad run configuration; maps to exit code 2."""


class InvariantError(RuntimeError):
    """A measured metric violated a structural invariant; maps to exit code 3."""


@dataclass
class RunConfig:
    method: str = "vanilla"
    temperature: float = 0.0
    gamma: int = 5
    top_k: int = 2
    beam: int = 16
    n_experts: int = 2
    active_k: int = 2
    max_new: int = 24
    seed: int = 0
    n_prompts: int = 8
    prompt_len: int = 8
    prompt_file: str | None = None
    vocab: int = 64
    dim: int = 32
    n_layers: int = 2
    n_heads: int = 2
    expert_hidden: int = 64
    target_seed: int = 0
    draft_seed: int = 1
    target_checkpoint: str | None = None
    draft_checkpoint: str | None = None

    def validate(self) -> list[str]:
        warnings = []
        if self.method not in METHODS:
            raise ConfigError(f"method: unknown method {self.method!r}, expected one of {METHODS}")
        # JSON reads NaN and Infinity as floats; neither is a temperature
        if not 0 <= self.temperature < float("inf"):
            raise ConfigError("temperature: must be finite and >= 0")
        if self.gamma < 1:
            raise ConfigError("gamma: must be >= 1")
        if self.top_k < 1:
            raise ConfigError("top_k: must be >= 1")
        if self.beam < 1:
            raise ConfigError("beam: must be >= 1")
        if self.method == "jakiro_full" and self.gamma < 2:
            raise ConfigError("gamma: jakiro_full needs gamma >= 2 for the parallel final step")
        if self.method in ("moe_tree", "jakiro_full") and self.active_k < 2:
            raise ConfigError(f"active_k: method {self.method} requires K >= 2")
        if not 1 <= self.active_k <= self.n_experts:
            raise ConfigError("active_k: need 1 <= K <= N")
        if self.method in ("vanilla", "chain") and self.active_k > 2:
            warnings.append(f"active_k={self.active_k} is irrelevant for method {self.method}")
        if self.max_new < 1:
            raise ConfigError("max_new: must be >= 1")
        if self.n_prompts < 1:
            raise ConfigError("n_prompts: must be >= 1")
        for key in ("seed", "target_seed", "draft_seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key}: must be >= 0")
        if self.prompt_len < 2:
            raise ConfigError("prompt_len: must be >= 2 (drafting needs one committed position)")
        return warnings


def load_config(path: str) -> RunConfig:
    """Read a JSON key-value config; unknown keys and values of the wrong
    type are rejected by name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    hints = get_type_hints(RunConfig)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        # a JSON integer is a valid float; a JSON true/false is no number
        kinds = get_args(hints[key]) or (hints[key],)
        if float in kinds:
            kinds += (int,)
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in kinds)
            raise ConfigError(f"{key}: expected {names}, got {value!r}")
    cfg = RunConfig(**raw)
    cfg.validate()
    return cfg


@dataclass
class Metrics:
    method: str
    tau: float
    target_forwards: int
    draft_forwards: int
    second_pass_rounds: int
    target_rows_per_round: float
    tokens_emitted: int
    wall_ms: float
    per_prompt: list = field(default_factory=list)
    prompt_fingerprint: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    config: dict
    metrics: dict
    speedups: dict
    environment: dict

    def to_dict(self) -> dict:
        return asdict(self)


def environment_stamp() -> dict:
    """The host and the settings a report ran under, the OpenBLAS thread
    count among them (None when unset): training's bits depend on it."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def make_prompts(config: RunConfig) -> list[list[int]]:
    if config.prompt_file:
        try:
            with open(config.prompt_file, "r", encoding="utf-8") as fh:
                prompts = json.load(fh)
        except (OSError, ValueError) as e:  # missing, unreadable or not JSON
            raise ConfigError(f"prompt_file: {e}")
        if not isinstance(prompts, list) or not prompts:
            raise ConfigError("prompt_file: holds no list of prompts")
        for p in prompts:
            # type(t) is int: JSON true/false and 2.5 are no tokens
            if (not isinstance(p, list) or len(p) < 2
                    or any(type(t) is not int or not 0 <= t < config.vocab for t in p)):
                raise ConfigError("prompt_file: prompts must have length >= 2 and in-vocab tokens")
        return prompts
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 7])))
    return [
        [int(t) for t in rng.integers(0, config.vocab, size=config.prompt_len)]
        for _ in range(config.n_prompts)
    ]


def build_models(config: RunConfig) -> tuple[TargetModel, DraftModel]:
    """The target and draft a config names; a bad checkpoint or model size
    is a ConfigError."""
    try:
        if config.target_checkpoint:
            target = load_target(config.target_checkpoint)
        else:
            target = init_target(
                TargetConfig(vocab=config.vocab, dim=config.dim,
                             n_layers=config.n_layers, n_heads=config.n_heads),
                seed=config.target_seed,
            )
    except (OSError, ValueError) as e:
        raise ConfigError(f"target_checkpoint: {e}" if config.target_checkpoint else str(e))
    try:
        if config.draft_checkpoint:
            draft = load_draft(config.draft_checkpoint, target)
        else:
            draft = init_draft(
                DraftConfig(vocab=target.vocab, dim=target.dim, n_heads=config.n_heads,
                            n_experts=config.n_experts, active_k=config.active_k,
                            expert_hidden=config.expert_hidden),
                target,
                seed=config.draft_seed,
            )
    except (OSError, ValueError) as e:
        raise ConfigError(f"draft_checkpoint: {e}" if config.draft_checkpoint else str(e))
    if draft.vocab != target.vocab or draft.dim != target.dim:
        raise ConfigError("checkpoint/vocab mismatch between draft and target")
    return target, draft


def decode_prompt(target: TargetModel, draft: DraftModel, config: RunConfig,
                  prompt: list[int], rng) -> dict:
    """Decode one prompt; returns tokens and exact per-prompt counters."""
    if config.method == "vanilla":
        t0 = time.perf_counter()
        toks = target.autoregressive_decode(prompt, config.max_new, config.temperature,
                                            rng_seed=int(rng.integers(0, 2**63)))
        wall = (time.perf_counter() - t0) * 1000.0
        return {
            "tokens": toks,
            "target_forwards": len(toks),
            "draft_forwards": 0,
            "second_pass_rounds": 0,
            "target_rows": len(toks),
            "rounds": len(toks),
            "wall_ms": wall,
            "draft_passes_per_round": [],
        }

    if config.method not in TREES:
        raise ConfigError(f"method: unknown method {config.method!r}")
    if len(prompt) < 2:
        raise ConfigError("prompt_len: speculative methods need prompts of length >= 2")
    t0 = time.perf_counter()
    cache = target.new_cache()
    feats = target.prefill(cache, prompt[:-1])[1]

    moe, parallel = TREES[config.method]
    grow = grow_moe_tree if moe else grow_static_tree
    top_k = 1 if config.method == "chain" else config.top_k  # a chain is a width-1 tree
    dsession = DraftSession(draft)
    dsession.prefill(prompt[1:-1], feats[:-1])

    # the round's input: the committed tokens not yet in the draft's cache,
    # the pending one last, and the target features fed to them
    tokens, feats = [prompt[-1]], feats[-1:]
    emitted: list[int] = []
    target_forwards = 0
    draft_forwards = 0
    second_passes = 0
    target_rows = 0
    rounds = 0
    per_round = []
    while len(emitted) < config.max_new:
        before = dsession.passes
        tree = grow(dsession, tokens, feats, config.gamma, top_k, beam=config.beam,
                    parallel=parallel, temperature=config.temperature, rng=rng,
                    context_len=cache.length)
        round_passes = dsession.passes - before
        outcome = verify_tree(tree, target, cache, config.temperature, rng)
        tokens, feats = [*outcome.accepted, outcome.final_token], outcome.committed_features
        emitted += tokens
        target_forwards += 1  # one tree verify per round
        second_passes += outcome.second_pass
        target_rows += outcome.rows
        draft_forwards += round_passes
        rounds += 1
        per_round.append(round_passes)
    wall = (time.perf_counter() - t0) * 1000.0
    return {
        "tokens": emitted[: config.max_new],
        "target_forwards": target_forwards,
        "draft_forwards": draft_forwards,
        "second_pass_rounds": second_passes,
        "target_rows": target_rows,
        "rounds": rounds,
        "wall_ms": wall,
        "draft_passes_per_round": per_round,
    }


def run_session(config: RunConfig) -> Metrics:
    """Decode every prompt with the configured method and aggregate counters."""
    config.validate()
    target, draft = build_models(config)
    prompts = make_prompts(config)
    seeds = np.random.SeedSequence([config.seed, 1]).spawn(len(prompts))
    total_tokens = 0
    total_tf = 0
    total_df = 0
    total_second = 0
    total_rows = 0
    total_wall = 0.0
    per_prompt = []
    for prompt, ss in zip(prompts, seeds):
        rng = np.random.Generator(np.random.PCG64(ss))
        r = decode_prompt(target, draft, config, prompt, rng)
        n_tok = len(r["tokens"])
        total_tokens += n_tok
        total_tf += r["target_forwards"]
        total_df += r["draft_forwards"]
        total_second += r["second_pass_rounds"]
        total_rows += r["target_rows"]
        total_wall += r["wall_ms"]
        per_prompt.append(
            {
                "prompt": list(map(int, prompt)),
                "tokens": list(map(int, r["tokens"])),
                "target_forwards": r["target_forwards"],
                "draft_forwards": r["draft_forwards"],
                "second_pass_rounds": r["second_pass_rounds"],
                "target_rows": r["target_rows"],
                "rounds": r["rounds"],
                "tau": n_tok / r["target_forwards"],
            }
        )
    tau = total_tokens / total_tf
    if not 1.0 <= tau <= config.gamma + 1:
        raise InvariantError(f"tau {tau} outside [1, gamma+1]")
    # hash the prompts themselves: prompt files of one size may differ in content
    digest = hashlib.sha256(json.dumps([r["prompt"] for r in per_prompt]).encode()).hexdigest()[:16]
    fp = f"prompts={digest};n={len(prompts)};max_new={config.max_new}"
    return Metrics(
        method=config.method,
        tau=tau,
        target_forwards=total_tf,
        draft_forwards=total_df,
        second_pass_rounds=total_second,
        target_rows_per_round=total_rows / total_tf,
        tokens_emitted=total_tokens,
        wall_ms=total_wall,
        per_prompt=per_prompt,
        prompt_fingerprint=fp,
    )


def compute_speedup(baseline: Metrics, candidate: Metrics) -> tuple[float, float]:
    """(forward-pass ratio, wall-clock ratio) of candidate over baseline."""
    if baseline.prompt_fingerprint != candidate.prompt_fingerprint:
        raise ConfigError("mismatched prompt sets between baseline and candidate")
    forward_ratio = baseline.target_forwards / candidate.target_forwards
    wall_ratio = baseline.wall_ms / candidate.wall_ms if candidate.wall_ms > 0 else float("inf")
    return forward_ratio, wall_ratio


def write_report(report: Report, path: str) -> None:
    if not report.metrics:
        raise ValueError("refusing to write a report with no metrics")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_bench(config: RunConfig, methods) -> Report:
    configs = [RunConfig(**{**asdict(config), "method": m}) for m in methods]
    for c in configs:  # all of them before any decoding
        c.validate()
    metrics = {c.method: run_session(c) for c in configs}
    speedups = {}
    base = metrics.get("vanilla")
    if base:
        for m, met in metrics.items():
            fr, wr = compute_speedup(base, met)
            speedups[m] = {"forward_ratio": fr, "wall_ratio": wr}
    return Report(
        config=asdict(config),
        metrics={m: met.to_dict() for m, met in metrics.items()},
        speedups=speedups,
        environment=environment_stamp(),
    )


def run_sweep_nk(config: RunConfig) -> dict:
    """Tau per (N, K) cell of the expert-count grid, for the configured method."""
    rows = {}
    for n, k in ((5, 2), (4, 2), (3, 2), (2, 2)):
        c = RunConfig(**{**asdict(config), "n_experts": n, "active_k": k})
        if c.method in ("vanilla", "chain"):
            c.method = "moe_tree"
        met = run_session(c)
        rows[f"N={n},K={k}"] = {"tau": met.tau, "target_forwards": met.target_forwards,
                                "draft_forwards": met.draft_forwards}
    return rows

"""End-to-end decoding sessions, metrics and report plumbing.

A session decodes prompts with one of five methods (vanilla, chain SD, static
top-k tree, MoE tree, or the full pipeline with the contrastive parallel
final step) and counts forward passes exactly: one target forward per
speculative round, and gamma or gamma-1 draft passes per round depending on
whether the parallel final step is active.

Wall-clock numbers are reported but never asserted; the portable speedup
proxy is the target forward-pass ratio.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .draft import DraftConfig, DraftModel, DraftSession, init_draft, load_draft
from .target import TargetConfig, TargetModel, init_target, load_target
from .tree import grow_chain, grow_moe_tree, grow_static_tree
from .verify import verify_tree

METHODS = ("vanilla", "chain", "static_tree", "moe_tree", "jakiro_full")


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
        if self.temperature < 0:
            raise ConfigError("temperature: must be >= 0")
        if self.gamma < 1:
            raise ConfigError("gamma: must be >= 1")
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
        if self.prompt_len < 2:
            raise ConfigError("prompt_len: must be >= 2 (drafting needs one committed position)")
        return warnings


def load_config(path: str) -> RunConfig:
    """Read a JSON key-value config; unknown keys are rejected by name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = RunConfig(**raw)
    cfg.validate()
    return cfg


@dataclass
class Metrics:
    method: str
    tau: float
    target_forwards: int
    draft_forwards: int
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
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def make_prompts(config: RunConfig) -> list[list[int]]:
    if config.prompt_file:
        with open(config.prompt_file, "r", encoding="utf-8") as fh:
            prompts = json.load(fh)
        for p in prompts:
            if len(p) < 2 or any(not 0 <= t < config.vocab for t in p):
                raise ConfigError("prompt_file: prompts must have length >= 2 and in-vocab tokens")
        return prompts
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 7])))
    return [
        [int(t) for t in rng.integers(0, config.vocab, size=config.prompt_len)]
        for _ in range(config.n_prompts)
    ]


def build_models(config: RunConfig) -> tuple[TargetModel, DraftModel]:
    if config.target_checkpoint:
        try:
            target = load_target(config.target_checkpoint)
        except (OSError, ValueError) as e:
            raise ConfigError(f"target_checkpoint: {e}")
    else:
        target = init_target(
            TargetConfig(vocab=config.vocab, dim=config.dim,
                         n_layers=config.n_layers, n_heads=config.n_heads),
            seed=config.target_seed,
        )
    if config.draft_checkpoint:
        try:
            draft = load_draft(config.draft_checkpoint, target)
        except (OSError, ValueError) as e:
            raise ConfigError(f"draft_checkpoint: {e}")
    else:
        draft = init_draft(
            DraftConfig(vocab=target.vocab, dim=target.dim, n_heads=config.n_heads,
                        n_experts=config.n_experts, active_k=config.active_k,
                        expert_hidden=config.expert_hidden),
            target,
            seed=config.draft_seed,
        )
    if draft.vocab != target.vocab or draft.dim != target.dim:
        raise ConfigError("checkpoint/vocab mismatch between draft and target")
    return target, draft


def _grow_for_method(method, dsession, prev_feature, pending, config, mode, rng,
                     backlog_t, backlog_f, context_len):
    common = dict(
        mode=mode,
        temperature=config.temperature if config.temperature > 0 else 1.0,
        rng=rng,
        backlog_tokens=backlog_t,
        backlog_features=backlog_f,
        context_len=context_len,
        beam=config.beam,
    )
    if method == "chain":
        return grow_chain(dsession, prev_feature, pending, config.gamma, **common)
    if method == "static_tree":
        return grow_static_tree(dsession, prev_feature, pending, config.gamma,
                                config.top_k, **common)
    if method == "moe_tree":
        return grow_moe_tree(dsession, prev_feature, pending, config.gamma,
                             config.top_k, **common)
    if method == "jakiro_full":
        return grow_moe_tree(dsession, prev_feature, pending, config.gamma,
                             config.top_k, parallel=True, **common)
    raise ConfigError(f"method: unknown method {method!r}")


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
            "rounds": len(toks),
            "wall_ms": wall,
            "draft_passes_per_round": [],
        }

    if len(prompt) < 2:
        raise ConfigError("prompt_len: speculative methods need prompts of length >= 2")
    mode = "greedy" if config.temperature == 0.0 else "sample"
    t0 = time.perf_counter()
    cache = target.new_cache()
    feats = [target.forward_cached(cache, t).feature for t in prompt[:-1]]
    pending = prompt[-1]
    prev_feature = feats[-1]

    dsession = DraftSession(draft)
    if len(prompt) > 2:
        dsession.prefill(prompt[1:-1], feats[:-1])

    emitted: list[int] = []
    backlog_t: list[int] = []
    backlog_f: list[np.ndarray] = []
    target_forwards = 0
    draft_forwards = 0
    rounds = 0
    per_round = []
    while len(emitted) < config.max_new:
        before = dsession.passes
        tree = _grow_for_method(config.method, dsession, prev_feature, pending, config,
                                mode, rng, backlog_t, backlog_f, cache.length)
        round_passes = dsession.passes - before
        outcome = verify_tree(tree, target, cache, config.temperature, rng,
                              draft_passes=round_passes)
        cache.commit_rows(outcome.tree_kv, outcome.commit_indices)
        emitted.extend(outcome.accepted)
        emitted.append(outcome.final_token)
        target_forwards += outcome.target_forward_passes
        draft_forwards += outcome.draft_forward_passes
        rounds += 1
        per_round.append(round_passes)
        backlog_t = list(outcome.accepted)
        backlog_f = outcome.committed_features[:-1]
        prev_feature = outcome.committed_features[-1]
        pending = outcome.final_token
    wall = (time.perf_counter() - t0) * 1000.0
    return {
        "tokens": emitted[: config.max_new],
        "target_forwards": target_forwards,
        "draft_forwards": draft_forwards,
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
    total_wall = 0.0
    per_prompt = []
    for prompt, ss in zip(prompts, seeds):
        rng = np.random.Generator(np.random.PCG64(ss))
        r = decode_prompt(target, draft, config, prompt, rng)
        n_tok = len(r["tokens"])
        total_tokens += n_tok
        total_tf += r["target_forwards"]
        total_df += r["draft_forwards"]
        total_wall += r["wall_ms"]
        per_prompt.append(
            {
                "prompt": list(map(int, prompt)),
                "tokens": list(map(int, r["tokens"])),
                "target_forwards": r["target_forwards"],
                "draft_forwards": r["draft_forwards"],
                "rounds": r["rounds"],
                "tau": n_tok / r["target_forwards"],
            }
        )
    tau = total_tokens / total_tf
    if not 1.0 <= tau <= config.gamma + 1:
        raise InvariantError(f"tau {tau} outside [1, gamma+1]")
    if abs(tau - total_tokens / total_tf) > 0:
        raise InvariantError("tau accounting identity violated")
    # hash the prompts themselves: prompt files of one size may differ in content
    digest = hashlib.sha256(json.dumps([r["prompt"] for r in per_prompt]).encode()).hexdigest()[:16]
    fp = f"prompts={digest};n={len(prompts)};max_new={config.max_new}"
    return Metrics(
        method=config.method,
        tau=tau,
        target_forwards=total_tf,
        draft_forwards=total_df,
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


def read_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(config: RunConfig, methods=None) -> Report:
    if methods:
        methods = list(methods)
    elif config.method != "vanilla":
        methods = ["vanilla", config.method]
    else:
        methods = ["vanilla"]
    metrics = {}
    for m in methods:
        c = RunConfig(**{**asdict(config), "method": m})
        if m in ("moe_tree", "jakiro_full") and c.active_k < 2:
            c.active_k = 2
        metrics[m] = run_session(c)
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


def run_sweep_nk(config: RunConfig, grid=((5, 2), (4, 2), (3, 2), (2, 2))) -> dict:
    """Tau per (N, K) cell of the expert-count grid, for the configured method."""
    rows = {}
    for n, k in grid:
        c = RunConfig(**{**asdict(config), "n_experts": n, "active_k": k})
        if c.method in ("vanilla", "chain"):
            c.method = "moe_tree"
        met = run_session(c)
        rows[f"N={n},K={k}"] = {"tau": met.tau, "target_forwards": met.target_forwards,
                                "draft_forwards": met.draft_forwards}
    return rows

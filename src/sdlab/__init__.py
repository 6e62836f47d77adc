"""Desk-scale speculative decoding laboratory.

A toy autoregressive target model, an MoE-routed draft network with decoupled
expert branches and a contrastive parallel final step, lossless tree
verification, a distillation trainer with hand-audited gradients, and a
benchmark harness reporting acceptance lengths and forward-pass economics.
"""

from .bench import Metrics, Report, RunConfig, compute_speedup, load_config, run_session
from .draft import DraftConfig, DraftModel, DraftSession, init_draft, load_draft, save_draft
from .kernels import softmax
from .target import KvCache, StepOutput, TargetConfig, TargetModel, init_target, load_target, save_target
from .train import TrainBatch, TrainConfig, finite_diff_check, generate_distillation_corpus, jakiro_loss, train_draft, train_step
from .tree import DraftTree, grow_moe_tree, grow_static_tree
from .verify import VerifyOutcome, verify_tree

__version__ = "0.1.0"

"""The WRPO stage chain in memory: dataset, SFT, on-policy pairs, PO, evaluation.

Each stage derives its seed streams (``split``, ``sft``, ``holdout``, ``po``)
and the fusion schedule from the run config, so every caller runs the same
wiring. No stage touches the file system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import datagen, trainer
from .config import RunConfig
from .datagen import PreferenceQuadruple, ScoredResponse
from .objectives import WRPO_KINDS
from .policy import PolicyModel, derive_seed, stream_salt

__all__ = ["Dataset", "build_dataset", "sft", "prepare_po", "run_po", "evaluate"]


def _seed(cfg: RunConfig, stream: str) -> int:
    return derive_seed(cfg.seed, stream_salt(stream))


@dataclass
class Dataset:
    """The quadruples, the frozen initial target and the per-prompt candidate pools
    they were selected from."""

    target_init: PolicyModel
    quadruples: list[PreferenceQuadruple]
    attribution: list[tuple[str, int, float]]
    source_pools: list[list[ScoredResponse]]
    target_pools: list[list[ScoredResponse]]


def build_dataset(cfg: RunConfig) -> Dataset:
    """N scored samples per (prompt, source member) and from the initial target, selected."""
    oracle = cfg.oracle()
    prompts = cfg.prompts()
    target = cfg.target_init().copy(frozen=True)
    n, sampling = cfg.n_samples(), cfg.sampling_config()
    src = datagen.generate_candidates(cfg.ensemble(), prompts, n, sampling, oracle)
    tgt = datagen.generate_candidates({"target-init": target}, prompts, n, sampling, oracle)
    quadruples, attribution = datagen.assemble_quadruples(
        src, tgt, include_yls=cfg.raw["data"]["include_yls"]
    )
    return Dataset(target, quadruples, attribution, src, tgt)


def _split(
    cfg: RunConfig, quadruples: list[PreferenceQuadruple]
) -> tuple[list[PreferenceQuadruple], list[PreferenceQuadruple]]:
    return datagen.split_dataset(
        quadruples, cfg.raw["data"]["split_fraction"], seed=_seed(cfg, "split")
    )


def sft(cfg: RunConfig, quadruples: list[PreferenceQuadruple]) -> tuple[PolicyModel, list[float]]:
    """SFT of the initial target on the SFT split's y_ws: a frozen snapshot and per-step losses."""
    stage = cfg.raw["sft"]
    sft_part, _ = _split(cfg, quadruples)
    return trainer.run_sft(
        cfg.target_init(),
        [q.y_ws.sequence for q in sft_part],
        cfg.optimizer_config("sft"),
        epochs=stage["epochs"],
        batch_size=stage["batch_size"],
        seed=_seed(cfg, "sft"),
    )


def prepare_po(
    cfg: RunConfig, snapshot: PolicyModel, quadruples: list[PreferenceQuadruple]
) -> tuple[list[PreferenceQuadruple], list[PreferenceQuadruple], list[PreferenceQuadruple]]:
    """(pairs, train, heldout): y_wt / y_l regenerated from the snapshot in PO-split
    order, then po.eval_holdout_fraction of them held out."""
    _, po_part = _split(cfg, quadruples)
    pairs = trainer.regenerate_target_pairs(
        snapshot,
        po_part,
        cfg.n_samples(),
        cfg.sampling_config(),
        cfg.oracle(),
    )
    n_hold = int(cfg.raw["po"]["eval_holdout_fraction"] * len(pairs))
    if n_hold == 0:
        return pairs, pairs, []
    perm = np.random.default_rng(_seed(cfg, "holdout")).permutation(len(pairs))
    return pairs, [pairs[i] for i in perm[n_hold:]], [pairs[i] for i in perm[:n_hold]]


def run_po(
    cfg: RunConfig,
    snapshot: PolicyModel,
    train: list[PreferenceQuadruple],
    heldout: list[PreferenceQuadruple],
) -> tuple[PolicyModel, trainer.TrainingTelemetry]:
    """Preference optimization from the snapshot, which is also the reference; every
    po.eval_every steps, held-out reward accuracy and the mean eval-prompt oracle
    score as ``evaluate`` measures them."""
    objective = cfg.objective_config()
    stage = cfg.raw["po"]
    total = trainer.n_optimizer_steps(len(train), stage["batch_size"], stage["epochs"])
    inputs = _eval_inputs(cfg)

    def in_loop(policy: PolicyModel) -> tuple[float | None, float]:
        scores = trainer.oracle_scores(policy, *inputs)
        return _reward_accuracy(cfg, policy, snapshot, heldout), trainer.mean_score(scores)

    return trainer.run_preference_optimization(
        snapshot,
        snapshot,
        train,
        objective,
        cfg.optimizer_config("po"),
        schedule=cfg.fusion_schedule(total) if objective.kind in WRPO_KINDS else None,
        epochs=stage["epochs"],
        batch_size=stage["batch_size"],
        seed=_seed(cfg, "po"),
        eval_every=stage["eval_every"],
        evaluate=in_loop,
    )


def _eval_inputs(cfg: RunConfig) -> tuple:
    """What every evaluation samples with, in oracle_scores' argument order."""
    n = cfg.raw["eval"]["samples_per_prompt"]
    return cfg.eval_prompts(), cfg.sampling_config(), cfg.oracle(), n


def _reward_accuracy(cfg: RunConfig, model, snapshot, heldout) -> float | None:
    if not heldout:
        return None
    return trainer.eval_reward_accuracy(model, snapshot, heldout, cfg.objective_config().beta)


def evaluate(
    cfg: RunConfig,
    model: PolicyModel,
    snapshot: PolicyModel,
    heldout: list[PreferenceQuadruple],
    baseline: PolicyModel,
) -> dict:
    """Held-out reward accuracy against the snapshot; fresh-sample quality against ``baseline``."""
    quality = trainer.eval_policy_quality(model, baseline, *_eval_inputs(cfg))
    return {
        "objective": cfg.objective_config().kind,
        "reward_accuracy": _reward_accuracy(cfg, model, snapshot, heldout),
        **vars(quality),
    }

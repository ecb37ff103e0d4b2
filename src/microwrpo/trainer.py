"""Two-stage training pipeline: SFT on y_ws, then preference optimization.

Both stages run seeded mini-batch loops over tabular policies with exact
gradients, record per-step telemetry, and reduce deterministically
(fixed-order summation) so identical configs reproduce bit-identical
runs.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import objectives as obj
from .datagen import (
    BigramRewardOracle,
    PreferenceQuadruple,
    jsonl_records,
    sample_scored,
    target_pairs,
)
from .errors import ConfigError, DataError, InputError, NumericError, UsageError, is_number
from .policy import PackedSequences, PolicyModel, SamplingConfig, Sequence
from .schedule import FusionSchedule, alpha_at

__all__ = [
    "OptimizerConfig",
    "Optimizer",
    "StepRecord",
    "EvalRecord",
    "TrainingTelemetry",
    "run_sft",
    "regenerate_target_pairs",
    "run_preference_optimization",
    "eval_reward_accuracy",
    "oracle_scores",
    "mean_score",
    "eval_policy_quality",
    "QualityReport",
    "write_telemetry",
    "read_telemetry",
]

OPTIMIZER_KINDS = ("sgd", "adam")
LR_SCHEDULES = ("constant", "cosine")
# Adam's moment decay rates and the guard added to the second-moment root.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    step_size: float = 0.05
    schedule: str = "constant"
    warmup_fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")
        if self.schedule not in LR_SCHEDULES:
            raise ConfigError(f"unknown lr schedule {self.schedule!r}")
        if not is_number(self.step_size) or self.step_size <= 0:
            raise ConfigError(f"step_size must be a positive number (got {self.step_size!r})")
        if not is_number(self.warmup_fraction) or not 0 <= self.warmup_fraction < 1:
            raise ConfigError(
                f"warmup_fraction must be a number in [0, 1) (got {self.warmup_fraction!r})"
            )


class Optimizer:
    """First-order updates with optional two-moment adaptation and cosine lr."""

    def __init__(self, cfg: OptimizerConfig, shape: tuple[int, ...], total_steps: int):
        self.cfg = cfg
        self.total_steps = max(1, int(total_steps))
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def lr_at(self, step: int) -> float:
        cfg = self.cfg
        if cfg.schedule == "constant":
            return cfg.step_size
        warmup = int(cfg.warmup_fraction * self.total_steps)
        if step < warmup:
            return cfg.step_size * (step + 1) / warmup
        span = max(1, self.total_steps - warmup)
        progress = (step - warmup) / span
        return cfg.step_size * 0.5 * (1.0 + math.cos(math.pi * min(progress, 1.0)))

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        lr = self.lr_at(self.t)
        self.t += 1
        if self.cfg.kind == "sgd":
            params -= lr * grad
            return
        # In place, in the float order of m = b1*m + (1-b1)*g and lr*m_hat / (sqrt(v_hat) + eps).
        self.m *= BETA1
        self.m += (1 - BETA1) * grad
        self.v *= BETA2
        self.v += (1 - BETA2) * (grad * grad)
        update = self.m / (1 - BETA1**self.t)
        update *= lr
        denom = self.v / (1 - BETA2**self.t)
        np.sqrt(denom, out=denom)
        denom += EPSILON
        update /= denom
        params -= update


@dataclass
class StepRecord:
    step: int
    alpha: float | None
    loss: float
    internal_rewards: dict[str, float]
    on_policy_margin: float | None
    hybrid_policy_margin: float | None
    grad_norm: float


@dataclass
class EvalRecord:
    step: int
    reward_accuracy: float | None
    mean_oracle_score: float | None


@dataclass
class TrainingTelemetry:
    steps: list[StepRecord] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)


def _batches(n: int, batch_size: int, epochs: int, seed: int):
    """Seeded shuffle per epoch, fixed-order chunks (last batch may be short)."""
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield perm[start : start + batch_size]


def n_optimizer_steps(n_records: int, batch_size: int, epochs: int) -> int:
    return epochs * math.ceil(n_records / batch_size)


def run_sft(
    model: PolicyModel,
    sequences: list[Sequence],
    opt_cfg: OptimizerConfig,
    epochs: int = 1,
    batch_size: int = 16,
    seed: int = 0,
) -> tuple[PolicyModel, list[float]]:
    """Minimize mean NLL of each response given its prompt; returns a frozen snapshot.

    The input model is left untouched. With epochs == 0 the snapshot is a
    frozen copy of the input.
    """
    if len(sequences) == 0:
        raise InputError("sft sequence list is empty")
    if model.frozen:
        raise UsageError("cannot train a frozen model")
    policy = model.copy(frozen=False)
    total = n_optimizer_steps(len(sequences), batch_size, epochs)
    optimizer = Optimizer(opt_cfg, policy.logits.shape, total)
    packed = PackedSequences(policy, [(seq,) for seq in sequences])
    losses: list[float] = []
    for batch in _batches(len(sequences), batch_size, epochs, seed):
        forward = packed.forward(policy, batch)
        nll = _mean([-log_prob for (log_prob,) in forward.log_probs.tolist()])
        grad = packed.gradient(policy, forward, np.full((len(batch), 1), -1.0))
        grad /= len(batch)
        if not np.isfinite(nll):
            raise NumericError(f"non-finite SFT loss at step {len(losses)}")
        optimizer.step(policy.logits, grad)
        losses.append(nll)
    return policy.freeze(), losses


def regenerate_target_pairs(
    snapshot: PolicyModel,
    quadruples: list[PreferenceQuadruple],
    n_samples: int,
    cfg: SamplingConfig,
    oracle: BigramRewardOracle,
) -> list[PreferenceQuadruple]:
    """Replace y_wt / y_l with the target pair (datagen.target_pairs) of fresh
    samples from the snapshot."""
    if not snapshot.frozen:
        raise UsageError("pair regeneration requires a frozen snapshot")
    prompts = [q.prompt for q in quadruples]
    scored = sample_scored(
        snapshot, "target-sft", prompts, n_samples, cfg, oracle, "regen:target-sft"
    )
    return [
        replace(quad, y_wt=y_wt, y_l=y_l)
        for quad, (y_wt, y_l) in zip(quadruples, target_pairs(scored))
    ]


def _mean(values: list[float]) -> float:
    """The mean, its sum taken left to right: builtin sum() compensates float
    rounding from Python 3.12 on, which would change the bytes of telemetry."""
    total = 0.0
    for value in values:
        total += value
    return float(total / len(values))


def _column_mean(results: list[obj.LossResult], column: str) -> float | None:
    """The mean of a LossResult margin column; None when the kind leaves it unset,
    which it does for every record or for none."""
    if getattr(results[0], column) is None:
        return None
    return _mean([getattr(r, column) for r in results])


# OpenBLAS computes a ddot of at most this many entries on the calling thread.
_DOT_CHUNK = 10_000


def _grad_norm(grad: np.ndarray) -> float:
    """The Euclidean norm of ``grad``, whatever OpenBLAS's thread count.

    The raveled entries are split into ceil(n / _DOT_CHUNK) consecutive
    chunks as np.array_split splits them, and the chunks' dot products are
    added to 0.0 in order, so no dot wakes OpenBLAS's thread pool. The value
    is bit for bit ``np.linalg.norm(grad)``'s up to _DOT_CHUNK entries (one
    chunk), and its value on two threads up to 2 * _DOT_CHUNK (OpenBLAS's
    own two-way split).
    """
    flat = grad.ravel(order="K")
    total = 0.0
    for chunk in np.array_split(flat, -(-flat.size // _DOT_CHUNK)):
        total += float(chunk.dot(chunk))
    return math.sqrt(total)


def run_preference_optimization(
    policy_init: PolicyModel,
    ref: PolicyModel | None,
    quadruples: list[PreferenceQuadruple],
    objective: obj.ObjectiveConfig,
    opt_cfg: OptimizerConfig,
    schedule: FusionSchedule | None = None,
    epochs: int = 1,
    batch_size: int = 16,
    seed: int = 0,
    eval_every: int = 0,
    evaluate: Callable[[PolicyModel], tuple[float | None, float | None]] | None = None,
) -> tuple[PolicyModel, TrainingTelemetry]:
    """One seeded pass (or several) over the PO split with any objective.

    For the wrpo_* kinds each optimizer step evaluates the loss at the
    schedule's alpha for that step; pair-based kinds must not be given a
    schedule. The records are packed once (objectives.PackedRecords, which
    checks the reference and the quadruple fields the kind reads). A
    StepRecord's loss, internal rewards and margins are each the _mean of
    the batch's LossResult values. Every eval_every steps,
    ``evaluate(policy)`` gives the (reward accuracy, mean oracle score) of
    an EvalRecord. Returns the trained model as a frozen snapshot plus the
    telemetry.
    """
    if len(quadruples) == 0:
        raise InputError("preference dataset is empty")
    is_wrpo = objective.kind in obj.WRPO_KINDS
    if is_wrpo and schedule is None:
        raise ConfigError(f"objective {objective.kind!r} requires a fusion schedule")
    if not is_wrpo and schedule is not None:
        raise ConfigError(
            f"fusion schedule given but objective {objective.kind!r} takes no alpha"
        )

    policy = policy_init.copy(frozen=False)
    total = n_optimizer_steps(len(quadruples), batch_size, epochs)
    optimizer = Optimizer(opt_cfg, policy.logits.shape, total)
    telemetry = TrainingTelemetry()
    packed = obj.PackedRecords(policy, ref, quadruples, objective)

    step = 0
    for batch in _batches(len(quadruples), batch_size, epochs, seed):
        alpha = alpha_at(schedule, step) if is_wrpo else None
        results, grad = packed.loss_gradient(policy, batch, alpha)
        grad /= len(batch)
        loss = _mean([r.loss for r in results])
        if not np.isfinite(loss):
            raise NumericError(f"non-finite preference loss at step {step}")
        telemetry.steps.append(
            StepRecord(
                step=step,
                alpha=alpha,
                loss=loss,
                internal_rewards={
                    name: _mean([r.internal_rewards[name] for r in results])
                    for name in results[0].internal_rewards
                },
                on_policy_margin=_column_mean(results, "on_policy_margin"),
                hybrid_policy_margin=_column_mean(results, "hybrid_policy_margin"),
                grad_norm=_grad_norm(grad),
            )
        )
        optimizer.step(policy.logits, grad)
        step += 1

        if evaluate is not None and eval_every > 0 and step % eval_every == 0:
            telemetry.evals.append(EvalRecord(step - 1, *evaluate(policy)))
    return policy.freeze(), telemetry


def eval_reward_accuracy(
    model: PolicyModel,
    ref: PolicyModel,
    quadruples: list[PreferenceQuadruple],
    beta: float,
) -> float:
    """Fraction of records with internal reward of y_ws above y_l; ties fail.

    Positive beta only rescales the compared difference, so the value is
    beta-invariant. One packing serves both models, so ``ref`` must share
    the model's vocabulary and context order (UsageError otherwise).
    """
    if len(quadruples) == 0:
        raise InputError("held-out set is empty")
    packed = PackedSequences(model, [(q.y_ws.sequence, q.y_l.sequence) for q in quadruples])
    theta, ref_lp = packed.log_probs(model).tolist(), packed.log_probs(ref).tolist()
    hits = 0
    for (ws, l), (ref_ws, ref_l) in zip(theta, ref_lp):
        if obj.internal_reward(ws, ref_ws, beta) > obj.internal_reward(l, ref_l, beta):
            hits += 1
    return hits / len(quadruples)


def oracle_scores(
    model: PolicyModel,
    prompts: list[tuple[int, ...]],
    cfg: SamplingConfig,
    oracle: BigramRewardOracle,
    samples_per_prompt: int,
    salt: str,
) -> list[list[float]]:
    """Oracle scores of fresh samples, as [prompt][sample]: what every evaluation samples."""
    draws = sample_scored(model, "eval", prompts, samples_per_prompt, cfg, oracle, salt)
    return [[r.score for r in row] for row in draws]


def mean_score(scores: list[list[float]]) -> float:
    """Mean of oracle_scores' values, summed in prompt-then-sample order."""
    return _mean([s for row in scores for s in row])


@dataclass
class QualityReport:
    """The sampled-quality part of metrics.json: its fields are those keys, in order."""

    candidate_mean_score: float
    baseline_mean_score: float
    win_rate: float
    wins: int
    ties: int
    losses: int
    n_eval_prompts: int


def eval_policy_quality(
    candidate: PolicyModel,
    baseline: PolicyModel,
    prompts: list[tuple[int, ...]],
    cfg: SamplingConfig,
    oracle: BigramRewardOracle,
    samples_per_prompt: int,
) -> QualityReport:
    """Mean oracle score of fresh samples and per-prompt win rate vs baseline.

    Both models consume identical derived sample streams, so comparing a
    model against itself yields all ties.
    """
    if len(prompts) == 0:
        raise InputError("prompt list is empty")
    cand, base = (
        oracle_scores(m, prompts, cfg, oracle, samples_per_prompt, "quality-eval")
        for m in (candidate, baseline)
    )
    wins = ties = losses = 0
    for cand_scores, base_scores in zip(cand, base):
        c, b = _mean(cand_scores), _mean(base_scores)
        if c > b:
            wins += 1
        elif c < b:
            losses += 1
        else:
            ties += 1
    return QualityReport(
        candidate_mean_score=mean_score(cand),
        baseline_mean_score=mean_score(base),
        win_rate=wins / len(prompts),
        wins=wins,
        ties=ties,
        losses=losses,
        n_eval_prompts=len(prompts),
    )


def write_telemetry(path, telemetry: TrainingTelemetry) -> None:
    """JSONL, one record a line: its type tag, then its dataclass fields. Records
    go in step order, an eval record after the step record of its step."""
    tagged = [("step", s) for s in telemetry.steps] + [("eval", e) for e in telemetry.evals]
    tagged.sort(key=lambda t: (t[1].step, t[0] == "eval"))
    with open(path, "w") as fh:
        for kind, record in tagged:
            fh.write(json.dumps({"type": kind, **vars(record)}) + "\n")


def _number(value, nullable: bool = False, integer: bool = False):
    if (value is None and nullable) or is_number(value, integer=integer):
        return value
    raise TypeError(f"expected {'an int' if integer else 'a number'}, got {value!r}")


def _step_record(rec: dict) -> StepRecord:
    rewards = rec["internal_rewards"]
    if not isinstance(rewards, dict):
        raise TypeError("internal_rewards must be an object")
    return StepRecord(
        step=_number(rec["step"], integer=True),
        alpha=_number(rec["alpha"], nullable=True),
        loss=float(_number(rec["loss"])),
        internal_rewards={k: float(_number(v)) for k, v in rewards.items()},
        on_policy_margin=_number(rec["on_policy_margin"], nullable=True),
        hybrid_policy_margin=_number(rec["hybrid_policy_margin"], nullable=True),
        grad_norm=float(_number(rec["grad_norm"])),
    )


def _eval_record(rec: dict) -> EvalRecord:
    return EvalRecord(
        step=_number(rec["step"], integer=True),
        reward_accuracy=_number(rec["reward_accuracy"], nullable=True),
        mean_oracle_score=_number(rec["mean_oracle_score"], nullable=True),
    )


def read_telemetry(path) -> TrainingTelemetry:
    """Read write_telemetry's JSONL; a malformed record raises DataError."""
    telemetry = TrainingTelemetry()
    for line_no, rec in jsonl_records(path):
        kind = rec.get("type") if isinstance(rec, dict) else None
        if kind not in ("step", "eval"):
            raise DataError(f"{path}:{line_no}: unknown record type")
        try:
            if kind == "step":
                telemetry.steps.append(_step_record(rec))
            else:
                telemetry.evals.append(_eval_record(rec))
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}:{line_no}: malformed {kind} record ({exc!r})") from exc
    return telemetry

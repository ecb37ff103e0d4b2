"""Built-in invariant battery behind the `verify` subcommand.

A quick self-check of the library's core contracts (normalization,
gradient exactness, reduction identities, selection optimality,
determinism, telemetry bookkeeping). The pytest suite is the exhaustive
version; this battery runs in seconds and needs no fixtures.
"""

from __future__ import annotations

import numpy as np

from . import datagen, objectives as obj, pipeline, trainer
from .config import load_config
from .policy import (
    PolicyModel,
    SamplingConfig,
    Sequence,
    default_vocabulary,
    log_prob_gradient,
    parameter_hash,
    sample_response,
    sequence_log_prob,
)
from .schedule import FusionSchedule, alpha_at


def _random_sequence(rng, vocab, max_len=6) -> Sequence:
    content = list(vocab.content_ids)
    prompt = tuple(rng.choice(content, size=2))
    body = tuple(rng.choice(content, size=int(rng.integers(1, max_len))))
    return Sequence(prompt=prompt, response=(*body, vocab.eos_id))


def _random_quadruple(rng, vocab, include_yls=False) -> datagen.PreferenceQuadruple:
    prompt = tuple(rng.choice(list(vocab.content_ids), size=2))

    def scored(model_name, idx):
        seq = _random_sequence(rng, vocab)
        seq = Sequence(prompt=prompt, response=seq.response)
        return datagen.ScoredResponse(seq, float(rng.normal()), model_name, idx)

    return datagen.PreferenceQuadruple(
        prompt=prompt,
        y_ws=scored("src", 0),
        y_wt=scored("tgt", 0),
        y_l=scored("tgt", 1),
        y_ls=scored("src", 1) if include_yls else None,
    )


def _check_normalization(rng, n) -> str | None:
    for _ in range(n):
        model = PolicyModel.random_init(
            default_vocabulary(4), order=2, scale=2.0, seed=int(rng.integers(1 << 31))
        )
        probs = np.exp(model.log_softmax_rows(np.arange(model.logits.shape[0])))
        if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-9):
            return "softmax row does not sum to 1 within 1e-9"
    return None


def _check_policy_gradient(rng, n) -> str | None:
    vocab = default_vocabulary(4)
    for _ in range(n):
        model = PolicyModel.random_init(
            vocab, order=2, scale=1.0, seed=int(rng.integers(1 << 31))
        )
        seq = _random_sequence(rng, vocab)
        grad = log_prob_gradient(model, seq)
        h = 1e-5
        flat = model.logits.ravel()
        for k in rng.choice(flat.size, size=25, replace=False):
            orig = flat[k]
            flat[k] = orig + h
            up = sequence_log_prob(model, seq)
            flat[k] = orig - h
            down = sequence_log_prob(model, seq)
            flat[k] = orig
            fd = (up - down) / (2 * h)
            if abs(grad.ravel()[k] - fd) > max(1e-7, 1e-4 * abs(fd)):
                return f"gradient mismatch: analytic {grad.ravel()[k]} vs fd {fd}"
    return None


def _check_sampling_determinism(rng, n) -> str | None:
    vocab = default_vocabulary(4)
    cfg = SamplingConfig(temperature=0.9, top_p=0.9, max_length=8, seed=123)
    for _ in range(n):
        model = PolicyModel.random_init(
            vocab, order=2, scale=1.0, seed=int(rng.integers(1 << 31))
        )
        a = sample_response(model, (2, 3), cfg)
        b = sample_response(model, (2, 3), cfg)
        if a != b:
            return "same seed produced different samples"
    return None


def _check_reduction_identities(rng, n) -> str | None:
    vocab = default_vocabulary(4)
    for _ in range(n):
        model = PolicyModel.random_init(vocab, 2, 1.0, int(rng.integers(1 << 31)))
        ref = PolicyModel.random_init(
            vocab, 2, 1.0, int(rng.integers(1 << 31)), frozen=True
        )
        quad = _random_quadruple(rng, vocab)
        for alpha, chosen_pairing in ((0.0, "on_policy"), (1.0, "hybrid")):
            wrpo_cfg = obj.ObjectiveConfig(kind="wrpo_dpo", beta=0.01, alpha=alpha)
            dpo_cfg = obj.ObjectiveConfig(kind="dpo", beta=0.01)
            res_w, grad_w = obj.loss_gradient_wrt_params(model, ref, quad, wrpo_cfg)
            res_d, grad_d = obj.loss_gradient_wrt_params(
                model, ref, quad, dpo_cfg, pairing=chosen_pairing
            )
            if abs(res_w.loss - res_d.loss) > 1e-12:
                return f"wrpo(alpha={alpha}) loss differs from dpo"
            if np.abs(grad_w - grad_d).max() > 1e-12:
                return f"wrpo(alpha={alpha}) gradient differs from dpo"
    return None


def _check_initialization_constants(rng, n) -> str | None:
    log2 = float(np.log(2.0))
    for _ in range(n):
        lp = float(-rng.uniform(1, 20))
        role = obj.RoleLogProb(theta=lp, ref=lp, length=int(rng.integers(1, 9)))
        bundle3 = obj.LogProbBundle.triple(role, role, role)
        bundle2 = obj.LogProbBundle.pair(role, role)
        checks = [
            obj.dpo_loss(bundle2, obj.ObjectiveConfig(kind="dpo", beta=0.01)).loss,
            obj.wrpo_loss(
                bundle3, obj.ObjectiveConfig(kind="wrpo_dpo", beta=0.01, alpha=0.3)
            ).loss,
        ]
        if any(abs(c - log2) > 1e-12 for c in checks):
            return "zero-margin sigmoid loss is not log 2"
        tau = 0.01
        ipo = obj.ipo_loss(bundle2, obj.ObjectiveConfig(kind="ipo", tau=tau)).loss
        if abs(ipo - (1 / (2 * tau)) ** 2) > 1e-9:
            return "zero-margin ipo loss is not (1/(2 tau))^2"
    return None


def _check_bt_complement(rng, n) -> str | None:
    for _ in range(n):
        a, b = rng.normal(scale=10, size=2)
        if abs(obj.bt_probability(a, b) + obj.bt_probability(b, a) - 1.0) > 1e-12:
            return "bt_probability complement violated"
    return None


def _check_schedule(rng, n) -> str | None:
    for _ in range(n):
        sched = FusionSchedule(
            kind="linear",
            target=float(rng.uniform(0, 1)),
            total_steps=int(rng.integers(1, 500)),
        )
        prev = -1.0
        for step in range(0, sched.total_steps + 10, max(1, sched.total_steps // 7)):
            a = alpha_at(sched, step)
            if a < prev - 1e-15 or not 0 <= a <= sched.target + 1e-15:
                return "linear schedule not monotone within [0, target]"
            prev = a
    return None


_TOY_TASK = {
    "task": {"n_content_tokens": 6, "n_prompts": 24, "prompt_length": 2, "oracle_seed": 5},
    "ensemble": [
        {"name": "a", "sharpness": 6.0, "noise": 0.3},
        {"name": "b", "sharpness": 3.0, "noise": 0.8},
    ],
    "sampling": {"n_samples": 3, "max_length": 8},
}


def _toy_dataset(seed: int) -> pipeline.Dataset:
    return pipeline.build_dataset(load_config(overrides=_TOY_TASK, seed=seed))


def _check_selection_optimality(rng, n) -> str | None:
    data = _toy_dataset(int(rng.integers(1000)))
    for p_idx, quad in enumerate(data.quadruples):
        pool = [c for per_model in data.source_candidates.samples[p_idx] for c in per_model]
        if quad.y_ws.score != max(c.score for c in pool):
            return "y_ws is not score-maximal among source samples"
        tpool = [c for per_model in data.target_candidates.samples[p_idx] for c in per_model]
        if quad.y_wt.score != max(c.score for c in tpool):
            return "y_wt is not score-maximal among target samples"
        if quad.y_l.score != min(c.score for c in tpool):
            return "y_l is not score-minimal among target samples"
    total = sum(pct for _, _, pct in data.attribution)
    if abs(total - 100.0) > 0.01:
        return f"attribution percentages sum to {total}"
    return None


def _check_end_to_end_reduction(rng, n) -> str | None:
    quadruples = _toy_dataset(3).quadruples
    snapshot = PolicyModel.random_init(default_vocabulary(6), 2, 0.5, seed=9, frozen=True)
    opt = trainer.OptimizerConfig(kind="adam", step_size=0.05)
    common = dict(epochs=1, batch_size=8, seed=11)
    wrpo_model, wrpo_tel = trainer.run_preference_optimization(
        snapshot.copy(frozen=False),
        snapshot,
        quadruples,
        obj.ObjectiveConfig(kind="wrpo_dpo", beta=0.01),
        opt,
        schedule=FusionSchedule(kind="static", target=0.0, total_steps=1),
        **common,
    )
    dpo_model, dpo_tel = trainer.run_preference_optimization(
        snapshot.copy(frozen=False),
        snapshot,
        quadruples,
        obj.ObjectiveConfig(kind="dpo", beta=0.01),
        trainer.OptimizerConfig(kind="adam", step_size=0.05),
        **common,
    )
    if parameter_hash(wrpo_model) != parameter_hash(dpo_model):
        return "wrpo(alpha=0) final parameters differ from dpo"
    for a, b in zip(wrpo_tel.steps, dpo_tel.steps):
        if a.loss != b.loss or a.on_policy_margin != b.on_policy_margin:
            return "wrpo(alpha=0) telemetry differs from dpo"
    if len(wrpo_tel.steps) != len(dpo_tel.steps):
        return "telemetry lengths differ"
    return None


def _check_reference_immutability(rng, n) -> str | None:
    quadruples = _toy_dataset(4).quadruples
    snapshot = PolicyModel.random_init(default_vocabulary(6), 2, 0.5, seed=2, frozen=True)
    before = parameter_hash(snapshot)
    trainer.run_preference_optimization(
        snapshot.copy(frozen=False),
        snapshot,
        quadruples,
        obj.ObjectiveConfig(kind="wrpo_dpo", beta=0.01),
        trainer.OptimizerConfig(step_size=0.05),
        schedule=FusionSchedule(kind="linear", target=0.5, total_steps=10),
        epochs=1,
        batch_size=8,
        seed=0,
    )
    if parameter_hash(snapshot) != before:
        return "reference parameters changed during preference optimization"
    return None


def _check_telemetry_bookkeeping(rng, n) -> str | None:
    quadruples = _toy_dataset(5).quadruples
    snapshot = PolicyModel.random_init(default_vocabulary(6), 2, 0.5, seed=2, frozen=True)
    sched = FusionSchedule(kind="linear", target=0.4, total_steps=6)
    _, telemetry = trainer.run_preference_optimization(
        snapshot.copy(frozen=False),
        snapshot,
        quadruples,
        obj.ObjectiveConfig(kind="wrpo_dpo", beta=0.01),
        trainer.OptimizerConfig(step_size=0.05),
        schedule=sched,
        epochs=2,
        batch_size=8,
        seed=0,
    )
    expected = trainer.n_optimizer_steps(len(quadruples), 8, 2)
    if len(telemetry.steps) != expected:
        return f"{len(telemetry.steps)} step records != {expected} optimizer steps"
    for rec in telemetry.steps:
        if rec.alpha != alpha_at(sched, rec.step):
            return "alpha column does not match the schedule"
    return None


CHECKS = [
    ("softmax normalization", _check_normalization, 10, 3),
    ("policy log-prob gradient vs finite differences", _check_policy_gradient, 10, 3),
    ("sampling determinism", _check_sampling_determinism, 10, 3),
    ("wrpo endpoint reduction identities", _check_reduction_identities, 25, 5),
    ("zero-margin initialization constants", _check_initialization_constants, 50, 10),
    ("bradley-terry complement", _check_bt_complement, 1000, 100),
    ("fusion schedule monotonicity", _check_schedule, 50, 10),
    ("selection optimality and attribution", _check_selection_optimality, 1, 1),
    ("end-to-end wrpo(alpha=0) == dpo", _check_end_to_end_reduction, 1, 1),
    ("reference immutability", _check_reference_immutability, 1, 1),
    ("telemetry completeness and alpha column", _check_telemetry_bookkeeping, 1, 1),
]


def run_battery(fast: bool = False) -> int:
    rng = np.random.default_rng(20240901)
    failures = 0
    for name, fn, n_full, n_fast in CHECKS:
        detail = fn(rng, n_fast if fast else n_full)
        status = "PASS" if detail is None else f"FAIL ({detail})"
        print(f"[{'ok' if detail is None else '!!'}] {name}: {status}")
        if detail is not None:
            failures += 1
    if failures:
        print(f"{failures}/{len(CHECKS)} checks failed")
        return 1
    print(f"all {len(CHECKS)} checks passed")
    return 0

"""Training pipeline: SFT, pair regeneration, preference optimization, evals."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from microwrpo import datagen, pipeline, trainer, verify
from microwrpo import objectives as obj
from microwrpo.config import load_config
from microwrpo.errors import ConfigError, InputError, UsageError
from microwrpo.policy import (
    PackedSequences,
    PolicyModel,
    SamplingConfig,
    Sequence,
    default_vocabulary,
    sequence_log_prob,
)
from microwrpo.schedule import FusionSchedule

VOCAB = default_vocabulary(6)
SAMPLING = SamplingConfig(temperature=0.8, top_p=0.95, max_length=10, seed=3)


def toy_quadruples(seed=0, n_prompts=24, n_samples=3):
    oracle = datagen.make_oracle(VOCAB, seed=5)
    ensemble = datagen.make_source_ensemble(
        VOCAB, 2, oracle, [("sharp", 6.0, 0.3), ("noisy", 2.0, 1.0)], seed=seed
    )
    target = PolicyModel.random_init(VOCAB, 2, 0.5, seed=seed + 99, frozen=True)
    prompts = datagen.make_prompts(VOCAB, n_prompts, prompt_length=2, seed=seed)
    src = datagen.generate_candidates(ensemble, prompts, n_samples, SAMPLING, oracle)
    tgt = datagen.generate_candidates({"target": target}, prompts, n_samples, SAMPLING, oracle)
    quads, _ = datagen.assemble_quadruples(src, tgt, include_yls=True)
    return oracle, target, quads


def full_nll(model, sequences):
    return -float(np.mean([sequence_log_prob(model, seq) for seq in sequences]))


class TestOptimizer:
    def test_cosine_schedule_with_warmup(self):
        cfg = trainer.OptimizerConfig(
            kind="sgd", step_size=1.0, schedule="cosine", warmup_fraction=0.2
        )
        opt = trainer.Optimizer(cfg, (2, 2), total_steps=100)
        assert opt.lr_at(0) == pytest.approx(1.0 / 20)
        assert opt.lr_at(19) == pytest.approx(1.0)
        assert opt.lr_at(20) == pytest.approx(1.0)
        mid = 20 + (100 - 20) // 2
        assert opt.lr_at(mid) == pytest.approx(0.5, rel=1e-6)
        assert opt.lr_at(99) < 0.01

    @pytest.mark.parametrize(
        "field, value",
        [
            ("step_size", True), ("step_size", math.inf), ("step_size", "1"),
            ("warmup_fraction", False), ("warmup_fraction", "0.1"), ("warmup_fraction", math.nan),
        ],
    )
    def test_non_numbers_rejected(self, field, value):
        with pytest.raises(ConfigError):
            trainer.OptimizerConfig(**{field: value})

    def test_sgd_step(self):
        cfg = trainer.OptimizerConfig(kind="sgd", step_size=0.5)
        opt = trainer.Optimizer(cfg, (2,), total_steps=10)
        params = np.array([1.0, -1.0])
        opt.step(params, np.array([2.0, -4.0]))
        assert np.allclose(params, [0.0, 1.0])

    def test_adam_in_place_equals_the_allocating_update(self):
        cfg = trainer.OptimizerConfig(
            kind="adam", step_size=0.05, schedule="cosine", warmup_fraction=0.1
        )
        rng = np.random.default_rng(0)
        opt = trainer.Optimizer(cfg, (30, 7), total_steps=50)
        params, expected = np.zeros((30, 7)), np.zeros((30, 7))
        m = v = np.zeros((30, 7))
        for t in range(1, 51):
            grad = rng.standard_normal((30, 7)) * 10.0 ** rng.integers(-6, 3)
            lr = opt.lr_at(t - 1)
            opt.step(params, grad)
            b1, b2 = trainer.BETA1, trainer.BETA2
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * (grad * grad)
            m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
            expected -= lr * m_hat / (np.sqrt(v_hat) + trainer.EPSILON)
            assert np.array_equal(params, expected)


class TestRunSft:
    def test_zero_epochs_returns_unchanged_snapshot(self):
        _, _, quads = toy_quadruples()
        sequences = [q.y_ws.sequence for q in quads]
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1)
        snap, losses = trainer.run_sft(
            model, sequences, trainer.OptimizerConfig(), epochs=0
        )
        assert losses == []
        assert snap.frozen
        assert np.array_equal(snap.logits, model.logits)
        assert not model.frozen  # input untouched

    def test_loss_decreases_on_same_data(self):
        _, _, quads = toy_quadruples()
        sequences = [q.y_ws.sequence for q in quads]
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1)
        before = full_nll(model, sequences)
        snap, _ = trainer.run_sft(
            model,
            sequences,
            trainer.OptimizerConfig(kind="adam", step_size=0.1),
            epochs=3,
            batch_size=8,
            seed=0,
        )
        assert full_nll(snap, sequences) < before

    def test_windowed_batch_loss_decreases_on_average(self):
        _, _, quads = toy_quadruples(n_prompts=32)
        sequences = [q.y_ws.sequence for q in quads]
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=2)
        _, losses = trainer.run_sft(
            model,
            sequences,
            trainer.OptimizerConfig(kind="adam", step_size=0.05),
            epochs=50,
            batch_size=8,
            seed=0,
        )
        windows = [np.mean(losses[i : i + 50]) for i in range(0, len(losses) - 49, 50)]
        assert all(b <= a for a, b in zip(windows, windows[1:]))

    def test_single_record_memorization_reaches_entropy_floor(self):
        # A tabular model can match the record's empirical conditionals exactly;
        # the NLL floor is the summed conditional entropy of repeated contexts.
        seq = Sequence(prompt=(2, 3), response=(4, 5, 4, 3, 4, 5, VOCAB.eos_id))
        stream = (VOCAB.bos_id,) * 2 + seq.prompt + seq.response
        start = 2 + len(seq.prompt)
        transitions = Counter()
        for t, tok in enumerate(seq.response):
            ctx = stream[start + t - 2 : start + t]
            transitions[(tuple(ctx), tok)] += 1
        by_ctx = Counter()
        for (ctx, _), c in transitions.items():
            by_ctx[ctx] += c
        floor = -sum(
            c * math.log(c / by_ctx[ctx]) for (ctx, _), c in transitions.items()
        ) / len(seq.response)

        model = PolicyModel.uniform(VOCAB, order=2)
        snap, losses = trainer.run_sft(
            model,
            [seq],
            trainer.OptimizerConfig(kind="adam", step_size=0.5),
            epochs=3000,
            batch_size=1,
            seed=0,
        )
        final = -sequence_log_prob(snap, seq) / len(seq.response)
        assert final - floor <= 1e-3

    def test_empty_records_rejected(self):
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1)
        with pytest.raises(InputError):
            trainer.run_sft(model, [], trainer.OptimizerConfig())

    def test_frozen_model_rejected(self):
        _, _, quads = toy_quadruples()
        sequences = [q.y_ws.sequence for q in quads]
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1, frozen=True)
        with pytest.raises(UsageError):
            trainer.run_sft(model, sequences, trainer.OptimizerConfig())


class TestRegenerateTargetPairs:
    def setup_method(self):
        self.oracle, self.target, self.quads = toy_quadruples()
        self.snapshot = PolicyModel.random_init(VOCAB, 2, 0.5, seed=7, frozen=True)

    def test_scores_ordered_and_verified_by_rescoring(self):
        out = trainer.regenerate_target_pairs(
            self.snapshot, self.quads, 4, SAMPLING, self.oracle
        )
        for quad in out:
            assert quad.y_wt.score >= quad.y_l.score
            assert quad.y_wt.score == self.oracle.score(
                quad.prompt, quad.y_wt.sequence.response
            )
            assert quad.y_l.score == self.oracle.score(
                quad.prompt, quad.y_l.sequence.response
            )

    def test_y_ws_untouched(self):
        out = trainer.regenerate_target_pairs(
            self.snapshot, self.quads, 4, SAMPLING, self.oracle
        )
        for before, after in zip(self.quads, out):
            assert after.y_ws == before.y_ws
            assert after.y_ls == before.y_ls

    def test_single_sample_degenerate(self):
        out = trainer.regenerate_target_pairs(
            self.snapshot, self.quads, 1, SAMPLING, self.oracle
        )
        for quad in out:
            assert quad.y_wt == quad.y_l or quad.y_wt.score == quad.y_l.score

    def test_ties_pick_the_earliest_sample(self):
        # A snapshot that always emits eos at once: every sample scores the same.
        logits = np.zeros_like(self.snapshot.logits)
        logits[:, VOCAB.eos_id] = 50.0
        eos_only = PolicyModel(VOCAB, 2, logits, frozen=True)
        out = trainer.regenerate_target_pairs(eos_only, self.quads, 3, SAMPLING, self.oracle)
        assert all(q.y_wt.sample_index == q.y_l.sample_index == 0 for q in out)

    def test_deterministic(self):
        a = trainer.regenerate_target_pairs(self.snapshot, self.quads, 3, SAMPLING, self.oracle)
        b = trainer.regenerate_target_pairs(self.snapshot, self.quads, 3, SAMPLING, self.oracle)
        assert a == b

    def test_unfrozen_snapshot_rejected(self):
        with pytest.raises(UsageError):
            trainer.regenerate_target_pairs(
                self.snapshot.copy(frozen=False), self.quads, 3, SAMPLING, self.oracle
            )


class TestRunPreferenceOptimization:
    def setup_method(self):
        self.oracle, _, self.quads = toy_quadruples(n_prompts=24)
        self.snapshot = PolicyModel.random_init(VOCAB, 2, 0.5, seed=7, frozen=True)
        self.opt = trainer.OptimizerConfig(kind="adam", step_size=0.05)

    def run(self, kind="wrpo_dpo", schedule=FusionSchedule("linear", 0.5, 10), **kw):
        cfg = obj.ObjectiveConfig(
            kind=kind,
            beta=10.0 if "simpo" in kind else 0.01,
            tau=0.01,
            gamma=0.0,
            pairing=kw.pop("pairing", "on_policy"),
        )
        defaults = dict(epochs=2, batch_size=8, seed=4)
        defaults.update(kw)
        return trainer.run_preference_optimization(
            self.snapshot.copy(frozen=False),
            self.snapshot,
            self.quads,
            cfg,
            self.opt,
            schedule=schedule,
            **defaults,
        )

    def test_telemetry_completeness_and_alpha_column(self):
        assert verify.check_telemetry_bookkeeping(np.random.default_rng(4), 1) is None

    def test_reference_immutability(self):
        assert verify.check_reference_immutability(np.random.default_rng(4), 1) is None

    def test_wrpo_alpha_zero_identical_to_dpo(self):
        assert verify.check_end_to_end_reduction(np.random.default_rng(4), 1) is None

    def test_schedule_with_pair_kind_rejected(self):
        with pytest.raises(ConfigError):
            self.run(kind="dpo", schedule=FusionSchedule("linear", 0.5, 10))

    def test_wrpo_without_schedule_rejected(self):
        with pytest.raises(ConfigError):
            self.run(kind="wrpo_dpo", schedule=None)

    def test_reference_required_for_reference_kinds(self):
        with pytest.raises(InputError, match="needs a reference model"):
            trainer.run_preference_optimization(
                self.snapshot.copy(frozen=False),
                None,
                self.quads,
                obj.ObjectiveConfig(kind="dpo", beta=0.01),
                self.opt,
            )

    def test_simpo_runs_without_reference(self):
        model, tel = trainer.run_preference_optimization(
            self.snapshot.copy(frozen=False),
            None,
            self.quads,
            obj.ObjectiveConfig(kind="simpo", beta=10.0, gamma=0.5),
            self.opt,
            epochs=1,
            batch_size=8,
            seed=0,
        )
        assert len(tel.steps) == trainer.n_optimizer_steps(len(self.quads), 8, 1)

    def test_yls_kind_requires_y_ls(self):
        stripped = [
            datagen.PreferenceQuadruple(q.prompt, q.y_ws, q.y_wt, q.y_l, None)
            for q in self.quads
        ]
        with pytest.raises(InputError, match="reads y_ls"):
            trainer.run_preference_optimization(
                self.snapshot.copy(frozen=False),
                self.snapshot,
                stripped,
                obj.ObjectiveConfig(kind="wrpo_with_yls", beta=0.01),
                self.opt,
                schedule=FusionSchedule("linear", 0.5, 10),
            )

    def test_hybrid_pairing_records_hybrid_margin(self):
        _, tel = self.run(kind="dpo", schedule=None, pairing="hybrid")
        for rec in tel.steps:
            assert rec.hybrid_policy_margin is not None
            assert rec.on_policy_margin is None

    def test_telemetry_roundtrip(self, tmp_path):
        _, tel = self.run()
        tel.evals.append(trainer.EvalRecord(step=3, reward_accuracy=0.5, mean_oracle_score=0.1))
        path = tmp_path / "tel.jsonl"
        trainer.write_telemetry(path, tel)
        again = trainer.read_telemetry(path)
        assert again.steps == tel.steps
        assert again.evals == tel.evals

    def test_in_loop_eval_records(self):
        heldout, prompts = self.quads[:6], [q.prompt for q in self.quads[:4]]

        def evaluate(policy):
            scores = trainer.oracle_scores(policy, prompts, SAMPLING, self.oracle, 2, "eval-quality")
            return (
                trainer.eval_reward_accuracy(policy, self.snapshot, heldout, 0.01),
                trainer.mean_score(scores),
            )

        _, tel = self.run(epochs=1, eval_every=2, evaluate=evaluate)
        n_steps = trainer.n_optimizer_steps(len(self.quads), 8, 1)
        assert len(tel.evals) == n_steps // 2
        for rec in tel.evals:
            assert (rec.step + 1) % 2 == 0
            assert 0 <= rec.reward_accuracy <= 1
            assert math.isfinite(rec.mean_oracle_score)

    def test_last_step_eval_equals_the_final_evaluation(self, env_seed0):
        cfg, snapshot = env_seed0["cfg"], env_seed0["snapshot"]
        train, heldout = env_seed0["po_train"], env_seed0["po_heldout"]
        stage = cfg.raw["po"]
        steps = trainer.n_optimizer_steps(len(train), stage["batch_size"], stage["epochs"])
        cfg = load_config(
            overrides={"po": {"eval_holdout_fraction": 0.25, "eval_every": steps}}, seed=cfg.seed
        )
        model, tel = pipeline.run_po(cfg, snapshot, train, heldout)
        (rec,) = tel.evals
        assert rec.step == steps - 1
        metrics = pipeline.evaluate(cfg, model, snapshot, heldout, env_seed0["target_init"])
        assert rec.reward_accuracy == metrics["reward_accuracy"]
        scores = trainer.oracle_scores(
            model,
            cfg.eval_prompts(),
            cfg.sampling_config(),
            cfg.oracle(),
            cfg.raw["eval"]["samples_per_prompt"],
            "eval-quality",
        )
        assert rec.mean_oracle_score == trainer.mean_score(scores)


class TestEvalRewardAccuracy:
    def test_model_equals_ref_all_ties_accuracy_zero(self):
        _, _, quads = toy_quadruples()
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1, frozen=True)
        assert trainer.eval_reward_accuracy(model, model, quads, 0.01) == 0.0

    def test_constructed_models_reach_accuracy_one(self):
        # Upweight every y_ws transition, downweight every y_l transition.
        _, _, quads = toy_quadruples(n_prompts=3)
        ref = PolicyModel.uniform(VOCAB, order=2, frozen=True)
        model = ref.copy(frozen=False)
        for q in quads:
            rows = PackedSequences(model, [(q.y_ws.sequence,)]).rows
            for row, tok in zip(rows, q.y_ws.sequence.response):
                model.logits[row, tok] += 2.0
            rows = PackedSequences(model, [(q.y_l.sequence,)]).rows
            for row, tok in zip(rows, q.y_l.sequence.response):
                model.logits[row, tok] -= 2.0
        model.freeze()
        accuracy = trainer.eval_reward_accuracy(model, ref, quads, 0.01)
        # direct verification of the comparison for each quadruple
        for q in quads:
            r_ws = 0.01 * (
                sequence_log_prob(model, q.y_ws.sequence)
                - sequence_log_prob(ref, q.y_ws.sequence)
            )
            r_l = 0.01 * (
                sequence_log_prob(model, q.y_l.sequence)
                - sequence_log_prob(ref, q.y_l.sequence)
            )
            assert r_ws > r_l
        assert accuracy == 1.0

    def test_beta_invariance(self):
        _, _, quads = toy_quadruples()
        model = PolicyModel.random_init(VOCAB, 2, 0.8, seed=3, frozen=True)
        ref = PolicyModel.random_init(VOCAB, 2, 0.8, seed=4, frozen=True)
        accs = {
            trainer.eval_reward_accuracy(model, ref, quads, b)
            for b in (0.01, 0.5, 7.0)
        }
        assert len(accs) == 1

    def test_empty_heldout_rejected(self):
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1, frozen=True)
        with pytest.raises(InputError):
            trainer.eval_reward_accuracy(model, model, [], 0.01)


class TestEvalPolicyQuality:
    def test_self_comparison_all_ties(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1, frozen=True)
        prompts = datagen.make_prompts(VOCAB, 10, 2, seed=2)
        report = trainer.eval_policy_quality(model, model, prompts, SAMPLING, oracle, 3)
        assert report.wins == 0 and report.losses == 0
        assert report.ties == 10
        assert report.candidate_mean_score == report.baseline_mean_score

    def test_oracle_greedy_beats_uniform(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        expert_logits = datagen.expert_logit_table(VOCAB, 2, oracle, sharpness=30.0)
        expert = PolicyModel(VOCAB, 2, expert_logits, frozen=True)
        uniform = PolicyModel.uniform(VOCAB, order=2, frozen=True)
        prompts = datagen.make_prompts(VOCAB, 20, 2, seed=2)
        report = trainer.eval_policy_quality(
            expert, uniform, prompts, SAMPLING, oracle, samples_per_prompt=3
        )
        assert report.win_rate == 1.0
        assert report.candidate_mean_score > report.baseline_mean_score

    def test_deterministic(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        a = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1, frozen=True)
        b = PolicyModel.random_init(VOCAB, 2, 0.5, seed=2, frozen=True)
        prompts = datagen.make_prompts(VOCAB, 8, 2, seed=2)
        r1 = trainer.eval_policy_quality(a, b, prompts, SAMPLING, oracle, 3)
        r2 = trainer.eval_policy_quality(a, b, prompts, SAMPLING, oracle, 3)
        assert r1 == r2


def test_mean_adds_left_to_right_without_compensation():
    # 1e16 + 1.0 rounds back to 1e16; a compensated sum (builtin sum() from
    # Python 3.12) would keep the 1.0.
    assert trainer._mean([1e16, 1.0, -1e16]) == 0.0


# The per-record loop the packed batches replaced, kept as the reference they
# must equal bit for bit: one dense table per sequence, scaled per role and
# added record by record.
def _loop_log_softmax(model, rows):
    x = model.logits[rows]
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _loop_rows(model, seq):
    size, order = model.vocab.size, model.order
    stream = (model.vocab.bos_id,) * order + seq.prompt + seq.response
    powers = size ** np.arange(order - 1, -1, -1, dtype=np.int64)
    start = order + len(seq.prompt)
    windows = np.array(
        [stream[start + t - order : start + t] for t in range(len(seq.response))],
        dtype=np.int64,
    )
    return windows @ powers


def _loop_log_prob(model, seq):
    ls = _loop_log_softmax(model, _loop_rows(model, seq))
    targets = np.asarray(seq.response, dtype=np.int64)
    return float(ls[np.arange(len(targets)), targets].sum())


def _loop_log_prob_gradient(model, seq):
    rows = _loop_rows(model, seq)
    probs = np.exp(_loop_log_softmax(model, rows))
    grad = np.zeros_like(model.logits)
    np.subtract.at(grad, rows, probs)
    np.add.at(grad, (rows, np.asarray(seq.response, dtype=np.int64)), 1.0)
    return grad


_LOOP_FIELDS = {"w_s": "y_ws", "w_t": "y_wt", "l": "y_l", "l_t": "y_l", "l_s": "y_ls"}


def _loop_po_step(policy, ref, quads, batch, cfg, alpha):
    row = obj._TABLE[cfg.kind]
    fields = {**_LOOP_FIELDS, "w": {"on_policy": "y_wt", "hybrid": "y_ws"}[cfg.pairing]}
    grad = np.zeros_like(policy.logits)
    results = []
    for i in batch:
        seqs, roles = {}, {}
        for name in row.preferred + row.dispreferred:
            seq = seqs[name] = getattr(quads[i], fields[name]).sequence
            ref_lp = 0.0 if "simpo" in cfg.kind else _loop_log_prob(ref, seq)
            roles[name] = obj.RoleLogProb(_loop_log_prob(policy, seq), ref_lp, len(seq.response))
        result = obj.evaluate_loss(roles, cfg, alpha)
        g = np.zeros_like(policy.logits)
        for name, seq in seqs.items():
            g += result.grad_wrt_logps[name] * _loop_log_prob_gradient(policy, seq)
        grad += g
        results.append(result)
    return results, grad


def _loop_sft(model, sequences, opt_cfg, epochs, batch_size, seed):
    policy = model.copy(frozen=False)
    total = trainer.n_optimizer_steps(len(sequences), batch_size, epochs)
    optimizer = trainer.Optimizer(opt_cfg, policy.logits.shape, total)
    losses = []
    for batch in trainer._batches(len(sequences), batch_size, epochs, seed):
        grad = np.zeros_like(policy.logits)
        nll = 0.0
        for i in batch:
            seq = sequences[i]
            nll -= _loop_log_prob(policy, seq)
            grad -= _loop_log_prob_gradient(policy, seq)
        nll /= len(batch)
        grad /= len(batch)
        optimizer.step(policy.logits, grad)
        losses.append(nll)
    return policy, losses


def repetitive_quadruples(rng, n):
    """n records over 2 content tokens at order 2 (16 context rows), bodies of up to
    16 tokens, so that sequences visit one row many times; the first record's
    y_ws visits the row (a, a) six times."""
    vocab = default_vocabulary(2)
    a = vocab.content_ids[0]

    def scored(prompt, body, name):
        seq = Sequence(prompt=prompt, response=(*body, vocab.eos_id))
        return datagen.ScoredResponse(seq, float(rng.normal()), name, 0)

    quads = []
    for i in range(n):
        prompt = tuple(int(t) for t in rng.choice(vocab.content_ids, size=2))
        bodies = [
            tuple(int(t) for t in rng.choice(vocab.content_ids, size=int(rng.integers(0, 17))))
            for _ in range(4)
        ]
        if i == 0:
            prompt, bodies[0] = (a, a), (a,) * 5
        ws, wt, l, ls = (scored(prompt, b, name) for b, name in zip(bodies, "stts"))
        quads.append(datagen.PreferenceQuadruple(prompt, ws, wt, l, ls))
    return vocab, quads


class TestPackedBatchesEqualThePerRecordLoop:
    """Batches of 1 and of 16 (37 records: a short last batch of 5), every kind
    and pairing; floats compared with ==, never a tolerance."""

    def test_data_repeats_rows(self):
        vocab, quads = repetitive_quadruples(np.random.default_rng(0), 37)
        model = PolicyModel.uniform(vocab, 2)
        visits = Counter(PackedSequences(model, [(quads[0].y_ws.sequence,)]).rows.tolist())
        assert max(visits.values()) == 6

    @pytest.mark.parametrize("pairing", ["on_policy", "hybrid"])
    @pytest.mark.parametrize("kind", obj.KINDS)
    def test_po_step(self, kind, pairing):
        rng = np.random.default_rng(obj.KINDS.index(kind))
        vocab, quads = repetitive_quadruples(rng, 37)
        policy = PolicyModel.random_init(vocab, 2, 1.5, seed=1)
        ref = PolicyModel.random_init(vocab, 2, 1.5, seed=2, frozen=True)
        cfg, alpha = verify.random_objective_config(rng, kind)
        cfg = replace(cfg, pairing=pairing)
        packed = obj.PackedRecords(policy, ref, quads, cfg)
        for batch_size in (1, 16):
            for batch in trainer._batches(len(quads), batch_size, 1, seed=batch_size):
                results, grad = packed.loss_gradient(policy, batch, alpha)
                want_results, want_grad = _loop_po_step(policy, ref, quads, batch, cfg, alpha)
                assert results == want_results  # loss, rewards, margins, role slopes
                assert np.array_equal(grad, want_grad)
                assert not np.signbit(grad[grad == 0.0]).any()

    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_sft_run(self, batch_size):
        vocab, quads = repetitive_quadruples(np.random.default_rng(7), 37)
        sequences = [q.y_ws.sequence for q in quads]
        model = PolicyModel.random_init(vocab, 2, 1.5, seed=3)
        opt_cfg = trainer.OptimizerConfig(kind="adam", step_size=0.1)
        snap, losses = trainer.run_sft(model, sequences, opt_cfg, 2, batch_size, seed=5)
        want, want_losses = _loop_sft(model, sequences, opt_cfg, 2, batch_size, seed=5)
        assert losses == want_losses
        assert np.array_equal(snap.logits, want.logits)

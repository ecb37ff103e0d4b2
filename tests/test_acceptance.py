"""Acceptance suite: one test per criterion, one printed PASS line each.

Covers gradient exactness across the objective family, the alpha-endpoint
reduction identities (per instance and end to end), zero-margin
initialization constants, data-construction optimality, the
distribution-deviation diagnostic, margin dynamics, the alpha-sweep
accuracy trend, the policy-improvement smoke test, byte-level
determinism, and the four-role objective variant.
"""

import json
import math
from dataclasses import replace

import numpy as np

from conftest import pipeline_env
from microwrpo import cli, datagen, trainer, verify
from microwrpo import objectives as obj
from microwrpo.config import load_config
from microwrpo.policy import (
    PolicyModel,
    default_vocabulary,
    derive_seed,
    parameter_hash,
    stream_salt,
)
from microwrpo.schedule import FusionSchedule


def report(num: int, description: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {description}")


def packed_loss(packed, model, alpha):
    """The loss of a one-record PackedRecords under ``model``, without its gradient."""
    (thetas,) = packed.sequences.log_probs(model).tolist()
    roles = zip(packed.roles, thetas, packed.ref[0], packed.lengths[0])
    return obj.evaluate_loss(
        {name: obj.RoleLogProb(t, r, n) for name, t, r, n in roles}, packed.objective, alpha
    ).loss


class TestCriterion1GradientSuite:
    def test_all_kinds_match_finite_differences(self):
        # 100 random instances per kind; central differences over every
        # parameter of an order-1 table (exhaustive, not sampled).
        rng = np.random.default_rng(42)
        vocab = default_vocabulary(3)
        size = vocab.size
        h = 1e-5
        for kind in obj.KINDS:
            for _ in range(100):
                model = PolicyModel(vocab, 1, rng.standard_normal((size, size)))
                ref = PolicyModel(
                    vocab, 1, rng.standard_normal((size, size)), frozen=True
                )
                quad = verify.random_quadruple(rng, vocab)
                cfg, alpha = verify.random_objective_config(rng, kind)
                cfg = replace(cfg, pairing="on_policy" if rng.random() < 0.5 else "hybrid")
                packed = obj.PackedRecords(model, ref, [quad], cfg)
                _, grad = packed.loss_gradient(model, [0], alpha)
                flat = model.logits.ravel()
                gflat = grad.ravel()
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    up = packed_loss(packed, model, alpha)
                    flat[k] = orig - h
                    down = packed_loss(packed, model, alpha)
                    flat[k] = orig
                    fd = (up - down) / (2 * h)
                    assert abs(gflat[k] - fd) <= max(1e-7, 1e-4 * abs(fd)), (
                        f"{kind}: param {k}, analytic {gflat[k]}, fd {fd}"
                    )
        report(1, "7 objective kinds x 100 instances match central finite differences")


class TestCriterion2ReductionIdentities:
    def test_per_instance_endpoints(self):
        assert verify.check_reduction_identities(np.random.default_rng(7), 50) is None

    def test_end_to_end_telemetry_identical(self):
        env = pipeline_env(0)
        snap, quads = env["snapshot"], env["po_train"][:64]
        opt = trainer.OptimizerConfig(kind="adam", step_size=0.05)
        for hybrid_kind, pair_kind in verify.HYBRID_TO_PAIR.items():
            h_cfg = obj.ObjectiveConfig(
                kind=hybrid_kind,
                beta=10.0 if "simpo" in hybrid_kind else 0.01,
                tau=0.01,
                gamma=0.0,
            )
            p_cfg = replace(h_cfg, kind=pair_kind)
            common = dict(epochs=1, batch_size=8, seed=17)
            model_h, tel_h = trainer.run_preference_optimization(
                snap.copy(frozen=False), snap, quads, h_cfg, opt,
                schedule=FusionSchedule("static", 0.0, 1), **common,
            )
            model_p, tel_p = trainer.run_preference_optimization(
                snap.copy(frozen=False), snap, quads, p_cfg,
                trainer.OptimizerConfig(kind="adam", step_size=0.05), **common,
            )
            assert parameter_hash(model_h) == parameter_hash(model_p), hybrid_kind
            assert len(tel_h.steps) == len(tel_p.steps)
            for a, b in zip(tel_h.steps, tel_p.steps):
                assert a.loss == b.loss
                assert a.grad_norm == b.grad_norm
                assert a.on_policy_margin == b.on_policy_margin
                assert a.internal_rewards["w_t"] == b.internal_rewards["w"]
                assert a.internal_rewards["l"] == b.internal_rewards["l"]
        report(2, "wrpo endpoints reduce to the pair objectives, per instance and end to end")


class TestCriterion3InitializationConstants:
    def test_zero_margin_values(self):
        assert verify.check_initialization_constants(np.random.default_rng(3), 50) is None
        report(3, "zero-margin losses equal log 2; squared kinds equal (1/(2 tau))^2")


class TestCriterion4DataConstruction:
    def test_brute_force_rescoring_confirms_selections(self):
        cfg = load_config(seed=1).with_overrides({"task": {"n_prompts": 200}})
        oracle = cfg.oracle()
        prompts = cfg.prompts()
        ensemble = cfg.ensemble()
        assert len(prompts) == 200 and len(ensemble) == 3
        sampling = cfg.sampling_config()
        src = datagen.generate_candidates(ensemble, prompts, 5, sampling, oracle)
        target = cfg.target_init().copy(frozen=True)
        tgt = datagen.generate_candidates({"target-init": target}, prompts, 5, sampling, oracle)
        quads, attribution = datagen.assemble_quadruples(src, tgt, include_yls=True)
        ens_order = list(ensemble)
        for quad, pool, tpool in zip(quads, src, tgt):
            # independent selection: rescore every stored candidate from its
            # raw tokens and apply the (model order, sample index) tie rule
            best = None
            for cand in pool:
                score = oracle.score(quad.prompt, cand.sequence.response)
                assert score == cand.score  # stored scores are honest
                key = (-score, ens_order.index(cand.model), cand.sample_index)
                if best is None or key < best[0]:
                    best = (key, cand)
            assert quad.y_ws == best[1]
            t_scores = [oracle.score(quad.prompt, c.sequence.response) for c in tpool]
            assert quad.y_wt.score == max(t_scores)
            assert quad.y_l.score == min(t_scores)
            same = [c for c in pool if c.model == quad.y_ws.model]
            assert quad.y_ls.score == min(c.score for c in same)
        total = sum(pct for _, _, pct in attribution)
        assert abs(total - 100.0) <= 0.01
        assert [name for name, _, _ in attribution] == ens_order
        report(4, "200-prompt dataset selections confirmed by brute-force rescoring")


class TestCriterion5DistributionDeviation:
    def test_source_responses_lower_avg_logp_by_three_se(self, env_seed0):
        quads = env_seed0["quadruples"]
        assert len(quads) >= 200
        rep = datagen.distribution_deviation_report(env_seed0["target_init"], quads)
        src, tgt = rep.roles["y_ws"], rep.roles["target_origin"]
        se = math.sqrt(src.std_avg_logp**2 / src.n + tgt.std_avg_logp**2 / tgt.n)
        gap = tgt.mean_avg_logp - src.mean_avg_logp
        assert gap > 3 * se, f"gap {gap:.4f} vs 3*SE {3 * se:.4f}"
        report(
            5,
            f"source-preferred responses sit {gap / se:.1f} standard errors below "
            "target-origin responses in avg log-prob",
        )


class TestCriterion6MarginDynamics:
    def test_final_margin_ordering_and_monotone_growth(self):
        env = pipeline_env(0)
        snap, quads = env["snapshot"], env["po_train"]
        opt = trainer.OptimizerConfig(kind="adam", step_size=0.02, schedule="constant")
        common = dict(epochs=8, batch_size=8, seed=5)
        n_steps = trainer.n_optimizer_steps(len(quads), 8, 8)
        dpo = obj.ObjectiveConfig(kind="dpo", beta=0.01)
        wrpo = obj.ObjectiveConfig(kind="wrpo_dpo", beta=0.01)
        _, tel_hybrid = trainer.run_preference_optimization(
            snap.copy(frozen=False), snap, quads, replace(dpo, pairing="hybrid"), opt, **common
        )
        _, tel_wrpo = trainer.run_preference_optimization(
            snap.copy(frozen=False), snap, quads, wrpo,
            trainer.OptimizerConfig(kind="adam", step_size=0.02, schedule="constant"),
            schedule=FusionSchedule("linear", 0.5, n_steps), **common,
        )
        _, tel_on = trainer.run_preference_optimization(
            snap.copy(frozen=False), snap, quads, dpo,
            trainer.OptimizerConfig(kind="adam", step_size=0.02, schedule="constant"),
            **common,
        )

        def final_window(tel, attr):
            vals = [getattr(s, attr) for s in tel.steps]
            k = max(1, len(vals) // 10)
            return float(np.mean(vals[-k:]))

        m_hybrid = final_window(tel_hybrid, "hybrid_policy_margin")
        m_wrpo = final_window(tel_wrpo, "hybrid_policy_margin")
        m_on = final_window(tel_on, "on_policy_margin")
        assert m_hybrid > m_wrpo > m_on, (m_hybrid, m_wrpo, m_on)

        curve = [s.hybrid_policy_margin for s in tel_wrpo.steps]
        windows = [float(np.mean(curve[i : i + 50])) for i in range(0, len(curve), 50)]
        assert all(b >= a for a, b in zip(windows, windows[1:])), windows
        report(
            6,
            f"final margins ordered hybrid {m_hybrid:.3f} > wrpo {m_wrpo:.3f} > "
            f"on-policy {m_on:.3f}; wrpo margin non-decreasing over 50-step windows",
        )


class TestCriterion7AlphaSweepTrend:
    def test_reward_accuracy_non_decreasing_in_alpha(self):
        inversions = 0
        accs_by_seed = {}
        for seed in (0, 1, 2):
            env = pipeline_env(seed)
            snap, train, heldout = env["snapshot"], env["po_train"], env["po_heldout"]
            opt = trainer.OptimizerConfig(kind="adam", step_size=0.01, schedule="constant")
            n_steps = trainer.n_optimizer_steps(len(train), 8, 1)
            accs = []
            for target in (0.1, 0.5, 0.9):
                model, _ = trainer.run_preference_optimization(
                    snap.copy(frozen=False), snap, train,
                    obj.ObjectiveConfig(kind="wrpo_dpo", beta=0.01), opt,
                    schedule=FusionSchedule("linear", target, n_steps),
                    epochs=1, batch_size=8,
                    seed=derive_seed(seed, stream_salt("po")),
                )
                accs.append(trainer.eval_reward_accuracy(model, snap, heldout, 0.01))
            inversions += sum(1 for a, b in zip(accs, accs[1:]) if b < a)
            accs_by_seed[seed] = accs
        assert inversions <= 1, accs_by_seed
        report(
            7,
            f"hybrid reward accuracy non-decreasing over alpha targets "
            f"(inversions {inversions}/6 allowed 1): {accs_by_seed}",
        )


class TestCriterion8PolicyImprovement:
    def test_full_pipeline_beats_initial_model(self):
        win_rates = []
        for seed in (0, 1, 2):
            env = pipeline_env(seed)
            cfg, snap = env["cfg"], env["snapshot"]
            train = env["po_train"] + env["po_heldout"]
            n_steps = trainer.n_optimizer_steps(len(train), 16, 1)
            model, _ = trainer.run_preference_optimization(
                snap.copy(frozen=False), snap, train,
                obj.ObjectiveConfig(kind="wrpo_dpo", beta=0.01),
                cfg.optimizer_config("po"),
                schedule=FusionSchedule("linear", 0.1, n_steps),
                epochs=1, batch_size=16,
                seed=derive_seed(seed, stream_salt("po")),
            )
            prompts = cfg.eval_prompts()
            assert len(prompts) == 100
            quality = trainer.eval_policy_quality(
                model, env["target_init"], prompts, cfg.sampling_config(),
                env["oracle"], samples_per_prompt=3,
            )
            assert quality.candidate_mean_score > quality.baseline_mean_score
            assert quality.win_rate >= 0.6, f"seed {seed}: {quality}"
            win_rates.append(quality.win_rate)
        report(8, f"sft+wrpo beats the initial policy with win rates {win_rates}")


class TestCriterion9Determinism:
    def test_cli_artifacts_byte_identical(self, tmp_path):
        overrides = {
            "task": {"n_prompts": 24, "n_content_tokens": 6, "prompt_length": 2},
            "ensemble": [{"name": "solo", "sharpness": 6.0, "noise": 0.3}],
            "sampling": {"n_samples": 2, "max_length": 8},
            "po": {"eval_holdout_fraction": 0.2},
            "eval": {"n_prompts": 10},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(overrides))
        out = tmp_path / "run"
        names = [
            "config.resolved.json", "dataset.jsonl", "attribution.csv",
            "deviation.json", "target_init.json", "target_sft.json",
            "target_po.json", "sft_telemetry.jsonl", "po_telemetry.jsonl",
            "po_dataset.jsonl", "metrics.json", "sweep.csv",
            "figs/margin_dynamics__po_telemetry.csv",
            "figs/deviation_histogram.csv", "figs/alpha_sweep.csv",
        ]

        def run_all():
            assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out), "--seed", "9"]) == 0
            assert cli.main(["train", "--config", str(cfg_path), "--stage", "full", "--out", str(out), "--seed", "9"]) == 0
            assert cli.main([
                "sweep-alpha", "--config", str(cfg_path), "--out", str(out),
                "--seed", "9", "--targets", "0.5", "--kinds", "linear",
            ]) == 0
            assert cli.main([
                "export-figures", "--telemetry", str(out / "po_telemetry.jsonl"),
                "--deviation", str(out / "deviation.json"),
                "--sweep", str(out / "sweep.csv"), "--out", str(out / "figs"),
            ]) == 0
            return {name: (out / name).read_bytes() for name in names}

        first = run_all()
        second = run_all()  # rerun in place with the identical config and seed
        for name in names:
            assert first[name] == second[name], name
        report(9, f"{len(names)} artifacts byte-identical across reruns")


class TestCriterion10YlsVariant:
    def test_runs_end_to_end_and_alpha_zero_matches_dpo(self):
        env = pipeline_env(0)
        snap, quads = env["snapshot"], env["po_train"][:64]
        assert all(q.y_ls is not None for q in quads)
        opt = lambda: trainer.OptimizerConfig(kind="adam", step_size=0.05)
        common = dict(epochs=1, batch_size=8, seed=23)
        model_y, tel_y = trainer.run_preference_optimization(
            snap.copy(frozen=False), snap, quads,
            obj.ObjectiveConfig(kind="wrpo_with_yls", beta=0.01), opt(),
            schedule=FusionSchedule("static", 0.0, 1), **common,
        )
        model_d, tel_d = trainer.run_preference_optimization(
            snap.copy(frozen=False), snap, quads,
            obj.ObjectiveConfig(kind="dpo", beta=0.01, pairing="on_policy"), opt(),
            **common,
        )
        assert len(tel_y.steps) == len(tel_d.steps) > 0
        for a, b in zip(tel_y.steps, tel_d.steps):
            assert abs(a.loss - b.loss) <= 1e-12
            assert abs(a.on_policy_margin - b.on_policy_margin) <= 1e-12
        assert parameter_hash(model_y) == parameter_hash(model_d)
        # the ramped variant also trains without issue
        n_steps = trainer.n_optimizer_steps(len(quads), 8, 1)
        _, tel_ramp = trainer.run_preference_optimization(
            snap.copy(frozen=False), snap, quads,
            obj.ObjectiveConfig(kind="wrpo_with_yls", beta=0.01), opt(),
            schedule=FusionSchedule("linear", 0.3, n_steps), **common,
        )
        assert all(math.isfinite(s.loss) for s in tel_ramp.steps)
        report(10, "four-role variant runs end to end; alpha=0 telemetry matches dpo")

"""Data construction: oracle, candidates, quadruple assembly, splits, reports."""

import json
import os
import pickle
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from microwrpo import datagen, verify
from microwrpo.errors import DataError, InputError
from microwrpo.policy import (
    PolicyModel,
    SamplingConfig,
    Sequence,
    default_vocabulary,
    derive_rng,
    sample_response,
    sequence_log_prob,
    stream_salt,
)

VOCAB = default_vocabulary(6)
SAMPLING = SamplingConfig(temperature=0.8, top_p=0.95, max_length=10, seed=3)
SRC = str(Path(datagen.__file__).resolve().parents[1])

# Sets HEXES to the float.hex of oracle scores of 1- to 300-token responses, under
# weights that span 17 decades, and X86_V4 to whether numpy dispatches to that group.
ORACLE_SCORES = """
import numpy as np
from microwrpo import datagen
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
X86_V4 = __cpu_features__.get("X86_V4", False)
rng = np.random.default_rng(30)
HEXES = []
for _ in range(4):
    size = int(rng.integers(4, 12))
    weights = rng.uniform(0, 1, (size, size)) * 10.0 ** rng.integers(-8, 9, (size, size))
    oracle = datagen.BigramRewardOracle(weights, float(rng.uniform(0, 0.05)))
    for length in range(1, 301):
        HEXES.append(oracle.score((1,), tuple(rng.integers(size, size=length).tolist())).hex())
"""


def _oracle_scores(disabled: str | None = None) -> dict:
    """ORACLE_SCORES' names, run in this process, or in a fresh interpreter with
    NPY_DISABLE_CPU_FEATURES set to ``disabled``."""
    if disabled is None:
        names: dict = {}
        exec(ORACLE_SCORES, names)
        return names
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    code = ORACLE_SCORES + "import json; print(json.dumps([X86_V4, HEXES]))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    x86_v4, hexes = json.loads(out.stdout)
    return {"X86_V4": x86_v4, "HEXES": hexes}


IN_PROCESS = _oracle_scores()


def small_world(seed=0, n_prompts=20, n_samples=3, specs=None):
    oracle = datagen.make_oracle(VOCAB, seed=5)
    specs = specs or [("sharp", 6.0, 0.3), ("noisy", 2.0, 1.0)]
    ensemble = datagen.make_source_ensemble(VOCAB, 2, oracle, specs, seed=seed)
    target = PolicyModel.random_init(VOCAB, 2, 0.5, seed=seed + 99, frozen=True)
    prompts = datagen.make_prompts(VOCAB, n_prompts, prompt_length=2, seed=seed)
    src = datagen.generate_candidates(ensemble, prompts, n_samples, SAMPLING, oracle)
    tgt = datagen.generate_candidates({"target": target}, prompts, n_samples, SAMPLING, oracle)
    return oracle, ensemble, target, prompts, src, tgt


class TestOracle:
    def test_deterministic_bit_identical(self):
        oracle = datagen.make_oracle(VOCAB, seed=1)
        seq = (3, 4, 5, VOCAB.eos_id)
        scores = {oracle.score((2, 3), seq) for _ in range(10)}
        assert len(scores) == 1

    def test_length_penalty_applies(self):
        weights = np.full((VOCAB.size, VOCAB.size), 0.5)
        oracle = datagen.BigramRewardOracle(weights, length_penalty=0.1, bos_id=0)
        short = oracle.score((2,), (3, VOCAB.eos_id))
        long = oracle.score((2,), (3, 3, 3, VOCAB.eos_id))
        assert short == pytest.approx(0.5 - 0.2, rel=1e-12)
        assert long == pytest.approx(0.5 - 0.4, rel=1e-12)

    def test_empty_response_rejected(self):
        oracle = datagen.make_oracle(VOCAB, seed=1)
        with pytest.raises(InputError):
            oracle.score((2,), ())

    def test_score_equals_numpy_mean_at_every_length_to_300(self):
        assert verify.check_oracle_mean(np.random.default_rng(8), 3) is None

    @pytest.mark.skipif(
        not IN_PROCESS["X86_V4"], reason="numpy reports no X86_V4 feature group found"
    )
    @pytest.mark.parametrize("disabled", ["X86_V4", "X86_V4 X86_V3"])
    def test_scores_independent_of_numpy_simd_dispatch(self, disabled):
        child = _oracle_scores(disabled)
        assert child["X86_V4"] is False
        assert child["HEXES"] == IN_PROCESS["HEXES"]

    def test_weights_are_a_read_only_copy(self):
        weights = np.full((VOCAB.size, VOCAB.size), 0.5)
        oracle = datagen.BigramRewardOracle(weights)
        weights[:] = 0.0
        assert oracle.score((2,), (3, VOCAB.eos_id)) == 0.5 - 0.02
        with pytest.raises(ValueError):
            oracle.weights[0, 0] = 1.0


class TestMakePrompts:
    def test_distinct_and_deterministic(self):
        a = datagen.make_prompts(VOCAB, 30, prompt_length=2, seed=4)
        b = datagen.make_prompts(VOCAB, 30, prompt_length=2, seed=4)
        assert a == b
        assert len(set(a)) == 30
        for p in a:
            assert all(t in VOCAB.content_ids for t in p)

    def test_too_many_prompts_rejected(self):
        with pytest.raises(InputError):
            datagen.make_prompts(VOCAB, 37, prompt_length=2, seed=0)  # 6^2 = 36

    def test_empty_prompts_rejected(self):
        with pytest.raises(InputError, match="prompt_length"):
            datagen.make_prompts(VOCAB, 1, prompt_length=0, seed=0)

    @pytest.mark.parametrize("prompt_length", [1, 2, 3, 4])
    def test_codes_read_as_base_k_digits(self, prompt_length):
        # The whole prompt space, each permutation code decoded digit by digit.
        content = VOCAB.content_ids
        total = len(content) ** prompt_length
        expected = []
        for code in np.random.default_rng(5).permutation(total).tolist():
            digits = []
            for _ in range(prompt_length):
                code, digit = divmod(code, len(content))
                digits.append(content[digit])
            expected.append(tuple(reversed(digits)))
        assert datagen.make_prompts(VOCAB, total, prompt_length, seed=5) == expected


class TestScoredResponseRecord:
    def test_equality_hash_replace_and_pickle(self):
        r = datagen.ScoredResponse(Sequence((2,), (np.int64(3), 1)), 0.25, "m", 2)
        same = datagen.ScoredResponse(Sequence((2,), (3, 1)), 0.25, "m", 2)
        assert r == same and hash(r) == hash(same)
        assert replace(r, score=0.5) != r and replace(r, score=0.5).score == 0.5
        again = pickle.loads(pickle.dumps(r))
        assert again == r and type(again.sequence.response[0]) is int

    def test_frozen_and_slotted(self):
        r = datagen.ScoredResponse(Sequence((2,), (1,)), 0.25, "m", 2)
        with pytest.raises(FrozenInstanceError):
            r.score = 1.0
        assert not hasattr(r, "__dict__")


class TestSampleScored:
    def test_draw_p_s_uses_stream_salt_p_s(self):
        """sample_scored's draws equal draws from a fresh derive_rng Generator per
        stream, truncated ones included, also past 16 draws per stream, where
        policy.stream_uniforms takes fewer streams per block, and past 128,
        where it takes one Generator per stream."""
        oracle = datagen.make_oracle(VOCAB, seed=5)
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1, frozen=True)
        # eos made rare, so draws run past 32 tokens, some to max_length.
        rare_eos = model.logits.copy()
        rare_eos[:, VOCAB.eos_id] -= 2.0
        long_model = PolicyModel(VOCAB, 2, rare_eos, frozen=True)
        prompts = [(2, 3), (4, 5), (3, 3)]
        for model, cfg in (
            (model, SAMPLING),
            (model, replace(SAMPLING, temperature=3.0, max_length=3)),
            (long_model, replace(SAMPLING, temperature=1.0, top_p=1.0, max_length=40)),
            (long_model, replace(SAMPLING, temperature=1.0, top_p=1.0, max_length=129)),
        ):
            out = datagen.sample_scored(model, "m", prompts, 4, cfg, oracle, "salt")
            assert [len(draws) for draws in out] == [4, 4, 4]
            for p, prompt in enumerate(prompts):
                for s, r in enumerate(out[p]):
                    rng = derive_rng(cfg.seed, stream_salt("salt"), p, s)
                    assert r.sequence == sample_response(model, prompt, cfg, rng=rng)
                    assert (r.score, r.model, r.sample_index) == (
                        oracle.score(prompt, r.sequence.response), "m", s
                    )
            forced = [
                r.sequence.response[-2] != VOCAB.eos_id
                for draws in out
                for r in draws
                if len(r.sequence.response) == cfg.max_length + 1
            ]
            assert forced and all(forced)
        assert any(32 < len(r.sequence.response) <= 40 for draws in out for r in draws)

    def test_candidates_are_per_member_draws_transposed(self):
        oracle, ensemble, _, prompts, src, _ = small_world(n_prompts=4)
        per_member = [
            datagen.sample_scored(model, name, prompts, 3, SAMPLING, oracle, name)
            for name, model in ensemble.items()
        ]
        assert src == [a + b for a, b in zip(*per_member)]

    def test_zero_samples_rejected(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1, frozen=True)
        with pytest.raises(InputError):
            datagen.sample_scored(model, "m", [(2, 3)], 0, SAMPLING, oracle, "salt")


class TestGenerateCandidates:
    def test_counts(self):
        _, _, _, prompts, src, _ = small_world(n_prompts=5, n_samples=4)
        assert len(src) == 5
        for prompt, pool in zip(prompts, src):
            assert [(c.model, c.sample_index) for c in pool] == [
                (name, s) for name in ("sharp", "noisy") for s in range(4)
            ]
            assert {c.sequence.prompt for c in pool} == {prompt}

    def test_single_sample_single_member(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        member = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1, frozen=True)
        out = datagen.generate_candidates({"only": member}, [(2, 3)], 1, SAMPLING, oracle)
        assert len(out) == 1 and len(out[0]) == 1

    def test_deterministic_rerun(self):
        _, _, _, _, src1, _ = small_world(seed=2)
        _, _, _, _, src2, _ = small_world(seed=2)
        assert src1 == src2

    def test_empty_prompts_rejected(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        member = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1, frozen=True)
        with pytest.raises(InputError):
            datagen.generate_candidates({"only": member}, [], 1, SAMPLING, oracle)

    def test_empty_ensemble_rejected(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        with pytest.raises(InputError, match="at least one member"):
            datagen.generate_candidates({}, [(2, 3)], 1, SAMPLING, oracle)

    def test_unfrozen_member_rejected(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1)
        with pytest.raises(InputError, match="'x' must be frozen"):
            datagen.generate_candidates({"x": model}, [(2, 3)], 1, SAMPLING, oracle)


class TestMakeSourceEnsemble:
    def test_members_frozen_in_spec_order(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        specs = [("b", 6.0, 0.3), ("a", 2.0, 1.0)]
        members = datagen.make_source_ensemble(VOCAB, 2, oracle, specs)
        assert list(members) == ["b", "a"]
        assert all(model.frozen for model in members.values())

    def test_repeated_name_rejected(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        specs = [("a", 6.0, 0.3), ("a", 2.0, 1.0)]
        with pytest.raises(InputError, match="'a' is given twice"):
            datagen.make_source_ensemble(VOCAB, 2, oracle, specs)


class TestAssembleQuadruples:
    def test_selection_optimality_brute_force(self):
        assert verify.check_selection_optimality(np.random.default_rng(0), 1) is None

    def test_single_source_gets_full_attribution(self):
        _, _, _, _, src, tgt = small_world(specs=[("solo", 5.0, 0.5)])
        _, attribution = datagen.assemble_quadruples(src, tgt)
        assert attribution == [("solo", 20, 100.0)]

    def test_strictly_dominant_source_takes_all_wins(self):
        # One member mirrors the oracle sharply; the other inverts it.
        oracle, _, _, _, src, tgt = small_world(
            specs=[("expert", 9.0, 0.0), ("anti", -9.0, 0.0)], n_prompts=30
        )
        quads, attribution = datagen.assemble_quadruples(src, tgt)
        by_name = {name: pct for name, _, pct in attribution}
        assert by_name["expert"] == 100.0
        assert by_name["anti"] == 0.0
        # brute-force check: every winner really outscored every anti sample
        for quad, pool in zip(quads, src):
            anti = [c for c in pool if c.model == "anti"]
            assert all(quad.y_ws.score > c.score for c in anti)

    def test_tie_break_prefers_earlier_model_then_lower_index(self):
        seq = Sequence(prompt=(2,), response=(3, VOCAB.eos_id))

        def cand(model, idx, score):
            return datagen.ScoredResponse(seq, score, model, idx)

        src = [[cand("a", 0, 1.0), cand("a", 1, 1.0), cand("b", 0, 1.0)]]
        tgt = [[cand("t", 0, 0.5), cand("t", 1, 0.5)]]
        for include_yls in (False, True):
            quads, attribution = datagen.assemble_quadruples(src, tgt, include_yls)
            assert quads[0].y_ws.model == "a" and quads[0].y_ws.sample_index == 0
            assert quads[0].y_wt.sample_index == 0
            assert quads[0].y_l.sample_index == 0
            assert attribution == [("a", 1, 100.0), ("b", 0, 0.0)]
        assert quads[0].y_ls is quads[0].y_ws
        # y_ls is the earliest of the lowest scores of y_ws's model, not b's lower one.
        src = [[cand("a", 0, 1.0), cand("a", 1, 0.2), cand("a", 2, 0.2), cand("b", 0, 0.1)]]
        quads, _ = datagen.assemble_quadruples(src, tgt, include_yls=True)
        assert (quads[0].y_ls.model, quads[0].y_ls.sample_index) == ("a", 1)

    def test_identical_target_samples_keep_degenerate_pair(self):
        seq = Sequence(prompt=(2,), response=(3, VOCAB.eos_id))
        cand = lambda i: datagen.ScoredResponse(seq, 0.4, "t", i)
        src = [[datagen.ScoredResponse(seq, 1.0, "s", 0)]]
        tgt = [[cand(0), cand(1)]]
        quads, _ = datagen.assemble_quadruples(src, tgt)
        assert quads[0].y_wt.score == quads[0].y_l.score

    def test_prompt_mismatch_rejected(self):
        _, _, _, _, src, tgt = small_world(n_prompts=5)
        with pytest.raises(InputError, match="different prompts"):
            datagen.assemble_quadruples(src, tgt[::-1])

    def test_attribution_sums_to_100(self):
        _, _, _, _, src, tgt = small_world(n_prompts=23, n_samples=3)
        _, attribution = datagen.assemble_quadruples(src, tgt)
        assert sum(pct for _, _, pct in attribution) == pytest.approx(100.0, abs=0.01)

    def test_empty_pools_rejected(self):
        with pytest.raises(InputError, match="empty"):
            datagen.assemble_quadruples([], [])


class TestSplitDataset:
    def _quads(self, n):
        _, _, _, _, src, tgt = small_world(n_prompts=n)
        quads, _ = datagen.assemble_quadruples(src, tgt)
        return quads

    def test_floor_arithmetic_300_records(self):
        quads = self._quads_300()
        sft_part, po_part = datagen.split_dataset(quads, 1.0 / 3.0, seed=0)
        assert len(sft_part) == 100
        assert len(po_part) == 200

    def _quads_300(self):
        # synthetic quadruples; splitting only looks at prompts
        seqs = datagen.make_prompts(default_vocabulary(8), 300, 3, seed=1)
        out = []
        for p in seqs:
            sr = datagen.ScoredResponse(
                Sequence(prompt=p, response=(2, default_vocabulary(8).eos_id)),
                1.0,
                "m",
                0,
            )
            out.append(datagen.PreferenceQuadruple(p, sr, sr, sr))
        return out

    def test_disjoint_prompts(self):
        quads = self._quads(20)
        sft_part, po_part = datagen.split_dataset(quads, 0.3, seed=1)
        sft_prompts = {q.prompt for q in sft_part}
        po_prompts = {q.prompt for q in po_part}
        assert sft_prompts.isdisjoint(po_prompts)
        assert len(sft_prompts) + len(po_prompts) == 20

    def test_same_seed_same_split(self):
        quads = self._quads(20)
        a = datagen.split_dataset(quads, 0.3, seed=9)
        b = datagen.split_dataset(quads, 0.3, seed=9)
        assert a == b

    def test_bad_fraction_rejected(self):
        quads = self._quads(10)
        for frac in (0.0, 1.0, -0.2):
            with pytest.raises(InputError):
                datagen.split_dataset(quads, frac, seed=0)

    def test_too_few_records_rejected(self):
        with pytest.raises(InputError):
            datagen.split_dataset(self._quads(5)[:1], 0.5, seed=0)

    def test_repeated_prompt_rejected(self):
        quads = self._quads(5)
        with pytest.raises(DataError, match="duplicate prompts"):
            datagen.split_dataset(quads + quads[:1], 0.5, seed=0)


class TestDeviationReport:
    def test_source_samples_lower_avg_logp_under_shifted_target(self):
        # ensemble fitted to the oracle vs a random target: the target model
        # assigns lower per-token log-prob to source-preferred responses
        oracle, _, target, _, src, tgt = small_world(n_prompts=30, n_samples=4)
        quads, _ = datagen.assemble_quadruples(src, tgt)
        report = datagen.distribution_deviation_report(target, quads)
        assert (
            report.roles["y_ws"].mean_avg_logp
            < report.roles["target_origin"].mean_avg_logp
        )
        # verify one role mean by direct recomputation
        direct = np.mean(
            [sequence_log_prob(target, q.y_ws.sequence) / len(q.y_ws.sequence) for q in quads]
        )
        assert report.roles["y_ws"].mean_avg_logp == pytest.approx(direct, rel=1e-12)

    def test_identical_models_agree_within_three_se(self):
        oracle = datagen.make_oracle(VOCAB, seed=5)
        model = PolicyModel.random_init(VOCAB, 2, 0.5, seed=1, frozen=True)
        prompts = datagen.make_prompts(VOCAB, 30, 2, seed=8)
        mk = lambda name: datagen.generate_candidates({name: model}, prompts, 4, SAMPLING, oracle)
        quads, _ = datagen.assemble_quadruples(mk("as-source"), mk("as-target"))
        report = datagen.distribution_deviation_report(model, quads)
        s, t = report.roles["y_ws"], report.roles["target_origin"]
        se = (s.std_avg_logp**2 / s.n + t.std_avg_logp**2 / t.n) ** 0.5
        assert abs(s.mean_avg_logp - t.mean_avg_logp) <= 3 * se

    def test_greedy_sequence_takes_per_step_argmax(self):
        # near-zero top_p degenerates to greedy; each step picks the argmax token
        model = PolicyModel.random_init(VOCAB, 2, 1.0, seed=4, frozen=True)
        greedy = sample_response(
            model, (2, 3), SamplingConfig(temperature=1.0, top_p=1e-12, max_length=6, seed=0)
        )
        stream = (VOCAB.bos_id,) * 2 + greedy.prompt + greedy.response
        start = 2 + len(greedy.prompt)
        for t, tok in enumerate(greedy.response[:-1]):
            row = stream[start + t - 2] * VOCAB.size + stream[start + t - 1]
            assert tok == int(np.argmax(model.logits[row]))

    def test_histogram_counts_match_totals(self):
        _, _, target, _, src, tgt = small_world(n_prompts=15)
        quads, _ = datagen.assemble_quadruples(src, tgt, include_yls=True)
        report = datagen.distribution_deviation_report(target, quads, bins=12)
        for name, stats in report.roles.items():
            assert sum(stats.histogram) == stats.n
        assert len(report.bin_edges) == 13

    def test_four_role_score_means_exposed(self):
        _, _, target, _, src, tgt = small_world(n_prompts=15)
        quads, _ = datagen.assemble_quadruples(src, tgt, include_yls=True)
        report = datagen.distribution_deviation_report(target, quads)
        for role in ("y_ws", "y_wt", "y_l", "y_ls"):
            assert role in report.roles
            assert np.isfinite(report.roles[role].mean_score)


class TestJsonlRoundTrip:
    def test_roundtrip_and_byte_identical_rewrite(self, tmp_path):
        _, _, _, _, src, tgt = small_world(n_prompts=12)
        quads, _ = datagen.assemble_quadruples(src, tgt, include_yls=True)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        datagen.write_quadruples(p1, quads)
        again = datagen.read_quadruples(p1, VOCAB)
        assert again == quads
        datagen.write_quadruples(p2, again)
        assert p1.read_bytes() == p2.read_bytes()

    def test_repeated_prompt_names_its_line(self, tmp_path):
        _, _, _, _, src, tgt = small_world(n_prompts=3)
        quads, _ = datagen.assemble_quadruples(src, tgt)
        path = tmp_path / "d.jsonl"
        datagen.write_quadruples(path, [*quads, quads[1]])
        with pytest.raises(DataError, match=r"d.jsonl:4: prompt \[.*\] repeats line 2"):
            datagen.read_quadruples(path, VOCAB)

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema_version": 99}\n')
        from microwrpo.errors import DataError

        with pytest.raises(DataError):
            datagen.read_quadruples(path, VOCAB)


TYPE_ERROR = "{} must be a non-empty list of token ids"
RANGE_ERROR = f"{{}} has a token id outside the vocabulary of size {VOCAB.size}"


def _tokens(role, tokens):
    """An edit that sets the prompt, or a role's tokens, to ``tokens``."""

    def edit(record):
        if role == "prompt":
            record["prompt"] = tokens
        else:
            record[role]["tokens"] = tokens

    return edit


class TestReadTokenLists:
    """read_quadruples' token checks: the messages, and which of several faults a
    record reports, field by field in the order prompt, y_ws, y_wt, y_l, y_ls."""

    @pytest.fixture(scope="class")
    def record(self, tmp_path_factory):
        _, _, _, _, src, tgt = small_world(n_prompts=4)
        quads, _ = datagen.assemble_quadruples(src, tgt, include_yls=True)
        path = tmp_path_factory.mktemp("tokens") / "d.jsonl"
        datagen.write_quadruples(path, quads[:1])
        return json.loads(path.read_text())

    def _read(self, tmp_path, record, *edits):
        record = json.loads(json.dumps(record))
        for edit in edits:
            edit(record)
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(record) + "\n")
        return datagen.read_quadruples(path, VOCAB)

    @pytest.mark.parametrize("role", ["prompt", "y_ws", "y_wt", "y_l", "y_ls"])
    @pytest.mark.parametrize(
        "tokens, error",
        [
            ([True, 3], TYPE_ERROR),
            ([3, False], TYPE_ERROR),
            ([2.0, 3], TYPE_ERROR),
            ([3, 1.5], TYPE_ERROR),
            ([-1, 3], TYPE_ERROR),
            ([3, -(2**70)], TYPE_ERROR),
            ([3, "4"], TYPE_ERROR),
            ([3, None], TYPE_ERROR),
            ([], TYPE_ERROR),
            ({"0": 3}, TYPE_ERROR),
            ([3, VOCAB.size], RANGE_ERROR),
            ([2**70, 3], RANGE_ERROR),
        ],
        ids=[
            "bool", "false", "int-valued-float", "float", "negative", "huge-negative", "str",
            "null", "empty", "object", "vocab-size", "huge",
        ],
    )
    def test_bad_token_list(self, tmp_path, record, role, tokens, error):
        field = role if role == "prompt" else f"{role}.tokens"
        with pytest.raises(DataError, match=re.escape(":1: " + error.format(field)) + "$"):
            self._read(tmp_path, record, _tokens(role, tokens))

    def test_largest_token_id_read(self, tmp_path, record):
        top = VOCAB.size - 1
        edits = _tokens("prompt", [0, top]), _tokens("y_l", [top, VOCAB.eos_id])
        quad = self._read(tmp_path, record, *edits)
        assert quad[0].prompt == (0, top) and quad[0].y_l.sequence.response == (top, VOCAB.eos_id)

    @pytest.mark.parametrize("role", ["y_ws", "y_wt", "y_l", "y_ls"])
    @pytest.mark.parametrize("tokens", [[3], [VOCAB.eos_id, 3]], ids=["no-eos", "eos-not-last"])
    def test_response_must_end_in_eos(self, tmp_path, record, role, tokens):
        with pytest.raises(DataError, match=re.escape(f":1: {role}.tokens must end in eos") + "$"):
            self._read(tmp_path, record, _tokens(role, tokens))

    @pytest.mark.parametrize(
        "edits, error",
        [
            # Every field of a role is type-checked before its tokens' range.
            (
                [_tokens("y_ws", [VOCAB.size]), lambda r: r["y_ws"].update(score="x")],
                "y_ws.score must be a finite number",
            ),
            (
                [_tokens("y_ws", [True]), lambda r: r["y_ws"].update(score="x")],
                TYPE_ERROR.format("y_ws.tokens"),
            ),
            # The prompt, then each role in turn, is checked whole.
            (
                [_tokens("prompt", [VOCAB.size]), _tokens("y_ws", [-1])],
                RANGE_ERROR.format("prompt"),
            ),
            (
                [_tokens("y_wt", [VOCAB.size]), _tokens("y_l", [1.0])],
                RANGE_ERROR.format("y_wt.tokens"),
            ),
            (
                [_tokens("y_l", [True]), _tokens("y_ls", [VOCAB.size])],
                TYPE_ERROR.format("y_l.tokens"),
            ),
            # A role's range is checked before its final eos.
            ([_tokens("y_ws", [VOCAB.size, 3])], RANGE_ERROR.format("y_ws.tokens")),
            (
                [_tokens("y_ws", [3]), _tokens("y_wt", [VOCAB.size])],
                "y_ws.tokens must end in eos",
            ),
        ],
        ids=["range-after-score", "type-before-score", "prompt-first", "y_wt-before-y_l",
             "y_l-before-y_ls", "range-before-eos", "y_ws-eos-before-y_wt"],
    )
    def test_first_fault_reported(self, tmp_path, record, edits, error):
        with pytest.raises(DataError, match=re.escape(":1: " + error) + "$"):
            self._read(tmp_path, record, *edits)

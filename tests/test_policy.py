"""Policy substrate: log-probs, gradients, sampling, serialization."""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from microwrpo import policy, verify
from microwrpo.errors import InputError, UsageError
from microwrpo.policy import (
    NucleusRows,
    PackedSequences,
    PolicyModel,
    SamplingConfig,
    Sequence,
    Vocabulary,
    default_vocabulary,
    derive_rng,
    derive_seed,
    load_checkpoint,
    log_prob_gradient,
    parameter_hash,
    sample_response,
    save_checkpoint,
    sequence_log_prob,
    stream_salt,
    stream_uniforms,
)

VOCAB4 = Vocabulary(tokens=("<bos>", "<eos>", "a", "b"))


def brute_force_log_prob(model, seq):
    """Independent per-step softmax enumeration (no shared code paths)."""
    order, size = model.order, model.vocab.size
    stream = [model.vocab.bos_id] * order + list(seq.prompt) + list(seq.response)
    total = 0.0
    for t, tok in enumerate(seq.response):
        pos = order + len(seq.prompt) + t
        row = 0
        for c in stream[pos - order : pos]:
            row = row * size + c
        logits = model.logits[row]
        exps = [math.exp(x - max(logits)) for x in logits]
        total += math.log(exps[tok] / sum(exps))
    return total


def choice_sample(model, prompt, cfg, rng):
    """The per-step nucleus loop drawing through Generator.choice, kept as the
    reference the row-table sampler must match draw for draw."""
    size, order = model.vocab.size, model.order
    window = list(((model.vocab.bos_id,) * order + tuple(prompt))[-order:])
    powers = size ** np.arange(order - 1, -1, -1, dtype=np.int64)
    response = []
    while len(response) < cfg.max_length:
        row = int(np.asarray(window, dtype=np.int64) @ powers)
        scaled = model.logits[row] / cfg.temperature
        probs = np.exp(scaled - scaled.max())
        probs /= probs.sum()
        ranked = np.argsort(-probs, kind="stable")
        cum = np.cumsum(probs[ranked])
        kept = ranked[: min(int(np.searchsorted(cum, cfg.top_p, side="left")) + 1, size)]
        kept_p = probs[kept]
        tok = int(rng.choice(kept, p=kept_p / kept_p.sum()))
        response.append(tok)
        window = window[1:] + [tok]
        if tok == model.vocab.eos_id:
            break
    if response[-1] != model.vocab.eos_id:
        response.append(model.vocab.eos_id)
    return tuple(response)


def random_model(seed, vocab=VOCAB4, order=2, scale=1.0):
    return PolicyModel.random_init(vocab, order=order, scale=scale, seed=seed)


class TestVocabulary:
    def test_requires_four_distinct_tokens(self):
        with pytest.raises(InputError):
            Vocabulary(tokens=("<bos>", "<eos>", "a"))
        with pytest.raises(InputError):
            Vocabulary(tokens=("<bos>", "<eos>", "a", "a"))

    def test_markers_must_be_members(self):
        with pytest.raises(InputError):
            Vocabulary(tokens=("x", "y", "z", "w"))

    def test_indices_stable_across_roundtrip(self):
        vocab = default_vocabulary(5)
        again = Vocabulary.from_dict(vocab.to_dict())
        assert again == vocab
        assert again.eos_id == vocab.eos_id


class TestSequenceRecord:
    def test_tokens_become_python_ints(self):
        seq = Sequence(prompt=np.array([2, 3]), response=[np.int64(3), np.int64(1)])
        assert seq == Sequence((2, 3), (3, 1))
        assert all(type(t) is int for t in (*seq.prompt, *seq.response))

    def test_equality_hash_and_replace(self):
        seq = Sequence((2,), (3, 1))
        assert seq == Sequence([2], [3, 1]) and hash(seq) == hash(Sequence([2], [3, 1]))
        assert seq != Sequence((2,), (1,))
        assert dataclasses.replace(seq, response=[np.int64(1)]) == Sequence((2,), (1,))
        with pytest.raises(InputError):
            dataclasses.replace(seq, response=())

    def test_frozen_and_slotted(self):
        seq = Sequence((2,), (3, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            seq.prompt = (3,)
        assert not hasattr(seq, "__dict__")

    def test_pickle_round_trip(self):
        seq = Sequence((2, 3), (3, 2, 1))
        again = pickle.loads(pickle.dumps(seq))
        assert again == seq and hash(again) == hash(seq)

    def test_sampled_sequence_equals_a_constructed_one(self):
        model, cfg = random_model(5), SamplingConfig(0.8, 0.9, 6, 1)
        seq = sample_response(model, np.array([2, 3]), cfg)
        made = Sequence(seq.prompt, seq.response)
        assert seq == made and hash(seq) == hash(made) and pickle.loads(pickle.dumps(seq)) == made
        assert all(type(t) is int for t in (*seq.prompt, *seq.response))


class TestPacking:
    def test_equals_per_position_loop(self):
        assert verify.check_packed_sequences(np.random.default_rng(11), 200) is None

    def test_markers_anywhere_and_prompts_shorter_than_the_order(self):
        # bos at index 3: a short prompt's padding is token 3, not 0.
        vocab = Vocabulary(tokens=("a", "<eos>", "b", "<bos>"))
        model = PolicyModel.uniform(vocab, order=3)
        groups = [(Sequence((), (2, 1)), Sequence((0,), (1,))), (Sequence((2, 0, 2, 0), (0, 1)),) * 2]
        packed = PackedSequences(model, groups)
        assert packed.rows.tolist() == [63, 62, 60, 8, 32, 8, 32]
        assert packed.slots.tolist() == [0, 1, 2, 0, 1, 0, 1]
        assert [d.tolist() for d in packed.distinct] == [[63, 62, 60], [8, 32]]
        assert verify.packing_mismatch(model, groups) is None

    def test_bad_token_before_a_short_group_is_the_first_error(self):
        model, eos = PolicyModel.uniform(VOCAB4, 1), VOCAB4.eos_id
        good, bad = Sequence((2,), (3, eos)), Sequence((2,), (7, eos))
        with pytest.raises(InputError, match="token index 7 outside vocabulary of size 4"):
            PackedSequences(model, [(good, good), (good, bad), (good,)])
        with pytest.raises(InputError, match="same number of sequences"):
            PackedSequences(model, [(good, good), (good,), (good, bad)])
        with pytest.raises(InputError, match="token index -1 outside"):
            PackedSequences(model, [(good, Sequence((-1,), (2,)))])
        with pytest.raises(InputError, match="terminate in eos"):
            PackedSequences(model, [(good, Sequence((2,), (2,))), (good, bad)])

    def test_no_groups_and_empty_groups(self):
        model = PolicyModel.uniform(VOCAB4, 2)
        for groups in ([], [(), ()]):
            packed = PackedSequences(model, groups)
            assert len(packed) == len(groups) and packed.width == 0
            assert packed.rows.size == packed.lengths.size == 0
            assert verify.packing_mismatch(model, groups) is None


class TestSequenceLogProb:
    def test_uniform_model_vocab4_length3(self):
        model = PolicyModel.uniform(VOCAB4, order=2)
        seq = Sequence(prompt=(2,), response=(3, 2, VOCAB4.eos_id))
        got = sequence_log_prob(model, seq)
        assert got == pytest.approx(3 * math.log(1 / 4), rel=1e-12)
        assert got == pytest.approx(-4.158883, abs=1e-6)

    def test_single_eos_response_is_context_log_prob(self):
        model = random_model(3)
        seq = Sequence(prompt=(2, 3), response=(VOCAB4.eos_id,))
        row_logits = model.logits[2 * 4 + 3]
        exps = np.exp(row_logits - row_logits.max())
        q = exps[VOCAB4.eos_id] / exps.sum()
        assert sequence_log_prob(model, seq) == pytest.approx(math.log(q), rel=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for i in range(50):
            model = random_model(i, order=int(rng.integers(1, 4)))
            seq = verify.random_sequence(rng, VOCAB4)
            assert sequence_log_prob(model, seq) == pytest.approx(
                brute_force_log_prob(model, seq), rel=1e-12, abs=1e-12
            )

    def test_always_finite(self):
        model = random_model(0, scale=30.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert math.isfinite(sequence_log_prob(model, verify.random_sequence(rng, VOCAB4)))

    def test_out_of_range_token_rejected(self):
        model = PolicyModel.uniform(VOCAB4)
        with pytest.raises(InputError):
            sequence_log_prob(model, Sequence(prompt=(9,), response=(VOCAB4.eos_id,)))

    def test_empty_response_rejected(self):
        with pytest.raises(InputError):
            Sequence(prompt=(1,), response=())

    def test_response_must_end_in_eos(self):
        model = PolicyModel.uniform(VOCAB4)
        with pytest.raises(InputError):
            sequence_log_prob(model, Sequence(prompt=(2,), response=(2, 3)))


class TestLogProbGradient:
    def test_single_step_closed_form(self):
        # d log softmax_y / d logit_j = 1[j == y] - softmax_j at the visited row.
        model = random_model(2)
        seq = Sequence(prompt=(3, 2), response=(VOCAB4.eos_id,))
        grad = log_prob_gradient(model, seq)
        row = 3 * 4 + 2
        logits = model.logits[row]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        onehot = np.eye(4)[VOCAB4.eos_id]
        assert np.allclose(grad[row], onehot - probs, atol=1e-12)
        mask = np.ones(len(grad), dtype=bool)
        mask[row] = False
        assert np.all(grad[mask] == 0.0)

    def test_matches_finite_differences_100_pairs(self):
        assert verify.check_policy_gradient(np.random.default_rng(13), 100) is None

    def test_unvisited_contexts_exactly_zero(self):
        model = random_model(4)
        seq = Sequence(prompt=(2,), response=(3, VOCAB4.eos_id))
        grad = log_prob_gradient(model, seq)
        visited = {(0 * 4 + 2), (2 * 4 + 3)}  # bos-pad then (2,3) windows
        for row in range(grad.shape[0]):
            if row not in visited:
                assert np.all(grad[row] == 0.0)

    def test_frozen_model_rejected(self):
        model = random_model(4)
        model.freeze()
        with pytest.raises(UsageError):
            log_prob_gradient(model, Sequence(prompt=(2,), response=(VOCAB4.eos_id,)))


class TestSampling:
    def test_deterministic_given_seed(self):
        assert verify.check_sampling_determinism(np.random.default_rng(21), 1) is None

    def test_dominant_token_with_smaller_top_p_is_always_emitted(self):
        # One token holds 0.97 mass; top_p = 0.95 keeps a nucleus of size 1.
        logits = np.zeros((16, 4))
        logits[:, 2] = math.log(0.97 / 0.01)
        model = PolicyModel(VOCAB4, order=2, logits=logits)
        cfg = SamplingConfig(temperature=1.0, top_p=0.95, max_length=1, seed=0)
        for seed in range(50):
            seq = sample_response(model, (3,), SamplingConfig(1.0, 0.95, 1, seed))
            assert seq.response[0] == 2

    def test_max_length_truncation_appends_eos(self):
        logits = np.zeros((16, 4))
        logits[:, 2] = 50.0  # never samples eos on its own
        model = PolicyModel(VOCAB4, order=2, logits=logits)
        seq = sample_response(model, (3,), SamplingConfig(1.0, 1.0, 5, 3))
        assert len(seq.response) == 6
        assert seq.response[-1] == VOCAB4.eos_id
        assert all(t == 2 for t in seq.response[:-1])

    def test_top_p_one_matches_softmax_law(self):
        # 50k first-token draws vs the softmax distribution, 3 SE per token.
        model = random_model(31)
        prompt = (2, 3)
        row = 2 * 4 + 3
        logits = model.logits[row] / 1.0
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        n = 50_000
        counts = np.zeros(4)
        cfg = SamplingConfig(1.0, 1.0, 1, 0)
        rows = NucleusRows(model, cfg)
        for seed in range(n):
            seq = sample_response(model, prompt, cfg, rng=np.random.default_rng(seed), rows=rows)
            counts[seq.response[0]] += 1
        freq = counts / n
        se = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) <= 3 * se + 1e-12)

    def test_nucleus_tie_break_prefers_lower_index(self):
        # Two tokens tie exactly astride the cutoff; the lower index enters.
        logits = np.zeros((16, 4))
        model = PolicyModel(VOCAB4, order=2, logits=logits)
        # uniform probs 0.25 each; top_p=0.5 keeps exactly tokens {0, 1}
        seen = set()
        for seed in range(200):
            seq = sample_response(model, (2,), SamplingConfig(1.0, 0.5, 1, seed))
            seen.add(seq.response[0])
        assert seen == {0, 1}

    def test_draw_for_draw_equal_to_generator_choice(self):
        # Random vocabularies, orders, prompts and configs; a third of the models have
        # integer logits, so exact probability ties meet the nucleus cut-off.
        rng = np.random.default_rng(8)
        for trial in range(2000):
            vocab = default_vocabulary(int(rng.integers(2, 9)))
            model = random_model(trial, vocab, int(rng.integers(1, 4)), float(rng.uniform(0.1, 4)))
            if trial % 3 == 0:
                model.logits = np.round(model.logits)
            prompt = tuple(rng.choice(vocab.content_ids, size=int(rng.integers(0, 4))))
            cfg = SamplingConfig(
                temperature=float(rng.uniform(0.05, 3)),
                top_p=float(np.exp(rng.uniform(np.log(1e-6), 0))),
                max_length=int(rng.integers(1, 20)),
            )
            ours, ref = np.random.default_rng(trial), np.random.default_rng(trial)
            seq = sample_response(model, prompt, cfg, rng=ours)
            assert seq.response == choice_sample(model, prompt, cfg, ref), trial
            assert ours.bit_generator.state == ref.bit_generator.state, trial

    def test_rows_of_another_model_or_config_rejected(self):
        model, cfg = random_model(5), SamplingConfig(0.8, 0.9, 6, 1)
        for rows in (
            NucleusRows(random_model(5), cfg),
            NucleusRows(model, SamplingConfig(0.7, 0.9, 6, 1)),
        ):
            with pytest.raises(UsageError):
                sample_response(model, (2,), cfg, rows=rows)
        rows = NucleusRows(model, cfg)
        assert sample_response(model, (2,), cfg, rows=rows) == sample_response(model, (2,), cfg)

    def test_rows_of_an_equal_but_distinct_config_accepted(self):
        model, cfg = random_model(5), SamplingConfig(0.8, 0.9, 6, 1)
        rows = NucleusRows(model, SamplingConfig(0.8, 0.9, 6, 1))
        assert rows.cfg is not cfg
        assert sample_response(model, (2,), cfg, rows=rows) == sample_response(model, (2,), cfg)

    @pytest.mark.parametrize("bad", [-1, -(2**70), 4, 2**70])
    def test_prompt_token_outside_vocabulary_rejected(self, bad):
        model, cfg = random_model(5), SamplingConfig(0.8, 0.9, 6, 1)
        message = f"prompt token {bad} outside vocabulary of size 4"
        for rows in (None, NucleusRows(model, cfg)):
            with pytest.raises(InputError, match=re.escape(message)):
                sample_response(model, (2, np.int64(3), bad, -5), cfg, rows=rows)

    def test_prompt_forms_through_a_shared_table_equal_fresh_tables(self):
        model, cfg = random_model(5, order=3), SamplingConfig(1.2, 0.95, 8, 1)
        shared = NucleusRows(model, cfg)
        # The numpy form comes first, so it is the key the map stores.
        forms = [tuple(map(np.int64, (3, 2, 3, 3))), (3, 2, 3, 3), [3, 2, 3, 3], (), (2,), [2]]
        for _ in range(2):  # the second round finds every prompt in the table's prompt map
            for seed, prompt in enumerate(forms):
                seq = sample_response(
                    model, prompt, cfg, rng=np.random.default_rng(seed), rows=shared
                )
                fresh = sample_response(
                    model, tuple(prompt), cfg, rng=np.random.default_rng(seed), rows=None
                )
                assert seq == fresh
                assert seq.prompt == tuple(int(tok) for tok in prompt)
                assert all(type(tok) is int for tok in seq.prompt)
        assert set(shared.prompts) == {(3, 2, 3, 3), (), (2,)}

    def test_out_of_range_prompt_raises_on_every_call_through_a_shared_table(self):
        model, cfg = random_model(5), SamplingConfig(0.8, 0.9, 6, 1)
        rows = NucleusRows(model, cfg)
        for prompt in [(2, 4)] * 3 + [(np.int64(-1),)] * 3:
            with pytest.raises(InputError, match="outside vocabulary of size 4"):
                sample_response(model, prompt, cfg, rows=rows)
        assert rows.prompts == {}

    def test_shared_table_draw_for_draw_equal_to_generator_choice(self):
        # One table per model, many draws of a few prompts through it, so later
        # draws find their prompt and their rows already in the table.
        rng = np.random.default_rng(10)
        for trial in range(300):
            vocab = default_vocabulary(int(rng.integers(2, 9)))
            model = random_model(trial, vocab, int(rng.integers(1, 4)), float(rng.uniform(0.1, 4)))
            if trial % 3 == 0:
                model.logits = np.round(model.logits)
            cfg = SamplingConfig(
                temperature=float(rng.uniform(0.05, 3)),
                top_p=float(np.exp(rng.uniform(np.log(1e-6), 0))),
                max_length=int(rng.integers(1, 20)),
            )
            prompts = [
                tuple(rng.choice(vocab.content_ids, size=int(rng.integers(0, 4))).tolist())
                for _ in range(3)
            ]
            rows = NucleusRows(model, cfg)
            for draw in range(6):
                prompt, seed = prompts[draw % 3], trial * 6 + draw
                seq = sample_response(model, prompt, cfg, rng=np.random.default_rng(seed), rows=rows)
                ref = choice_sample(model, prompt, cfg, np.random.default_rng(seed))
                assert seq.response == ref, (trial, draw)

    def test_markers_anywhere_draw_for_draw_equal_to_generator_choice(self):
        # bos and eos at any index, so the bos padding of short prompts is not row 0.
        rng = np.random.default_rng(9)
        for trial in range(300):
            tokens = default_vocabulary(int(rng.integers(2, 9))).tokens
            vocab = Vocabulary(tuple(rng.permutation(tokens).tolist()))
            model = random_model(trial, vocab, int(rng.integers(1, 4)), float(rng.uniform(0.1, 4)))
            prompt = tuple(rng.integers(vocab.size, size=int(rng.integers(0, 4))).tolist())
            cfg = SamplingConfig(float(rng.uniform(0.3, 3)), float(rng.uniform(0.5, 1)), 8)
            seq = sample_response(model, prompt, cfg, rng=np.random.default_rng(trial))
            assert seq.response == choice_sample(model, prompt, cfg, np.random.default_rng(trial))

    def test_overflowing_logits_rejected(self):
        logits = np.full((16, 4), 1e308)
        model = PolicyModel(VOCAB4, order=2, logits=logits)
        with pytest.raises(InputError):
            sample_response(model, (2,), SamplingConfig(0.5, 0.95, 4, 0))

    def test_invalid_config_rejected(self):
        with pytest.raises(InputError):
            SamplingConfig(temperature=0.0)
        with pytest.raises(InputError):
            SamplingConfig(top_p=0.0)
        with pytest.raises(InputError):
            SamplingConfig(top_p=1.2)
        with pytest.raises(InputError):
            SamplingConfig(max_length=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_length", 2.5),
            ("max_length", 3.0),
            ("max_length", True),
            ("max_length", "4"),
            ("seed", 1.5),
            ("seed", False),
            ("seed", None),
        ],
    )
    def test_bool_or_non_integer_length_or_seed_rejected(self, field, value):
        with pytest.raises(InputError):
            SamplingConfig(**{field: value})

    @pytest.mark.parametrize("field", ["temperature", "top_p"])
    @pytest.mark.parametrize("value", [True, "2", None, math.nan])
    def test_bool_or_non_number_temperature_or_top_p_rejected(self, field, value):
        with pytest.raises(InputError):
            SamplingConfig(**{field: value})

    def test_nucleus_table_equals_per_row_pass(self):
        assert verify.check_nucleus_table(np.random.default_rng(17), 12) is None

    def test_overflowing_row_raises_only_when_visited(self):
        # Order 1: row r follows token r. 1e308 / 0.5 overflows row "b" only, and
        # the nucleus of every other row leaves "b" out, so only a prompt ending
        # in "b" reaches that row.
        model = random_model(9, order=1)
        model.logits[:, 3] = -50.0
        model.logits[3] = 1e308
        cfg = SamplingConfig(temperature=0.5, top_p=0.9, max_length=6)
        rows = NucleusRows(model, cfg)
        for seed in range(20):
            seq = sample_response(model, (2,), cfg, rng=np.random.default_rng(seed), rows=rows)
            assert seq.response == choice_sample(model, (2,), cfg, np.random.default_rng(seed))
            assert 3 not in seq.response
        assert 3 not in rows
        message = (
            "context row 3 has no nucleus distribution at temperature 0.5 "
            "(non-finite or overflowing logits)"
        )
        with pytest.raises(InputError, match=re.escape(message)):
            sample_response(model, (3,), cfg, rows=rows)


class TestStreamDerivation:
    @pytest.mark.parametrize(
        "root, salt, n_prompts, n_samples, n_draws",
        [
            (0, 0, 1700, 5, 16),
            (3, stream_salt("target"), 900, 5, 32),
            (2**32 + 5, 2**32 - 1, 3, 7, 33),
            (2**64 + 12345, 9, 1, 1, 40),
        ],
    )
    def test_streams_equal_numpy_seed_sequence(self, root, salt, n_prompts, n_samples, n_draws):
        detail = verify.stream_derivation_mismatch(root, salt, n_prompts, n_samples, n_draws)
        assert detail is None

    @pytest.mark.parametrize(
        "n_prompts, n_samples, n_draws",
        [
            (700, 3, policy._PORT_MAX_DRAWS),
            (2, 5, policy._PORT_MAX_DRAWS),
            (2, 5, policy._PORT_MAX_DRAWS + 1),
            (3, 2, 4096),
            (1, 2, 2**17),
        ],
    )
    def test_streams_equal_numpy_either_side_of_the_generator_crossover(
        self, n_prompts, n_samples, n_draws
    ):
        # Up to _PORT_MAX_DRAWS the vectorized port, past it one Generator per stream.
        root, salt = 2**32 + 5, stream_salt("target")
        assert verify.stream_derivation_mismatch(root, salt, n_prompts, n_samples, n_draws) is None

    def test_random_roots_and_keys_equal_numpy_seed_sequence(self):
        assert verify.check_stream_derivation(np.random.default_rng(5), 100) is None

    @pytest.mark.parametrize("n_draws", [0, -1, 2.5, True])
    def test_non_positive_or_non_integer_draw_count_rejected(self, n_draws):
        with pytest.raises(InputError):
            next(stream_uniforms(3, 7, 1, 1, n_draws))

    @pytest.mark.parametrize(
        "root, salt, n_prompts, n_samples",
        [
            (-1, 0, 1, 1),
            (True, 0, 1, 1),
            (3.0, 0, 1, 1),
            (3, -1, 1, 1),
            (3, 2**32, 1, 1),
            (3, False, 1, 1),
            (3, 0, -1, 1),
            (3, 0, 1, 2**32),
            (3, 0, 2.0, 1),
        ],
    )
    def test_negative_bool_or_out_of_range_stream_key_rejected(
        self, root, salt, n_prompts, n_samples
    ):
        with pytest.raises(InputError):
            next(stream_uniforms(root, salt, n_prompts, n_samples, 4))

    @pytest.mark.parametrize(
        "root, key",
        [(-1, ()), (-(2**40), (1,)), (True, ()), (2.0, ()), (3, (-1,)), (3, (7, False))],
    )
    def test_negative_bool_or_non_int_root_or_key_item_rejected(self, root, key):
        with pytest.raises(InputError):
            derive_seed(root, *key)
        with pytest.raises(InputError):
            derive_rng(root, *key)

    @pytest.mark.parametrize(
        "root, key, seed",
        [
            (0, (), 15793235383387715774),
            (3, (stream_salt("prompts"),), 15107416978550199875),
            (2**64 + 12345, (7, 2**32 + 1), 15619254685015807311),
            (2**70 + 3, (), 4943007236101998820),
        ],
    )
    def test_derive_seed_pinned_values(self, root, key, seed):
        # Literals from the code before derive_seed called numpy's SeedSequence:
        # every stage seed and so every artifact rests on them.
        assert derive_seed(root, *key) == seed

    def test_derive_rng_pinned_draws(self):
        rng = derive_rng(3, stream_salt("ensemble-init"), 0)
        assert rng.random(4).tolist() == [
            0.6377977144579677,
            0.2584293646756489,
            0.497481999749263,
            0.18493394209088332,
        ]


class TestNormalization:
    def test_softmax_rows_sum_to_one(self):
        assert verify.check_normalization(np.random.default_rng(0), 10) is None


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = random_model(17, vocab=default_vocabulary(6), order=2, scale=2.0)
        model.freeze()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, label="test")
        again = load_checkpoint(path)
        assert np.array_equal(again.logits, model.logits)
        assert again.logits.dtype == np.float64
        assert again.vocab == model.vocab
        assert again.order == model.order
        assert again.frozen
        assert parameter_hash(again) == parameter_hash(model)

    def test_loading_garbage_fails(self, tmp_path):
        path = tmp_path / "not_a_ckpt.json"
        path.write_text('{"format": "something-else"}\n')
        from microwrpo.errors import DataError

        with pytest.raises(DataError):
            load_checkpoint(path)

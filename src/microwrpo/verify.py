"""The invariant checks behind the `verify` subcommand and the pytest suite.

Each check is ``check(rng, n) -> str | None``: it draws ``n`` random
instances from ``rng`` and returns a message for the first violation, or
None. The suite calls every check at its own seed and size; `verify` runs
them all at the sizes in ``CHECKS`` (normalization, gradient exactness,
reduction identities, selection optimality, determinism, the nucleus
table against its per-row pass, packing against its per-position loop,
sampling streams and oracle scores against
numpy, telemetry bookkeeping) in about a second
and needs no fixtures.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import datagen, objectives as obj, pipeline, policy, trainer
from .config import load_config
from .errors import InputError
from .policy import (
    NucleusRows,
    PolicyModel,
    SamplingConfig,
    Sequence,
    Vocabulary,
    default_vocabulary,
    log_prob_gradient,
    parameter_hash,
    sample_response,
    sequence_log_prob,
    stream_uniforms,
)
from .schedule import FusionSchedule, alpha_at

HYBRID_TO_PAIR = {"wrpo_dpo": "dpo", "wrpo_simpo": "simpo", "wrpo_ipo": "ipo"}


def random_sequence(rng, vocab, prompt=None, max_body=6) -> Sequence:
    """A random 2-token prompt (unless given) and a body of 1..max_body-1 tokens plus eos."""
    if prompt is None:
        prompt = tuple(rng.choice(vocab.content_ids, size=2))
    body = tuple(rng.choice(vocab.content_ids, size=int(rng.integers(1, max_body))))
    return Sequence(prompt=prompt, response=(*body, vocab.eos_id))


def random_quadruple(rng, vocab) -> datagen.PreferenceQuadruple:
    """Four randomly scored responses to one random prompt, y_ls included."""
    prompt = tuple(rng.choice(vocab.content_ids, size=2))

    def scored(model_name, idx):
        seq = random_sequence(rng, vocab, prompt, max_body=5)
        return datagen.ScoredResponse(seq, float(rng.normal()), model_name, idx)

    return datagen.PreferenceQuadruple(
        prompt, scored("s", 0), scored("t", 0), scored("t", 1), scored("s", 1)
    )


def random_objective_config(rng, kind) -> tuple[obj.ObjectiveConfig, float]:
    """The kind at its operating point (gamma 0 for the wrpo kinds) and a random alpha."""
    cfg = obj.ObjectiveConfig(
        kind=kind,
        beta=10.0 if "simpo" in kind else 0.01,
        tau=0.01,
        gamma=0.0 if "wrpo" in kind else 1.0,
    )
    return cfg, float(rng.uniform(0, 1))


def _random_model(rng, scale) -> PolicyModel:
    """An order-2 model over 2 to 4 content tokens."""
    vocab = default_vocabulary(int(rng.integers(2, 5)))
    return PolicyModel.random_init(vocab, 2, scale, int(rng.integers(1 << 31)))


def check_normalization(rng, n) -> str | None:
    for _ in range(n):
        model = _random_model(rng, scale=4.0)
        probs = np.exp(model.log_softmax_rows(np.arange(model.logits.shape[0])))
        if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-9):
            return "softmax row does not sum to 1 within 1e-9"
    return None


def check_policy_gradient(rng, n) -> str | None:
    """Central differences at 25 random logits per instance."""
    h = 1e-5
    for _ in range(n):
        model = _random_model(rng, scale=1.5)
        seq = random_sequence(rng, model.vocab)
        grad = log_prob_gradient(model, seq).ravel()
        flat = model.logits.ravel()
        for k in rng.choice(flat.size, size=25, replace=False):
            orig = flat[k]
            flat[k] = orig + h
            up = sequence_log_prob(model, seq)
            flat[k] = orig - h
            down = sequence_log_prob(model, seq)
            flat[k] = orig
            fd = (up - down) / (2 * h)
            if abs(grad[k] - fd) > max(1e-7, 1e-4 * abs(fd)):
                return f"gradient mismatch at logit {k}: analytic {grad[k]} vs fd {fd}"
    return None


def check_sampling_determinism(rng, n) -> str | None:
    """The same seed gives the same sample, and drawing several prompts through
    one shared nucleus table gives what fresh tables give."""
    for _ in range(n):
        model = _random_model(rng, scale=1.0)
        cfg = SamplingConfig(
            temperature=float(rng.uniform(0.5, 1.5)),
            top_p=float(1.0 - rng.uniform(0, 0.5)),
            max_length=int(rng.integers(1, 13)),
            seed=int(rng.integers(1 << 31)),
        )
        shared = NucleusRows(model, cfg)
        for _ in range(4):
            prompt = tuple(rng.choice(model.vocab.content_ids, size=2))
            fresh = sample_response(model, prompt, cfg)
            if sample_response(model, prompt, cfg) != fresh:
                return f"same seed produced different samples under {cfg}"
            if sample_response(model, prompt, cfg, rows=shared) != fresh:
                return f"a shared nucleus table changed the sample of {prompt} under {cfg}"
    return None


def stream_derivation_mismatch(
    root: int, salt: int, n_prompts: int, n_samples: int, n_draws: int
) -> str | None:
    """Compare the first ``n_draws`` uniforms of every stream of one
    ``stream_uniforms`` call with those of numpy's SeedSequence on the stream
    (salt, p, s), in (p, s) order."""
    streams = list(stream_uniforms(root, salt, n_prompts, n_samples, n_draws))
    if len(streams) != n_prompts * n_samples:
        return f"stream_uniforms gave {len(streams)} streams, not {n_prompts} x {n_samples}"
    for i, ours in enumerate(streams):
        key = (salt, *divmod(i, n_samples))
        ref = np.random.default_rng(np.random.SeedSequence(root, spawn_key=key))
        if [ours.random() for _ in range(n_draws)] != ref.random(n_draws).tolist():
            return f"{n_draws} uniforms of stream {key} of root {root} differ from numpy's"
    return None


def check_stream_derivation(rng, n) -> str | None:
    """stream_uniforms reproduces numpy's SeedSequence on roots of one to three
    words, salts 0, 2**32 - 1 and random ones, one stream, a few, and (the
    last instance) more than _DRAW_BLOCK of them; the draw counts take both
    sides of 16, past which a block holds fewer than _DRAW_BLOCK streams."""
    for i in range(n):
        root = (0, 3, 2**32, 2**64)[i % 4] + int(rng.integers(1 << 40)) * (i % 4 > 1)
        salt = (0, (1 << 32) - 1, int(rng.integers(1 << 32)))[i % 3]
        n_draws = (1, int(rng.integers(2, 16)), 16, 17, int(rng.integers(18, 80)))[i % 5]
        n_samples = int(rng.integers(1, 6)) if i % 2 else 1
        n_prompts = int(rng.integers(1, 5)) if i % 2 else 1
        if i == n - 1:
            n_prompts = policy._DRAW_BLOCK // n_samples + int(rng.integers(1, 64))
        detail = stream_derivation_mismatch(root, salt, n_prompts, n_samples, n_draws)
        if detail is not None:
            return detail
    return None


def check_oracle_mean(rng, n) -> str | None:
    """BigramRewardOracle.score equals ``float(weights[prev, response].mean() -
    length_penalty * n)`` bit for bit on every response length 1 to 300, after
    a prompt and after none (bos): one pairwise block up to 128 tokens, then
    halves of one and of two levels. Weights span 17 decades, so a change of summation order shows;
    one more instance has weights of -0.0 and no penalty, so the sign of a
    zero sum shows."""
    for i in range(n + 1):
        size = int(rng.integers(4, 12))
        if i < n:
            weights = rng.uniform(0, 1, (size, size)) * 10.0 ** rng.integers(-8, 9, (size, size))
            penalty = float(rng.uniform(0, 0.05))
        else:
            weights, penalty = np.full((size, size), -0.0), 0.0
        oracle = datagen.BigramRewardOracle(weights, penalty, bos_id=0)
        for length in range(1, 301):
            response = tuple(rng.integers(size, size=length).tolist())
            for prompt in ((), tuple(rng.integers(size, size=2).tolist())):
                prev = [prompt[-1] if prompt else 0, *response[:-1]]
                expected = float(weights[prev, list(response)].mean() - penalty * length)
                if oracle.score(prompt, response).hex() != expected.hex():
                    return f"oracle score of a {length}-token response differs from numpy's mean"
    return None


def nucleus_row(logits: np.ndarray, cfg: SamplingConfig):
    """One row's nucleus computed on its own, the reference for NucleusRows:
    (kept tokens, cdf array), or None where Generator.choice would reject it."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = logits / cfg.temperature
        shifted = scaled - scaled.max()
        probs = np.exp(shifted)
        probs /= probs.sum()
    ranked = np.argsort(-probs, kind="stable")
    cum = np.cumsum(probs[ranked])
    keep = min(int(np.searchsorted(cum, cfg.top_p, side="left")) + 1, probs.size)
    kept = ranked[:keep]
    kept_p = probs[kept]
    q = kept_p / kept_p.sum()
    if not np.all(q >= 0) or abs(float(q.sum()) - 1.0) > policy._CHOICE_ATOL:
        return None
    cdf = q.cumsum()
    cdf /= cdf[-1]
    return tuple(kept.tolist()), cdf


def nucleus_table_mismatch(model: PolicyModel, cfg: SamplingConfig) -> str | None:
    """How NucleusRows differs from nucleus_row on any row of ``model``: the kept
    tokens, the cdf bytes, whether the row raises InputError, or a next row
    ``base + tok`` that is not ``(row * size + tok) % n_rows``."""
    table = NucleusRows(model, cfg)
    n_rows, size = model.logits.shape
    for row, logits in enumerate(model.logits):
        ref = nucleus_row(logits, cfg)
        try:
            kept, cdf, base = table[row]
        except InputError:
            if ref is None:
                continue
            return f"row {row} raised, but its own pass gives a nucleus under {cfg}"
        if ref is None:
            return f"row {row} has a nucleus, but its own pass is rejected under {cfg}"
        if kept != ref[0]:
            return f"row {row} keeps {kept}, its own pass {ref[0]}, under {cfg}"
        if cdf.tobytes().hex() != ref[1].tobytes().hex():
            return f"row {row}'s cdf differs from its own pass under {cfg}"
        if base != row * size % n_rows:
            return f"row {row}'s base is {base}, not {row * size % n_rows}"
        for tok in kept:
            step = (row * size + tok) % n_rows
            if base + tok != step:
                return f"row {row} steps to {base + tok} after token {tok}, not {step}"
    return None


def check_nucleus_table(rng, n) -> str | None:
    """Every row of NucleusRows equals its own per-row pass, on vocabularies of
    2-9 content tokens and orders 1-3, temperatures 0.05-3 (log-uniform; at
    most 0.3 at top_p 1.0) and top_p exactly 1.0, log-uniform from 1e-6 or
    uniform in turn. A third of the instances have integer logits, so exact
    ties meet the cut-off. The first has rows that overflow at its
    temperature, which must raise when looked up and only then. The last
    has 200 content tokens, integer logits and top_p of at least 0.5: two
    passes, ties among many tokens, and nuclei of many lengths past 8, where
    a zero-padded sum would differ."""
    for i in range(n):
        if i < n - 1:
            vocab = default_vocabulary(int(rng.integers(2, 10)))
            order, scale = int(rng.integers(1, 4)), float(rng.uniform(0.1, 4))
            log_uniform = float(np.exp(rng.uniform(np.log(1e-6), 0)))
            top_p = (1.0, log_uniform, float(rng.uniform(1e-6, 1)))[i % 3]
            # At top_p 1.0 a cold row's mass reaches exactly 1.0 before its last
            # token, so the cut-off meets a cumulative value.
            hottest = 0.3 if top_p == 1.0 else 3.0
            temperature = float(np.exp(rng.uniform(np.log(0.05), np.log(hottest))))
        else:
            vocab, order, scale = default_vocabulary(200), 1, 3.0
            temperature, top_p = float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 1))
        model = PolicyModel.random_init(vocab, order, scale, int(rng.integers(1 << 31)))
        if i % 3 == 2 or i == n - 1:
            model.logits = np.round(model.logits)
        if i == 0:
            temperature = float(rng.uniform(0.05, 0.5))  # 1e308 / temperature is inf
            rows = rng.choice(len(model.logits), size=3, replace=False)
            model.logits[rows[0]] = 1e308  # inf - inf: every probability NaN
            model.logits[rows[1], 0] = 1e308  # one inf entry
            model.logits[rows[2]] = -1e308  # every logit -inf
        detail = nucleus_table_mismatch(model, SamplingConfig(temperature, top_p))
        if detail is not None:
            return detail
    return None


def packed_reference(model: PolicyModel, groups):
    """The groups packed position by position, the reference for PackedSequences:
    its (rows, targets, slots, lengths) arrays and the distinct rows of each group."""
    vocab, order = model.vocab, model.order
    size, n_rows = vocab.size, vocab.size**order
    groups = [tuple(g) for g in groups]
    width = len(groups[0]) if groups else 0
    rows, targets, slots, lengths, distinct = [], [], [], [], []
    for group in groups:
        if len(group) != width:
            raise InputError("every group must hold the same number of sequences")
        seen: dict[int, int] = {}
        for seq in group:
            policy._validate_tokens(vocab, seq)
            row = 0
            for tok in ((vocab.bos_id,) * order + seq.prompt)[-order:]:
                row = row * size + tok
            for tok in seq.response:
                rows.append(row)
                slots.append(seen.setdefault(row, len(seen)))
                row = (row * size + tok) % n_rows
            targets.extend(seq.response)
            lengths.append(len(seq.response))
        distinct.append(np.array(list(seen), dtype=np.int64))
    arrays = [np.array(a, dtype=np.int64) for a in (rows, targets, slots, lengths)]
    return arrays, distinct


def _outcome(fn):
    """(fn(), None), or (None, the message) if it raises InputError."""
    try:
        return fn(), None
    except InputError as exc:
        return None, str(exc)


def packing_mismatch(model: PolicyModel, groups) -> str | None:
    """How PackedSequences differs from packed_reference on ``groups``: an array or
    a group's distinct rows that are not byte-equal, or another first error."""
    packed, error = _outcome(lambda: policy.PackedSequences(model, groups))
    ref, ref_error = _outcome(lambda: packed_reference(model, groups))
    if error != ref_error:
        return f"packing raised {error!r}, the per-position loop {ref_error!r}"
    if error is not None:
        return None
    (rows, targets, slots, lengths), distinct = ref
    for name, want in zip(("rows", "targets", "slots", "lengths"), (rows, targets, slots, lengths)):
        got = getattr(packed, name)
        if got.dtype != want.dtype or got.tobytes() != want.tobytes():
            return f"packed {name} differ from the per-position loop's"
    if len(packed.distinct) != len(distinct) or any(
        a.dtype != b.dtype or a.tobytes() != b.tobytes() for a, b in zip(packed.distinct, distinct)
    ):
        return "a group's distinct rows differ from the per-position loop's"
    return None


def _corrupt(rng, groups, size: int, eos: int) -> list:
    """``groups`` with one or two sequences spoilt (a token negative, at least
    ``size`` or past 2**64, or no eos at the end) and, one time in two, one
    group a sequence short. Each bad token is drawn afresh, so two spoilt
    places seldom give the same message."""
    groups = [list(g) for g in groups]
    for _ in range(int(rng.integers(1, 3))):
        g = int(rng.integers(len(groups)))
        m = int(rng.integers(len(groups[g])))
        seq = groups[g][m]
        prompt, response = list(seq.prompt), list(seq.response)
        bad = (-int(rng.integers(1, 10)), size + int(rng.integers(9)), 2**70 + int(rng.integers(9)))
        kind = int(rng.integers(4))
        if kind == 3:
            response[-1] = (eos + 1) % size
        elif kind == 2 and prompt:
            prompt[int(rng.integers(len(prompt)))] = bad[int(rng.integers(3))]
        else:
            response[int(rng.integers(len(response)))] = bad[int(rng.integers(3))]
        groups[g][m] = Sequence(tuple(prompt), tuple(response))
    if rng.integers(2):
        groups[int(rng.integers(len(groups)))].pop()
    return groups


def check_packed_sequences(rng, n) -> str | None:
    """PackedSequences equals packed_reference, array for array and byte for byte,
    on vocabularies of 2-9 content tokens in shuffled order (bos and eos at any
    index), orders 1-3 and widths 1-4: prompts of 0 to order + 2 tokens, so
    some are empty or shorter than the order (bos padding), and responses of 1
    to max_length + 1 tokens, max_length 1-12. Each instance is then spoilt
    (_corrupt), and both must raise the same first error."""
    for _ in range(n):
        tokens = default_vocabulary(int(rng.integers(2, 10))).tokens
        vocab = Vocabulary(tuple(rng.permutation(tokens).tolist()))
        order, width = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        model = PolicyModel.uniform(vocab, order)
        size, eos, max_length = vocab.size, vocab.eos_id, int(rng.integers(1, 13))
        groups = []
        for _ in range(int(rng.integers(1, 7))):
            group = []
            for _ in range(width):
                prompt = rng.integers(size, size=int(rng.integers(0, order + 3)))
                n_body = (0, max_length, int(rng.integers(max_length + 1)))[int(rng.integers(3))]
                group.append(Sequence(prompt, (*rng.integers(size, size=n_body), eos)))
            groups.append(tuple(group))
        for case in (groups, _corrupt(rng, groups, size, eos)):
            detail = packing_mismatch(model, case)
            if detail is not None:
                return f"{detail} (order {order}, width {width}, {size} tokens)"
    return None


def check_reduction_identities(rng, n) -> str | None:
    """Each wrpo_* kind at alpha=0 is its pair kind on (y_wt, y_l), and at
    alpha=1 on (y_ws, y_l): loss and parameter gradient agree to 1e-12."""
    vocab = default_vocabulary(4)
    for _ in range(n):
        for hybrid_kind, pair_kind in HYBRID_TO_PAIR.items():
            for alpha, pairing in ((0.0, "on_policy"), (1.0, "hybrid")):
                model = PolicyModel.random_init(vocab, 2, 1.0, int(rng.integers(1 << 31)))
                ref = PolicyModel.random_init(
                    vocab, 2, 1.0, int(rng.integers(1 << 31)), frozen=True
                )
                quad = random_quadruple(rng, vocab)
                h_cfg, _ = random_objective_config(rng, hybrid_kind)
                p_cfg = replace(h_cfg, kind=pair_kind, pairing=pairing)
                res_h, grad_h = obj.loss_gradient_wrt_params(model, ref, quad, h_cfg, alpha)
                res_p, grad_p = obj.loss_gradient_wrt_params(model, ref, quad, p_cfg)
                if abs(res_h.loss - res_p.loss) > 1e-12:
                    return f"{hybrid_kind}(alpha={alpha}) loss differs from {pair_kind}"
                if np.abs(grad_h - grad_p).max() > 1e-12:
                    return f"{hybrid_kind}(alpha={alpha}) gradient differs from {pair_kind}"
    return None


def check_initialization_constants(rng, n) -> str | None:
    """With pi_theta == pi_ref and equal lengths every margin is zero: the
    sigmoid kinds (gamma = 0) lose log 2, the squared kinds (1/(2 tau))^2."""
    log2 = math.log(2.0)
    for _ in range(n):
        lp = float(-rng.uniform(0.5, 30))
        role = obj.RoleLogProb(theta=lp, ref=lp, length=int(rng.integers(1, 9)))
        roles = {r: role for r in ("w", "l", "w_s", "w_t", "l_s", "l_t")}
        beta, alpha = float(rng.uniform(0.01, 10)), float(rng.uniform(0, 1))
        for kind in obj.KINDS:
            for tau in (0.01, 0.1, 1.0):
                cfg = obj.ObjectiveConfig(kind, beta=beta, tau=tau, gamma=0.0)
                if kind in obj.SIGMOID_KINDS:
                    expected, tol = log2, 1e-12
                else:
                    expected, tol = (1.0 / (2.0 * tau)) ** 2, 1e-9
                loss = obj.evaluate_loss(roles, cfg, alpha).loss
                if abs(loss - expected) > tol:
                    return f"zero-margin {kind} loss {loss} != {expected} (tau={tau})"
    return None


def check_schedule(rng, n) -> str | None:
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
    "task": {"n_content_tokens": 6, "n_prompts": 25, "prompt_length": 2, "oracle_seed": 5},
    "ensemble": [
        {"name": "a", "sharpness": 6.0, "noise": 0.3},
        {"name": "b", "sharpness": 3.0, "noise": 0.8},
    ],
    "sampling": {"n_samples": 4, "max_length": 8},
    "data": {"include_yls": True},
    "eval": {"n_prompts": 10},
}


def _toy_config(rng):
    return load_config(overrides=_TOY_TASK, seed=int(rng.integers(1000)))


def check_selection_optimality(rng, n) -> str | None:
    """Every stored score is the oracle's score of its tokens, and each
    quadruple holds the extreme candidates of its prompt."""
    for _ in range(n):
        cfg = _toy_config(rng)
        data, oracle = pipeline.build_dataset(cfg), cfg.oracle()
        pools = zip(data.quadruples, data.source_pools, data.target_pools)
        for p_idx, (quad, pool, tpool) in enumerate(pools):
            for cand in pool + tpool:
                if cand.score != oracle.score(quad.prompt, cand.sequence.response):
                    return f"prompt {p_idx}: a stored score differs from its rescoring"
            same = [c.score for c in pool if c.model == quad.y_ws.model]
            if quad.y_ws.score != max(c.score for c in pool):
                return "y_ws is not score-maximal among source samples"
            if quad.y_ls.score != min(same):
                return "y_ls is not score-minimal among y_ws's model's samples"
            if quad.y_wt.score != max(c.score for c in tpool):
                return "y_wt is not score-maximal among target samples"
            if quad.y_l.score != min(c.score for c in tpool):
                return "y_l is not score-minimal among target samples"
        total = sum(pct for _, _, pct in data.attribution)
        if abs(total - 100.0) > 0.01:
            return f"attribution percentages sum to {total}"
    return None


def _toy_po(rng):
    """A toy dataset and a run(kind, schedule) of two Adam epochs from its frozen initial target."""
    data = pipeline.build_dataset(_toy_config(rng))
    seed = int(rng.integers(1000))

    def run(kind, schedule):
        return trainer.run_preference_optimization(
            data.target_init.copy(frozen=False),
            data.target_init,
            data.quadruples,
            obj.ObjectiveConfig(kind=kind, beta=0.01),
            trainer.OptimizerConfig(kind="adam", step_size=0.05),
            schedule=schedule,
            epochs=2,
            batch_size=8,
            seed=seed,
        )

    return data, run


def check_end_to_end_reduction(rng, n) -> str | None:
    for _ in range(n):
        _, run = _toy_po(rng)
        wrpo_model, wrpo_tel = run("wrpo_dpo", FusionSchedule("static", 0.0, 1))
        dpo_model, dpo_tel = run("dpo", None)
        if parameter_hash(wrpo_model) != parameter_hash(dpo_model):
            return "wrpo(alpha=0) final parameters differ from dpo"
        if len(wrpo_tel.steps) != len(dpo_tel.steps):
            return "telemetry lengths differ"
        for a, b in zip(wrpo_tel.steps, dpo_tel.steps):
            w, d = a.internal_rewards, b.internal_rewards
            if (a.loss, a.grad_norm, a.on_policy_margin, w["w_t"], w["l"]) != (
                b.loss, b.grad_norm, b.on_policy_margin, d["w"], d["l"]
            ):
                return f"wrpo(alpha=0) telemetry differs from dpo at step {a.step}"
    return None


def check_reference_immutability(rng, n) -> str | None:
    for _ in range(n):
        data, run = _toy_po(rng)
        before = parameter_hash(data.target_init)
        run("wrpo_dpo", FusionSchedule(kind="linear", target=0.5, total_steps=10))
        if parameter_hash(data.target_init) != before:
            return "reference parameters changed during preference optimization"
    return None


def check_telemetry_bookkeeping(rng, n) -> str | None:
    for _ in range(n):
        data, run = _toy_po(rng)
        sched = FusionSchedule(
            kind="linear", target=float(rng.uniform(0, 1)), total_steps=int(rng.integers(1, 12))
        )
        _, telemetry = run("wrpo_dpo", sched)
        expected = trainer.n_optimizer_steps(len(data.quadruples), 8, 2)
        if len(telemetry.steps) != expected:
            return f"{len(telemetry.steps)} step records != {expected} optimizer steps"
        for rec in telemetry.steps:
            if rec.alpha != alpha_at(sched, rec.step):
                return "alpha column does not match the schedule"
            if rec.on_policy_margin is None or rec.hybrid_policy_margin is None:
                return f"step {rec.step} lacks a margin"
            if not (math.isfinite(rec.loss) and math.isfinite(rec.grad_norm)):
                return f"step {rec.step} has a non-finite loss or grad_norm"
    return None


CHECKS = [
    ("softmax normalization", check_normalization, 10, 3),
    ("policy log-prob gradient vs finite differences", check_policy_gradient, 10, 3),
    ("sampling determinism", check_sampling_determinism, 10, 3),
    ("nucleus table equals its per-row pass", check_nucleus_table, 40, 8),
    ("packed sequences equal the per-position loop", check_packed_sequences, 200, 40),
    ("sampling streams equal numpy's SeedSequence", check_stream_derivation, 100, 20),
    ("oracle score equals numpy's mean", check_oracle_mean, 10, 2),
    ("wrpo endpoint reduction identities", check_reduction_identities, 25, 5),
    ("zero-margin initialization constants", check_initialization_constants, 50, 10),
    ("fusion schedule monotonicity", check_schedule, 50, 10),
    ("selection optimality and attribution", check_selection_optimality, 1, 1),
    ("end-to-end wrpo(alpha=0) == dpo", check_end_to_end_reduction, 1, 1),
    ("reference immutability", check_reference_immutability, 1, 1),
    ("telemetry completeness and alpha column", check_telemetry_bookkeeping, 1, 1),
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

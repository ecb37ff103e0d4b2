"""Preference-data construction for the toy task.

A deterministic bigram-affinity oracle stands in for the external reward
model; frozen tabular policies fitted toward the oracle's preferred
transitions (with varying noise) stand in for the source-model ensemble.
Candidates are sampled per (prompt, model), scored, and assembled into
preference quadruples (x, y_ws, y_wt, y_l[, y_ls]).
"""

from __future__ import annotations

import csv
import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .errors import DataError, InputError, is_number, reading, require_json
from .policy import (
    NucleusRows,
    PackedSequences,
    PolicyModel,
    SamplingConfig,
    Sequence,
    Vocabulary,
    derive_rng,
    sample_response,
    stream_salt,
    stream_uniforms,
)

__all__ = [
    "BigramRewardOracle",
    "make_oracle",
    "expert_logit_table",
    "make_source_ensemble",
    "ScoredResponse",
    "PreferenceQuadruple",
    "make_prompts",
    "sample_scored",
    "generate_candidates",
    "target_pairs",
    "assemble_quadruples",
    "split_dataset",
    "distribution_deviation_report",
    "write_quadruples",
    "jsonl_records",
    "read_quadruples",
    "write_attribution_csv",
]

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
# The response fields of a PreferenceQuadruple, in record order; only y_ls may be None.
ROLES = ("y_ws", "y_wt", "y_l", "y_ls")
_score = attrgetter("score")


@dataclass(frozen=True)
class BigramRewardOracle:
    """Deterministic score: mean transition affinity minus a brevity term.

    weights[prev, next] in [0, 1] defines the hidden "expert" transition
    preferences; the score of a response is the mean affinity over its
    transitions (the first conditioned on the last prompt token) minus
    length_penalty per response token.
    """

    weights: np.ndarray
    length_penalty: float = 0.01
    bos_id: int = 0

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InputError("oracle weights must be a square (V, V) matrix")
        w.flags.writeable = False  # score reads the copy in _rows
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_rows", w.tolist())

    def score(self, prompt: tuple[int, ...], response: tuple[int, ...]) -> float:
        """``float(weights[prev, response].mean() - length_penalty * n)``, bit for bit.
        Below 8 tokens the mean is taken in Python floats, left to right from 0.0,
        which is numpy's order there; from 8 tokens on the sum is numpy's own
        np.add.reduce, the one the mean takes."""
        n = len(response)
        if n == 0:
            raise InputError("cannot score an empty response")
        first = prompt[-1] if prompt else self.bos_id
        rows = self._rows
        row = rows[first]
        if n < 8:
            total = 0.0
            for tok in response:
                total += row[tok]
                row = rows[tok]
            return total / n - self.length_penalty * n
        affin = []
        for tok in response:
            affin.append(row[tok])
            row = rows[tok]
        return float(np.add.reduce(affin)) / n - self.length_penalty * n


def make_oracle(
    vocab: Vocabulary, seed: int = 7, length_penalty: float = 0.01
) -> BigramRewardOracle:
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=(vocab.size, vocab.size))
    return BigramRewardOracle(
        weights=weights, length_penalty=length_penalty, bos_id=vocab.bos_id
    )


def expert_logit_table(
    vocab: Vocabulary, order: int, oracle: BigramRewardOracle, sharpness: float
) -> np.ndarray:
    """Logit table whose every context prefers the oracle's transitions.

    The affinity depends only on the previous token, which is the least
    significant digit of the context row index.
    """
    rows = vocab.size**order
    last_token = np.arange(rows) % vocab.size
    return sharpness * oracle.weights[last_token]


def make_source_ensemble(
    vocab: Vocabulary,
    order: int,
    oracle: BigramRewardOracle,
    specs: list[tuple[str, float, float]],
    seed: int = 0,
) -> dict[str, PolicyModel]:
    """{name: frozen model} in spec order; each model is the expert table perturbed
    by its own Gaussian noise.

    specs: (name, sharpness, noise_scale) per member; higher sharpness and
    lower noise means closer to the oracle's preferences.
    """
    members = {}
    for idx, (name, sharpness, noise) in enumerate(specs):
        if name in members:
            raise InputError(f"ensemble member name {name!r} is given twice")
        rng = derive_rng(seed, stream_salt("ensemble-init"), idx)
        table = expert_logit_table(vocab, order, oracle, sharpness)
        table = table + noise * rng.standard_normal(table.shape)
        members[name] = PolicyModel(vocab=vocab, order=order, logits=table, frozen=True)
    return members


@dataclass(frozen=True, slots=True)
class ScoredResponse:
    sequence: Sequence
    score: float
    model: str
    sample_index: int


@dataclass(frozen=True)
class PreferenceQuadruple:
    prompt: tuple[int, ...]
    y_ws: ScoredResponse
    y_wt: ScoredResponse
    y_l: ScoredResponse
    y_ls: ScoredResponse | None = None


def make_prompts(
    vocab: Vocabulary, n_prompts: int, prompt_length: int = 3, seed: int = 2
) -> list[tuple[int, ...]]:
    """Distinct prompts over the content tokens, deterministic under seed: seeded
    permutation codes of the prompt space read as base-k digits, most significant first."""
    content = vocab.content_ids
    if prompt_length < 1:
        raise InputError("prompt_length must be >= 1")
    total = len(content) ** prompt_length
    if n_prompts < 1:
        raise InputError("n_prompts must be >= 1")
    if n_prompts > total:
        raise InputError(
            f"cannot draw {n_prompts} distinct prompts of length {prompt_length} "
            f"from {len(content)} content tokens ({total} available)"
        )
    codes = np.random.default_rng(seed).permutation(total)[:n_prompts]
    digits = np.unravel_index(codes, (len(content),) * prompt_length)
    return [tuple(p) for p in np.array(content)[np.transpose(digits)].tolist()]


def sample_scored(
    model: PolicyModel,
    label: str,
    prompts: list[tuple[int, ...]],
    n_samples: int,
    cfg: SamplingConfig,
    oracle: BigramRewardOracle,
    salt: str,
) -> list[list[ScoredResponse]]:
    """n_samples scored draws per prompt from ``model``, as [prompt][sample].

    Draw (p, s) uses its own counter-derived stream keyed by (salt, p, s),
    so draws never depend on the order they are made in; the uniforms of
    all draws come from one vectorized pass (policy.stream_uniforms), and
    all draws share one nucleus table, so each context row is computed at
    most once.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    rows = NucleusRows(model, cfg)
    streams = stream_uniforms(cfg.seed, stream_salt(salt), len(prompts), n_samples, cfg.max_length)
    scored = []
    for prompt in prompts:
        draws = []
        for s_idx in range(n_samples):
            seq = sample_response(model, prompt, cfg, rng=next(streams), rows=rows)
            draws.append(ScoredResponse(seq, oracle.score(prompt, seq.response), label, s_idx))
        scored.append(draws)
    return scored


def generate_candidates(
    members: Mapping[str, PolicyModel],
    prompts: list[tuple[int, ...]],
    n_samples: int,
    sampling: SamplingConfig,
    oracle: BigramRewardOracle,
) -> list[list[ScoredResponse]]:
    """Each prompt's pool of scored draws, in (member, sample) order: exactly
    n_samples per frozen member, all under ``sampling``, salted by the member's name."""
    if len(prompts) == 0:
        raise InputError("prompt list is empty")
    if len(members) == 0:
        raise InputError("ensemble needs at least one member")
    for name, model in members.items():
        if not model.frozen:
            raise InputError(f"ensemble member {name!r} must be frozen")
    per_member = [
        sample_scored(model, name, prompts, n_samples, sampling, oracle, name)
        for name, model in members.items()
    ]
    return [list(chain.from_iterable(per_prompt)) for per_prompt in zip(*per_member)]


def target_pairs(
    pools: list[list[ScoredResponse]],
) -> list[tuple[ScoredResponse, ScoredResponse]]:
    """(y_wt, y_l) of each prompt's pool of target draws: its max-score and its
    min-score draw by the builtins max and min, which keep the earliest of equal
    scores. Equal-score pairs are counted and logged."""
    pairs = [(max(pool, key=_score), min(pool, key=_score)) for pool in pools]
    degenerate = sum(y_wt.score == y_l.score for y_wt, y_l in pairs)
    if degenerate:
        log.warning(
            "%d/%d prompts have degenerate target pairs (y_wt score == y_l score)",
            degenerate,
            len(pairs),
        )
    return pairs


def _pool_prompts(pools: list[list[ScoredResponse]]) -> list[tuple[int, ...]]:
    return [pool[0].sequence.prompt for pool in pools]


def assemble_quadruples(
    source_pools: list[list[ScoredResponse]],
    target_pools: list[list[ScoredResponse]],
    include_yls: bool = False,
) -> tuple[list[PreferenceQuadruple], list[tuple[str, int, float]]]:
    """Select y_ws / y_wt / y_l per prompt from generate_candidates' pools and
    tally source attribution.

    Returns (quadruples, attribution rows) where each attribution row is
    (model name, win count, percentage of prompts won), in member order.
    """
    if not source_pools:
        raise InputError("candidate pools are empty")
    prompts = _pool_prompts(source_pools)
    if prompts != _pool_prompts(target_pools):
        raise InputError("source and target candidate pools cover different prompts")
    # Every pool holds every member's draws, in member order.
    wins = dict.fromkeys((c.model for c in source_pools[0]), 0)
    quadruples = []
    pairs = target_pairs(target_pools)
    for prompt, source_pool, (y_wt, y_l) in zip(prompts, source_pools, pairs):
        y_ws = max(source_pool, key=_score)
        y_ls = None
        if include_yls:
            y_ls = min((c for c in source_pool if c.model == y_ws.model), key=_score)
        wins[y_ws.model] += 1
        quadruples.append(
            PreferenceQuadruple(
                prompt=prompt, y_ws=y_ws, y_wt=y_wt, y_l=y_l, y_ls=y_ls
            )
        )
    n = len(quadruples)
    attribution = [(name, count, 100.0 * count / n) for name, count in wins.items()]
    return quadruples, attribution


def split_dataset(
    quadruples: list[PreferenceQuadruple], fraction: float, seed: int
) -> tuple[list[PreferenceQuadruple], list[PreferenceQuadruple]]:
    """Seeded shuffle then prefix split: (SFT part, PO part)."""
    if not 0 < fraction < 1:
        raise InputError("split fraction must be in (0, 1)")
    if len(quadruples) < 2:
        raise InputError("need at least 2 records to split")
    prompts = [q.prompt for q in quadruples]
    if len(set(prompts)) != len(prompts):
        raise DataError("duplicate prompts would break split disjointness")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(quadruples))
    n_sft = int(fraction * len(quadruples))
    return [quadruples[i] for i in perm[:n_sft]], [quadruples[i] for i in perm[n_sft:]]


@dataclass
class RoleStats:
    n: int
    mean_avg_logp: float
    std_avg_logp: float
    mean_score: float
    histogram: list[int]


@dataclass
class DeviationReport:
    """Per-role avg-log-prob and score statistics under one evaluation model."""

    bin_edges: list[float]
    roles: dict[str, RoleStats]


def distribution_deviation_report(
    model: PolicyModel,
    quadruples: list[PreferenceQuadruple],
    bins: int = 20,
) -> DeviationReport:
    """Average per-token log-probability of each role under ``model``.

    Roles y_ws / y_wt / y_l (and y_ls when present) are reported
    individually plus a pooled "target_origin" group (y_wt and y_l), the
    comparison group for the source-vs-target deviation diagnostic. Mean
    oracle scores per role ride along so the four-role score ordering can
    be inspected.
    """
    if len(quadruples) == 0:
        raise InputError("quadruple list is empty")
    groups: dict[str, list[ScoredResponse]] = {}
    for role in ROLES:
        members = [r for q in quadruples if (r := getattr(q, role)) is not None]
        if members:
            groups[role] = members
    logps = {}
    for name, members in groups.items():
        sums = PackedSequences(model, [(s.sequence,) for s in members]).log_probs(model)
        logps[name] = np.array(
            [lp / len(s.sequence) for (lp,), s in zip(sums.tolist(), members)], dtype=np.float64
        )
    groups["target_origin"] = groups["y_wt"] + groups["y_l"]
    logps["target_origin"] = np.concatenate([logps["y_wt"], logps["y_l"]])
    lo = min(v.min() for v in logps.values())
    hi = max(v.max() for v in logps.values())
    if hi == lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, bins + 1)
    roles = {}
    for name, members in groups.items():
        vals = logps[name]
        hist, _ = np.histogram(vals, bins=edges)
        roles[name] = RoleStats(
            n=len(vals),
            mean_avg_logp=float(vals.mean()),
            std_avg_logp=float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
            mean_score=float(np.mean([s.score for s in members])),
            histogram=[int(c) for c in hist],
        )
    return DeviationReport(bin_edges=[float(e) for e in edges], roles=roles)


def _role_dict(r: ScoredResponse) -> dict:
    return {
        "tokens": list(r.sequence.response),
        "score": r.score,
        "model": r.model,
        "sample_index": r.sample_index,
    }


def _is_token_list(value) -> bool:
    """A non-empty list of non-negative JSON ints (bool is not one)."""
    return isinstance(value, list) and {*map(type, value)} == {int} and min(value) >= 0


# role field -> its JSON kind (errors.JSON_TYPES), checked after the tokens
_ROLE_FIELDS = {"score": "float", "model": "str", "sample_index": "int"}


def _check_range(tokens: list[int], vocab_size: int, field: str) -> None:
    if max(tokens) >= vocab_size:
        raise DataError(f"{field} has a token id outside the vocabulary of size {vocab_size}")


def _role_from_dict(prompt: tuple[int, ...], d, role: str, vocab: Vocabulary) -> ScoredResponse:
    if not isinstance(d, dict):
        raise DataError(f"{role} must be an object")
    if not _is_token_list(d.get("tokens")):
        raise DataError(f"{role}.tokens must be a non-empty list of token ids")
    for key, kind in _ROLE_FIELDS.items():
        require_json(d.get(key), kind, f"{role}.{key}", DataError)
    _check_range(d["tokens"], vocab.size, f"{role}.tokens")
    if d["tokens"][-1] != vocab.eos_id:
        raise DataError(f"{role}.tokens must end in eos")
    return ScoredResponse(
        sequence=Sequence(prompt=prompt, response=tuple(d["tokens"])),
        score=float(d["score"]),
        model=d["model"],
        sample_index=int(d["sample_index"]),
    )


def _quadruple_from_dict(d: dict, vocab: Vocabulary) -> PreferenceQuadruple:
    if not _is_token_list(d.get("prompt")):
        raise DataError("prompt must be a non-empty list of token ids")
    _check_range(d["prompt"], vocab.size, "prompt")
    prompt = tuple(d["prompt"])
    roles = {
        role: _role_from_dict(prompt, d.get(role), role, vocab)
        for role in ROLES
        if role != "y_ls" or d.get(role) is not None
    }
    return PreferenceQuadruple(prompt=prompt, **roles)


def write_quadruples(path, quadruples: list[PreferenceQuadruple]) -> None:
    """JSONL, one quadruple per line; byte-stable given identical inputs."""
    with open(path, "w") as fh:
        for q in quadruples:
            record = {"schema_version": SCHEMA_VERSION, "prompt": list(q.prompt)}
            for role in ROLES:
                response = getattr(q, role)
                record[role] = None if response is None else _role_dict(response)
            fh.write(json.dumps(record) + "\n")


def jsonl_records(path):
    """Yield (line number, parsed value) for each non-blank line of a JSONL file.

    A path that cannot be opened (a directory), bytes that do not decode as
    text and lines that are not JSON (or hold an integer literal too long to
    convert) raise DataError.
    """
    with reading(path, DataError), open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
            yield line_no, value


def read_quadruples(path, vocab: Vocabulary) -> list[PreferenceQuadruple]:
    """Read write_quadruples' JSONL; a malformed record, an empty prompt, a token id
    outside ``vocab``, a response that does not end in its eos or a prompt given on
    an earlier line raises DataError."""
    quadruples, first_lines = [], {}
    for line_no, d in jsonl_records(path):
        if not isinstance(d, dict):
            raise DataError(f"{path}:{line_no}: a record must be a JSON object")
        version = d.get("schema_version")
        if not is_number(version, integer=True) or version != SCHEMA_VERSION:
            raise DataError(f"{path}:{line_no}: unsupported schema version {version!r}")
        try:
            quadruple = _quadruple_from_dict(d, vocab)
        except DataError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
        first = first_lines.setdefault(quadruple.prompt, line_no)
        if first != line_no:
            prompt = list(quadruple.prompt)
            raise DataError(f"{path}:{line_no}: prompt {prompt} repeats line {first}")
        quadruples.append(quadruple)
    return quadruples


def write_attribution_csv(path, attribution: list[tuple[str, int, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "wins", "percentage"])
        writer.writerows(attribution)

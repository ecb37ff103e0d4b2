"""Tiny autoregressive tabular policies over a fixed token vocabulary.

A policy is a table of unnormalized logits indexed by the last ``order``
tokens of context. It is small enough that sequence log-probabilities,
their exact parameter gradients, and nucleus sampling are all cheap and
fully deterministic, which is what the objective and training layers
build on.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import zlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError, UsageError, is_number

__all__ = [
    "Vocabulary",
    "Sequence",
    "PolicyModel",
    "SamplingConfig",
    "default_vocabulary",
    "sequence_log_prob",
    "avg_log_prob",
    "log_prob_gradient",
    "NucleusRows",
    "sample_response",
    "save_checkpoint",
    "load_checkpoint",
    "parameter_hash",
    "derive_rng",
    "derive_seed",
]


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token set with designated bos/eos markers."""

    tokens: tuple[str, ...]
    bos: str = "<bos>"
    eos: str = "<eos>"

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise InputError("vocabulary tokens must be distinct")
        if len(self.tokens) < 4:
            raise InputError("vocabulary needs at least 4 tokens")
        for marker in (self.bos, self.eos):
            if marker not in self.tokens:
                raise InputError(f"marker {marker!r} is not a vocabulary token")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def bos_id(self) -> int:
        return self.tokens.index(self.bos)

    @property
    def eos_id(self) -> int:
        return self.tokens.index(self.eos)

    @property
    def content_ids(self) -> tuple[int, ...]:
        """Indices of tokens that are neither bos nor eos."""
        return tuple(
            i for i, t in enumerate(self.tokens) if t not in (self.bos, self.eos)
        )

    def to_dict(self) -> dict:
        return {"tokens": list(self.tokens), "bos": self.bos, "eos": self.eos}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        return cls(tokens=tuple(d["tokens"]), bos=d["bos"], eos=d["eos"])


def default_vocabulary(n_content: int = 8) -> Vocabulary:
    """bos, eos, and ``n_content`` single-letter content tokens."""
    if n_content < 2:
        raise InputError("need at least 2 content tokens")
    letters = [chr(ord("a") + i) for i in range(n_content)]
    return Vocabulary(tokens=("<bos>", "<eos>", *letters))


@dataclass(frozen=True)
class Sequence:
    """A prompt and a response of token indices; the response ends in eos."""

    prompt: tuple[int, ...]
    response: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "prompt", tuple(int(t) for t in self.prompt))
        object.__setattr__(self, "response", tuple(int(t) for t in self.response))
        if len(self.response) == 0:
            raise InputError("response must be non-empty")

    def __len__(self) -> int:
        return len(self.response)


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 0.8
    top_p: float = 0.95
    max_length: int = 16
    seed: int = 0

    def __post_init__(self):
        if not self.temperature > 0:
            raise InputError("temperature must be positive")
        if not (0 < self.top_p <= 1):
            raise InputError("top_p must be in (0, 1]")
        if self.max_length < 1:
            raise InputError("max_length must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be unsigned")


@dataclass
class PolicyModel:
    """Order-k tabular softmax policy: logits[context_row, next_token].

    Context rows encode the last ``order`` tokens (bos-padded at the start
    of a sequence) in base-``vocab.size``, last token least significant.
    """

    vocab: Vocabulary
    order: int
    logits: np.ndarray
    frozen: bool = False

    def __post_init__(self):
        # size**65 exceeds any array length, so a larger order can never fit a
        # table and is rejected before the power is formed.
        if not 1 <= self.order <= 64:
            raise InputError(f"context order must be in [1, 64] (got {self.order})")
        expected = (self.vocab.size**self.order, self.vocab.size)
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.shape != expected:
            raise InputError(
                f"logit table shape {self.logits.shape} != expected {expected}"
            )

    @classmethod
    def uniform(cls, vocab: Vocabulary, order: int = 2, frozen: bool = False):
        table = np.zeros((vocab.size**order, vocab.size))
        return cls(vocab=vocab, order=order, logits=table, frozen=frozen)

    @classmethod
    def random_init(
        cls,
        vocab: Vocabulary,
        order: int = 2,
        scale: float = 0.5,
        seed: int = 0,
        frozen: bool = False,
    ):
        rng = np.random.default_rng(seed)
        table = scale * rng.standard_normal((vocab.size**order, vocab.size))
        return cls(vocab=vocab, order=order, logits=table, frozen=frozen)

    def copy(self, frozen: bool | None = None) -> "PolicyModel":
        return PolicyModel(
            vocab=self.vocab,
            order=self.order,
            logits=self.logits.copy(),
            frozen=self.frozen if frozen is None else frozen,
        )

    def freeze(self) -> "PolicyModel":
        self.frozen = True
        return self

    def log_softmax_rows(self, rows: np.ndarray) -> np.ndarray:
        x = self.logits[rows]
        shifted = x - x.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# Context-row lookups depend only on (vocab size, order, prompt, response),
# so they are memoized across repeated log-prob/gradient calls on the same
# dataset. Bounded by the number of distinct sequences in a run.
_CONTEXT_CACHE: dict[tuple, np.ndarray] = {}


def _validate_tokens(model: PolicyModel, seq: Sequence) -> None:
    size = model.vocab.size
    for tok in (*seq.prompt, *seq.response):
        if not 0 <= tok < size:
            raise InputError(f"token index {tok} outside vocabulary of size {size}")
    if seq.response[-1] != model.vocab.eos_id:
        raise InputError("response must terminate in eos")


def context_rows(model: PolicyModel, seq: Sequence) -> np.ndarray:
    """Row index into the logit table for each response position."""
    key = (model.vocab.size, model.order, model.vocab.bos_id, seq.prompt, seq.response)
    rows = _CONTEXT_CACHE.get(key)
    if rows is not None:
        return rows
    size, order = model.vocab.size, model.order
    stream = (model.vocab.bos_id,) * order + seq.prompt + seq.response
    powers = size ** np.arange(order - 1, -1, -1, dtype=np.int64)
    start = order + len(seq.prompt)
    windows = np.array(
        [stream[start + t - order : start + t] for t in range(len(seq.response))],
        dtype=np.int64,
    )
    rows = windows @ powers
    _CONTEXT_CACHE[key] = rows
    return rows


def sequence_log_prob(model: PolicyModel, seq: Sequence) -> float:
    """Sum over response positions of log p(y_t | last-k context)."""
    _validate_tokens(model, seq)
    rows = context_rows(model, seq)
    ls = model.log_softmax_rows(rows)
    targets = np.asarray(seq.response, dtype=np.int64)
    return float(ls[np.arange(len(targets)), targets].sum())


def avg_log_prob(model: PolicyModel, seq: Sequence) -> float:
    """Per-token average of sequence_log_prob (the length-normalized reward base)."""
    return sequence_log_prob(model, seq) / len(seq.response)


def log_prob_gradient(model: PolicyModel, seq: Sequence) -> np.ndarray:
    """Exact gradient of sequence_log_prob w.r.t. every logit.

    For each visited context row the gradient is one_hot(y_t) - softmax;
    rows never visited by the sequence stay exactly zero.
    """
    if model.frozen:
        raise UsageError("cannot take parameter gradients of a frozen model")
    _validate_tokens(model, seq)
    rows = context_rows(model, seq)
    probs = np.exp(model.log_softmax_rows(rows))
    grad = np.zeros_like(model.logits)
    np.subtract.at(grad, rows, probs)
    targets = np.asarray(seq.response, dtype=np.int64)
    np.add.at(grad, (rows, targets), 1.0)
    return grad


def derive_seed(root: int, *key: int) -> int:
    """Counter-based child seed: stable under any generation order."""
    ss = np.random.SeedSequence(entropy=int(root), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def derive_rng(root: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(root), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def stream_salt(name: str) -> int:
    """Stable integer salt for a model/stream name (crc32, not hash())."""
    return zlib.crc32(name.encode("utf-8"))


# Generator.choice rejects a p whose sum is further than this from 1.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


class NucleusRows(dict):
    """Nucleus table of one model under one sampling config: row -> (kept tokens, cdf).

    A row is filled on its first visit: scale logits by 1/temperature,
    softmax, order tokens by descending probability (ties by ascending
    token index), keep the smallest prefix whose cumulative mass reaches
    top_p and renormalize it to ``q``. The cdf is then what
    ``Generator.choice(kept, p=q)`` searches, ``q.cumsum() / q.cumsum()[-1]``,
    so ``kept[bisect_right(cdf, rng.random())]`` is the token ``choice``
    draws from the same generator state. The table is valid while the
    model's logits do not change.
    """

    def __init__(self, model: PolicyModel, cfg: SamplingConfig):
        super().__init__()
        self.model = model
        self.cfg = cfg

    def __missing__(self, row: int) -> tuple[tuple[int, ...], array]:
        # Overflow to inf and inf - inf = NaN are caught by the check below.
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = self.model.logits[row] / self.cfg.temperature
            shifted = scaled - scaled.max()
            probs = np.exp(shifted)
            probs /= probs.sum()
        ranked = np.argsort(-probs, kind="stable")
        cum = np.cumsum(probs[ranked])
        keep = min(int(np.searchsorted(cum, self.cfg.top_p, side="left")) + 1, probs.size)
        kept = ranked[:keep]
        kept_p = probs[kept]
        q = kept_p / kept_p.sum()
        # The checks Generator.choice makes on p; NaN fails the first.
        if not np.all(q >= 0) or abs(float(q.sum()) - 1.0) > _CHOICE_ATOL:
            raise InputError(
                f"context row {row} has no nucleus distribution at temperature "
                f"{self.cfg.temperature} (non-finite or overflowing logits)"
            )
        cdf = q.cumsum()
        cdf /= cdf[-1]
        entry = self[row] = (tuple(kept.tolist()), array("d", cdf.tobytes()))
        return entry


def sample_response(
    model: PolicyModel,
    prompt: tuple[int, ...],
    cfg: SamplingConfig,
    rng: np.random.Generator | None = None,
    rows: NucleusRows | None = None,
) -> Sequence:
    """Nucleus (top-p) ancestral sampling with temperature.

    Each step draws one ``rng.random()`` and looks it up in the context
    row's nucleus (see NucleusRows), token for token and draw for draw
    what ``rng.choice`` over the nucleus gives. Stops at eos; if
    max_length tokens were drawn without eos, a terminal eos is appended.
    ``rows`` shares one table across calls on the same model and config.
    """
    size = model.vocab.size
    prompt = tuple(int(t) for t in prompt)
    for tok in prompt:
        if not 0 <= tok < size:
            raise InputError(f"prompt token {tok} outside vocabulary of size {size}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if rows is None:
        rows = NucleusRows(model, cfg)
    elif rows.model is not model or rows.cfg != cfg:
        raise UsageError("nucleus rows were built for another model or sampling config")

    n_rows = size**model.order
    row = 0
    for tok in ((model.vocab.bos_id,) * model.order + prompt)[-model.order :]:
        row = row * size + tok
    eos = model.vocab.eos_id
    draw = rng.random

    response: list[int] = []
    while len(response) < cfg.max_length:
        kept, cdf = rows[row]
        tok = kept[bisect_right(cdf, draw())]
        response.append(tok)
        if tok == eos:
            break
        row = (row * size + tok) % n_rows
    if response[-1] != eos:
        response.append(eos)
    return Sequence(prompt=prompt, response=tuple(response))


CHECKPOINT_FORMAT = "microwrpo-policy"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: PolicyModel, path, label: str | None = None) -> None:
    """Self-describing JSON checkpoint; parameters round-trip bit-exactly."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "label": label,
        "vocab": model.vocab.to_dict(),
        "order": model.order,
        "frozen": model.frozen,
        "params": {
            "shape": list(model.logits.shape),
            "dtype": "float64",
            "data_b64": base64.b64encode(
                np.ascontiguousarray(model.logits, dtype="<f8").tobytes()
            ).decode("ascii"),
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path) -> PolicyModel:
    """Read a checkpoint written by save_checkpoint; malformed content raises DataError."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an int literal too long to convert
            raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path}: not a policy checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {payload.get('version')!r}")
    try:
        params, order, frozen = payload["params"], payload["order"], payload["frozen"]
        shape = params["shape"]
        if not isinstance(shape, list) or not all(is_number(n, integer=True) for n in shape):
            raise TypeError("params.shape must be a list of ints")
        if not is_number(order, integer=True) or not isinstance(frozen, bool):
            raise TypeError("order must be an int and frozen a bool")
        raw = base64.b64decode(params["data_b64"], validate=True)
        vocab = Vocabulary.from_dict(payload["vocab"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint ({exc!r})") from exc
    if any(n < 0 for n in shape) or len(raw) != 8 * math.prod(shape):
        raise DataError(f"{path}: {len(raw)} parameter bytes do not fill shape {shape}")
    table = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(table).all():
        raise DataError(f"{path}: checkpoint parameters are not all finite")
    return PolicyModel(vocab=vocab, order=order, logits=table, frozen=frozen)


def parameter_hash(model: PolicyModel) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.logits, dtype="<f8").tobytes())
    h.update(repr((model.vocab.tokens, model.order)).encode())
    return h.hexdigest()

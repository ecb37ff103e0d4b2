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
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataError, InputError, UsageError, is_number

__all__ = [
    "Vocabulary",
    "Sequence",
    "PolicyModel",
    "SamplingConfig",
    "default_vocabulary",
    "sequence_log_prob",
    "log_prob_gradient",
    "PackedBatch",
    "PackedSequences",
    "NucleusRows",
    "sample_response",
    "save_checkpoint",
    "load_checkpoint",
    "parameter_hash",
    "derive_rng",
    "derive_seed",
    "StreamDraws",
    "stream_uniforms",
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


@dataclass(frozen=True, slots=True)
class Sequence:
    """A prompt and a response of token indices; the response ends in eos."""

    prompt: tuple[int, ...]
    response: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "prompt", tuple(map(int, self.prompt)))
        object.__setattr__(self, "response", tuple(map(int, self.response)))
        if len(self.response) == 0:
            raise InputError("response must be non-empty")

    def __len__(self) -> int:
        return len(self.response)

    @classmethod
    def _of_ints(cls, prompt: tuple[int, ...], response: tuple[int, ...]) -> "Sequence":
        """The Sequence of tuples that already hold Python ints, the response
        non-empty: what __post_init__ would make of them, without the copies."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "prompt", prompt)
        object.__setattr__(seq, "response", response)
        return seq


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 0.8
    top_p: float = 0.95
    max_length: int = 16
    seed: int = 0

    def __post_init__(self):
        if not is_number(self.temperature) or self.temperature <= 0:
            raise InputError(f"temperature must be a positive number (got {self.temperature!r})")
        if not is_number(self.top_p) or not 0 < self.top_p <= 1:
            raise InputError(f"top_p must be a number in (0, 1] (got {self.top_p!r})")
        if not is_number(self.max_length, integer=True) or self.max_length < 1:
            raise InputError(f"max_length must be an int >= 1 (got {self.max_length!r})")
        if not is_number(self.seed, integer=True) or self.seed < 0:
            raise InputError(f"seed must be an unsigned int (got {self.seed!r})")


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


def _validate_tokens(vocab: Vocabulary, seq: Sequence) -> None:
    size = vocab.size
    for tok in (*seq.prompt, *seq.response):
        if not 0 <= tok < size:
            raise InputError(f"token index {tok} outside vocabulary of size {size}")
    if seq.response[-1] != vocab.eos_id:
        raise InputError("response must terminate in eos")


# Sequences per forward pass of PackedSequences.log_probs; bounds the
# (positions x vocabulary) arrays a whole-dataset pass would allocate.
_FORWARD_CHUNK = 64
# Sequences per (members x distinct rows x vocabulary) block of
# PackedSequences.gradient. Blocks of a whole batch, a different size at every
# step, raised peak RSS through heap fragmentation; blocks of a few groups did not.
_GRADIENT_CHUNK = 16


class PackedBatch(NamedTuple):
    """One forward pass over a batch of groups; ``log_probs`` is (groups, width)."""

    ids: np.ndarray
    lengths: np.ndarray  # response length of each sequence of the batch
    positions: np.ndarray  # index of each response position into the packed arrays
    log_softmax: np.ndarray  # (positions, vocabulary)
    log_probs: np.ndarray


class PackedSequences:
    """Groups of ``width`` sequences packed once for batched log-probs and gradients.

    Every response position becomes one entry of flat arrays: its context
    row, its target token and the index of that row among the distinct
    rows of its group (that index and the distinct rows are made on the
    first gradient, which alone reads them). All of it comes from numpy
    passes over one flat token stream, no per-token Python. A batch of groups is then one gather of
    ``logits[rows]``, one ``log_softmax_rows`` and one sum per sequence,
    and its gradient is ordered scatter-adds into a compact (member,
    distinct row) block per few groups. The packing depends on the
    vocabulary and the context order only, so it serves every model that
    shares them.
    """

    def __init__(self, model: PolicyModel, groups):
        self.vocab, self.order = model.vocab, model.order
        groups = [tuple(g) for g in groups]
        self.width = width = len(groups[0]) if groups else 0
        # A bad token in a group before the first group of another width is the
        # first error, as when each group is checked in turn.
        short = next((i for i, g in enumerate(groups) if len(g) != width), len(groups))
        seqs = [seq for group in groups[:short] for seq in group]
        size, order, n = self.vocab.size, self.order, len(seqs)
        prompts = [seq.prompt for seq in seqs]
        responses = [seq.response for seq in seqs]
        if seqs and not (
            0 <= min(map(min, responses))
            and max(map(max, responses)) < size
            and 0 <= min(map(min, filter(None, prompts)), default=0)
            and max(map(max, filter(None, prompts)), default=0) < size
            and list(map(itemgetter(-1), responses)).count(self.vocab.eos_id) == n
        ):
            for seq in seqs:
                _validate_tokens(self.vocab, seq)  # raises the first error
        if short < len(groups):
            raise InputError("every group must hold the same number of sequences")
        # Each sequence as bos padding, prompt and response in one flat stream,
        # and which stream positions are response positions.
        pad = (self.vocab.bos_id,) * order
        heads = [order + len(prompt) for prompt in prompts]
        lengths = list(map(len, responses))
        stream = np.fromiter(
            chain.from_iterable(part for pr in zip(prompts, responses) for part in (pad, *pr)),
            np.int64,
            sum(heads) + sum(lengths),
        )
        runs = list(chain.from_iterable(zip(heads, lengths)))
        scored = np.repeat(np.array([False, True] * n, dtype=bool), runs)
        self.targets = stream[scored]
        self.lengths = np.array(lengths, dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths
        # The context row of every stream position from the order-th on: the
        # ``order`` tokens before it in base ``size``.
        context = stream[: len(stream) - order]
        for back in range(order - 1, 0, -1):
            context = context * size + stream[order - back : len(stream) - back]
        self.rows = context[scored[order:]]
        self.n_groups = len(groups)

    @cached_property
    def _visits(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(slots, distinct rows of each group), made on the first use: only
        gradient reads them."""
        group = np.repeat(np.arange(len(self.lengths)) // max(self.width, 1), self.lengths)
        _, visit, inverse = np.unique(
            group * self.vocab.size**self.order + self.rows,
            return_index=True,
            return_inverse=True,
        )
        by_visit = np.argsort(visit)
        rank = np.empty_like(by_visit)
        rank[by_visit] = np.arange(len(by_visit))
        counts = np.bincount(group[visit], minlength=self.n_groups)
        ends = np.cumsum(counts)
        slots = rank[inverse.ravel()] - (ends - counts)[group]
        ordered = self.rows[visit[by_visit]]
        return slots, [ordered[lo:hi] for lo, hi in zip((ends - counts).tolist(), ends.tolist())]

    @property
    def slots(self) -> np.ndarray:
        """Each position's row's rank among its group's rows, by first visit."""
        return self._visits[0]

    @property
    def distinct(self) -> list[np.ndarray]:
        """The distinct rows of each group, in order of first visit."""
        return self._visits[1]

    def __len__(self) -> int:
        return self.n_groups

    def _check(self, model: PolicyModel) -> None:
        if model.order != self.order or model.vocab != self.vocab:
            raise UsageError("sequences were packed for another vocabulary or context order")

    def forward(self, model: PolicyModel, ids) -> PackedBatch:
        """Log-prob of every sequence of the groups ``ids`` under ``model``.

        Each sum runs over one sequence's positions in order, as a row of
        a (sequences of that length, length) array; such a row sum equals
        the 1-D sum bit for bit, which zero padding would not. Logits whose
        softmax overflows give non-finite sums, not warnings.
        """
        self._check(model)
        ids = np.asarray(ids, dtype=np.int64)
        seqs = (ids[:, None] * self.width + np.arange(self.width)).ravel()
        lengths = self.lengths[seqs]
        offsets = np.cumsum(lengths) - lengths
        total = int(offsets[-1] + lengths[-1])
        positions = np.repeat(self.starts[seqs] - offsets, lengths) + np.arange(total)
        sums = np.empty(len(seqs))
        with np.errstate(over="ignore", invalid="ignore"):
            log_softmax = model.log_softmax_rows(self.rows[positions])
            picked = log_softmax[np.arange(total), self.targets[positions]]
            for n in set(lengths.tolist()):
                sel = np.flatnonzero(lengths == n)
                sums[sel] = picked[offsets[sel, None] + np.arange(n)].sum(axis=1)
        return PackedBatch(ids, lengths, positions, log_softmax, sums.reshape(len(ids), -1))

    def log_probs(self, model: PolicyModel) -> np.ndarray:
        """Log-prob of every packed sequence, (groups, width)."""
        out = np.empty((len(self), self.width))
        step = max(1, _FORWARD_CHUNK // max(1, self.width))
        for start in range(0, len(self), step):
            ids = np.arange(start, min(len(self), start + step))
            out[ids] = self.forward(model, ids).log_probs
        return out

    def gradient(self, model: PolicyModel, batch: PackedBatch, coefficients) -> np.ndarray:
        """sum of coefficients[g, m] * d log p(member m of group g) / d logits.

        Reproduces, cell for cell, the float order of one dense table per
        sequence (minus each position's softmax in position order, then +1
        at each target), scaled and added into a table per group in member
        order, and the groups' tables added in batch order. Each
        accumulator starts at +0.0, so no -0.0 appears.
        """
        if model.frozen:
            raise UsageError("cannot take parameter gradients of a frozen model")
        self._check(model)
        size, width = self.vocab.size, self.width
        per_chunk = max(1, _GRADIENT_CHUNK // width)
        n_distinct = np.array([len(self.distinct[i]) for i in batch.ids.tolist()])
        row_cuts = _cuts(n_distinct, per_chunk)
        pos_cuts = _cuts(batch.lengths, per_chunk * width)
        # Each sequence's first cell in its chunk's (member, distinct row) block.
        chunk = np.arange(len(n_distinct)) // per_chunk
        chunk_rows = np.diff(row_cuts)
        local = np.cumsum(n_distinct) - n_distinct - np.array(row_cuts)[chunk]
        base = np.arange(width) * chunk_rows[chunk, None] + local[:, None]
        # ufunc.at runs its fast loop on flat indices: cell = row * size + token.
        cells = (np.repeat(base.ravel(), batch.lengths) + self.slots[batch.positions]) * size
        targets = cells + self.targets[batch.positions]
        scale = np.repeat(np.asarray(coefficients, dtype=np.float64), n_distinct, axis=0)
        rows = np.concatenate([self.distinct[i] for i in batch.ids.tolist()])
        tokens = np.arange(size)
        grad = np.zeros_like(model.logits)
        for c, n_rows in enumerate(chunk_rows.tolist()):
            lo, hi = pos_cuts[c], pos_cuts[c + 1]
            r_lo, r_hi = row_cuts[c], row_cuts[c + 1]
            block = np.zeros((width, n_rows, size))
            probs = np.exp(batch.log_softmax[lo:hi])
            np.subtract.at(block.reshape(-1), (cells[lo:hi, None] + tokens).ravel(), probs.ravel())
            np.add.at(block.reshape(-1), targets[lo:hi], 1.0)
            per_group = np.zeros((n_rows, size))
            for m in range(width):
                block[m] *= scale[r_lo:r_hi, m, None]
                per_group += block[m]
            flat_rows = (rows[r_lo:r_hi, None] * size + tokens).ravel()
            np.add.at(grad.reshape(-1), flat_rows, per_group.ravel())
        return grad


def _cuts(counts: np.ndarray, step: int) -> list[int]:
    """Running totals of ``counts`` before every ``step``-th item, then the grand total."""
    ends = np.concatenate(([0], np.cumsum(counts)))
    return [*ends[:-1][::step].tolist(), int(ends[-1])]


def sequence_log_prob(model: PolicyModel, seq: Sequence) -> float:
    """Sum over response positions of log p(y_t | last-k context)."""
    return float(PackedSequences(model, [(seq,)]).log_probs(model)[0, 0])


def log_prob_gradient(model: PolicyModel, seq: Sequence) -> np.ndarray:
    """Exact gradient of sequence_log_prob w.r.t. every logit.

    For each visited context row the gradient is one_hot(y_t) - softmax;
    rows never visited by the sequence stay exactly zero.
    """
    packed = PackedSequences(model, [(seq,)])
    return packed.gradient(model, packed.forward(model, [0]), [[1.0]])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), all in 32-bit words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1


def _u64(value: int) -> np.ndarray:
    """A one-element uint64 array: an operand that keeps uint64 arithmetic in uint64
    under numpy's value-based casting (before 2.0) and NEP 50 (after)."""
    return np.array([value], np.uint64)


# pcg_setseq_128_srandom_r: PCG64's 128-bit LCG multiplier, as 64-bit words and
# the low word's 32-bit limbs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _u64(_PCG_MULT >> 64), _u64(_PCG_MULT & _MASK64)
_MULT_LO_0, _MULT_LO_1 = _u64(_PCG_MULT & _MASK32), _u64(_PCG_MULT >> 32 & _MASK32)
_ONE, _SHIFT_11, _SHIFT_32 = _u64(1), _u64(11), _u64(32)
_SHIFT_58, _SHIFT_63, _SHIFT_64, _LOW_32 = _u64(58), _u64(63), _u64(64), _u64(_MASK32)
# Most streams, and most uniforms, in one vectorized PCG64 pass: past 16 draws
# per stream a pass takes fewer streams, so its (streams x draws) buffer and
# its per-stream arrays stay bounded.
_DRAW_BLOCK = 4096
_DRAW_BUFFER = 16 * _DRAW_BLOCK
# Past this many draws per stream, one Generator per stream is faster than the
# vectorized pass, whose per-draw numpy calls then serve few streams each
# (full blocks, 2-core x86-64: 19 against 28 us per stream at 128 draws,
# 40 against 30 us at 192).
_PORT_MAX_DRAWS = 128
# Streams whose uniforms stream_uniforms turns into Python lists in one call.
_LIST_ROWS = 256


def _int_words(value) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; 0 is one word."""
    if not is_number(value, integer=True) or value < 0:
        raise InputError(f"seed roots and key items must be non-negative ints (got {value!r})")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_steps(init: int, mult: int):
    """(xor, multiplier) of each successive hash step: the constant before and after
    it is multiplied by ``mult``. They depend on no data."""
    const = init
    while True:
        nxt = const * mult & _MASK32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hashmix(value: np.ndarray, steps) -> np.ndarray:
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _entropy_words(root: int, salt: int, p: np.ndarray, s: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's entropy words of the streams (salt, p[i], s[i]) of ``root``:
    the root's words padded to the pool size, then the salt's word, then one
    word per stream from ``p`` and from ``s``. Every word is a uint32 array, of
    one element for the words all streams share, so the wrap-around arithmetic
    neither depends on numpy's scalar promotion rules nor warns on overflow."""
    words = _int_words(root)
    words += [0] * (_POOL_SIZE - len(words)) + [salt]
    return [np.array([w], np.uint32) for w in words] + [p.astype(np.uint32), s.astype(np.uint32)]


def _hash_words(entropy: list[np.ndarray], n_words: int) -> np.ndarray:
    """``generate_state(n_words, np.uint32)`` of the streams of _entropy_words' words,
    as a (streams, n_words) uint32 array."""
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i], steps) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], steps))
    # The per-stream words come after the pool's, so every pool word ends up per stream.
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], _hashmix(word, steps))
    steps = _hash_steps(_INIT_B, _MULT_B)
    return np.stack([_hashmix(pool[i % _POOL_SIZE], steps) for i in range(n_words)], axis=1)


def _mulhi64(a: np.ndarray, b_0: np.ndarray, b_1: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, b given by its 32-bit limbs."""
    a_0, a_1 = a & _LOW_32, a >> _SHIFT_32
    p_00, p_01, p_10 = a_0 * b_0, a_0 * b_1, a_1 * b_0
    mid = (p_00 >> _SHIFT_32) + (p_01 & _LOW_32) + (p_10 & _LOW_32)
    return a_1 * b_1 + (p_01 >> _SHIFT_32) + (p_10 >> _SHIFT_32) + (mid >> _SHIFT_32)


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One step of PCG64's LCG, state * mult + inc mod 2**128, on (high, low) words."""
    new_lo = lo * _MULT_LO
    new_hi = hi * _MULT_LO + lo * _MULT_HI + _mulhi64(lo, _MULT_LO_0, _MULT_LO_1)
    sum_lo = new_lo + inc_lo
    return new_hi + inc_hi + (sum_lo < new_lo), sum_lo


def _pcg64_seeded(entropy: list[np.ndarray]):
    """(state high, state low, inc high, inc low) uint64 words of PCG64 seeded from
    each stream of _entropy_words' words, as ``default_rng(SeedSequence)`` seeds it:
    ``generate_state(4, np.uint64)`` into pcg_setseq_128_srandom_r."""
    # The hash's words read as little-endian uint64 pairs.
    seeds = _hash_words(entropy, 8).astype("<u4", copy=False).view("<u8")
    s_hi, s_lo, i_hi, i_lo = seeds.T
    inc_hi, inc_lo = (i_hi << _ONE) | (i_lo >> _SHIFT_63), (i_lo << _ONE) | _ONE
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < inc_lo)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_uniform(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of the states: the XSL-RR output's top 53 bits * 2**-53."""
    xored, rot = hi ^ lo, hi >> _SHIFT_58
    out = (xored >> rot) | (xored << ((_SHIFT_64 - rot) & _SHIFT_63))
    return (out >> _SHIFT_11).astype(np.float64) * 2.0**-53


class StreamDraws:
    """One stream's uniforms: each ``random()`` call returns the next."""

    __slots__ = ("random",)

    def __init__(self, values: list[float]):
        self.random = iter(values).__next__


def stream_uniforms(
    root: int, salt: int, n_prompts: int, n_samples: int, n_draws: int
) -> Iterator[StreamDraws]:
    """The first ``n_draws`` uniforms of the stream (salt, p, s) of ``root`` for
    every p < ``n_prompts`` and s < ``n_samples``, in (p, s) order: what
    ``derive_rng(root, salt, p, s)`` gives call after call of ``random()``.

    Up to _PORT_MAX_DRAWS draws they come from one vectorized pass per
    block of streams: the SeedSequence hash, PCG64 seeding and ``n_draws``
    LCG steps, all on uint64 arrays. A block holds at most _DRAW_BLOCK
    streams and _DRAW_BUFFER uniforms. Past that, each stream's uniforms
    are ``derive_rng(root, salt, p, s).random(n_draws)``: at most
    config.MAX_SPACE (1 MiB) floats for a validated config's
    ``sampling.max_length``.
    """
    if not is_number(n_draws, integer=True) or n_draws < 1:
        raise InputError(f"n_draws must be a positive int (got {n_draws!r})")
    for name, value in (("salt", salt), ("n_prompts", n_prompts), ("n_samples", n_samples)):
        if not is_number(value, integer=True) or not 0 <= value <= _MASK32:
            raise InputError(f"{name} must be an int in [0, 2**32) (got {value!r})")
    n_streams = n_prompts * n_samples
    if n_draws > _PORT_MAX_DRAWS:
        for i in range(n_streams):
            rng = derive_rng(root, salt, *divmod(i, n_samples))
            yield StreamDraws(rng.random(n_draws).tolist())
        return
    size = min(_DRAW_BLOCK, _DRAW_BUFFER // n_draws)
    for start in range(0, n_streams, size):
        p, s = np.divmod(np.arange(start, min(start + size, n_streams)), n_samples)
        hi, lo, inc_hi, inc_lo = _pcg64_seeded(_entropy_words(root, salt, p, s))
        values = np.empty((len(p), n_draws))
        for k in range(n_draws):
            hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
            values[:, k] = _pcg64_uniform(hi, lo)
        # Lists of a few rows at a time: a whole block's would hold one float
        # object per uniform of _DRAW_BUFFER at once.
        for lo in range(0, len(values), _LIST_ROWS):
            yield from map(StreamDraws, values[lo : lo + _LIST_ROWS].tolist())


def _seed_sequence(root: int, key: tuple) -> np.random.SeedSequence:
    """numpy's SeedSequence of the stream ``key`` of ``root``; each must be a non-negative int."""
    for item in (root, *key):
        _int_words(item)
    return np.random.SeedSequence(root, spawn_key=key)


def derive_seed(root: int, *key: int) -> int:
    """Counter-based child seed: stable under any generation order."""
    return int(_seed_sequence(root, key).generate_state(1, np.uint64)[0])


def derive_rng(root: int, *key: int) -> np.random.Generator:
    """A fresh Generator on the stream ``key`` of ``root``."""
    return np.random.default_rng(_seed_sequence(root, key))


def stream_salt(name: str) -> int:
    """Stable integer salt for a model/stream name (crc32, not hash())."""
    return zlib.crc32(name.encode("utf-8"))


# Generator.choice rejects a p whose sum is further than this from 1.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _nucleus_pass(logits: np.ndarray, cfg: SamplingConfig):
    """The nucleus table of every row of ``logits``: (tokens by descending
    probability, the cdf of each row's kept prefix, each row's kept count,
    whether Generator.choice would reject its nucleus).

    Every step is the per-row computation applied along axis 1, so each row's
    values are bit for bit those of its own 1-D pass: the sums are row sums
    of rows of one length, never zero-padded ones, whose pairwise order would
    differ from 8 terms on.
    """
    # Overflow to inf and inf - inf = NaN make a row fail the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = logits / cfg.temperature
        probs = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        ranked = np.argsort(-probs, axis=1, kind="stable")
        ordered = np.take_along_axis(probs, ranked, axis=1)
        # cumsum never decreases, so this count is searchsorted(cum, top_p, "left").
        below = (ordered.cumsum(axis=1) < cfg.top_p).sum(axis=1)
        keep = np.minimum(below + 1, logits.shape[1])
        cdf = np.empty(logits.shape)
        rejected = np.empty(len(keep), dtype=bool)
        for n in set(keep.tolist()):
            sel = np.flatnonzero(keep == n)
            kept_p = ordered[sel, :n]
            q = kept_p / kept_p.sum(axis=1, keepdims=True)
            # The checks Generator.choice makes on p; NaN fails the first.
            rejected[sel] = ~np.all(q >= 0, axis=1) | (np.abs(q.sum(axis=1) - 1.0) > _CHOICE_ATOL)
            cum = q.cumsum(axis=1)
            cdf[sel, :n] = cum / cum[:, -1:]
    return ranked, cdf, keep, rejected


class NucleusRows(dict):
    """Nucleus table of one model under one sampling config:
    row -> (kept tokens, cdf, base).

    For every row: scale logits by 1/temperature, softmax, order tokens by
    descending probability (ties by ascending token index), keep the
    smallest prefix whose cumulative mass reaches top_p and renormalize it
    to ``q``. The cdf is then what ``Generator.choice(kept, p=q)``
    searches, ``q.cumsum() / q.cumsum()[-1]``, so
    ``kept[bisect_right(cdf, rng.random())]`` is the token ``choice`` draws
    from the same generator state. ``base`` is ``row * size % n_rows``, a
    multiple of ``size`` below ``n_rows``, so the row after token ``tok``
    is ``base + tok``.

    The constructor computes all rows in one vectorized pass, grouping rows
    by kept count for the sums. A row's Python entry, a tuple, an
    ``array("d")`` and an int, is made on its first visit; a row whose
    logits overflow at this temperature raises InputError then, and only if
    it is visited. The table is valid while the model's logits do not change.

    ``prompts`` maps each prompt sample_response has accepted through this
    table, as a tuple, to its tokens as Python ints and its start row, so a
    prompt is checked once per table, not once per draw.
    """

    def __init__(self, model: PolicyModel, cfg: SamplingConfig):
        super().__init__()
        self.model = model
        self.cfg = cfg
        n_rows, size = model.logits.shape
        # What sample_response needs of the model on every call; bos_row is the
        # all-bos context, where an empty prompt starts.
        self.n_rows, self.size, self.order = n_rows, size, model.order
        self.eos = model.vocab.eos_id
        self.bos_row = sum(model.vocab.bos_id * size**k for k in range(model.order))
        self._ranked, self._cdf, keep, rejected = _nucleus_pass(model.logits, cfg)
        self._keep, self._rejected = keep.tolist(), rejected.tolist()
        self.prompts: dict[tuple, tuple[tuple[int, ...], int]] = {}

    def __missing__(self, row: int) -> tuple[tuple[int, ...], array, int]:
        if self._rejected[row]:
            raise InputError(
                f"context row {row} has no nucleus distribution at temperature "
                f"{self.cfg.temperature} (non-finite or overflowing logits)"
            )
        n = self._keep[row]
        entry = self[row] = (
            tuple(self._ranked[row, :n].tolist()),
            array("d", self._cdf[row, :n].tobytes()),
            row * self.size % self.n_rows,
        )
        return entry

    def _start(self, prompt) -> tuple[tuple[int, ...], int]:
        """``prompt`` as a tuple of Python ints and the bos-padded context row of
        its first response position; InputError for a token outside the vocabulary."""
        size, n_rows = self.size, self.n_rows
        ints = tuple(map(int, prompt))
        if ints and (min(ints) < 0 or max(ints) >= size):
            bad = next(tok for tok in ints if not 0 <= tok < size)
            raise InputError(f"prompt token {bad} outside vocabulary of size {size}")
        row = self.bos_row
        for tok in ints[-self.order :]:
            row = (row * size + tok) % n_rows
        return ints, row


def sample_response(
    model: PolicyModel,
    prompt: tuple[int, ...],
    cfg: SamplingConfig,
    rng: np.random.Generator | StreamDraws | None = None,
    rows: NucleusRows | None = None,
) -> Sequence:
    """Nucleus (top-p) ancestral sampling with temperature.

    Each step draws one ``rng.random()`` and looks it up in the context
    row's nucleus (see NucleusRows), token for token and draw for draw
    what ``rng.choice`` over the nucleus gives. ``rng`` needs only that
    ``random()`` method: a Generator, or a stream of stream_uniforms.
    Stops at eos; if max_length tokens were drawn without eos, a terminal
    eos is appended. ``rows`` shares one table across calls on the same
    model and config; without it, each call builds the whole table. A
    prompt is checked once per table (NucleusRows.prompts).
    """
    if rows is None:
        rows = NucleusRows(model, cfg)
    elif rows.model is not model or (rows.cfg is not cfg and rows.cfg != cfg):
        raise UsageError("nucleus rows were built for another model or sampling config")
    key = tuple(prompt)
    known = rows.prompts.get(key)
    if known is None:
        known = rows.prompts[key] = rows._start(key)
    prompt, row = known
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    draw, eos = rng.random, rows.eos

    response: list[int] = []
    for _ in range(cfg.max_length):
        kept, cdf, base = rows[row]
        tok = kept[bisect_right(cdf, draw())]
        response.append(tok)
        if tok == eos:
            break
        row = base + tok
    else:
        response.append(eos)
    return Sequence._of_ints(prompt, tuple(response))


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
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc
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

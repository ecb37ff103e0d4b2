"""The preference-objective family as one linear-margin table.

Every kind is link(z) over one linear margin of per-role rewards,

    z = preferred - dispreferred - offset,

where a side is one role's reward, or a (source, target) pair fused as
alpha * r_s + (1 - alpha) * r_t. Each kind is one row of ``_TABLE``: its
preferred roles, its dispreferred roles, its link, its reward base and its
offset. Adding a kind is adding a row.

  * links: sigmoid is -log sigmoid(z), evaluated as softplus(-z) so that
    tiny (beta = 0.01) and huge margins both stay exact; square is z^2
    over unscaled log-ratios (beta = 1), as IPO defines it.
  * reward bases: beta * (theta_logp - ref_logp), or the reference-free
    beta * theta_logp / length.
  * offsets: none, gamma, or the IPO target 1/(2*tau).

The loss comes with its analytic derivative w.r.t. each policy log-prob,
+/- weight * scale * dlink/dz, which composes with the policy's exact
log-prob gradient. Reported internal rewards always carry beta, so telemetry
compares across kinds. The partition term of the reparameterized reward
cancels in every pairwise comparison and is never computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import policy as policy_mod
from .errors import InputError, NumericError, UsageError, is_number

__all__ = [
    "KINDS",
    "SIGMOID_KINDS",
    "WRPO_KINDS",
    "RoleLogProb",
    "ObjectiveConfig",
    "LossResult",
    "internal_reward",
    "compound_reward",
    "evaluate_loss",
    "check_fields",
    "PackedRecords",
    "loss_gradient_wrt_params",
]


@dataclass(frozen=True)
class RoleLogProb:
    """Log-probs of one response under the policy and the reference; or of one
    role of many records, each field then a number or a 1-D column with one entry
    per record."""

    theta: float | np.ndarray
    ref: float | np.ndarray = 0.0
    length: int | np.ndarray = 1

    def __post_init__(self):
        theta, ref, length = map(np.asarray, (self.theta, self.ref, self.length))
        if theta.ndim > 1 or {ref.shape, length.shape} - {(), theta.shape}:
            raise InputError("a role's fields must be numbers or 1-D columns of one length")
        for name, value in (("theta", theta), ("ref", ref)):
            # NaN fails both comparisons.
            if not (value.min(initial=0.0) > -math.inf and value.max(initial=0.0) <= 0):
                if not np.isfinite(value).all():
                    raise InputError(f"{name} log-prob must be finite")
                raise InputError(f"{name} log-prob must be <= 0 (got {value.max()})")
        if length.min(initial=1) < 1:
            raise InputError("response length must be >= 1")

    @property
    def delta(self) -> float | np.ndarray:
        """Policy-to-reference log ratio for this response."""
        return self.theta - self.ref


@dataclass(frozen=True)
class ObjectiveConfig:
    """Which loss of the family to use and its hyperparameters: the keys of the
    config's objective section. The fusion coefficient alpha, which the
    schedule moves per optimizer step, is an argument of each evaluation.
    pairing names the single preferred response of the pair-based kinds: the
    target's best ("on_policy") or the source's best ("hybrid").
    """

    kind: str
    beta: float = 0.01
    tau: float | None = None
    gamma: float | None = None
    pairing: str = "on_policy"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown objective kind {self.kind!r}")
        if not is_number(self.beta) or self.beta <= 0:
            raise InputError(f"beta must be a positive number (got {self.beta!r})")
        if self.tau is not None and (not is_number(self.tau) or self.tau <= 0):
            raise InputError(f"tau must be a positive number or None (got {self.tau!r})")
        if self.gamma is not None and (not is_number(self.gamma) or self.gamma < 0):
            raise InputError(f"gamma must be a number >= 0 or None (got {self.gamma!r})")
        if self.pairing not in _PAIRED_FIELDS:
            raise InputError(f"unknown pairing {self.pairing!r}")
        offset = _TABLE[self.kind].offset
        if offset is not None and getattr(self, offset.field) is None:
            raise InputError(f"kind {self.kind!r} requires {offset.field}")


@dataclass(frozen=True)
class LossResult:
    """What evaluate_loss returns: floats, or per-record lists for column roles."""

    loss: float | list[float]
    internal_rewards: dict[str, float | list[float]]
    grad_wrt_logps: dict[str, float | list[float]]
    on_policy_margin: float | list[float] | None = None
    hybrid_policy_margin: float | list[float] | None = None

    def record(self, i: int) -> LossResult:
        """Record ``i`` of a column result: the scalar call's result on that record's roles."""
        on_policy, hybrid = self.on_policy_margin, self.hybrid_policy_margin
        return LossResult(
            self.loss[i],
            {name: values[i] for name, values in self.internal_rewards.items()},
            {name: values[i] for name, values in self.grad_wrt_logps.items()},
            None if on_policy is None else on_policy[i],
            None if hybrid is None else hybrid[i],
        )


def internal_reward(theta_logp: float, ref_logp: float, beta: float) -> float:
    """beta * log(pi_theta / pi_ref); the cancelling partition term is omitted."""
    if not (is_number(theta_logp) and is_number(ref_logp)):
        raise InputError(f"log-probs must be finite numbers (got {theta_logp!r}, {ref_logp!r})")
    if not is_number(beta) or beta <= 0:
        raise InputError(f"beta must be a positive number (got {beta!r})")
    return beta * (theta_logp - ref_logp)


def compound_reward(r_ws: float, r_wt: float, alpha: float) -> float:
    """Fusion-weighted preferred reward: alpha * r_ws + (1 - alpha) * r_wt."""
    if not (is_number(r_ws) and is_number(r_wt)):
        raise InputError(f"rewards must be finite numbers (got {r_ws!r}, {r_wt!r})")
    if not is_number(alpha) or not 0 <= alpha <= 1:
        raise InputError(f"alpha must be a number in [0, 1] (got {alpha!r})")
    return alpha * r_ws + (1 - alpha) * r_wt


def expit(x: float) -> float:
    """The logistic function 1 / (1 + e^-x); 0.0 once e^-x overflows (x < -709.78)."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def log_expit(x: float) -> float:
    """log expit(x), with the exponent kept <= 0 so neither branch overflows."""
    return x - math.log1p(math.exp(x)) if x < 0 else -math.log1p(math.exp(-x))


def _per_record(f: Callable[[float], float]) -> Callable:
    """``f`` on a float, or on each entry of a column in Python floats: the link keeps
    libm's exp and log1p, whose last bit numpy's SIMD forms do not always match."""
    return lambda z: f(z) if np.ndim(z) == 0 else np.array([f(x) for x in z.tolist()])


class _Link(NamedTuple):
    loss: Callable[[float], float]
    slope: Callable[[float], float]  # dlink/dz
    beta_scaled: bool  # False: the margin is in unscaled log-ratios


_SIGMOID = _Link(_per_record(lambda z: -log_expit(z)), _per_record(lambda z: -expit(-z)), True)
_SQUARE = _Link(lambda z: z * z, lambda z: 2.0 * z, False)


def _log_ratio(r: RoleLogProb, beta: float) -> tuple[float, float]:
    """beta * (theta - ref) and its slope in theta."""
    return beta * r.delta, beta


def _length_normalized(r: RoleLogProb, beta: float) -> tuple[float, float]:
    """beta * theta / length and its slope in theta; the reference is unused."""
    return beta * r.theta / r.length, beta / r.length


class _Offset(NamedTuple):
    field: str  # the ObjectiveConfig field it reads; the config refuses None there
    value: Callable[[float], float]


_IPO_TARGET = _Offset("tau", lambda tau: 1.0 / (2.0 * tau))
_GAMMA = _Offset("gamma", lambda gamma: gamma)


class _Row(NamedTuple):
    preferred: tuple[str, ...]  # one role, or a (source, target) pair
    dispreferred: tuple[str, ...]
    link: _Link
    base: Callable[[RoleLogProb, float], tuple[float, float]]
    offset: _Offset | None


_FUSED = ("w_s", "w_t")
_TABLE = {
    "dpo": _Row(("w",), ("l",), _SIGMOID, _log_ratio, None),
    "ipo": _Row(("w",), ("l",), _SQUARE, _log_ratio, _IPO_TARGET),
    "simpo": _Row(("w",), ("l",), _SIGMOID, _length_normalized, _GAMMA),
    "wrpo_dpo": _Row(_FUSED, ("l",), _SIGMOID, _log_ratio, None),
    "wrpo_simpo": _Row(_FUSED, ("l",), _SIGMOID, _length_normalized, _GAMMA),
    "wrpo_ipo": _Row(_FUSED, ("l",), _SQUARE, _log_ratio, _IPO_TARGET),
    "wrpo_with_yls": _Row(_FUSED, ("l_s", "l_t"), _SIGMOID, _log_ratio, None),
}

KINDS = tuple(_TABLE)
SIGMOID_KINDS = tuple(k for k, row in _TABLE.items() if row.link is _SIGMOID)
WRPO_KINDS = tuple(k for k, row in _TABLE.items() if len(row.preferred) == 2)


def _side(names: tuple[str, ...], terms: dict, alpha: float | None):
    """Reward of one side of the margin and the weight of each of its roles; a pair is
    fused as compound_reward fuses it, at the alpha evaluate_loss checked."""
    if len(names) == 1:
        return terms[names[0]], (1.0,)
    return alpha * terms[names[0]] + (1 - alpha) * terms[names[1]], (alpha, 1 - alpha)


def evaluate_loss(
    roles: Mapping[str, RoleLogProb], cfg: ObjectiveConfig, alpha: float | None = None
) -> LossResult:
    """The loss of kind ``cfg.kind`` on ``roles`` (role name -> RoleLogProb), with its
    derivative w.r.t. each role's policy log-prob; the one entry point of the family.
    Roles of column fields give the LossResult of every record at once, each entry
    the float the call on that record's roles gives. A wrpo_* kind fuses its pairs
    at ``alpha``, which must be a number in [0, 1] (InputError otherwise, None
    included); a pair kind ignores it. InputError names a role the kind needs that
    ``roles`` lacks, and refuses roles of different record counts."""
    row = _TABLE[cfg.kind]
    if len(row.preferred) == 2 and (not is_number(alpha) or not 0 <= alpha <= 1):
        raise InputError(
            f"kind {cfg.kind!r} requires alpha: alpha must be a number in [0, 1] (got {alpha!r})"
        )
    # Pinned artifacts depend on this float order: a pair fused as compound_reward fuses it,
    # the offset subtracted last, and each coefficient formed as (weight * scale) * dz.
    margin_beta = cfg.beta if row.link.beta_scaled else 1.0
    terms, scales = {}, {}
    for name in row.preferred + row.dispreferred:
        if name not in roles:
            raise InputError(f"kind {cfg.kind!r} needs role {name!r}")
        terms[name], scales[name] = row.base(roles[name], margin_beta)
    if len({np.shape(roles[name].theta) for name in terms}) > 1:
        raise InputError(f"kind {cfg.kind!r}: its roles hold different numbers of records")
    rewards = terms
    if not row.link.beta_scaled:
        rewards = {name: row.base(roles[name], cfg.beta)[0] for name in terms}
    z_w, weights_w = _side(row.preferred, terms, alpha)
    z_l, weights_l = _side(row.dispreferred, terms, alpha)
    z = z_w - z_l
    if row.offset is not None:
        z = z - row.offset.value(getattr(cfg, row.offset.field))
    dz = row.link.slope(z)
    grads = {n: (w * scales[n]) * dz for n, w in zip(row.preferred, weights_w)}
    grads.update({n: -((w * scales[n]) * dz) for n, w in zip(row.dispreferred, weights_l)})
    loss = row.link.loss(z)
    if len(row.preferred) == 1:  # a pair kind's one margin goes in the column its pairing names
        margin = rewards["w"] - rewards["l"]
        on_policy, hybrid = (margin, None) if cfg.pairing == "on_policy" else (None, margin)
    else:  # each preferred response against the dispreferred one of its origin
        l_s, l_t = row.dispreferred[0], row.dispreferred[-1]
        on_policy, hybrid = rewards["w_t"] - rewards[l_t], rewards["w_s"] - rewards[l_s]
    return LossResult(
        _floats(loss),
        {name: _floats(value) for name, value in rewards.items()},
        {name: _floats(value) for name, value in grads.items()},
        _floats(on_policy),
        _floats(hybrid),
    )


def _floats(value):
    """A float, or a column's list of floats; None stays None."""
    return None if value is None else np.asarray(value).tolist()


# Quadruple field of each role; "w" is taken by pairing.
_ROLE_FIELDS = {"w_s": "y_ws", "w_t": "y_wt", "l": "y_l", "l_t": "y_l", "l_s": "y_ls"}
_PAIRED_FIELDS = {"on_policy": "y_wt", "hybrid": "y_ws"}


def check_fields(quadruples, cfg: ObjectiveConfig) -> tuple[str, ...]:
    """The quadruple field each role of ``cfg.kind`` reads, in role order: w_s is
    y_ws, w_t is y_wt, l and l_t are y_l, l_s is y_ls, and w is the field
    ``cfg.pairing`` names. InputError names the first quadruple that lacks one;
    only y_ls may be absent from a dataset."""
    row = _TABLE[cfg.kind]
    role_fields = {**_ROLE_FIELDS, "w": _PAIRED_FIELDS[cfg.pairing]}
    fields = tuple(role_fields[name] for name in row.preferred + row.dispreferred)
    for i, quadruple in enumerate(quadruples):
        for name in fields:
            if getattr(quadruple, name) is None:
                raise InputError(
                    f"objective kind {cfg.kind!r} reads {name}, which quadruple {i} lacks; "
                    "generate the data with data.include_yls"
                )
    return fields


class PackedRecords:
    """Preference records packed once for one objective.

    Each role of the kind's row reads one quadruple field (check_fields). A
    record's role sequences are one group of a PackedSequences, in role
    order. The reference is frozen, so its log-probs are computed here,
    once, on the same packing; kinds that use it raise InputError when ref
    is None, and UsageError when it is not frozen or has another vocabulary
    or context order. The reference-free kinds never read it.
    """

    def __init__(self, model, ref, quadruples, objective: ObjectiveConfig):
        row = _TABLE[objective.kind]
        if row.base is _length_normalized:
            ref = None
        elif ref is None:
            raise InputError(f"objective kind {objective.kind!r} needs a reference model")
        elif not ref.frozen:
            raise UsageError("the reference model must be frozen")
        fields = check_fields(quadruples, objective)
        self.objective, self.roles = objective, row.preferred + row.dispreferred
        self.groups = [tuple(getattr(q, name).sequence for name in fields) for q in quadruples]
        self.sequences = policy_mod.PackedSequences(model, self.groups)
        self.lengths = self.sequences.lengths.reshape(len(self.groups), -1)
        self.ref = np.zeros(self.lengths.shape) if ref is None else self.sequences.log_probs(ref)

    def loss_gradient(self, model, ids, alpha: float | None = None):
        """The column LossResult of the records ``ids`` (one entry per record, in
        batch order) and the sum of their parameter gradients, at the step's fusion
        coefficient ``alpha``, which a pair kind ignores.

        Each record's grad_wrt_logps scales its roles' exact log-prob
        gradients; see PackedSequences.gradient for the float order. A record
        whose policy log-probs do not sum to a finite number (a diverged
        policy) raises NumericError, naming the first such record.
        """
        batch = self.sequences.forward(model, ids)
        bad = np.flatnonzero(~np.isfinite(batch.log_probs.sum(axis=1)))
        if bad.size:
            raise NumericError(f"record {batch.ids[bad[0]]} has a non-finite policy log-prob")
        ref, lengths = self.ref[batch.ids], self.lengths[batch.ids]
        roles = {
            name: RoleLogProb(batch.log_probs[:, j], ref[:, j], lengths[:, j])
            for j, name in enumerate(self.roles)
        }
        result = evaluate_loss(roles, self.objective, alpha)
        coefficients = np.array([result.grad_wrt_logps[name] for name in self.roles]).T
        return result, self.sequences.gradient(model, batch, coefficients)


def loss_gradient_wrt_params(model, ref, quadruple, cfg: ObjectiveConfig, alpha=None):
    """Compose grad_wrt_logps with the policy's exact log-prob gradients at ``alpha``.

    Returns (LossResult, gradient table of the same shape as the policy's
    logits).
    """
    result, grad = PackedRecords(model, ref, [quadruple], cfg).loss_gradient(model, [0], alpha)
    return result.record(0), grad

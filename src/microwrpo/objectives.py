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
from .errors import InputError, UsageError

__all__ = [
    "KINDS",
    "SIGMOID_KINDS",
    "REFERENCE_FREE_KINDS",
    "WRPO_KINDS",
    "YLS_KINDS",
    "RoleLogProb",
    "LogProbBundle",
    "ObjectiveConfig",
    "LossResult",
    "internal_reward",
    "bt_probability",
    "compound_reward",
    "evaluate_loss",
    "PackedRecords",
    "bundle_from_quadruple",
    "loss_gradient_wrt_params",
]


@dataclass(frozen=True)
class RoleLogProb:
    """Log-probs of one response under the policy and the reference."""

    theta: float
    ref: float = 0.0
    length: int = 1

    def __post_init__(self):
        for name, value in (("theta", self.theta), ("ref", self.ref)):
            if not math.isfinite(value):
                raise InputError(f"{name} log-prob must be finite")
            if value > 0:
                raise InputError(f"{name} log-prob must be <= 0 (got {value})")
        if self.length < 1:
            raise InputError("response length must be >= 1")

    @property
    def delta(self) -> float:
        """Policy-to-reference log ratio for this response."""
        return self.theta - self.ref


@dataclass(frozen=True)
class LogProbBundle:
    roles: Mapping[str, RoleLogProb]

    @classmethod
    def pair(cls, w: RoleLogProb, l: RoleLogProb) -> "LogProbBundle":
        return cls(roles={"w": w, "l": l})

    @classmethod
    def triple(
        cls, w_s: RoleLogProb, w_t: RoleLogProb, l: RoleLogProb
    ) -> "LogProbBundle":
        return cls(roles={"w_s": w_s, "w_t": w_t, "l": l})

    @classmethod
    def quad(
        cls,
        w_s: RoleLogProb,
        w_t: RoleLogProb,
        l_s: RoleLogProb,
        l_t: RoleLogProb,
    ) -> "LogProbBundle":
        return cls(roles={"w_s": w_s, "w_t": w_t, "l_s": l_s, "l_t": l_t})

    def role(self, name: str) -> RoleLogProb:
        try:
            return self.roles[name]
        except KeyError:
            raise InputError(f"bundle is missing role {name!r}") from None


@dataclass(frozen=True)
class ObjectiveConfig:
    """Which loss of the family to use and its hyperparameters.

    alpha is only meaningful for the wrpo_* kinds and is normally filled
    in per optimizer step by the fusion schedule.
    """

    kind: str
    beta: float = 0.01
    tau: float | None = None
    gamma: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown objective kind {self.kind!r}")
        if not self.beta > 0:
            raise InputError("beta must be positive")
        if self.tau is not None and not self.tau > 0:
            raise InputError("tau must be positive")
        if self.gamma is not None and self.gamma < 0:
            raise InputError("gamma must be >= 0")
        if self.alpha is not None and not 0 <= self.alpha <= 1:
            raise InputError("alpha must be in [0, 1]")

    def require_tau(self) -> float:
        if self.tau is None:
            raise InputError(f"kind {self.kind!r} requires tau")
        return self.tau

    def require_gamma(self) -> float:
        if self.gamma is None:
            raise InputError(f"kind {self.kind!r} requires gamma")
        return self.gamma

    def require_alpha(self) -> float:
        if self.alpha is None:
            raise InputError(f"kind {self.kind!r} requires alpha")
        return self.alpha


@dataclass(frozen=True)
class LossResult:
    loss: float
    internal_rewards: dict[str, float]
    grad_wrt_logps: dict[str, float]
    on_policy_margin: float | None = None
    hybrid_policy_margin: float | None = None


def internal_reward(theta_logp: float, ref_logp: float, beta: float) -> float:
    """beta * log(pi_theta / pi_ref); the cancelling partition term is omitted."""
    if not (np.isfinite(theta_logp) and np.isfinite(ref_logp)):
        raise InputError("log-probs must be finite")
    if not beta > 0:
        raise InputError("beta must be positive")
    return beta * (theta_logp - ref_logp)


def bt_probability(reward_w: float, reward_l: float) -> float:
    """Bradley-Terry win probability sigma(reward_w - reward_l)."""
    if not (np.isfinite(reward_w) and np.isfinite(reward_l)):
        raise InputError("rewards must be finite")
    return expit(reward_w - reward_l)


def compound_reward(r_ws: float, r_wt: float, alpha: float) -> float:
    """Fusion-weighted preferred reward: alpha * r_ws + (1 - alpha) * r_wt."""
    if not 0 <= alpha <= 1:
        raise InputError("alpha must be in [0, 1]")
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


class _Link(NamedTuple):
    loss: Callable[[float], float]
    slope: Callable[[float], float]  # dlink/dz
    beta_scaled: bool  # False: the margin is in unscaled log-ratios


_SIGMOID = _Link(lambda z: float(-log_expit(z)), lambda z: -expit(-z), True)
_SQUARE = _Link(lambda z: z * z, lambda z: 2.0 * z, False)


def _log_ratio(r: RoleLogProb, beta: float) -> tuple[float, float]:
    """beta * (theta - ref) and its slope in theta."""
    return beta * r.delta, beta


def _length_normalized(r: RoleLogProb, beta: float) -> tuple[float, float]:
    """beta * theta / length and its slope in theta; the reference is unused."""
    return beta * r.theta / r.length, beta / r.length


def _ipo_target(cfg: ObjectiveConfig) -> float:
    return 1.0 / (2.0 * cfg.require_tau())


class _Row(NamedTuple):
    preferred: tuple[str, ...]  # one role, or a (source, target) pair
    dispreferred: tuple[str, ...]
    link: _Link
    base: Callable[[RoleLogProb, float], tuple[float, float]]
    offset: Callable[[ObjectiveConfig], float] | None


_GAMMA = ObjectiveConfig.require_gamma
_FUSED = ("w_s", "w_t")
_TABLE = {
    "dpo": _Row(("w",), ("l",), _SIGMOID, _log_ratio, None),
    "ipo": _Row(("w",), ("l",), _SQUARE, _log_ratio, _ipo_target),
    "simpo": _Row(("w",), ("l",), _SIGMOID, _length_normalized, _GAMMA),
    "wrpo_dpo": _Row(_FUSED, ("l",), _SIGMOID, _log_ratio, None),
    "wrpo_simpo": _Row(_FUSED, ("l",), _SIGMOID, _length_normalized, _GAMMA),
    "wrpo_ipo": _Row(_FUSED, ("l",), _SQUARE, _log_ratio, _ipo_target),
    "wrpo_with_yls": _Row(_FUSED, ("l_s", "l_t"), _SIGMOID, _log_ratio, None),
}

KINDS = tuple(_TABLE)
SIGMOID_KINDS = tuple(k for k, row in _TABLE.items() if row.link is _SIGMOID)
REFERENCE_FREE_KINDS = tuple(k for k, row in _TABLE.items() if row.base is _length_normalized)
WRPO_KINDS = tuple(k for k, row in _TABLE.items() if len(row.preferred) == 2)
YLS_KINDS = tuple(k for k, row in _TABLE.items() if "l_s" in row.dispreferred)


def _side(names: tuple[str, ...], terms: dict, alpha: float | None):
    """Reward of one side of the margin and the weight of each of its roles."""
    if len(names) == 1:
        return terms[names[0]], (1.0,)
    return compound_reward(terms[names[0]], terms[names[1]], alpha), (alpha, 1 - alpha)


def evaluate_loss(bundle: LogProbBundle, cfg: ObjectiveConfig) -> LossResult:
    """The loss of kind ``cfg.kind`` on ``bundle``, with its derivative w.r.t. each role's
    policy log-prob; the one scalar entry point of the family."""
    row = _TABLE[cfg.kind]
    # Pinned artifacts depend on this float order: a pair fused by compound_reward,
    # the offset subtracted last, and each coefficient formed as (weight * scale) * dz.
    alpha = cfg.require_alpha() if len(row.preferred) == 2 else None
    margin_beta = cfg.beta if row.link.beta_scaled else 1.0
    terms, scales = {}, {}
    for name in row.preferred + row.dispreferred:
        terms[name], scales[name] = row.base(bundle.role(name), margin_beta)
    rewards = terms
    if not row.link.beta_scaled:
        rewards = {name: row.base(bundle.role(name), cfg.beta)[0] for name in terms}
    z_w, weights_w = _side(row.preferred, terms, alpha)
    z_l, weights_l = _side(row.dispreferred, terms, alpha)
    z = z_w - z_l
    if row.offset is not None:
        z = z - row.offset(cfg)
    dz = row.link.slope(z)
    grads = {n: (w * scales[n]) * dz for n, w in zip(row.preferred, weights_w)}
    grads.update({n: -((w * scales[n]) * dz) for n, w in zip(row.dispreferred, weights_l)})
    loss = row.link.loss(z)
    if alpha is None:
        return LossResult(loss, rewards, grads)
    # Each preferred response is compared with the dispreferred one of its origin.
    l_s, l_t = row.dispreferred[0], row.dispreferred[-1]
    on_policy, hybrid = rewards["w_t"] - rewards[l_t], rewards["w_s"] - rewards[l_s]
    return LossResult(loss, rewards, grads, on_policy, hybrid)


# Quadruple field of each role; "w" is taken by pairing.
_ROLE_FIELDS = {"w_s": "y_ws", "w_t": "y_wt", "l": "y_l", "l_t": "y_l", "l_s": "y_ls"}
_PAIRED_FIELDS = {"on_policy": "y_wt", "hybrid": "y_ws"}


class PackedRecords:
    """Preference records packed once for one kind and pairing.

    Each role of the kind's row reads one quadruple field: w_s is y_ws,
    w_t is y_wt, l and l_t are y_l, l_s is y_ls. The single preferred role
    w of the pair-based kinds is the target's best response
    (pairing="on_policy") or the source's best (pairing="hybrid"). A
    record's role sequences are one group of a PackedSequences, in role
    order. The reference is frozen, so its log-probs are computed here,
    once, on the same packing; kinds that use it raise InputError when ref
    is None, and UsageError when it has another vocabulary or context
    order. The reference-free kinds never read it.
    """

    def __init__(self, model, ref, quadruples, kind: str, pairing: str = "on_policy"):
        if pairing not in _PAIRED_FIELDS:
            raise InputError(f"unknown pairing {pairing!r}")
        if kind not in KINDS:
            raise InputError(f"unknown objective kind {kind!r}")
        row = _TABLE[kind]
        if row.base is _length_normalized:
            ref = None
        elif ref is None:
            raise InputError(f"objective kind {kind!r} needs a reference model")
        fields = {**_ROLE_FIELDS, "w": _PAIRED_FIELDS[pairing]}
        self.kind, self.roles = kind, row.preferred + row.dispreferred
        self.groups = []
        for quadruple in quadruples:
            group = []
            for name in self.roles:
                response = getattr(quadruple, fields[name])
                if response is None:
                    raise InputError(
                        f"quadruple has no {fields[name]}; regenerate data with include_yls"
                    )
                group.append(response.sequence)
            self.groups.append(tuple(group))
        self.sequences = policy_mod.PackedSequences(model, self.groups)
        self.lengths = self.sequences.lengths.reshape(len(self.groups), -1).tolist()
        if ref is None:
            self.ref = [[0.0] * len(self.roles) for _ in self.groups]
        else:
            self.ref = self.sequences.log_probs(ref).tolist()

    def bundles(self, model, ids) -> tuple[list[LogProbBundle], policy_mod.PackedBatch]:
        """The log-prob bundle of each record ``ids`` under ``model``, and the forward pass."""
        batch = self.sequences.forward(model, ids)
        bundles = []
        for i, thetas in zip(batch.ids.tolist(), batch.log_probs.tolist()):
            roles = zip(self.roles, thetas, self.ref[i], self.lengths[i])
            bundles.append(
                LogProbBundle(roles={n: RoleLogProb(t, r, length) for n, t, r, length in roles})
            )
        return bundles, batch

    def loss_gradient(self, model, ids, cfg: ObjectiveConfig):
        """The LossResult of each record ``ids`` and the sum of their parameter gradients.

        Each record's grad_wrt_logps scales its roles' exact log-prob
        gradients; see PackedSequences.gradient for the float order.
        """
        if cfg.kind != self.kind:
            raise UsageError(f"records were packed for {self.kind!r}, not {cfg.kind!r}")
        bundles, batch = self.bundles(model, ids)
        results = [evaluate_loss(bundle, cfg) for bundle in bundles]
        coefficients = [[r.grad_wrt_logps[name] for name in self.roles] for r in results]
        return results, self.sequences.gradient(model, batch, coefficients)


def bundle_from_quadruple(model, ref, quadruple, kind: str, pairing: str = "on_policy"):
    """Build (bundle, role -> Sequence) for one preference record; see PackedRecords."""
    packed = PackedRecords(model, ref, [quadruple], kind, pairing)
    bundles, _ = packed.bundles(model, [0])
    return bundles[0], dict(zip(packed.roles, packed.groups[0]))


def loss_gradient_wrt_params(
    model,
    ref,
    quadruple,
    cfg: ObjectiveConfig,
    pairing: str = "on_policy",
):
    """Compose grad_wrt_logps with the policy's exact log-prob gradients.

    Returns (LossResult, gradient table of the same shape as the policy's
    logits).
    """
    if model.frozen:
        raise UsageError("cannot differentiate a frozen model")
    results, grad = PackedRecords(model, ref, [quadruple], cfg.kind, pairing).loss_gradient(
        model, [0], cfg
    )
    return results[0], grad

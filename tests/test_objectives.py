"""Preference-objective family: values, gradients, identities, properties."""

import math
from dataclasses import replace

import numpy as np
import pytest

from microwrpo import datagen
from microwrpo import objectives as obj
from microwrpo.errors import InputError, UsageError
from microwrpo.policy import PolicyModel, Sequence, default_vocabulary, stream_salt

LOG2 = math.log(2.0)


def role(theta, ref=0.0, length=1):
    return obj.RoleLogProb(theta=theta, ref=ref, length=length)


def pair(w, l):
    return {"w": w, "l": l}


def triple(w_s, w_t, l):
    return {"w_s": w_s, "w_t": w_t, "l": l}


def quad_roles(w_s, w_t, l_s, l_t):
    return {"w_s": w_s, "w_t": w_t, "l_s": l_s, "l_t": l_t}


def rand_role(rng, length=None):
    return obj.RoleLogProb(
        theta=float(-rng.uniform(0.5, 20)),
        ref=float(-rng.uniform(0.5, 20)),
        length=int(rng.integers(1, 9)) if length is None else length,
    )


class TestInternalReward:
    def test_identical_policies_give_zero(self):
        assert obj.internal_reward(-3.7, -3.7, 0.5) == 0.0

    def test_direct_arithmetic(self):
        assert obj.internal_reward(-3.0, -5.0, 0.01) == pytest.approx(0.02, rel=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            obj.internal_reward(float("-inf"), -1.0, 0.1)


class TestScalarSigmoid:
    def test_bit_identical_to_scipy(self):
        """The scalar math forms reproduce scipy.special bit for bit, overflow tail included."""
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(0)
        xs = np.concatenate([
            np.linspace(-712.0, -707.0, 100_001),  # where math.exp(-x) starts to overflow
            np.linspace(-800.0, 800.0, 160_001),
            *(scale * rng.standard_normal(30_000) for scale in (1e-3, 1.0, 30.0, 300.0)),
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 709.78, -709.78, 1e308, -1e308],
            [math.inf, -math.inf],
        ])
        for ours, theirs in ((obj.expit, special.expit), (obj.log_expit, special.log_expit)):
            got = np.array([ours(float(x)) for x in xs])
            mismatched = got.view(np.uint64) != theirs(xs).view(np.uint64)
            assert not mismatched.any(), (ours.__name__, xs[mismatched][:5])


class TestCompoundReward:
    def test_endpoints(self):
        assert obj.compound_reward(2.0, 1.0, 0.0) == 1.0
        assert obj.compound_reward(2.0, 1.0, 1.0) == 2.0

    def test_interior(self):
        assert obj.compound_reward(2.0, 1.0, 0.3) == pytest.approx(1.3, rel=1e-12)

    def test_alpha_out_of_range(self):
        roles = triple(role(-1.0), role(-1.0), role(-1.0))
        cfg = obj.ObjectiveConfig("wrpo_dpo")
        for alpha in (1.5, -0.1):
            with pytest.raises(InputError, match="alpha must be a number in"):
                obj.compound_reward(1.0, 1.0, alpha)
            with pytest.raises(InputError, match="alpha must be a number in"):
                obj.evaluate_loss(roles, cfg, alpha)


class TestScalarHelperArguments:
    @pytest.mark.parametrize(
        "helper, args",
        [
            (obj.internal_reward, (-1.0, -2.0, True)),
            (obj.internal_reward, (False, -2.0, 0.1)),
            (obj.internal_reward, ("a", -1.0, 0.1)),
            (obj.internal_reward, (-1.0, -2.0, "0.1")),
            (obj.internal_reward, (-1.0, -2.0, math.inf)),
            (obj.compound_reward, (1.0, 2.0, True)),
            (obj.compound_reward, (1.0, 2.0, False)),
            (obj.compound_reward, (1.0, 2.0, "0.5")),
            (obj.compound_reward, (1.0, 2.0, math.nan)),
            (obj.compound_reward, (True, 2.0, 0.5)),
            (obj.compound_reward, (1.0, "a", 0.5)),
            (obj.compound_reward, (math.inf, 2.0, 0.5)),
        ],
        ids=[
            "internal-beta-True", "internal-theta-False", "internal-theta-str",
            "internal-beta-str", "internal-beta-inf", "compound-alpha-True",
            "compound-alpha-False", "compound-alpha-str", "compound-alpha-nan",
            "compound-r_ws-True", "compound-r_wt-str", "compound-r_ws-inf",
        ],
    )
    def test_non_numbers_rejected(self, helper, args):
        with pytest.raises(InputError):
            helper(*args)

    def test_numpy_floats_accepted(self):
        f = np.float64
        assert obj.internal_reward(f(-1.0), f(-2.0), f(0.5)) == 0.5
        assert obj.compound_reward(f(2.0), f(1.0), f(0.5)) == 1.5


class TestDpoLoss:
    def test_zero_margin_is_log_two(self):
        r = role(-4.0, -4.0)
        out = obj.evaluate_loss(pair(r, r), obj.ObjectiveConfig("dpo"))
        assert out.loss == pytest.approx(LOG2, abs=1e-12)

    def test_direct_value(self):
        # beta=1, delta_w=1, delta_l=-1 -> z=2, loss=log(1+e^-2)
        roles = pair(role(-1.0, -2.0), role(-3.0, -2.0))
        out = obj.evaluate_loss(roles, obj.ObjectiveConfig("dpo", beta=1.0))
        assert out.loss == pytest.approx(math.log1p(math.exp(-2.0)), rel=1e-12)
        assert out.loss == pytest.approx(0.126928, abs=1e-6)

    def test_missing_role(self):
        with pytest.raises(InputError, match="'l'"):
            obj.evaluate_loss({"w": role(-1.0)}, obj.ObjectiveConfig("dpo"))

    @pytest.mark.parametrize("pairing", ["on_policy", "hybrid"])
    @pytest.mark.parametrize("kind", ["dpo", "ipo", "simpo"])
    def test_margin_in_the_pairing_column(self, kind, pairing):
        roles = pair(role(-1.0, -2.0), role(-3.0, -2.0))
        cfg = obj.ObjectiveConfig(kind, beta=0.5, tau=0.01, gamma=0.0, pairing=pairing)
        out = obj.evaluate_loss(roles, cfg)
        margins = {"on_policy": out.on_policy_margin, "hybrid": out.hybrid_policy_margin}
        assert margins.pop(pairing) == out.internal_rewards["w"] - out.internal_rewards["l"] == 1.0
        assert list(margins.values()) == [None]

    @pytest.mark.parametrize("pairing", ["on_policy", "hybrid"])
    @pytest.mark.parametrize("kind", ["dpo", "ipo", "simpo"])
    def test_pair_kind_ignores_alpha(self, kind, pairing):
        roles = pair(role(-1.0, -2.0, 2), role(-3.0, -2.0, 3))
        cfg = obj.ObjectiveConfig(kind, beta=0.5, tau=0.01, gamma=0.1, pairing=pairing)
        assert obj.evaluate_loss(roles, cfg, 0.3) == obj.evaluate_loss(roles, cfg, None)
        assert obj.evaluate_loss(roles, cfg, 0.3) == obj.evaluate_loss(roles, cfg)

    def test_grad_signs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            roles = pair(rand_role(rng), rand_role(rng))
            out = obj.evaluate_loss(roles, obj.ObjectiveConfig("dpo", beta=0.05))
            assert out.grad_wrt_logps["w"] <= 0
            assert out.grad_wrt_logps["l"] >= 0


class TestIpoLoss:
    def test_exact_target_margin_zero_loss(self):
        tau = 0.05
        roles = pair(role(-1.0, -1.0 - 1 / (2 * tau)), role(-2.0, -2.0))
        out = obj.evaluate_loss(roles, obj.ObjectiveConfig("ipo", tau=tau))
        assert out.loss == pytest.approx(0.0, abs=1e-18)

    def test_equal_deltas_value(self):
        r = role(-3.0, -3.0)
        out = obj.evaluate_loss(pair(r, r), obj.ObjectiveConfig("ipo", tau=0.01))
        assert out.loss == pytest.approx(2500.0, rel=1e-12)

    def test_tau_required_and_positive(self):
        with pytest.raises(InputError, match="requires tau"):
            obj.ObjectiveConfig("ipo")
        with pytest.raises(InputError):
            obj.ObjectiveConfig("ipo", tau=-1.0)


class TestObjectiveConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("beta", True), ("beta", math.inf), ("beta", "x"), ("tau", math.inf),
            ("tau", True), ("gamma", math.inf), ("gamma", "0"),
        ],
    )
    def test_non_numbers_rejected(self, field, value):
        with pytest.raises(InputError):
            obj.ObjectiveConfig("wrpo_ipo", **{"tau": 0.01, field: value})

    def test_alpha_is_not_a_field(self):
        # alpha is the argument of each evaluation, not part of the objective.
        with pytest.raises(TypeError):
            obj.ObjectiveConfig("wrpo_dpo", alpha=0.3)

    @pytest.mark.parametrize("kind", obj.KINDS)
    def test_offset_of_the_kind_required(self, kind):
        # Each kind's row reads tau (ipo), gamma (simpo) or neither; only that one must be set.
        needs = {"ipo": "tau", "wrpo_ipo": "tau", "simpo": "gamma", "wrpo_simpo": "gamma"}
        for field in ("tau", "gamma"):
            values = {"tau": 0.01, "gamma": 0.0, field: None}
            if needs.get(kind) == field:
                with pytest.raises(InputError, match=f"requires {field}"):
                    obj.ObjectiveConfig(kind, **values)
            else:
                assert getattr(obj.ObjectiveConfig(kind, **values), field) is None


class TestSimpoLoss:
    def test_equal_averages_gamma_zero_is_log_two(self):
        roles = pair(role(-2.0, length=2), role(-4.0, length=4))
        out = obj.evaluate_loss(roles, obj.ObjectiveConfig("simpo", beta=2.0, gamma=0.0))
        assert out.loss == pytest.approx(LOG2, abs=1e-12)

    def test_direct_value(self):
        # beta=10, avg_w=-1.0, avg_l=-1.2, gamma=1 -> z = 1.0
        roles = pair(role(-2.0, length=2), role(-6.0, length=5))
        out = obj.evaluate_loss(roles, obj.ObjectiveConfig("simpo", beta=10.0, gamma=1.0))
        assert out.loss == pytest.approx(math.log1p(math.exp(-1.0)), rel=1e-12)
        assert out.loss == pytest.approx(0.313262, abs=1e-6)

    def test_reference_not_consumed(self):
        a = pair(role(-2.0, -9.0, 2), role(-3.0, -0.5, 3))
        b = pair(role(-2.0, -1.0, 2), role(-3.0, -8.0, 3))
        cfg = obj.ObjectiveConfig("simpo", beta=5.0, gamma=0.5)
        assert obj.evaluate_loss(a, cfg).loss == obj.evaluate_loss(b, cfg).loss


class TestWrpoLoss:
    def test_endpoint_alpha_zero_equals_dpo_on_target_pair(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w_s, w_t, l = rand_role(rng), rand_role(rng), rand_role(rng)
            cfg = obj.ObjectiveConfig("wrpo_dpo", beta=0.01)
            out = obj.evaluate_loss(triple(w_s, w_t, l), cfg, 0.0)
            ref = obj.evaluate_loss(pair(w_t, l), obj.ObjectiveConfig("dpo", beta=0.01))
            assert abs(out.loss - ref.loss) <= 1e-12
            assert abs(out.grad_wrt_logps["w_t"] - ref.grad_wrt_logps["w"]) <= 1e-12
            assert abs(out.grad_wrt_logps["l"] - ref.grad_wrt_logps["l"]) <= 1e-12
            assert out.grad_wrt_logps["w_s"] == 0.0

    def test_endpoint_alpha_one_equals_dpo_on_source_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w_s, w_t, l = rand_role(rng), rand_role(rng), rand_role(rng)
            cfg = obj.ObjectiveConfig("wrpo_dpo", beta=0.01)
            out = obj.evaluate_loss(triple(w_s, w_t, l), cfg, 1.0)
            ref = obj.evaluate_loss(pair(w_s, l), obj.ObjectiveConfig("dpo", beta=0.01))
            assert abs(out.loss - ref.loss) <= 1e-12
            assert abs(out.grad_wrt_logps["w_s"] - ref.grad_wrt_logps["w"]) <= 1e-12
            assert out.grad_wrt_logps["w_t"] == 0.0

    def test_direct_value(self):
        # alpha=.5, beta=.01, deltas (2, 1, 0) -> z = 0.015
        roles = triple(
            role(-1.0, -3.0), role(-2.0, -3.0), role(-3.0, -3.0)
        )
        out = obj.evaluate_loss(roles, obj.ObjectiveConfig("wrpo_dpo", beta=0.01), 0.5)
        assert out.loss == pytest.approx(math.log1p(math.exp(-0.015)), rel=1e-12)
        assert out.loss == pytest.approx(0.685669, abs=1e-5)

    def test_margins_reported(self):
        roles = triple(
            role(-1.0, -3.0), role(-2.0, -3.0), role(-3.0, -3.0)
        )
        out = obj.evaluate_loss(roles, obj.ObjectiveConfig("wrpo_dpo", beta=0.01), 0.5)
        assert out.hybrid_policy_margin == pytest.approx(0.02, rel=1e-12)
        assert out.on_policy_margin == pytest.approx(0.01, rel=1e-12)

    def test_alpha_required(self):
        roles = triple(role(-1.0), role(-1.0), role(-1.0))
        with pytest.raises(InputError, match="'wrpo_dpo' requires alpha"):
            obj.evaluate_loss(roles, obj.ObjectiveConfig("wrpo_dpo", beta=0.01))
        with pytest.raises(InputError, match="requires alpha"):
            obj.evaluate_loss(roles, obj.ObjectiveConfig("wrpo_dpo", beta=0.01), None)

    @pytest.mark.parametrize(
        "alpha", [False, True, math.nan, math.inf, "0.5"],
        ids=["False", "True", "nan", "inf", "str"],
    )
    def test_alpha_not_a_number_in_range_rejected(self, alpha):
        roles = triple(role(-1.0), role(-1.0), role(-1.0))
        with pytest.raises(InputError, match="alpha must be a number in"):
            obj.evaluate_loss(roles, obj.ObjectiveConfig("wrpo_dpo", beta=0.01), alpha)


class TestWrpoSimpoLoss:
    def test_endpoint_reduces_to_simpo(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            w_s, w_t, l = rand_role(rng), rand_role(rng), rand_role(rng)
            out = obj.evaluate_loss(
                triple(w_s, w_t, l),
                obj.ObjectiveConfig("wrpo_simpo", beta=10.0, gamma=0.0),
                0.0,
            )
            ref = obj.evaluate_loss(
                pair(w_t, l),
                obj.ObjectiveConfig("simpo", beta=10.0, gamma=0.0),
            )
            assert abs(out.loss - ref.loss) <= 1e-12
            assert abs(out.grad_wrt_logps["w_t"] - ref.grad_wrt_logps["w"]) <= 1e-12

    def test_equal_averages_gamma_zero_is_log_two(self):
        roles = triple(
            role(-1.0, length=1), role(-2.0, length=2), role(-3.0, length=3)
        )
        out = obj.evaluate_loss(
            roles, obj.ObjectiveConfig("wrpo_simpo", beta=10.0, gamma=0.0), 0.4
        )
        assert out.loss == pytest.approx(LOG2, abs=1e-12)


class TestWrpoIpoLoss:
    def test_endpoint_reduces_to_ipo(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w_s, w_t, l = rand_role(rng), rand_role(rng), rand_role(rng)
            out = obj.evaluate_loss(
                triple(w_s, w_t, l),
                obj.ObjectiveConfig("wrpo_ipo", tau=0.01),
                0.0,
            )
            ref = obj.evaluate_loss(
                pair(w_t, l), obj.ObjectiveConfig("ipo", tau=0.01)
            )
            assert abs(out.loss - ref.loss) <= 1e-12

    def test_weighted_margin_at_target_is_zero(self):
        tau, alpha = 0.05, 0.3
        c = 1 / (2 * tau)
        w_s = role(-1.0, -1.0 - c)
        w_t = role(-2.0, -2.0 - c)
        l = role(-3.0, -3.0)
        out = obj.evaluate_loss(
            triple(w_s, w_t, l),
            obj.ObjectiveConfig("wrpo_ipo", tau=tau),
            alpha,
        )
        assert out.loss == pytest.approx(0.0, abs=1e-18)


class TestWrpoWithYlsLoss:
    def test_endpoint_reduces_to_dpo_on_target_roles(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            roles = [rand_role(rng) for _ in range(4)]
            out = obj.evaluate_loss(
                quad_roles(*roles),
                obj.ObjectiveConfig("wrpo_with_yls", beta=0.01),
                0.0,
            )
            ref = obj.evaluate_loss(
                pair(roles[1], roles[3]),
                obj.ObjectiveConfig("dpo", beta=0.01),
            )
            assert abs(out.loss - ref.loss) <= 1e-12

    def test_all_deltas_zero_is_log_two(self):
        r = role(-5.0, -5.0)
        out = obj.evaluate_loss(
            quad_roles(r, r, r, r),
            obj.ObjectiveConfig("wrpo_with_yls", beta=0.01),
            0.5,
        )
        assert out.loss == pytest.approx(LOG2, abs=1e-12)

    def test_direct_value(self):
        # deltas (2, 1, 0.5, 0), alpha=.5, beta=.01 -> z = 0.0125
        roles = quad_roles(
            role(-1.0, -3.0), role(-2.0, -3.0), role(-2.5, -3.0), role(-3.0, -3.0)
        )
        out = obj.evaluate_loss(
            roles, obj.ObjectiveConfig("wrpo_with_yls", beta=0.01), 0.5
        )
        assert out.loss == pytest.approx(math.log1p(math.exp(-0.0125)), rel=1e-12)
        assert out.loss == pytest.approx(0.686913, abs=5e-6)

    def test_missing_role(self):
        roles = triple(role(-1.0), role(-1.0), role(-1.0))
        with pytest.raises(InputError, match="'l_s'"):
            obj.evaluate_loss(
                roles, obj.ObjectiveConfig("wrpo_with_yls", beta=0.01), 0.5
            )


def make_roles(rng, kind):
    if kind in ("dpo", "ipo", "simpo"):
        return pair(rand_role(rng), rand_role(rng))
    if kind == "wrpo_with_yls":
        return quad_roles(*[rand_role(rng) for _ in range(4)])
    return triple(rand_role(rng), rand_role(rng), rand_role(rng))


def cfg_for(kind, rng):
    """The kind's config and a random alpha to evaluate it at."""
    cfg = obj.ObjectiveConfig(
        kind=kind,
        beta=10.0 if "simpo" in kind else 0.01,
        tau=0.01,
        gamma=0.0 if kind == "wrpo_simpo" else 1.0,
    )
    return cfg, float(rng.uniform(0, 1))


class TestGradientConsistency:
    @pytest.mark.parametrize("kind", obj.KINDS)
    def test_grad_wrt_logps_matches_scalar_fd(self, kind):
        rng = np.random.default_rng(stream_salt(kind))
        # The squared losses are exactly quadratic in the log-probs, so the
        # central difference has no truncation error; a larger step avoids
        # cancellation against their ~(1/(2 tau))^2 loss values.
        h = 1e-3 if kind in ("ipo", "wrpo_ipo") else 1e-6
        for _ in range(30):
            roles = make_roles(rng, kind)
            cfg, alpha = cfg_for(kind, rng)
            out = obj.evaluate_loss(roles, cfg, alpha)
            for name, r in roles.items():
                up = obj.evaluate_loss({**roles, name: replace(r, theta=r.theta + h)}, cfg, alpha)
                dn = obj.evaluate_loss({**roles, name: replace(r, theta=r.theta - h)}, cfg, alpha)
                fd = (up.loss - dn.loss) / (2 * h)
                assert out.grad_wrt_logps[name] == pytest.approx(
                    fd, rel=1e-6, abs=1e-9
                ), f"{kind}/{name}"

    @pytest.mark.parametrize("kind", obj.SIGMOID_KINDS)
    def test_sigmoid_losses_positive_and_monotone_in_margin(self, kind):
        rng = np.random.default_rng(1)
        for _ in range(20):
            roles = make_roles(rng, kind)
            cfg, alpha = cfg_for(kind, rng)
            base = obj.evaluate_loss(roles, cfg, alpha)
            assert base.loss > 0
            # raising any preferred theta lowers the loss, raising a
            # dispreferred one raises it (strict monotonicity in z)
            for name, r in roles.items():
                probe = {**roles, name: replace(r, theta=r.theta - 0.5)}
                bumped = obj.evaluate_loss(probe, cfg, alpha)
                coeff = base.grad_wrt_logps[name]
                if coeff < 0:
                    assert bumped.loss > base.loss
                elif coeff > 0:
                    assert bumped.loss < base.loss

    def test_weighted_margin_linear_in_deltas(self):
        # unit probes on each delta recover the (alpha*beta, (1-alpha)*beta, -beta) weights
        beta, alpha = 0.01, 0.3
        cfg = obj.ObjectiveConfig("wrpo_dpo", beta=beta)
        base_roles = {
            "w_s": role(-4.0, -4.0),
            "w_t": role(-5.0, -5.0),
            "l": role(-6.0, -6.0),
        }

        def margin(roles):
            out = obj.evaluate_loss(roles, cfg, alpha)
            r = out.internal_rewards
            return obj.compound_reward(r["w_s"], r["w_t"], alpha) - r["l"]

        base = margin(base_roles)
        for name, weight in (("w_s", alpha * beta), ("w_t", (1 - alpha) * beta), ("l", -beta)):
            probed = dict(base_roles)
            probed[name] = replace(probed[name], theta=probed[name].theta + 1.0)
            assert margin(probed) - base == pytest.approx(weight, rel=1e-9)


class TestComposedParameterGradient:
    def _random_instance(self, rng, vocab):
        def seq():
            body = tuple(rng.choice(vocab.content_ids, size=int(rng.integers(1, 4))))
            return Sequence(prompt=prompt, response=(*body, vocab.eos_id))

        prompt = tuple(rng.choice(vocab.content_ids, size=2))
        mk = lambda m, i: datagen.ScoredResponse(seq(), float(rng.normal()), m, i)
        quad = datagen.PreferenceQuadruple(prompt, mk("s", 0), mk("t", 0), mk("t", 1), mk("s", 1))
        model = PolicyModel.random_init(vocab, 1, 1.0, int(rng.integers(1 << 31)))
        ref = PolicyModel.random_init(vocab, 1, 1.0, int(rng.integers(1 << 31)), frozen=True)
        return model, ref, quad

    def test_wrpo_alpha_zero_has_no_gradient_through_source_response(self):
        rng = np.random.default_rng(9)
        vocab = default_vocabulary(3)
        model, ref, quad = self._random_instance(rng, vocab)
        cfg = obj.ObjectiveConfig("wrpo_dpo", beta=0.01)
        _, grad = obj.loss_gradient_wrt_params(model, ref, quad, cfg, 0.0)
        dpo_cfg = obj.ObjectiveConfig("dpo", beta=0.01)
        _, grad_dpo = obj.loss_gradient_wrt_params(model, ref, quad, dpo_cfg)
        assert np.abs(grad - grad_dpo).max() <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        vocab = default_vocabulary(3)
        h = 1e-5
        for kind in obj.KINDS:
            model, ref, quad = self._random_instance(rng, vocab)
            cfg, alpha = cfg_for(kind, rng)
            res, grad = obj.loss_gradient_wrt_params(model, ref, quad, cfg, alpha)
            flat = model.logits.ravel()
            gflat = grad.ravel()
            for k in rng.choice(flat.size, size=15, replace=False):
                orig = flat[k]
                flat[k] = orig + h
                up = obj.loss_gradient_wrt_params(model, ref, quad, cfg, alpha)[0].loss
                flat[k] = orig - h
                dn = obj.loss_gradient_wrt_params(model, ref, quad, cfg, alpha)[0].loss
                flat[k] = orig
                fd = (up - dn) / (2 * h)
                assert abs(gflat[k] - fd) <= max(1e-7, 1e-4 * abs(fd))

    def test_descent_direction_moves_likelihoods_correctly(self):
        # Directional derivative along the negative gradient raises preferred
        # log-probs and lowers dispreferred ones. Role responses are kept
        # well separated so own-gradient terms dominate context overlap.
        from microwrpo.policy import log_prob_gradient

        vocab = default_vocabulary(6)
        prompt = (2, 3)

        def seq(*body):
            return Sequence(prompt=prompt, response=(*body, vocab.eos_id))

        quad = datagen.PreferenceQuadruple(
            prompt,
            datagen.ScoredResponse(seq(2, 3, 2, 3), 3.0, "s", 0),
            datagen.ScoredResponse(seq(4, 5, 4, 5), 2.0, "t", 0),
            datagen.ScoredResponse(seq(6, 7, 6, 7), 0.0, "t", 1),
            datagen.ScoredResponse(seq(3, 2, 3, 2), 1.0, "s", 1),
        )
        for kind in obj.SIGMOID_KINDS:
            model = PolicyModel.random_init(vocab, 2, 0.5, seed=7)
            ref = PolicyModel.random_init(vocab, 2, 0.5, seed=8, frozen=True)
            cfg = obj.ObjectiveConfig(
                kind=kind,
                beta=10.0 if "simpo" in kind else 0.01,
                tau=0.01,
                gamma=0.0,
            )
            _, grad = obj.loss_gradient_wrt_params(model, ref, quad, cfg, 0.5)
            packed = obj.PackedRecords(model, ref, [quad], cfg)
            for name, s in zip(packed.roles, packed.groups[0]):
                direction = float(np.sum(log_prob_gradient(model, s) * -grad))
                if name.startswith("w"):
                    assert direction > 0, f"{kind}/{name}"
                else:
                    assert direction < 0, f"{kind}/{name}"

    def test_frozen_model_rejected(self):
        rng = np.random.default_rng(12)
        vocab = default_vocabulary(3)
        model, ref, quad = self._random_instance(rng, vocab)
        model.freeze()
        with pytest.raises(UsageError):
            obj.loss_gradient_wrt_params(
                model, ref, quad, obj.ObjectiveConfig("dpo", beta=0.01)
            )


class TestBundleFromQuadruple:
    # Which quadruple field each role reads, in role order; "w" follows pairing.
    FIELDS = {
        "dpo": {"w": None, "l": "y_l"},
        "ipo": {"w": None, "l": "y_l"},
        "simpo": {"w": None, "l": "y_l"},
        "wrpo_dpo": {"w_s": "y_ws", "w_t": "y_wt", "l": "y_l"},
        "wrpo_simpo": {"w_s": "y_ws", "w_t": "y_wt", "l": "y_l"},
        "wrpo_ipo": {"w_s": "y_ws", "w_t": "y_wt", "l": "y_l"},
        "wrpo_with_yls": {"w_s": "y_ws", "w_t": "y_wt", "l_s": "y_ls", "l_t": "y_l"},
    }

    def _instance(self, y_ls=True):
        vocab = default_vocabulary(6)
        prompt = (2, 3)

        def resp(body, score, model, idx):
            seq = Sequence(prompt=prompt, response=(*body, vocab.eos_id))
            return datagen.ScoredResponse(seq, score, model, idx)

        quad = datagen.PreferenceQuadruple(
            prompt,
            resp((2,), 3.0, "s", 0),
            resp((3, 4), 2.0, "t", 0),
            resp((5, 6, 7), 0.0, "t", 1),
            resp((4, 4, 4, 4), 1.0, "s", 1) if y_ls else None,
        )
        model = PolicyModel.random_init(vocab, 1, 1.0, seed=1)
        ref = PolicyModel.random_init(vocab, 1, 1.0, seed=2, frozen=True)
        return model, ref, quad

    @pytest.mark.parametrize("pairing", ["on_policy", "hybrid"])
    @pytest.mark.parametrize("kind", obj.KINDS)
    def test_roles_read_their_fields(self, kind, pairing):
        model, ref, quad = self._instance()
        cfg = obj.ObjectiveConfig(kind, tau=0.01, gamma=0.0, pairing=pairing)
        packed = obj.PackedRecords(model, ref, [quad], cfg)
        paired = "y_wt" if pairing == "on_policy" else "y_ws"
        expected = {
            name: getattr(quad, field or paired).sequence
            for name, field in self.FIELDS[kind].items()
        }
        assert packed.roles == tuple(expected)
        assert packed.groups[0] == tuple(expected.values())
        assert packed.lengths == [[len(seq.response) for seq in expected.values()]]

    def test_yls_kind_without_yls_rejected(self):
        model, ref, quad = self._instance(y_ls=False)
        with pytest.raises(InputError):
            obj.PackedRecords(model, ref, [quad], obj.ObjectiveConfig("wrpo_with_yls"))

    @pytest.mark.parametrize("kind", obj.KINDS)
    def test_missing_reference(self, kind):
        model, ref, quad = self._instance()
        cfg, alpha = cfg_for(kind, np.random.default_rng(0))
        if kind in ("simpo", "wrpo_simpo"):
            res, _ = obj.loss_gradient_wrt_params(model, None, quad, cfg, alpha)
            assert res == obj.loss_gradient_wrt_params(model, ref, quad, cfg, alpha)[0]
        else:
            with pytest.raises(InputError):
                obj.loss_gradient_wrt_params(model, None, quad, cfg, alpha)

    @pytest.mark.parametrize("kind", [k for k in obj.KINDS if "simpo" not in k])
    def test_reference_of_another_context_order_rejected(self, kind):
        model, _, quad = self._instance()
        ref = PolicyModel.random_init(model.vocab, 2, 1.0, seed=2, frozen=True)
        with pytest.raises(UsageError):
            obj.PackedRecords(model, ref, [quad], cfg_for(kind, np.random.default_rng(0))[0])

    @pytest.mark.parametrize("kind", obj.KINDS)
    def test_unfrozen_reference(self, kind):
        model, ref, quad = self._instance()
        cfg, _ = cfg_for(kind, np.random.default_rng(0))
        if "simpo" in kind:  # reference-free: the reference is never read
            obj.PackedRecords(model, ref.copy(frozen=False), [quad], cfg)
        else:
            with pytest.raises(UsageError, match="must be frozen"):
                obj.PackedRecords(model, ref.copy(frozen=False), [quad], cfg)


class TestBundleValidation:
    def test_positive_log_prob_rejected(self):
        with pytest.raises(InputError):
            obj.RoleLogProb(theta=0.5, ref=-1.0)
        with pytest.raises(InputError):
            obj.RoleLogProb(theta=-1.0, ref=0.5)

    def test_zero_length_rejected(self):
        with pytest.raises(InputError):
            obj.RoleLogProb(theta=-1.0, ref=-1.0, length=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            obj.ObjectiveConfig("kto")

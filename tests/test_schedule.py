"""Fusion-coefficient schedule behavior."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microwrpo.errors import InputError
from microwrpo.schedule import FusionSchedule, alpha_at


class TestLinear:
    def test_starts_at_zero(self):
        sched = FusionSchedule("linear", target=0.7, total_steps=100)
        assert alpha_at(sched, 0) == 0.0

    def test_reaches_target_at_total_steps(self):
        sched = FusionSchedule("linear", target=0.1, total_steps=400)
        assert alpha_at(sched, 400) == pytest.approx(0.1, rel=1e-12)

    def test_midpoint(self):
        sched = FusionSchedule("linear", target=0.1, total_steps=400)
        assert alpha_at(sched, 200) == pytest.approx(0.05, rel=1e-12)

    def test_clamps_beyond_total_steps(self):
        sched = FusionSchedule("linear", target=0.3, total_steps=10)
        assert alpha_at(sched, 10_000) == 0.3

    @given(
        st.floats(0, 1, allow_nan=False),
        st.integers(1, 10_000),
        st.integers(0, 30_000),
    )
    @settings(max_examples=300)
    def test_monotone_and_bounded(self, target, total, step):
        sched = FusionSchedule("linear", target=target, total_steps=total)
        a = alpha_at(sched, step)
        assert 0 <= a <= target
        assert alpha_at(sched, step + 1) >= a


class TestStatic:
    def test_constant_everywhere(self):
        sched = FusionSchedule("static", target=0.5, total_steps=100)
        assert all(alpha_at(sched, s) == 0.5 for s in (0, 1, 50, 99, 100, 777))


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(InputError):
            FusionSchedule("cosine", target=0.5, total_steps=10)

    def test_target_range(self):
        with pytest.raises(InputError):
            FusionSchedule("linear", target=1.5, total_steps=10)

    def test_total_steps_positive(self):
        with pytest.raises(InputError):
            FusionSchedule("linear", target=0.5, total_steps=0)

    @pytest.mark.parametrize(
        "target, total_steps",
        [(True, 1), ("0.5", 1), (float("nan"), 1), (0.5, 2.5), (0.5, True), (0.5, "3")],
        ids=["bool-target", "str-target", "nan-target", "float-steps", "bool-steps", "str-steps"],
    )
    def test_non_numbers_rejected(self, target, total_steps):
        with pytest.raises(InputError):
            FusionSchedule("linear", target, total_steps)

    def test_negative_step(self):
        sched = FusionSchedule("linear", target=0.5, total_steps=10)
        with pytest.raises(InputError):
            alpha_at(sched, -1)

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter.noise import PowerLawNoise, parse_noise


class TestEvaluate:
    def test_power_law_direct(self):
        assert PowerLawNoise(K_R=1.0, p=1.0).evaluate(0.1) == pytest.approx(0.1, abs=1e-17)

    def test_power_law_fig2_constant(self):
        assert PowerLawNoise(K_R=5.00e3, p=1.0).evaluate(0.01) == pytest.approx(50.0)

    def test_infinite_order_is_zero(self):
        assert PowerLawNoise(K_R=1e9, p=math.inf).evaluate(0.5) == 0.0
        assert PowerLawNoise(K_R=1e9, p=math.inf).evaluate(2.0) == 0.0

    def test_zero_and_constant(self):
        assert parse_noise("zero").evaluate(0.3) == 0.0
        assert parse_noise("const:2.5").evaluate(0.3) == 2.5


class TestPermissibility:
    """Noise is permissible for q when its order p is at least q."""

    def test_below_q_fails(self):
        assert not PowerLawNoise(K_R=1.0, p=0.5).p >= 1

    def test_boundary_passes(self):
        assert PowerLawNoise(K_R=1.0, p=1.0).p >= 1

    def test_zero_always_passes(self):
        assert parse_noise("zero").p >= 3

    def test_constant_only_at_zero(self):
        # A step-independent variance has order p = 0, so only R = 0 passes.
        assert parse_noise("const:0").p >= 2
        assert not parse_noise("const:1").p >= 2


class TestProperties:
    @given(
        p=st.floats(0.0, 5.0),
        K=st.floats(0.0, 1e6),
        h1=st.floats(1e-6, 1.0),
        h2=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_h(self, p, K, h1, h2):
        model = PowerLawNoise(K_R=K, p=p)
        lo, hi = min(h1, h2), max(h1, h2)
        assert model.evaluate(lo) <= model.evaluate(hi)

    @given(p=st.floats(0.0, 5.0), K=st.floats(1e-6, 1e6), h=st.floats(1e-6, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_linear_in_constant(self, p, K, h):
        one = PowerLawNoise(K_R=1.0, p=p).evaluate(h)
        assert PowerLawNoise(K_R=K, p=p).evaluate(h) == pytest.approx(K * one, rel=1e-12)

    def test_nonnegative_validation(self):
        with pytest.raises(ValueError):
            parse_noise("const:-1")
        with pytest.raises(ValueError):
            PowerLawNoise(K_R=-1.0, p=1.0)
        with pytest.raises(ValueError):
            PowerLawNoise(K_R=1.0, p=-0.5)


class TestParse:
    #: spec -> (p, K_R, R), R being the variance at every step size.
    TABLE = {
        "zero": (math.inf, 0.0, 0.0),
        "const:0": (math.inf, 0.0, 0.0),
        "const:0.25": (0.0, 0.25, 0.25),
        "const:3.7e3": (0.0, 3700.0, 3700.0),
        "power:inf:7": (math.inf, 7.0, 0.0),
    }

    @pytest.mark.parametrize("spec", list(TABLE))
    def test_spec_table(self, spec):
        p, K_R, R = self.TABLE[spec]
        model = parse_noise(spec)
        assert model == PowerLawNoise(K_R=K_R, p=p)
        assert (model.p, model.K_R) == (p, K_R)
        assert model.evaluate(0.5) == R
        assert model.evaluate(0.0125) == R

    def test_power(self):
        assert parse_noise("power:1:5e3") == PowerLawNoise(K_R=5000.0, p=1.0)

    @pytest.mark.parametrize("bad", ["", "gauss", "const", "power:1", "power:a:b", "const:x"])
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_noise(bad)

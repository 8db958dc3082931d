import pytest

from repro.core.params import GrayScottParams, PEARSON_REGIMES, regime_params
from repro.util.errors import ConfigError


class TestGrayScottParams:
    def test_paper_defaults(self):
        """Listing 1's provenance values."""
        p = GrayScottParams()
        assert (p.Du, p.Dv, p.F, p.k, p.noise, p.dt) == (
            0.2, 0.1, 0.02, 0.048, 0.1, 1.0
        )

    def test_as_attributes(self):
        attrs = GrayScottParams().as_attributes()
        assert set(attrs) == {"Du", "Dv", "F", "k", "noise", "dt"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"Du": -0.1},
            {"Dv": -1},
            {"F": -0.01},
            {"k": -0.01},
            {"noise": -0.5},
            {"dt": 0},
            {"dt": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GrayScottParams(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["Du", "Dv", "F", "k", "dt", "noise"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            GrayScottParams(**{name: value})

    def test_stability_limit(self):
        with pytest.raises(ConfigError, match="unstable"):
            GrayScottParams(Du=0.5, dt=2.5)
        GrayScottParams(Du=0.5, dt=1.9)  # ok

    def test_with_overrides(self):
        p = GrayScottParams().with_overrides(F=0.03)
        assert p.F == 0.03
        assert p.Du == 0.2
        with pytest.raises(ConfigError):
            GrayScottParams().with_overrides(dt=-1)


class TestPearsonRegimes:
    def test_regime_lookup(self):
        p = regime_params("alpha")
        assert (p.F, p.k) == PEARSON_REGIMES["alpha"]

    def test_regime_with_overrides(self):
        p = regime_params("beta", noise=0.0)
        assert p.noise == 0.0
        assert p.F == PEARSON_REGIMES["beta"][0]

    @pytest.mark.parametrize("overrides", [{"F": float("inf")}, {"Du": float("nan")}])
    def test_regime_non_finite_override_rejected(self, overrides):
        (name,) = overrides
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            regime_params("alpha", **overrides)

    def test_unknown_regime(self):
        with pytest.raises(ConfigError):
            regime_params("omega")

    def test_paper_regime_matches_defaults(self):
        p = regime_params("paper")
        d = GrayScottParams()
        assert (p.F, p.k) == (d.F, d.k)

    def test_all_regimes_are_stable(self):
        for name in PEARSON_REGIMES:
            regime_params(name)  # construction validates

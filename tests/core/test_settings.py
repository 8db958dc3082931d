import pytest

from repro.core.settings import GrayScottSettings
from repro.util.errors import ConfigError


class TestSettings:
    def test_defaults_valid(self):
        s = GrayScottSettings()
        assert s.shape == (64, 64, 64)
        assert s.params().F == 0.02

    def test_json_roundtrip(self):
        s = GrayScottSettings(L=128, steps=500, backend="julia", output="x.bp")
        back = GrayScottSettings.from_json(s.to_json())
        assert back == s

    def test_save_load(self, tmp_path):
        s = GrayScottSettings(L=32, noise=0.05)
        path = tmp_path / "settings.json"
        s.save(path)
        assert GrayScottSettings.load(path) == s

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            GrayScottSettings.load(tmp_path / "nope.json")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown settings keys"):
            GrayScottSettings.from_json('{"L": 32, "typo_key": 1}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            GrayScottSettings.from_json("{bad")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="must be an object"):
            GrayScottSettings.from_json("[1, 2]")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"L": 2},
            {"steps": -1},
            {"plotgap": 0},
            {"precision": "float16"},
            {"backend": "cuda"},
            {"nx": 2},
            {"checkpoint": "c.bp", "checkpoint_freq": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"seed": 1.5},
            {"seed": True},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            GrayScottSettings(**kwargs)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_bounds_accepted(self, seed):
        assert GrayScottSettings(seed=seed).seed == seed

    def test_negative_seed_rejected_at_load(self):
        with pytest.raises(ConfigError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            GrayScottSettings.from_json('{"L": 8, "seed": -1}')

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["Du", "Dv", "F", "k", "dt", "noise"])
    def test_non_finite_physics_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            GrayScottSettings(**{name: value})

    def test_physics_validated_at_load(self):
        with pytest.raises(ConfigError, match="unstable"):
            GrayScottSettings(Du=0.9, dt=2.0)

    def test_non_cubic_shape(self):
        s = GrayScottSettings(L=16, nz=64)
        assert s.shape == (16, 16, 64)

    def test_with_overrides(self):
        s = GrayScottSettings().with_overrides(steps=7)
        assert s.steps == 7

    def test_artifact_style_settings_file(self):
        """The GrayScott.jl settings-files.json key style loads."""
        text = """{
            "L": 64, "Du": 0.2, "Dv": 0.1, "F": 0.01, "k": 0.05,
            "dt": 2.0, "plotgap": 10, "steps": 100, "noise": 0.01,
            "output": "gs-64.bp", "checkpoint": ""
        }"""
        s = GrayScottSettings.from_json(text)
        assert s.L == 64 and s.output == "gs-64.bp"


class TestCanonicalHash:
    def test_digest_is_hex_sha256(self):
        digest = GrayScottSettings().canonical_hash()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_equal_settings_equal_digest(self):
        a = GrayScottSettings(L=32, F=0.03)
        b = GrayScottSettings(F=0.03, L=32)
        assert a.canonical_hash() == b.canonical_hash()

    def test_field_order_in_json_is_irrelevant(self):
        a = GrayScottSettings.from_json('{"L": 32, "F": 0.03, "k": 0.05}')
        b = GrayScottSettings.from_json('{"k": 0.05, "F": 0.03, "L": 32}')
        assert a.canonical_hash() == b.canonical_hash()

    def test_json_roundtrip_preserves_digest(self):
        s = GrayScottSettings(L=24, steps=50, backend="julia", noise=0.05)
        back = GrayScottSettings.from_json(s.to_json())
        assert back.canonical_hash() == s.canonical_hash()

    def test_with_overrides_roundtrip_preserves_digest(self):
        s = GrayScottSettings(L=24)
        same = s.with_overrides(L=24)
        assert same.canonical_hash() == s.canonical_hash()

    def test_int_valued_floats_do_not_drift_the_digest(self):
        """`"dt": 1` in a settings file must hash like `dt=1.0` — the
        float-formatting drift that used to break digest stability."""
        a = GrayScottSettings.from_json('{"dt": 1}')
        b = GrayScottSettings.from_json('{"dt": 1.0}')
        assert a.canonical_hash() == b.canonical_hash()
        assert type(a.dt) is float

    def test_override_with_int_matches_float(self):
        a = GrayScottSettings().with_overrides(dt=1)
        b = GrayScottSettings().with_overrides(dt=1.0)
        assert a == b
        assert a.canonical_hash() == b.canonical_hash()
        assert a.to_json() == b.to_json()

    def test_negative_zero_folds_to_zero(self):
        a = GrayScottSettings(noise=0.0)
        b = GrayScottSettings(noise=-0.0)
        assert a.canonical_hash() == b.canonical_hash()

    def test_different_settings_different_digest(self):
        assert (
            GrayScottSettings(F=0.02).canonical_hash()
            != GrayScottSettings(F=0.021).canonical_hash()
        )

    def test_canonical_json_sorted_compact(self):
        import json as json_mod

        text = GrayScottSettings().canonical_json()
        obj = json_mod.loads(text)
        assert list(obj) == sorted(obj)
        assert ": " not in text and ", " not in text

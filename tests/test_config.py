import dataclasses
import os
import subprocess
import sys

import pytest

from tiltrl import config as cfgmod
from tiltrl.config import (ConfigError, as_flat_dict, default_config,
                           format_config, load_config, write_config)


class TestDefaults:
    def test_default_values_match_dataclasses(self):
        cfg = default_config()
        assert cfg.sim.mass_kg == 1.5
        assert cfg.train.total_steps == 2_000_000
        assert cfg.episode.max_steps == 1500

    def test_load_none_is_defaults(self):
        assert load_config(None) == default_config()

    def test_schema_covers_every_field(self):
        # Every dataclass field of every section is a line of the config
        # file, in field order.
        cfg = default_config()
        fields = [f.name for name in ("sim", "episode", "rewards", "train")
                  for f in dataclasses.fields(getattr(cfg, name))]
        keys = [line.split(" = ")[0] for line in format_config(cfg).splitlines()]
        assert keys == fields

    def test_value_types_follow_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(default_config(), path)
        cfg = load_config(str(path))
        assert type(cfg.train.hidden_sizes[0]) is int
        assert type(cfg.episode.max_steps) is int
        assert type(cfg.sim.inertia_diag[0]) is float
        assert type(cfg.sim.mass_kg) is float


class TestRoundTrip:
    def test_write_then_load_identical(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(default_config(), path)
        assert load_config(str(path)) == default_config()

    def test_modified_value_survives(self, tmp_path):
        cfg = default_config()
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(
            cfg.train, total_steps=12345, hidden_sizes=(32, 32)))
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        loaded = load_config(str(path))
        assert loaded.train.total_steps == 12345
        assert loaded.train.hidden_sizes == (32, 32)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        text = format_config(default_config()).replace("mass_kg = 1.5\n", "")
        path.write_text("# header comment\n\n" + text + "\nmass_kg = 2.0  # inline\n")
        assert load_config(str(path)).sim.mass_kg == 2.0


def assert_line_rejected_by_key(tmp_path, line):
    """A default config file whose line for line's key is replaced by line
    fails to load with that key named."""
    key = line.split(" = ")[0]
    text = "".join(l + "\n" for l in format_config(default_config()).splitlines()
                   if not l.startswith(key + " "))
    path = tmp_path / "run.cfg"
    path.write_text(text + line + "\n")
    with pytest.raises(ConfigError, match=key):
        load_config(str(path))


class TestErrors:
    def test_missing_key_named(self, tmp_path):
        lines = format_config(default_config()).splitlines()
        kept = [l for l in lines if not l.startswith("mass_kg")]
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(ConfigError, match="mass_kg"):
            load_config(str(path))

    @pytest.mark.parametrize("key", ["bogus_key", "kp_pos", "value_loss_coef"])
    def test_unknown_key_named(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(format_config(default_config()) + f"{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(str(path))

    def test_repeated_key_named(self, tmp_path):
        # A second line for a key would otherwise win silently.
        path = tmp_path / "run.cfg"
        text = format_config(default_config())
        path.write_text(text + "sigma = 0.5\n")
        with pytest.raises(ConfigError, match=rf"repeated config key 'sigma' .*:"
                                              rf"{len(text.splitlines()) + 1}\)"):
            load_config(str(path))

    def test_empty_vector_entry_named(self, tmp_path):
        # Dropping the empty entry would leave three numbers, the right count.
        assert_line_rejected_by_key(tmp_path, "inertia_diag = 0.0082,, 0.0082, 0.0164")

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        text = format_config(default_config()).replace(
            "mass_kg = 1.5", "mass_kg = heavy")
        path.write_text(text)
        with pytest.raises(ConfigError, match="mass_kg"):
            load_config(str(path))

    @pytest.mark.parametrize("line", ["inertia_diag = 1, 2",
                                      "thrust_range_n = 1",
                                      "hidden_sizes = 16, 16, 16"])
    def test_vector_length_named(self, tmp_path, line):
        assert_line_rejected_by_key(tmp_path, line)

    @pytest.mark.parametrize("line", ["dt_s = nan", "mass_kg = inf",
                                      "inertia_diag = 0.0082, nan, 0.0164",
                                      "checkpoint_every = 0", "sigma = 0.0",
                                      "sigma = -1.0", "hidden_sizes = -1, 64",
                                      "hidden_sizes = 0, 64", "gae_lambda = -3.0",
                                      "lr0 = -1.0", "tilt_rate_range_radps = 3.0, -3.0",
                                      "tilt_rate_range_radps = 0.0, 6.0",
                                      "moment_ratio_m = 0.0", "init_speed_max_mps = -1.0",
                                      "init_rate_max_radps = -1.0",
                                      "euler_init_range_rad = -0.5"])
    def test_unusable_value_named(self, tmp_path, line):
        assert_line_rejected_by_key(tmp_path, line)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(str(path))


class TestEnvOverride:
    def test_env_var_overrides_scalar(self, monkeypatch):
        monkeypatch.setenv("TILTRL_MASS_KG", "2.5")
        assert load_config(None).sim.mass_kg == 2.5

    def test_env_var_overrides_vector(self, monkeypatch):
        monkeypatch.setenv("TILTRL_HIDDEN_SIZES", "16, 16")
        assert load_config(None).train.hidden_sizes == (16, 16)

    @pytest.mark.parametrize("var, raw", [("TILTRL_INERTIA_DIAG", "1, 2"),
                                          ("TILTRL_THRUST_RANGE_N", "1")])
    def test_env_var_vector_length_named(self, monkeypatch, var, raw):
        monkeypatch.setenv(var, raw)
        with pytest.raises(ConfigError, match=var[len("TILTRL_"):].lower()):
            load_config(None)

    @pytest.mark.parametrize("var, raw", [("TILTRL_DT_S", "nan"), ("TILTRL_DT_S", "-inf"),
                                          ("TILTRL_THRUST_RANGE_N", "0, inf"),
                                          ("TILTRL_CHECKPOINT_EVERY", "0"),
                                          ("TILTRL_SIGMA", "0"), ("TILTRL_SIGMA", "-1")])
    def test_env_var_unusable_value_named(self, monkeypatch, var, raw):
        monkeypatch.setenv(var, raw)
        with pytest.raises(ConfigError, match=var[len("TILTRL_"):].lower()):
            load_config(None)

    def test_env_var_bad_value(self, monkeypatch):
        monkeypatch.setenv("TILTRL_SEED", "not-an-int")
        with pytest.raises(ConfigError, match="seed"):
            load_config(None)


def test_as_flat_dict_keys_match_schema():
    assert set(as_flat_dict(default_config())) == set(cfgmod.SCHEMA)


def _fresh_interpreter(code: str) -> str:
    """stdout of code run in a fresh interpreter, so no other test's
    imports are in sys.modules."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfgmod.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_config_does_not_import_the_evaluation():
    code = "import sys, tiltrl.config; print('tiltrl.evalsuite' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_package_import_loads_no_submodule():
    code = "import sys, tiltrl; print(sorted(n for n in sys.modules if n.startswith('tiltrl.')))"
    assert _fresh_interpreter(code) == "[]"

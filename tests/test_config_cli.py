import math

import numpy as np
import pytest

from sagin_outage import cli
from sagin_outage.config import (FIGURE_PRESETS, apply_preset, config_from_mapping,
                                 default_config, load_config)
from sagin_outage.errors import ConfigError
from sagin_outage.sweep import SCHEMA_COLUMNS, emit_csv, run_sweep


class TestDefaults:
    def test_empty_file_gives_standard_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n")
        cfg = load_config(path)
        assert cfg.sr.m_sr == 2 and cfg.sr.b_sr == 0.063 and cfg.sr.omega_sr == 0.0005
        assert cfg.sp.mu == 0.7 and cfg.sp.rho == 0.4 and cfg.sp.epsilon == 0.4
        assert cfg.sp.chi == 0.6
        assert cfg.orbit.w_er == pytest.approx(6371.8)
        assert cfg.cone.phi == pytest.approx(math.pi / 12)
        assert cfg.gamma_s == pytest.approx(10 ** 0.5)   # 5 dB as a linear ratio

    def test_eta_derived_from_link_chain_by_default(self):
        cfg = default_config()
        assert cfg.eta_s > 0 and np.isfinite(cfg.eta_s)

    def test_direct_eta_override_wins(self):
        cfg = config_from_mapping({"link.eta_s_db": 120.0})
        assert cfg.eta_s == pytest.approx(1e12)


class TestValidation:
    def test_rho_out_of_range_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("swipt.rho = 1.2\n")
        with pytest.raises(ConfigError, match="swipt.rho"):
            load_config(path)

    def test_non_integer_m_sr_with_closed_method(self):
        with pytest.raises(ConfigError, match="m_sr"):
            config_from_mapping({"fading.m_sr": 2.5})

    def test_real_m_rd_rejected_only_for_closed(self):
        with pytest.raises(ConfigError, match="m_rd"):
            config_from_mapping({"fading.m_rd": 1.7})
        cfg = config_from_mapping({"fading.m_rd": 1.7, "run.methods": "mc,integral"})
        assert cfg.nak.m_rd == 1.7

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("swipt.rho_typo = 0.3\n")
        with pytest.raises(ConfigError, match="rho_typo"):
            load_config(path)

    def test_unused_beam_edge_radius_warns(self):
        with pytest.warns(UserWarning, match="l_prime"):
            config_from_mapping({"geometry.l_prime_m": 180.0})

    def test_sweep_needs_grid(self):
        cfg = config_from_mapping({"sweep.variable": "swipt.rho"})
        with pytest.raises(ConfigError, match="sweep"):
            cfg.sweep_values

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="run.seed"):
            config_from_mapping({"run.seed": seed})

    def test_seed_range_covers_every_grid_point(self):
        grid = {"sweep.variable": "swipt.rho", "sweep.values": "0.2,0.4,0.6",
                "run.methods": "mc", "run.networks": "s2g", "run.trials": 1_000}
        rows = run_sweep(config_from_mapping({**grid, "run.seed": 2 ** 64 - 3})).rows
        assert len(rows) == 3 and all(r["op_s2g_mc"] != "" for r in rows)
        with pytest.raises(ConfigError, match="run.seed"):
            config_from_mapping({**grid, "run.seed": 2 ** 64 - 2})
        with pytest.raises(ConfigError, match="run.seed"):
            config_from_mapping({"sweep.variable": "swipt.rho", "sweep.start": 0.1,
                                 "sweep.stop": 0.5, "sweep.step": 0.1,
                                 "run.seed": 2 ** 64 - 4})

    def test_sweep_variable_whitelist(self):
        with pytest.raises(ConfigError, match="sweepable"):
            config_from_mapping({"sweep.variable": "noise.sigma_r_dbm"})


class TestThresholds:
    def test_from_rate_mode(self):
        cfg = config_from_mapping({"rates.threshold_mode": "from_rate",
                                   "rates.r_s": 0.5, "swipt.rho": 0.4})
        assert cfg.gamma_s == pytest.approx(2 ** (5 / 3) - 1)

    def test_linear_eh_token(self, tmp_path):
        path = tmp_path / "lin.cfg"
        path.write_text("swipt.p_th_dbm = inf\n")
        cfg = load_config(path)
        assert math.isinf(cfg.sp.p_th)


class TestPresets:
    def test_all_figure_presets_build(self):
        for name in FIGURE_PRESETS:
            cfg = apply_preset(default_config(), name)
            vals = cfg.sweep_values
            assert len(vals) >= 2

    def test_expected_names_present(self):
        for name in ("fig4", "fig5", "fig9", "fig10", "fig12", "fig15", "fig16"):
            assert name in FIGURE_PRESETS

    def test_fig9_grid_contains_critical_points(self):
        cfg = apply_preset(default_config(), "fig9")
        vals = cfg.sweep_values
        assert any(abs(v - 0.5) < 1e-12 for v in vals)
        assert any(abs(v - 0.55) < 1e-12 for v in vals)
        assert cfg.gamma_s == pytest.approx(1.0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            apply_preset(default_config(), "fig99")

    @pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
    def test_every_preset_runs_end_to_end(self, name, tmp_path):
        # bounded-time smoke: Monte Carlo only, few trials
        cfg = apply_preset(default_config(), name).with_overrides(
            {"run.methods": "mc", "run.trials": 2000})
        res = run_sweep(cfg)
        assert len(res.rows) == len(cfg.sweep_values)
        assert not res.any_point_all_failed
        emit_csv(res, tmp_path / f"{name}.csv")


class TestSweepCsv:
    def _small_cfg(self):
        return config_from_mapping({
            "sweep.variable": "link.eta_s_db", "sweep.start": 110.0,
            "sweep.stop": 118.0, "sweep.step": 4.0,
            "run.methods": "mc,integral", "run.trials": 20_000,
            "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 35.0,
        })

    def test_same_seed_byte_identical_csv(self, tmp_path):
        cfg = self._small_cfg()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), p1)
        emit_csv(run_sweep(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_and_formatting(self, tmp_path):
        cfg = self._small_cfg()
        out = tmp_path / "r.csv"
        emit_csv(run_sweep(cfg), out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SCHEMA_COLUMNS)
        assert len(lines) == 1 + 3
        row = lines[1].split(",")
        assert len(row) == len(SCHEMA_COLUMNS)
        # closed columns were not requested: empty cells
        idx_closed = SCHEMA_COLUMNS.index("op_s2g_closed")
        assert row[idx_closed] == ""
        val = float(row[SCHEMA_COLUMNS.index("op_s2g_mc")])
        assert 0.0 <= val <= 1.0
        assert out.read_text().endswith("\n")

    def test_row_order_matches_grid(self, tmp_path):
        cfg = self._small_cfg()
        res = run_sweep(cfg)
        got = [r["sweep_value"] for r in res.rows]
        assert got == [110.0, 114.0, 118.0]


class TestCliEntry:
    def test_validate_ok(self, capsys):
        assert cli.main(["validate"]) == 0
        assert "configuration valid" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("swipt.rho = 2\n")
        assert cli.main(["validate", "--config", str(path)]) == 2

    def test_oracle_check(self, capsys):
        assert cli.main(["oracle-check"]) == 0
        assert "243/243" in capsys.readouterr().out

    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run.methods = mc\nrun.trials = 5000\n"
                       "sweep.variable = swipt.mu\n"
                       "sweep.values = 0.6,0.7\nrun.networks = s2g\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists() and len(out.read_text().splitlines()) == 3

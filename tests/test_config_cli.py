import csv
import math
import threading
import time
import warnings

import numpy as np
import pytest

from sagin_outage import cli, config, sweep
from sagin_outage.channel import effective_gain
from sagin_outage.config import (FIGURE_PRESETS, apply_preset, config_from_mapping,
                                 default_config, load_config)
from sagin_outage.errors import ConfigError
from sagin_outage.mc import simulate_op
from sagin_outage.sweep import SCHEMA_COLUMNS, SweepResult, emit_csv, run_sweep


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

    def test_link_chain_resolved_once(self, monkeypatch):
        calls = []

        def counting(link):
            calls.append(link)
            return effective_gain(link)
        monkeypatch.setattr(config, "effective_gain", counting)
        cfg = default_config()
        assert [cfg.eta_s, cfg.eta_s, cfg.eta_s] == [effective_gain(calls[0])] * 3
        assert len(calls) == 1


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

    def test_retired_beam_edge_radius_is_unknown(self):
        with pytest.raises(ConfigError, match="l_prime"):
            config_from_mapping({"geometry.l_prime_m": 180.0})

    @pytest.mark.parametrize("line", ["sweep.variable = none", "sweep.variable ="])
    def test_no_sweep_can_be_written_in_a_file(self, line, tmp_path, capsys):
        path = tmp_path / "nosweep.cfg"
        path.write_text(f"{line}\nrun.methods = mc\nrun.trials = 2000\n"
                        "run.networks = s2g\n")
        assert load_config(path).sweep_values is None
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert "configuration valid" in capsys.readouterr().out
        out = tmp_path / "o.csv"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_unset_sweep_values_fall_back_to_the_range(self, tmp_path):
        path = tmp_path / "range.cfg"
        path.write_text("sweep.variable = swipt.mu\nsweep.values = none\n"
                        "sweep.start = 0.6\nsweep.stop = 0.8\nsweep.step = 0.1\n")
        assert load_config(path).sweep_values == pytest.approx([0.6, 0.7, 0.8])

    @pytest.mark.parametrize("key", ["run.networks", "run.methods"])
    def test_non_text_name_list_is_a_config_error(self, key):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({key: ["s2g"]})

    @pytest.mark.parametrize("text", ["", ","])
    @pytest.mark.parametrize("key", ["run.networks", "run.methods"])
    def test_empty_name_list_is_a_config_error(self, key, text, tmp_path, capsys):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({key: text})
        path = tmp_path / "names.cfg"
        path.write_text(f"{key} = {text}\n")
        assert cli.main(["validate", "--config", str(path)]) == 2
        out = capsys.readouterr()
        assert "configuration valid" not in out.out and key in out.err
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert not (tmp_path / "o.csv").exists()

    def test_sweep_needs_grid(self):
        with pytest.raises(ConfigError, match="sweep"):
            config_from_mapping({"sweep.variable": "swipt.rho"})

    @pytest.mark.parametrize("grid", [
        {"sweep.start": 0.1, "sweep.stop": 0.5, "sweep.step": 0.0},
        {"sweep.values": "0.2,abc"},
        {"sweep.start": 0.1, "sweep.stop": 0.5, "sweep.step": -0.1},
        {"sweep.start": 0.1, "sweep.stop": 0.5, "sweep.step": 1e-6},
    ], ids=["zero-step", "non-numeric-value", "wrong-sign-step", "too-many-points"])
    def test_bad_sweep_grid_is_a_config_error(self, grid, tmp_path, capsys):
        mapping = {"sweep.variable": "swipt.rho", **grid}
        with pytest.raises(ConfigError, match="sweep"):
            config_from_mapping(mapping).sweep_values
        path = tmp_path / "grid.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
        assert cli.main(["validate", "--config", str(path)]) == 2
        out = capsys.readouterr()
        assert "configuration valid" not in out.out
        assert "sweep" in out.err

    @pytest.mark.parametrize("variable, start, stop, step", [
        ("link.eta_s_db", 80.0, 140.0, 7.0),       # would end at 143
        ("swipt.rho", 0.1, 0.8, 0.3),              # would end at 0.7
        ("swipt.rho", 0.1, 0.8, 0.45),             # would end at 1.0, outside swipt.rho
    ], ids=["overshoots", "stops-short", "leaves-the-key-range"])
    def test_grid_that_misses_its_stop_is_a_config_error(self, variable, start, stop, step,
                                                         tmp_path, capsys):
        mapping = {"sweep.variable": variable, "sweep.start": start, "sweep.stop": stop,
                   "sweep.step": step}
        with pytest.raises(ConfigError, match="sweep.step"):
            config_from_mapping(mapping)
        path = tmp_path / "grid.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
        assert cli.main(["validate", "--config", str(path)]) == 2
        out = capsys.readouterr()
        assert "configuration valid" not in out.out and "sweep.step" in out.err

    @pytest.mark.parametrize("start, stop, step, n", [
        (0.05, 0.90, 0.05, 18), (0.05, 0.95, 0.05, 19), (80.0, 140.0, 4.0, 16),
        (0.6, 0.8, 0.1, 3), (0.1, 0.5, 0.1, 5), (110.0, 118.0, 4.0, 3)])
    def test_grid_that_lands_on_its_stop_is_kept(self, start, stop, step, n):
        cfg = config_from_mapping({"sweep.variable": "swipt.mu", "sweep.start": start,
                                   "sweep.stop": stop, "sweep.step": step})
        assert cfg.sweep_values == [start + i * step for i in range(n)]

    def test_validate_builds_every_grid_point(self, tmp_path, capsys):
        # 0.6, 0.8, 1.0: the grid lands on its stop, but swipt.rho rejects 1.0
        path = tmp_path / "rho.cfg"
        path.write_text("sweep.variable = swipt.rho\nsweep.start = 0.6\n"
                        "sweep.stop = 1.0\nsweep.step = 0.2\n")
        for argv in (["validate"], ["run", "--out", str(tmp_path / "o.csv")]):
            assert cli.main([*argv, "--config", str(path)]) == 2
            out = capsys.readouterr()
            assert "configuration valid" not in out.out
            assert "swipt.rho = 1.0" in out.err and "[0, 1)" in out.err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("variable", ["rates.gamma_s_db", "rates.gamma_a_db"])
    def test_threshold_sweep_under_from_rate_is_a_config_error(self, variable, tmp_path,
                                                               capsys):
        mapping = {"sweep.variable": variable, "sweep.values": "0,5,10"}
        with pytest.raises(ConfigError, match="sweep.variable"):
            config_from_mapping({**mapping, "rates.threshold_mode": "from_rate"})
        path = tmp_path / "flat.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items())
                        + "rates.threshold_mode = from_rate\n")
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "sweep.variable" in capsys.readouterr().err
        # under fixed thresholds the key sets gamma; the rates feed throughput in both modes
        assert config_from_mapping(mapping).sweep_values == [0.0, 5.0, 10.0]
        for rate in ("rates.r_s", "rates.r_a"):
            config_from_mapping({"sweep.variable": rate, "sweep.values": "0.1,0.2"})

    @pytest.mark.parametrize("text", ["12.5", "inf"])
    @pytest.mark.parametrize("key", ["fading.m_sr", "run.trials", "run.seed", "run.cgq_n"])
    def test_non_integral_text_for_integer_key(self, key, text, tmp_path, capsys):
        path = tmp_path / "int.cfg"
        path.write_text(f"{key} = {text}\n")
        with pytest.raises(ConfigError, match="not an integer"):
            load_config(path)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "configuration valid" not in capsys.readouterr().out
        path.write_text(f"{key} = 1e1\n")
        value = load_config(path).raw[key]
        assert value == 10 and type(value) is int
        # the same rule for a number given in a mapping or as an override
        with pytest.raises(ConfigError, match="not an integer"):
            config_from_mapping({key: float(text)})
        with pytest.raises(ConfigError, match="not an integer"):
            default_config().with_overrides({key: float(text)})
        value = config_from_mapping({key: 10.0}).raw[key]
        assert value == 10 and type(value) is int

    def test_integral_float_trials_run(self):
        cfg = config_from_mapping({"run.trials": 1e5})
        assert cfg.trials == 100_000 and simulate_op(cfg, "s2g").trials == 100_000

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

    @pytest.mark.parametrize("line", ["link.T_noise_k = -1", "link.theta_3db_deg = 0"])
    def test_bad_link_constant_fails_at_load(self, line, tmp_path, capsys):
        path = tmp_path / "link.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_config(path)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "configuration valid" not in capsys.readouterr().out
        out = tmp_path / "o.csv"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("link.P_s_w", 2.0), ("link.xi_db", 3.0), ("link.lambda_m", 0.1),
        ("link.T_noise_k", -1.0), ("link.bandwidth_hz", 1e6), ("link.gain_s_db", 50.0),
        ("link.gain_sr_db", 5.0), ("link.theta_sr_deg", 0.5), ("link.theta_3db_deg", 0.4),
    ])
    def test_link_key_ignored_under_a_direct_gain_warns(self, key, value):
        # the direct gain drops the whole physical chain, invalid values included
        with pytest.warns(UserWarning, match=key):
            cfg = config_from_mapping({key: value, "link.eta_s_db": 120.0})
        assert cfg.eta_s == config_from_mapping({"link.eta_s_db": 120.0}).eta_s
        if value > 0:       # -1 K is rejected once the chain is read
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                config_from_mapping({key: value})

    def test_link_key_ignored_by_a_preset_warns(self):
        # fig5 sets link.eta_s_db over a config whose own mapping set the link chain
        cfg = config_from_mapping({"link.P_s_w": 10.0})
        with pytest.warns(UserWarning, match="link.P_s_w"):
            apply_preset(cfg, "fig5")

    @pytest.mark.parametrize("line", ["run.trials = none", "rates.r_s = none"])
    def test_missing_number_is_a_config_error(self, line, tmp_path):
        path = tmp_path / "none.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("seed", [2 ** 53 + 1, 2 ** 64 - 1])
    def test_integer_keys_are_exact(self, seed, tmp_path):
        path = tmp_path / "seed.cfg"
        path.write_text(f"run.seed = {seed}\n")
        cfg = load_config(path)
        assert cfg.seed == seed and type(cfg.seed) is int
        assert cli.main(["validate", "--config", str(path)]) == 0

    def test_overrides_parse_text_like_a_file(self):
        text = {"run.trials": "1000", "swipt.rho": "0.3", "swipt.p_th_dbm": "inf"}
        cfg = default_config().with_overrides(text)
        assert cfg == config_from_mapping(text)
        assert cfg.trials == 1000 and cfg.sp.rho == 0.3 and math.isinf(cfg.sp.p_th)
        with pytest.raises(ConfigError, match="not an integer"):
            default_config().with_overrides({"run.trials": "2.5"})
        with pytest.raises(ConfigError, match="unknown key"):
            default_config().with_overrides({"swipt.rho_typo": "0.3"})

    @pytest.mark.parametrize("key,text", [
        ("link.eta_s_db", "nan"), ("link.eta_s_db", "inf"), ("link.eta_s_db", "-inf"),
        ("fading.b_sr", "nan"), ("noise.sigma_d_dbm", "nan"), ("rates.r_s", "nan"),
        ("swipt.p_th_dbm", "-inf"), ("sweep.values", "100,nan"),
    ])
    def test_non_finite_number_is_a_config_error(self, key, text, tmp_path, capsys):
        # only swipt.p_th_dbm = +inf (linear EH) may be non-finite
        mapping = {key: text if key == "sweep.values" else float(text)}
        if key == "sweep.values":
            mapping["sweep.variable"] = "link.eta_s_db"
        with pytest.raises(ConfigError, match="finite"):
            config_from_mapping(mapping)
        path = tmp_path / "nonfinite.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)
        assert cli.main(["validate", "--config", str(path)]) == 2
        out = capsys.readouterr()
        assert "configuration valid" not in out.out and key in out.err

    @pytest.mark.parametrize("mapping", [
        {"rates.threshold_mode": "from_rate", "rates.r_s": 600.0},
        {"link.eta_s_db": 4000.0},
        {"rates.gamma_s_db": 4000.0},
        {"noise.sigma_d_dbm": 4000.0},
        {"swipt.p_th_dbm": 4000.0},
    ], ids=["r_s", "eta_s_db", "gamma_s_db", "sigma_d_dbm", "p_th_dbm"])
    def test_linear_value_beyond_a_float_is_a_config_error(self, mapping):
        # none may become inf: eta = inf once gave OP 1 from closed and integral
        # but 0 from mc, and p_th = inf silently selects the linear harvester
        key = list(mapping)[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # and no numpy overflow warning
            with pytest.raises(ConfigError, match=key):
                config_from_mapping(mapping)

    def test_overflowing_rate_threshold_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rate.cfg"
        path.write_text("rates.threshold_mode = from_rate\nrates.r_s = 600\n")
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "rates.r_s" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "fading.m_sr = 0", "fading.b_sr = 0", "fading.omega_sr = -1", "fading.m_rd = 0.2",
        "fading.nu_rd = 0", "fading.K_rt = -1", "fading.nu_rt = 0",
        "geometry.h1_m = 600", "geometry.h2_m = 300", "geometry.phi_rad = 2",
        "geometry.l_m = 0", "geometry.h0_m = 0", "geometry.w_min_km = 0",
        "geometry.w_e_km = 0", "link.T_noise_k = 0", "link.bandwidth_hz = 0",
        "link.P_s_w = 0", "link.lambda_m = 0", "link.theta_sr_deg = 1.0",
        "link.theta_3db_deg = 0", "link.xi_db = -4000", "noise.sigma_r_dbm = -4000",
        "swipt.p_th_dbm = -4000", "run.ic_mode = both-ways",
        "rates.threshold_mode = adaptive", "rates.r_s = -0.1", "rates.r_s = none",
        "run.networks = s2g,g2g", "run.methods = mc,exact", "run.trials = 0",
        "run.cgq_n = 3", "swipt.mu = abc", "swipt.mu 0.5",
        "link.gain_s_db = 4000", "link.bandwidth_hz = 1e-320",
    ])
    def test_one_bad_value_exits_2_naming_its_key(self, line, tmp_path, capsys):
        path = tmp_path / "one.cfg"
        path.write_text(line + "\n")
        with warnings.catch_warnings():     # the error comes without a numpy warning
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["validate", "--config", str(path)]) == 2
        out = capsys.readouterr()
        assert "configuration valid" not in out.out and line.split()[0] in out.err

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


class TestRateSweep:
    def test_linear_eh_understates_outage_more_as_the_rate_grows(self):
        # at 120 dB a 5 dBm harvester saturates, so linear EH (p_th = inf) drifts
        # further below it as the threshold 2^(2 r / (1 - rho)) - 1 rises
        base = {"sweep.variable": "rates.r_s", "sweep.values": "0.02,0.1,0.3",
                "rates.threshold_mode": "from_rate", "link.eta_s_db": 120.0,
                "run.networks": "s2g", "run.methods": "integral"}
        op = {}
        for p_th in (5.0, "inf"):
            rows = run_sweep(config_from_mapping({**base, "swipt.p_th_dbm": p_th})).rows
            assert [r["sweep_value"] for r in rows] == [0.02, 0.1, 0.3]
            op[p_th] = [r["op_s2g_integral"] for r in rows]
            assert op[p_th] == sorted(op[p_th])
        gap = [sat - lin for sat, lin in zip(op[5.0], op["inf"])]
        assert 0 < gap[0] < gap[1] < gap[2]

    def test_aerial_rate_sweeps_its_own_threshold(self):
        cfg = config_from_mapping({"sweep.variable": "rates.r_a",
                                   "sweep.values": "0.02,0.1,0.3",
                                   "rates.threshold_mode": "from_rate"})
        points = [cfg.with_overrides({"rates.r_a": r}) for r in cfg.sweep_values]
        assert [p.gamma_a for p in points] == sorted({p.gamma_a for p in points})
        assert {p.gamma_s for p in points} == {cfg.gamma_s}


class TestPresets:
    def test_all_figure_presets_build(self):
        for name in FIGURE_PRESETS:
            cfg = apply_preset(default_config(), name)
            vals = cfg.sweep_values
            assert len(vals) >= 2

    def test_expected_names_present(self):
        for name in ("fig4", "fig5", "fig9", "fig10", "fig12", "fig15"):
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

    def test_closed_csv_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        # the a2a closed path runs the most G2113 ladders and signed sums, the
        # part of a point most sensitive to summation order
        cfg = config_from_mapping({
            "sweep.variable": "link.eta_s_db", "sweep.values": "88,103",
            "run.networks": "a2a", "run.ic_mode": "both", "run.methods": "closed",
            "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 35.0,
        })
        texts = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SAGIN_THREADS", threads)
            out = tmp_path / f"threads{threads}.csv"
            emit_csv(run_sweep(cfg), out)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        rows = [line.split(",") for line in texts[0].decode().splitlines()[1:]]
        for col in ("op_a2a_im_closed", "op_a2a_p_closed"):
            assert all(0.0 < float(r[SCHEMA_COLUMNS.index(col)]) < 1.0 for r in rows)

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

    def test_diagnostic_with_a_comma_stays_one_cell(self, tmp_path):
        message = 'op_s2g_closed:outside [0, 1] by 2e-05;route "tail", noise 1e-3'
        row = {c: "" for c in SCHEMA_COLUMNS}
        row.update(sweep_variable="link.eta_s_db", sweep_value=148.0,
                   op_s2g_integral=1.876e-5, diagnostics=message)
        out = tmp_path / "d.csv"
        emit_csv(SweepResult(variable="link.eta_s_db", rows=[row]), out)
        with open(out, newline="") as fh:
            header, cells = csv.reader(fh)
        assert tuple(header) == SCHEMA_COLUMNS and len(cells) == 18
        assert cells[-1] == message
        assert cells[SCHEMA_COLUMNS.index("op_s2g_integral")] == "1.876e-05"

    @staticmethod
    def _closed_sweep_cfg(methods):
        return config_from_mapping({
            "sweep.variable": "link.eta_s_db", "sweep.values": "88,103,118",
            "run.networks": "a2a", "run.ic_mode": "both", "run.methods": methods,
            "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 35.0,
        })

    def test_closed_cells_run_one_at_a_time(self, monkeypatch):
        lock = threading.Lock()
        in_flight = [0]
        most = [0]

        def closed(gamma, cfg, ic_mode):
            with lock:
                in_flight[0] += 1
                most[0] = max(most[0], in_flight[0])
            time.sleep(0.02)          # long enough for a second worker to collide
            with lock:
                in_flight[0] -= 1
            return 0.5

        monkeypatch.setattr(sweep, "op_a2a_closed", closed)
        monkeypatch.setenv("SAGIN_THREADS", "2")
        res = run_sweep(self._closed_sweep_cfg("closed"))
        assert [r["op_a2a_p_closed"] for r in res.rows] == [0.5] * 3
        assert most[0] == 1

    def test_integral_cells_do_not_take_the_closed_lock(self, monkeypatch):
        held = {}

        def recorder(method):
            def evaluate(gamma, cfg, ic_mode):
                held.setdefault(method, []).append(sweep._CLOSED_LOCK.locked())
                return 0.5
            return evaluate

        monkeypatch.setattr(sweep, "op_a2a_closed", recorder("closed"))
        monkeypatch.setattr(sweep, "op_a2a_integral", recorder("integral"))
        monkeypatch.setenv("SAGIN_THREADS", "1")
        run_sweep(self._closed_sweep_cfg("closed,integral"))
        assert held == {"closed": [True] * 6, "integral": [False] * 6}

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
        assert "201/201" in capsys.readouterr().out

    def test_missing_oracle_table_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "absent.txt"
        assert cli.main(["oracle-check", "--table", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot read oracle table {path}")

    @pytest.mark.parametrize("row", ["delta_gamma 1,2", "G2113 a,b 1 2",
                                     "G2113 -0.5,0.25,-0.25,-1.5 x 0.3"],
                             ids=["short-row", "bad-param", "bad-x"])
    def test_malformed_oracle_row_is_a_config_error(self, row, tmp_path, capsys):
        path = tmp_path / "table.txt"
        path.write_text(f"# header\nbessel_i0 - 1.0 1.2660658777520082\n{row}\n")
        assert cli.main(["oracle-check", "--table", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {path}:3:")

    @pytest.mark.parametrize("command,option,what", [
        ("validate", "--config", "config file"), ("oracle-check", "--table", "oracle table")])
    def test_non_utf8_file_is_a_config_error(self, command, option, what, tmp_path, capsys):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + "swipt.rho = 0.5\n".encode("utf-16-le"))
        assert cli.main([command, option, str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot read {what} {path}")

    @pytest.mark.parametrize("out", ["missing/o.csv", "missing/../o.csv", ".", "", "sub/"],
                             ids=["no-dir", "through-no-dir", "a-dir", "empty", "no-file-name"])
    def test_unwritable_out_fails_before_the_sweep(self, out, tmp_path, monkeypatch,
                                                   capsys):
        def no_sweep(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot write output file {out}")

    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run.methods = mc\nrun.trials = 5000\n"
                       "sweep.variable = swipt.mu\n"
                       "sweep.values = 0.6,0.7\nrun.networks = s2g\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists() and len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_count_is_a_config_error(self, value, monkeypatch, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run.methods = mc\nrun.trials = 1000\nrun.networks = s2g\n")
        out = tmp_path / "o.csv"
        monkeypatch.setenv("SAGIN_THREADS", value)
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "SAGIN_THREADS" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setenv("SAGIN_THREADS", "3")
        assert sweep._worker_count() == 3

    @pytest.mark.parametrize("allowed, want", [({0}, 1), ({2, 5, 7}, 3), (set(range(64)), 8)])
    def test_default_thread_count_follows_cpu_affinity(self, allowed, want, monkeypatch):
        monkeypatch.delenv("SAGIN_THREADS", raising=False)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: allowed,
                            raising=False)
        assert sweep._worker_count() == want
        monkeypatch.setenv("SAGIN_THREADS", "5")
        assert sweep._worker_count() == 5

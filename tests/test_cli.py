import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from igcomposite import composite as co
from igcomposite import shadowing as sh
from igcomposite.cli import _fmt, main, parse_model_config

RAYLEIGH_CFG = '{"shadowing":{"m":2},"fading":{"type":"rayleigh"}}'
TWDP_CFG = '{"shadowing":{"m":2},"fading":{"type":"twdp","k_r":2,"delta":0.3}}'


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    return header, rows


class TestEval:
    def test_single_row_spot_value(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["eval", "--config", RAYLEIGH_CFG, "--quantity", "pdf",
                   "--grid", "1:1:1", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["u", "value"]
        assert rows == [["1", "0.25"]]

    def test_amp_cdf_matches_cdf_of_square(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["eval", "--config", TWDP_CFG, "--quantity", "amp-cdf",
                     "--grid", "0.5:0.25:1.5", "--out", str(a)]) == 0
        assert main(["eval", "--config", TWDP_CFG, "--quantity", "cdf",
                     "--grid", "0.25:0.0001:0.25", "--out", str(b)]) == 0
        _, rows_a = read_csv(a)
        _, rows_b = read_csv(b)
        assert float(rows_a[0][1]) == pytest.approx(float(rows_b[0][1]), rel=1e-10)

    def test_config_from_file(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(RAYLEIGH_CFG)
        out = tmp_path / "o.csv"
        assert main(["eval", "--config", str(cfg), "--quantity", "cdf",
                     "--grid", "1:1:1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.75, abs=1e-9)

    def test_amplitude_density_curves(self, tmp_path):
        # mixture-route amplitude PDFs for two-ray baselines at two mean
        # powers; the truncated mixtures carry enough terms and the emitted
        # curves integrate to 1 within 1e-4
        from scipy.integrate import trapezoid

        from igcomposite import fading as fa, gamma_mixture

        assert len(gamma_mixture(fa.TWDP(4.0, 0.9)).terms) >= 15
        assert len(gamma_mixture(fa.TWDP(10.0, 0.9)).terms) >= 30
        cases = [
            ('{"shadowing":{"m":4},"fading":{"type":"twdp","k_r":4,"delta":0.9},"mean_power":1}', "0.005:0.005:10"),
            ('{"shadowing":{"m":6},"fading":{"type":"twdp","k_r":4,"delta":0.9},"mean_power":8}', "0.01:0.01:16"),
        ]
        for cfg, grid in cases:
            out = tmp_path / "curve.csv"
            assert main(["eval", "--config", cfg, "--quantity", "amp-pdf",
                         "--grid", grid, "--strategy", "mixture",
                         "--out", str(out)]) == 0
            _, rows = read_csv(out)
            r = np.array([float(x[0]) for x in rows])
            v = np.array([float(x[1]) for x in rows])
            assert abs(trapezoid(v, r) - 1.0) < 1e-4

    @pytest.mark.parametrize(
        "cfg",
        [
            '{"shadowing":{"m":2},"fading":{"type":"nope"}}',
            '{"shadowing":{"m":0.5},"fading":{"type":"rayleigh"}}',
            '{"shadowing":{"m":2},"fading":{"type":"rician"}}',
            '{"shadowing":{"m":2},"fading":{"type":"rayleigh"},"extra":1}',
            '{"shadowing":{"m":2},"fading":{"type":"rayleigh","bogus":3}}',
            'not json',
        ],
    )
    def test_invalid_config_exits_2(self, cfg, capsys):
        assert main(["eval", "--config", cfg, "--quantity", "pdf",
                     "--grid", "1:1:1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, field", [
        ('{"shadowing":{"m":Infinity},"fading":{"type":"rayleigh"}}', "shadowing.m"),
        ('{"shadowing":{"m":2},"fading":{"type":"rayleigh"},"mean_power":Infinity}',
         "mean_power"),
        ('{"shadowing":{"m":2},"fading":{"type":"rician","k_r":Infinity}}', "fading.k_r"),
        ('{"shadowing":{"m":2},"fading":{"type":"nakagami","m_f":Infinity}}', "fading.m_f"),
        ('{"shadowing":{"m":NaN},"fading":{"type":"rayleigh"}}', "shadowing.m"),
        ('{"shadowing":{"m":1%s},"fading":{"type":"rayleigh"}}' % ("0" * 400), "shadowing.m"),
    ], ids=["m-inf", "mean-power-inf", "k_r-inf", "m_f-inf", "m-nan", "m-int-1e400"])
    def test_non_finite_config_number_exits_2(self, cfg, field, capsys):
        # json accepts Infinity, NaN and integers beyond double range; no
        # model parameter can take them, and m -> inf is not a composite
        assert main(["eval", "--config", cfg, "--quantity", "cdf",
                     "--grid", "0.5:0.5:1"]) == 2
        assert f"error: {field}: expected a finite number" in capsys.readouterr().err

    def test_bad_grid_exits_2(self):
        assert main(["eval", "--config", RAYLEIGH_CFG, "--quantity", "pdf",
                     "--grid", "2:1:1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--quantity", "cdf", "--grid", "0.1:1:inf"],
        ["outage", "--grid-db=-inf:4:0"],
        ["eval", "--quantity", "cdf", "--grid", "nan:1:2"],
    ], ids=["eval-inf-stop", "outage-inf-start", "eval-nan-start"])
    def test_non_finite_grid_exits_2(self, argv, capsys):
        assert main(argv + ["--config", RAYLEIGH_CFG]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_numeric_oracle_strategy_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", RAYLEIGH_CFG, "--quantity", "cdf",
                  "--grid", "1:1:1", "--strategy", "numeric-oracle"])
        assert exc.value.code == 2
        assert "invalid choice: 'numeric-oracle'" in capsys.readouterr().err


class TestOutage:
    def test_columns_and_ratio(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(["outage", "--config", TWDP_CFG, "--grid-db=-40:10:-20",
                   "--asymptotic", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["gamma_th_db", "exact", "asymptote"]
        exact = [float(r[1]) for r in rows]
        asym = [float(r[2]) for r in rows]
        assert exact[0] / asym[0] == pytest.approx(1.0, abs=0.02)
        assert all(a < b for a, b in zip(exact, exact[1:]))

    def test_decade_slope(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["outage", "--config", TWDP_CFG, "--grid-db=-50:10:-40",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        lo, hi = float(rows[0][1]), float(rows[1][1])
        assert math.log10(hi / lo) == pytest.approx(1.0, abs=0.01)


    @pytest.mark.parametrize("cfg", [
        '{"shadowing":{"m":2.5},"fading":{"type":"rician","k_r":3}}',
        '{"shadowing":{"m":3},"fading":{"type":"hoyt","q":0.6}}',
    ], ids=["rician", "hoyt-integer-m"])
    def test_sweep_is_one_call_matching_scalar_calls(self, tmp_path, monkeypatch, cfg):
        calls = []

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("outage", "outage_asymptotic"):
            monkeypatch.setattr(co, name, recorded(name, getattr(co, name)))
        out = tmp_path / "o.csv"
        assert main(["outage", "--config", cfg, "--grid-db=-40:5:0",
                     "--asymptotic", "--out", str(out)]) == 0
        monkeypatch.undo()
        assert calls == ["outage", "outage_asymptotic"]
        model = parse_model_config(cfg)
        _, rows = read_csv(out)
        assert len(rows) == 9
        for db, exact, asym in rows:
            r = 10.0 ** (float(db) / 10.0)
            assert float(exact) == pytest.approx(float(_fmt(co.outage(model, r, 1.0))), rel=1e-12)
            assert float(asym) == pytest.approx(
                float(_fmt(co.outage_asymptotic(model, r, 1.0))), rel=1e-12)

    def test_series_failure_names_model_and_point(self, capsys):
        cfg = '{"shadowing":{"m":2.5},"fading":{"type":"hoyt","q":0.5}}'
        assert main(["outage", "--config", cfg, "--grid-db=-40:10:0"]) == 3
        err = capsys.readouterr().err
        assert "Hoyt(q=0.5" in err and "m = 2.5" in err and "u = 0.0001" in err


    def test_strong_line_of_sight_sweep(self, capsys):
        cfg = '{"shadowing":{"m":2.5},"fading":{"type":"rician","k_r":1000}}'
        assert main(["outage", "--config", cfg, "--grid-db=-10:5:0"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        general = co.outage(parse_model_config(cfg), 10.0 ** np.array([-1.0, -0.5, 0.0]),
                            1.0, co.Strategy.GMGF_GENERAL)
        assert [float(r[1]) for r in rows] == pytest.approx(general, rel=0.0, abs=1e-9)
        assert float(rows[2][1]) == pytest.approx(0.699985836, abs=1e-9)  # QUADPACK


# each fading.type's required keys, as the CLI names them
REQUIRED_KEYS = {
    "rayleigh": (),
    "rician": ("k_r",),
    "nakagami": ("m_f",),
    "hoyt": ("q",),
    "kappa-mu": ("kappa", "mu"),
    "eta-mu": ("eta", "mu"),
    "kappa-mu-shadowed": ("kappa", "mu", "m_f"),
    "twdp": ("k_r", "delta"),
}
VALID = {"k_r": 2, "m_f": 1.5, "q": 0.5, "kappa": 2, "mu": 1.5, "eta": 0.5, "delta": 0.3}


class TestFadingSchema:
    def _gmgf(self, doc):
        return main(["gmgf", "--fading", json.dumps(doc), "--p", "1", "--s=-1"])

    @pytest.mark.parametrize("kind", sorted(REQUIRED_KEYS))
    def test_complete_config_with_omega_x(self, kind, capsys):
        doc = {"type": kind, **{k: VALID[k] for k in REQUIRED_KEYS[kind]}, "omega_x": 1.3}
        assert self._gmgf(doc) == 0

    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind, keys in REQUIRED_KEYS.items() for key in keys
    ])
    def test_missing_required_key_exits_2(self, kind, key, capsys):
        doc = {"type": kind, **{k: VALID[k] for k in REQUIRED_KEYS[kind] if k != key}}
        assert self._gmgf(doc) == 2
        assert f"error: fading.{key}: required for type {kind!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(REQUIRED_KEYS))
    def test_extra_key_exits_2(self, kind, capsys):
        doc = {"type": kind, **{k: VALID[k] for k in REQUIRED_KEYS[kind]}, "bogus": 1}
        assert self._gmgf(doc) == 2
        assert f"error: fading: unknown key 'bogus' for type {kind!r}" in capsys.readouterr().err

    def test_unknown_type_lists_all_eight(self, capsys):
        assert self._gmgf({"type": "nope"}) == 2
        assert str(sorted(REQUIRED_KEYS)) in capsys.readouterr().err


class TestFit:
    def _write_samples(self, path, values):
        with open(path, "w") as fh:
            fh.write("value\n")
            for v in values:
                fh.write(f"{v:.10g}\n")

    def test_recovery_and_ranking(self, tmp_path):
        data = tmp_path / "d.csv"
        self._write_samples(data, np.log(sh.sample_inverse_gamma(5.0, 1.0, 5000, seed=3)))
        out = tmp_path / "report.csv"
        rc = main(["fit", "--data", str(data), "--scale", "ln",
                   "--families", "inverse_gamma,gamma", "--multistart", "2",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["family", "params", "cvm", "converged", "iterations"]
        assert rows[0][0] == "inverse_gamma"
        params = dict(kv.split("=") for kv in rows[0][1].split(";"))
        assert float(params["m"]) == pytest.approx(5.0, rel=0.15)

    def test_integer_m_row(self, tmp_path):
        data = tmp_path / "d.csv"
        self._write_samples(data, np.log(sh.sample_inverse_gamma(5.0, 1.0, 2000, seed=5)))
        out = tmp_path / "report.csv"
        rc = main(["fit", "--data", str(data), "--scale", "ln",
                   "--families", "inverse_gamma", "--integer-m",
                   "--multistart", "2", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert {r[0] for r in rows} == {"inverse_gamma", "inverse_gamma_integer"}
        int_row = next(r for r in rows if r[0] == "inverse_gamma_integer")
        params = dict(kv.split("=") for kv in int_row[1].split(";"))
        assert float(params["m"]) == round(float(params["m"]))

    def test_ecdf_pairs_input(self, tmp_path):
        data = tmp_path / "e.csv"
        xs = np.log(sh.sample_inverse_gamma(5.0, 1.0, 3000, seed=8))
        from igcomposite import montecarlo as mc

        ecdf = mc.empirical_cdf(xs).thin(400)
        with open(data, "w") as fh:
            fh.write("t,cdf\n")
            for t, f in zip(ecdf.t, ecdf.f):
                fh.write(f"{t:.10g},{f:.10g}\n")
        rc = main(["fit", "--data", str(data), "--scale", "ln",
                   "--families", "inverse_gamma", "--multistart", "2",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 0

    def test_non_monotone_ecdf_exits_2(self, tmp_path, capsys):
        data = tmp_path / "e.csv"
        data.write_text("t,cdf\n0.0,0.5\n1.0,0.4\n")
        assert main(["fit", "--data", str(data), "--scale", "ln",
                     "--families", "gamma"]) == 2

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        for text in ("value\n1.0\nnot-a-number\n", "value\n1.0\nnan\n",
                     "value\n1.0\ninf\n", "t,cdf\n1.0,0.5\nnan,1.0\n"):
            data.write_text(text)
            assert main(["fit", "--data", str(data), "--scale", "ln",
                         "--families", "gamma"]) == 2
            assert "line 3" in capsys.readouterr().err

    def test_all_fits_fail_exits_4(self, tmp_path):
        data = tmp_path / "flat.csv"
        data.write_text("value\n2.0\n2.0\n2.0\n")
        assert main(["fit", "--data", str(data), "--scale", "ln",
                     "--families", "gamma"]) == 4

    @pytest.mark.parametrize("option", [["--multistart", "0"], ["--pad", "-1"],
                                        ["--multistart", "14"], ["--pad", "nan"],
                                        ["--pad", "inf"]])
    def test_invalid_fit_option_exits_2(self, tmp_path, option, capsys):
        data = tmp_path / "d.csv"
        self._write_samples(data, np.log(sh.sample_inverse_gamma(5.0, 1.0, 200, seed=5)))
        assert main(["fit", "--data", str(data), "--scale", "ln",
                     "--families", "gamma,inverse_gamma"] + option) == 2
        assert "fit failed" not in capsys.readouterr().err

    def test_db_direction_flag(self, tmp_path):
        data = tmp_path / "d.csv"
        xs = np.log(sh.sample_inverse_gamma(5.0, 1.0, 1000, seed=9))
        # write the data as amplitude dB so both directions parse
        self._write_samples(data, xs * 20.0 / math.log(10.0))
        rc = main(["fit", "--data", str(data), "--scale", "db",
                   "--db-direction", "conventional",
                   "--families", "inverse_gamma", "--multistart", "2",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 0


class TestSimulate:
    def test_deterministic_sample_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--config", TWDP_CFG, "--count", "500", "--seed", "42"]
        assert main(args + ["--emit-samples", str(a)]) == 0
        assert main(args + ["--emit-samples", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_validation_passes(self, capsys):
        cfg = '{"shadowing":{"m":3},"fading":{"type":"kappa-mu-shadowed","kappa":2,"mu":1.5,"m_f":3}}'
        rc = main(["simulate", "--config", cfg, "--count", "100000",
                   "--seed", "7", "--validate"])
        assert rc == 0
        assert "validation passed" in capsys.readouterr().out

    def test_validate_needs_two_samples(self, capsys):
        rc = main(["simulate", "--config", RAYLEIGH_CFG, "--count", "1",
                   "--seed", "1", "--validate"])
        assert rc == 2
        assert "count: --validate needs at least 2 samples, got 1" in capsys.readouterr().err

    def test_small_count_guard_scales(self, capsys):
        rc = main(["simulate", "--config", RAYLEIGH_CFG, "--count", "100",
                   "--seed", "1", "--validate"])
        assert rc == 0


class TestGmgf:
    def test_rayleigh_value(self, capsys):
        rc = main(["gmgf", "--fading", '{"type":"rayleigh"}', "--p", "1", "--s", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert float(out.split()[1]) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("fading_doc, p, s, bound", [
        pytest.param('{"type":"twdp","k_r":4,"delta":0.9}', 2, -1.5, 1e-7, id="twdp"),
        pytest.param('{"type":"rician","k_r":30}', 0.3, -100, 1e-9, id="rician-narrow"),
        pytest.param('{"type":"kappa-mu","kappa":0,"mu":0.3}', 0, 0, 1e-9,
                     id="kappa-mu-singular"),
        pytest.param('{"type":"rayleigh","omega_x":1e10}', 1, -1e-10, 1e-9, id="rayleigh-wide"),
        pytest.param('{"type":"rayleigh","omega_x":1e-10}', 2, -1e9, 1e-9,
                     id="rayleigh-narrow"),
        pytest.param('{"type":"nakagami","m_f":0.5}', 0, -1e8, 1e-9, id="nakagami-steep"),
        pytest.param('{"type":"eta-mu","eta":0.4,"mu":1.2}', 40, -20, 1e-9, id="eta-mu-high-p"),
        pytest.param('{"type":"hoyt","q":0.5}', 1, -2, 1e-9, id="hoyt"),
        pytest.param('{"type":"kappa-mu","kappa":2,"mu":1.5}', 2.5, -0.5, 1e-9, id="kappa-mu"),
        pytest.param('{"type":"kappa-mu-shadowed","kappa":2,"mu":1.5,"m_f":3}', 1.5, -1, 1e-9,
                     id="kappa-mu-shadowed"),
        pytest.param('{"type":"nakagami","m_f":2.5}', 3, -0.2, 1e-9, id="nakagami"),
        pytest.param('{"type":"rician","k_r":3}', 0.5, -3, 1e-9, id="rician"),
        # both the closed form and the integral underflow to 0
        pytest.param('{"type":"rayleigh"}', 1000, -1000, 0.0, id="both-zero"),
    ])
    def test_twdp_check(self, capsys, fading_doc, p, s, bound):
        rc = main(["gmgf", "--fading", fading_doc, "--p", str(p), f"--s={s}", "--check"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        rel = float(lines[-1].split()[1])
        assert rel < bound if bound else rel == 0.0

    def test_collapse_printed_equal(self, capsys):
        assert main(["gmgf", "--fading",
                     '{"type":"kappa-mu-shadowed","kappa":0,"mu":1.7,"m_f":3}',
                     "--p", "2", "--s=-1"]) == 0
        v1 = capsys.readouterr().out
        assert main(["gmgf", "--fading", '{"type":"nakagami","m_f":1.7}',
                     "--p", "2", "--s=-1"]) == 0
        v2 = capsys.readouterr().out
        assert v1 == v2

    def test_bad_domain_exits_2(self):
        assert main(["gmgf", "--fading", '{"type":"rayleigh"}',
                     "--p", "1", "--s", "1"]) == 2


def test_no_command_loads_the_optimizer(tmp_path):
    # scipy.optimize (and the scipy.linalg/sparse/fft it pulls in) and the
    # other heavy scipy subpackages are most of a command's start-up cost;
    # no command needs them, fit included
    data = tmp_path / "d.csv"
    xs = np.log(sh.sample_inverse_gamma(5.0, 1.0, 300, seed=5))
    data.write_text("value\n" + "".join(f"{x:.10g}\n" for x in xs))
    script = textwrap.dedent(f"""
        import sys
        import igcomposite
        from igcomposite import cli

        cfg = {RAYLEIGH_CFG!r}
        for argv in (
            ["eval", "--config", cfg, "--quantity", "cdf", "--grid", "0.5:0.5:2"],
            ["outage", "--config", cfg, "--grid-db=-20:10:0", "--asymptotic"],
            ["simulate", "--config", cfg, "--count", "4000", "--seed", "3", "--validate"],
            ["gmgf", "--fading", '{{"type":"rician","k_r":2}}', "--p", "1.5", "--s=-1", "--check"],
            ["fit", "--data", {str(data)!r}, "--scale", "ln", "--families",
             "lognormal,gamma,inverse_gaussian,inverse_gamma", "--integer-m", "--multistart", "1"],
        ):
            assert cli.main(argv) == 0, argv
        heavy = ("scipy.optimize", "scipy.linalg", "scipy.integrate", "scipy.stats")
        loaded = [name for name in heavy if name in sys.modules]
        assert not loaded, loaded
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

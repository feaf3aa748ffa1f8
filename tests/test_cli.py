import json
import math

import numpy as np
import pytest

from wiretap_mimo import cli, construct_wf_optimal_channel
from wiretap_mimo.cli import (CSV_HEADER, load_scenario, main, run_sweep)
from util import random_unitary


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def fig1_doc(**extra):
    doc = {
        "channel": {"matrix_kind": "W",
                    "w1": [[2, 0], [0, 1]],
                    "w2": [[0.2, 0.1], [0.1, 0.1]]},
        "power_grid": {"p_t": [1.0]},
        "solver": "weak",
    }
    doc.update(extra)
    return doc


class TestScenarioParsing:
    def test_minimal_scenario(self, tmp_path):
        spec = load_scenario(write_scenario(tmp_path, fig1_doc()))
        assert spec.pair.m == 2
        assert spec.grid == [(0.0, 1.0)]
        assert spec.solvers == ["weak"]

    def test_db_range_grid(self, tmp_path):
        doc = fig1_doc(power_grid={"db_start": -10, "db_stop": 20, "db_step": 1})
        spec = load_scenario(write_scenario(tmp_path, doc))
        assert len(spec.grid) == 31
        assert spec.grid[0][0] == -10.0
        assert spec.grid[-1][1] == pytest.approx(100.0)

    def test_complex_entries_as_pairs(self, tmp_path):
        doc = fig1_doc(channel={
            "matrix_kind": "W",
            "w1": [[[2, 0], [0, -1]], [[0, 1], [1, 0]]],
            "w2": [[0.1, 0], [0, 0.1]]})
        spec = load_scenario(write_scenario(tmp_path, doc))
        assert spec.pair.w1.entries[0, 1] == pytest.approx(-1j)

    def test_h_matrices_form_gram(self, tmp_path):
        doc = fig1_doc(channel={"matrix_kind": "H",
                                "h1": [[1, 1], [0, 1]],
                                "h2": [[0.2, 0.1]]})
        spec = load_scenario(write_scenario(tmp_path, doc))
        h1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(spec.pair.w1.entries, h1.T @ h1)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.pop("channel"), "channel"),
        (lambda d: d.pop("power_grid"), "power_grid"),
        (lambda d: d["channel"].pop("matrix_kind"), "matrix_kind"),
        (lambda d: d["channel"].update(h1=[[1]]), "exactly one channel source"),
        (lambda d: d.update(power_grid={"p_t": []}), "nonempty"),
        (lambda d: d.update(power_grid={"p_t": [-1.0]}), "invalid power"),
        (lambda d: d.update(solver="newton"), "unknown solver"),
        (lambda d: d.update(units="furlongs"), "units"),
        (lambda d: d["channel"].update(w1=[[1, 2]]), "square"),
        (lambda d: d.update(oracle={"grid_points": 5}), "unknown keys"),
        (lambda d: d.update(oracle={"complex_sampling": False}),
         "unknown keys.*complex_sampling"),
        (lambda d: d.update(oracle=5), "'oracle': expected an object"),
        (lambda d: d.update(channel=[[1, 0], [0, 1]]), "'channel': expected an object"),
        (lambda d: d.update(power_grid=[1.0]), "'power_grid': expected an object"),
        (lambda d: d.update(power_grid={"db_start": 0, "db_stop": 10}),
         "'power_grid': provide either 'p_t' or 'db_start'/'db_stop'/'db_step'"),
        (lambda d: d.update(solver=[]), "'solver': expected a name or nonempty list"),
        (lambda d: d.update(format="xml"), "'format': must be 'csv' or 'json'"),
        # one rule for every JSON number: an int or a float, never a bool
        (lambda d: d.update(power_grid={"db_start": [1], "db_stop": 2, "db_step": 1}),
         r"db_start': expected a finite number, got \[1\]"),
        (lambda d: d.update(power_grid={"db_start": 1, "db_stop": None, "db_step": 1}),
         "db_stop'.*got None"),
        (lambda d: d.update(power_grid={"db_start": 1, "db_stop": 2, "db_step": "1"}),
         "db_step'.*got '1'"),
        (lambda d: d.update(power_grid={"db_start": True, "db_stop": 2, "db_step": 1}),
         "db_start'.*got True"),
        (lambda d: d.update(power_grid={"p_t": [True]}), "p_t'.*got True"),
        # one dB-range rule: a finite number of points, each power finite
        # and positive (an OverflowError or a power of 0.0 before)
        (lambda d: d.update(power_grid={"db_start": 3000, "db_stop": 3100,
                                        "db_step": 100}), "power_grid': a dB range"),
        (lambda d: d.update(power_grid={"db_start": 0, "db_stop": 1e300,
                                        "db_step": 1e-300}), "power_grid': a dB range"),
        (lambda d: d.update(power_grid={"db_start": -4000, "db_stop": -4000,
                                        "db_step": 1}), "power_grid': a dB range"),
        (lambda d: d.update(power_grid={"db_start": 2, "db_stop": 1, "db_step": 1}),
         "power_grid': a dB range needs db_step > 0, db_stop >= db_start"),
        (lambda d: d.update(power_grid={"db_start": 1, "db_stop": 2, "db_step": 0}),
         "power_grid': a dB range needs db_step > 0"),
        (lambda d: d["channel"].update(w1=[[True, 0], [0, 1]]),
         r"w1\[0\]\[0\].*got True"),
    ])
    def test_malformed_scenarios(self, tmp_path, mutate, message):
        doc = fig1_doc()
        mutate(doc)
        with pytest.raises(ValueError, match=message):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("doc", [[fig1_doc()], "scenario", None])
    def test_scenario_must_be_an_object(self, tmp_path, doc):
        with pytest.raises(ValueError, match="scenario file must contain a JSON object"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"channel": }')
        with pytest.raises(ValueError, match="line"):
            load_scenario(str(path))


class TestSweep:
    def test_weak_rows(self, tmp_path):
        doc = fig1_doc(power_grid={"p_t": [1.0, 10.0]})
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        assert [r["p_t"] for r in rows] == [1.0, 10.0]
        assert rows[0]["solver"] == "weak"
        assert rows[0]["capacity"] == pytest.approx(0.98378, abs=1e-4)
        assert rows[0]["lower"] <= rows[0]["capacity"] <= rows[0]["upper"]

    def test_auto_dispatch_commuting(self, tmp_path):
        doc = fig1_doc(channel={"matrix_kind": "W",
                                "w1": [[2, 0], [0, 1]],
                                "w2": [[0.5, 0], [0, 0.2]]},
                       solver="auto")
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        assert [r["solver"] for r in rows] == ["rsv"]

    def test_auto_dispatch_contained_omni_goes_to_rsv(self, tmp_path):
        # range containment makes W2 a scaled projector over range(W1), which
        # always commutes with W1, so the shared-basis branch fires first
        doc = fig1_doc(channel={"matrix_kind": "W",
                                "w1": [[2, 1], [1, 1]],
                                "w2": [[0.5, 0], [0, 0.5]]},
                       solver="auto")
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        assert [r["solver"] for r in rows] == ["rsv"]

    def test_explicit_omni_solver(self, tmp_path):
        doc = fig1_doc(channel={"matrix_kind": "W",
                                "w1": [[2, 0], [0, 0]],
                                "w2": [[0.5, 0], [0, 0]]},
                       solver="omni")
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        assert rows[0]["solver"] == "omni"
        assert rows[0]["capacity"] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_isotropic_rows_are_the_sandwich_in_solver_order(self, tmp_path):
        # W2 = eps I: the named isotropic solver gives the isotropic sandwich
        # (tight here) and auto the exact row; rows follow the solver list
        doc = fig1_doc(channel={"matrix_kind": "W",
                                "w1": [[2, 1], [1, 1]],
                                "w2": [[0.5, 0], [0, 0.5]]},
                       solver=["oracle", "isotropic", "auto"],
                       oracle={"samples": 2000, "seed": 1})
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        assert [r["solver"] for r in rows] == ["oracle", "isotropic", "rsv"]
        iso, rsv = rows[1], rows[2]
        assert (iso["status"], iso["lambda"], iso["active_modes"]) == \
            ("BoundsOnly", None, None)
        assert iso["lower"] == iso["capacity"] == iso["upper"]
        assert iso["capacity"] == pytest.approx(rsv["capacity"], rel=1e-12)

    def test_auto_dispatch_general(self, tmp_path):
        doc = fig1_doc(solver=["auto", "oracle"],
                       oracle={"samples": 2000, "seed": 1})
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        assert [r["solver"] for r in rows] == ["weak", "isotropic", "oracle"]

    def test_auto_sweep_analyses_the_channel_once(self, tmp_path, monkeypatch):
        # one weak solve over the whole grid serves every weak row and its
        # sandwich, and the shared-basis detection runs once per channel
        from wiretap_mimo import common_rsv, weak_eavesdropper
        calls = {"solve_weak": 0, "detect_common_rsv": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(weak_eavesdropper, "solve_weak")
        counted(common_rsv, "detect_common_rsv")
        doc = fig1_doc(solver="auto",
                       power_grid={"p_t": [0.5, 1.0, 2.0, 4.0, 8.0]})
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        assert [r["solver"] for r in rows] == ["weak", "isotropic"] * 5
        assert calls == {"solve_weak": 1, "detect_common_rsv": 1}

    def test_auto_sweep_decomposes_the_pencil_once(self, tmp_path, monkeypatch):
        from wiretap_mimo import common_rsv
        inside, pencil = [0], [0]
        eigh, detect = np.linalg.eigh, common_rsv.detect_common_rsv

        def counted_eigh(*args, **kwargs):
            pencil[0] += inside[0]
            return eigh(*args, **kwargs)

        def tracked_detect(*args, **kwargs):
            inside[0] += 1
            try:
                return detect(*args, **kwargs)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(common_rsv, "detect_common_rsv", tracked_detect)
        doc = fig1_doc(channel={"matrix_kind": "W",
                                "w1": [[2, 0], [0, 1]],
                                "w2": [[0.5, 0], [0, 0.2]]},
                       solver="auto",
                       power_grid={"p_t": [0.5, 1.0, 2.0, 4.0, 8.0]})
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        assert [r["solver"] for r in rows] == ["rsv"] * 5
        assert pencil[0] == 1

    def test_solver_error_is_per_row(self, tmp_path):
        # rsv requested on a non-commuting channel: row reports the error
        doc = fig1_doc(solver="rsv", power_grid={"p_t": [1.0, 2.0]})
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        assert len(rows) == 2
        assert all(r["status"].startswith("error:") for r in rows)

    def test_certify_rows(self, tmp_path):
        doc = fig1_doc(channel={"matrix_kind": "W",
                                "w1": [[3, 0], [0, 2]],
                                "w2": [[0, 0], [0, 5]]},
                       solver="certify")
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        by_name = {r["solver"]: r for r in rows}
        assert by_name["certify:zf"]["status"] == "SufficientHolds"
        assert by_name["certify:zf"]["capacity"] == pytest.approx(math.log(4))
        assert by_name["certify:is"]["status"] != "SufficientHolds"

    @pytest.mark.parametrize("command", ["certify", "sweep"])
    def test_certify_calls_each_certificate_once_per_grid(self, tmp_path,
                                                          monkeypatch, command):
        from wiretap_mimo import certificates
        calls = []
        for name in ("zf_certify", "wf_certify", "is_certify"):
            def wrapper(*args, _fn=getattr(certificates, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(certificates, name, wrapper)
        doc = fig1_doc(channel={"matrix_kind": "W",
                                "w1": [[3, 0], [0, 2]],
                                "w2": [[0, 0], [0, 5]]},
                       solver="certify",
                       power_grid={"p_t": [0.5, 1.0, 2.0, 4.0, 8.0]})
        assert main([command, "--input", write_scenario(tmp_path, doc)]) == 0
        assert sorted(calls) == ["is_certify", "wf_certify", "zf_certify"]

    @pytest.mark.parametrize("command, solver", [("oracle", "weak"),
                                                 ("sweep", ["weak", "oracle"])])
    def test_oracle_runs_once_per_grid(self, tmp_path, monkeypatch, command,
                                       solver):
        from wiretap_mimo import cli
        calls, mc_capacity = [], cli.mc_capacity

        def counted(pair, p_total, *args):
            calls.append(np.size(p_total))
            return mc_capacity(pair, p_total, *args)

        monkeypatch.setattr(cli, "mc_capacity", counted)
        doc = fig1_doc(solver=solver, power_grid={"p_t": [0.5, 1.0, 2.0]},
                       oracle={"samples": 500, "seed": 1})
        assert main([command, "--input", write_scenario(tmp_path, doc)]) == 0
        assert calls == [3]

    def test_oracle_error_fills_every_point(self, tmp_path, monkeypatch, capsys):
        from wiretap_mimo import cli

        def refuse(*args):
            raise ValueError("refused")

        monkeypatch.setattr(cli, "mc_capacity", refuse)
        doc = fig1_doc(solver=["weak", "oracle"],
                       power_grid={"p_t": [0.5, 1.0, 2.0]})
        rows = run_sweep(load_scenario(write_scenario(tmp_path, doc)))
        assert [r["status"] for r in rows if r["solver"] == "oracle"] == \
            ["error: refused"] * 3
        assert all(r["status"] == "Solved" for r in rows if r["solver"] == "weak")
        # the oracle subcommand runs the same rows: exit 0, an error per point
        assert main(["oracle", "--input", write_scenario(tmp_path, doc)]) == 0
        assert [line.split(",")[-1] for line in
                capsys.readouterr().out.splitlines()[1:]] == ["error: refused"] * 3


class TestMainCommandLine:
    def test_sweep_csv_output(self, tmp_path, capsys):
        path = write_scenario(tmp_path, fig1_doc())
        assert main(["sweep", "--input", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER
        fields = out[1].split(",")
        assert fields[2] == "weak"
        assert fields[8] == "Solved"

    def test_bits_conversion_is_exact(self, tmp_path, capsys):
        path = write_scenario(tmp_path, fig1_doc())
        main(["sweep", "--input", path, "--format", "json"])
        nats = json.loads(capsys.readouterr().out)[0]["capacity"]
        main(["sweep", "--input", path, "--format", "json", "--units", "bits"])
        bits = json.loads(capsys.readouterr().out)[0]["capacity"]
        assert bits == nats / math.log(2)

    def test_weak_upper_bound_past_float_range_prints_inf(self, tmp_path, capsys):
        path = write_scenario(tmp_path, fig1_doc(power_grid={"p_t": [1e160]}))
        assert main(["sweep", "--input", path]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[1].split(",")[5] == "inf"
        assert err == ""

    def test_solve_emits_covariance_in_json(self, tmp_path, capsys):
        path = write_scenario(tmp_path, fig1_doc())
        assert main(["solve", "--input", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cov = np.array(payload[0]["covariance"])
        assert cov.shape == (2, 2)
        assert np.trace(cov) <= 1.0 + 1e-9

    def test_solve_rejects_grids(self, tmp_path, capsys):
        doc = fig1_doc(power_grid={"p_t": [1.0, 2.0]})
        path = write_scenario(tmp_path, doc)
        assert main(["solve", "--input", path]) == 1

    def test_input_error_exit_code(self, tmp_path):
        path = write_scenario(tmp_path, {"channel": {}})
        assert main(["sweep", "--input", path]) == 1
        assert main(["sweep", "--input", str(tmp_path / "missing.json")]) == 1

    def test_usage_error_exit_code(self, tmp_path, capsys):
        # argparse's own exit code 2 would read as solver non-convergence
        assert main(["sweep"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        path = write_scenario(tmp_path, fig1_doc())
        assert main(["sweep", "--input", path, "--tol", "0.5"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0

    def test_main_twice_in_one_process(self, tmp_path, capsys):
        # the parser is built once and shared: a second call prints the same
        # bytes, and a usage error after a good call still exits 1
        doc = fig1_doc(channel={"matrix_kind": "W",
                                "w1": [[3, 0], [0, 2]],
                                "w2": [[0, 0], [0, 5]]},
                       power_grid={"p_t": [0.5, 1.0, 2.0]})
        path = write_scenario(tmp_path, doc)
        outs = []
        for _ in range(2):
            assert main(["certify", "--input", path, "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert '"covariance"' in outs[0]  # zero-forcing is certified
        assert main(["certify"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["certify", "--input", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == outs[0]

    def test_certify_rejects_oracle_flags(self, tmp_path, capsys):
        path = write_scenario(tmp_path, fig1_doc())
        assert main(["certify", "--input", path, "--samples", "5", "--seed", "9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the one oracle-flag rule refuses them, not argparse
        assert "no 'oracle' solver" in captured.err
        assert "--samples" in captured.err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_no_oracle_solver_rejects_oracle_flags(self, tmp_path, capsys, command):
        # the scenario's "oracle" section stays accepted: one file serves
        # several subcommands
        path = write_scenario(tmp_path, fig1_doc(solver="auto",
                                                 oracle={"samples": 5}))
        assert main([command, "--input", path]) == 0
        capsys.readouterr()
        assert main([command, "--input", path, "--samples", "5", "--seed", "9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples" in captured.err and "--seed" in captured.err
        path = write_scenario(tmp_path, fig1_doc(solver=["weak", "oracle"]))
        assert main([command, "--input", path, "--samples", "500"]) == 0

    @pytest.mark.parametrize("oracle", [{"samples": 1500.5}, {"seed": "abc"},
                                        {"samples": True}])
    def test_bad_oracle_settings_exit_1(self, tmp_path, capsys, oracle):
        path = write_scenario(tmp_path, fig1_doc(oracle=oracle))
        assert main(["oracle", "--input", path]) == 1
        assert "must be an integer" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        from wiretap_mimo import ConvergenceError
        from wiretap_mimo import cli

        def blow_up(*args, **kwargs):
            raise ConvergenceError("stalled", residual=1.0)

        monkeypatch.setattr(cli.weak_eavesdropper, "solve_weak",
                            blow_up)
        path = write_scenario(tmp_path, fig1_doc())
        assert main(["sweep", "--input", path]) == 2

    def test_oracle_subcommand_deterministic(self, tmp_path, capsys):
        doc = fig1_doc(oracle={"samples": 2000, "seed": 9})
        path = write_scenario(tmp_path, doc)
        assert main(["oracle", "--input", path]) == 0
        first = capsys.readouterr().out
        assert main(["oracle", "--input", path]) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path):
        path = write_scenario(tmp_path, fig1_doc())
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--input", path, "--out", str(out)]) == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_figure_fig1(self, capsys):
        assert main(["figure", "fig1", "--samples", "1000", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        solvers = {line.split(",")[2] for line in lines[1:]}
        assert solvers == {"weak", "oracle"}
        assert len(lines) == 1 + 2 * 31

    def test_figure_fig3(self, capsys):
        assert main(["figure", "fig3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        solvers = {line.split(",")[2] for line in lines[1:]}
        assert solvers == {"isotropic(eps=0)", "isotropic(eps=0.1)",
                           "isotropic(eps=0.5)"}

    @pytest.mark.parametrize("flags", [["--samples", "5"], ["--seed", "9"],
                                       ["--samples", "5", "--seed", "9"]])
    def test_figure_fig3_rejects_oracle_flags(self, capsys, flags):
        assert main(["figure", "fig3", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(flag in captured.err for flag in flags[::2])


def _pairs(a: np.ndarray) -> list:
    """A complex matrix as a scenario's nested [re, im] pairs."""
    return np.stack([a.real, a.imag], -1).tolist()


class TestJsonWriter:
    """The JSON writer's text is ``json.dumps(records, indent=2)`` byte for
    byte; the golden comparison tolerates number formatting (1 against 1.0),
    so only this catches such a change."""

    NUMBERS = [None, math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
               2.2250738585072014e-308 / 3, 0, 1, -7, 2**70, 1e300, -1e-300,
               0.1, 1.0, True, False]
    STRINGS = ['"quoted"', "back\\slash", "new\nline", "[brackets]", "]],[[",
               "},\n    {", ',\n    "covariance": [', "Verdi\u00e9 \u2713 \U0001f600"]

    def test_random_records(self):
        rng = np.random.default_rng(20)
        values = self.NUMBERS + self.STRINGS
        for _ in range(400):
            records = []
            for _ in range(int(rng.integers(0, 4))):
                rec = {column: values[int(rng.integers(len(values)))]
                       for column in CSV_HEADER.split(",")}
                m = int(rng.integers(0, 6))  # 0: no covariance
                if m:
                    cov = rng.standard_normal((m, m)) * 10.0 ** rng.integers(-300, 300)
                    if rng.random() < 0.5:
                        cov = np.stack([cov, rng.standard_normal((m, m))], -1)
                    rec["covariance"] = cov.tolist()
                records.append(rec)
            assert cli._json(records) == json.dumps(records, indent=2)

    def test_non_finite_covariance_entries(self):
        # every special number at every place of real and complex covariances
        special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, 1]
        for m in range(1, 6):
            for shape in ((m, m), (m, m, 2)):
                cov = np.resize(np.array(special, dtype=object), shape).tolist()
                records = [{"status": s, "covariance": cov} for s in self.STRINGS]
                assert cli._json(records) == json.dumps(records, indent=2)

    def test_empty_list(self):
        assert cli._json([]) == json.dumps([], indent=2) == "[]"

    @pytest.mark.parametrize("argv, p_t, channel", [
        (["solve"], [1.0], "shared"),
        (["certify"], [0.1, 1.0, 10.0], "shared"),
        (["certify", "--units", "bits"], [0.1, 1.0, 10.0], "shared"),
        (["certify"], [0.1, 1.0, 10.0], "complex"),  # [re, im] pairs
        (["sweep"], [0.1, 1.0, 10.0], "shared"),
        (["sweep"], [1.0, 1e160], "fig1"),  # a weak upper bound of Infinity
        (["figure", "fig3"], None, None),
    ])
    def test_cli_output_is_json_dumps(self, argv, p_t, channel, tmp_path, capsys,
                                      monkeypatch):
        if channel is not None:
            doc = fig1_doc(power_grid={"p_t": p_t})
            if channel == "shared":
                doc.update(solver=["auto", "weak", "isotropic", "rsv"], channel={
                    "matrix_kind": "W", "w1": [[2.0, 0.0], [0.0, 1.0]],
                    "w2": [[0.5, 0.0], [0.0, 0.0]]})
            elif channel == "complex":
                pair = construct_wf_optimal_channel(
                    [2.0, 1.0, 0.5], 0.7, random_unitary(np.random.default_rng(3), 3))
                doc["channel"] = {"matrix_kind": "W", "w1": _pairs(pair.w1.entries),
                                  "w2": _pairs(pair.w2.entries)}
            argv = [*argv, "--input", write_scenario(tmp_path, doc)]
        written = []
        monkeypatch.setattr(cli, "_json", lambda records, real=cli._json:
                            written.append((records, real(records))) or written[-1][1])
        assert main([*argv, "--format", "json"]) == 0
        [(records, text)] = written
        assert text == json.dumps(records, indent=2)
        assert capsys.readouterr().out == text + "\n"
        if argv[0] in ("solve", "certify"):
            assert any("covariance" in rec for rec in records)

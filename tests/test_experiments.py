"""Experiment runner: config grammar, CSV contract, determinism, exit codes."""

import importlib
import importlib.util
import json
import re
import time
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from gfstack import energies, experiments, flow, semigroup
from gfstack.cli import main as cli_main
from gfstack.errors import ConfigError, SolverDiagnosticError
from gfstack.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    Row,
    build_heat_instances,
    parse_config,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)
from gfstack.transport import TLpPoint, dump_tlp_point, tlp_distance, uniform_measure


class TestConfigGrammar:
    def test_flat_key_values_and_comments(self):
        text = """
        # experiment setup
        kind = d2c_heat
        sizes = 8, 16, 32
        horizon = 0.5   # half a unit of time
        time_grid = 4
        seed = 42
        """
        cfg = parse_config(text)
        assert cfg.kind == "d2c_heat"
        assert cfg.sizes == (8, 16, 32)
        assert cfg.horizon == 0.5
        assert cfg.time_grid == 4
        assert cfg.seed == 42

    def test_overrides_win(self):
        cfg = parse_config("kind = tlp_table\nseed = 1\n", seed=9)
        assert cfg.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("kind = tlp_table\nbogus = 1\n")

    def test_every_field_parses_back_to_its_default(self):
        for f in fields(ExperimentConfig):
            if f.default in (MISSING, None):  # kind, output and the point records: str
                cfg = parse_config(f"kind = tlp_table\n{f.name} = tlp_table\n")
                assert getattr(cfg, f.name) == "tlp_table"
                continue
            text = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else str(f.default)
            value = getattr(parse_config(f"kind = tlp_table\n{f.name} = {text}\n"), f.name)
            assert value == f.default and type(value) is type(f.default), f.name

    def test_help_schema_lists_every_field_with_its_default(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        schema = capsys.readouterr().out
        for f in fields(ExperimentConfig):
            line = re.search(rf"^  {f.name} +=.*$", schema, re.MULTILINE)
            assert line, f.name
            if f.default not in (MISSING, None):
                shown = re.search(r"\(default ([^)]*)\)", line.group(0)).group(1)
                cfg = parse_config(f"kind = tlp_table\n{f.name} = {shown}\n")
                assert getattr(cfg, f.name) == f.default, f.name

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("kind tlp_table\n")

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="nope")
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="d2c_heat", sizes=(16, 8))
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="d2c_heat", tolerance=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="d2c_heat", sampling="weird")


class TestCsvContract:
    def test_header_and_format(self):
        rows = [Row("x", 2, 0.5, "m", 1.0 / 3.0, np.inf, np.inf, True),
                Row("x", 1, 0.25, "a", 1.23456789012345e-7, 2.0, 2.0, False)]
        text = rows_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER == "experiment,n,t,metric,lhs,rhs,slack,pass"
        # sorted by (experiment, n, t, metric); 12 significant digits
        assert lines[1] == "x,1,0.25,a,1.23456789012e-07,2,2,false"
        assert lines[2] == "x,2,0.5,m,0.333333333333,inf,inf,true"
        assert text.endswith("\n") and "\r" not in text

    def test_json_mirror_field_names(self):
        rows = [Row("x", 1, 0.0, "m", 1.0, 2.0, 1.0, True)]
        payload = json.loads(rows_to_json(rows))
        assert payload[0] == {"experiment": "x", "n": 1, "t": 0.0, "metric": "m",
                              "lhs": 1.0, "rhs": 2.0, "slack": 1.0, "pass": True}

    def test_numpy_pass_flag_is_a_bool(self):
        row = Row("x", 1, 0.0, "m", 1.0, 2.0, 1.0, np.float64(1.0) < np.float64(2.0))
        assert row.passed is True
        assert json.loads(rows_to_json([row]))[0]["pass"] is True


class TestDeterminism:
    @pytest.mark.parametrize("kind,kw", [
        ("bound_suite", {}),
        ("tlp_table", {}),
        ("p0_audit", {}),
        ("stacking_audit", {"sizes": (4, 8, 16)}),
        ("d2c_heat", {"sizes": (8, 16), "time_grid": 3}),
        ("resolvent_convergence", {"sizes": (8, 16)}),
    ])
    def test_same_seed_byte_identical(self, kind, kw):
        cfg = ExperimentConfig(kind=kind, seed=1234, **kw)
        a = rows_to_csv(run_experiment(cfg))
        b = rows_to_csv(run_experiment(cfg))
        assert a == b

    def test_different_seed_changes_sampled_tables(self):
        a = rows_to_csv(run_experiment(ExperimentConfig(kind="tlp_table", seed=1)))
        b = rows_to_csv(run_experiment(ExperimentConfig(kind="tlp_table", seed=2)))
        assert a != b

    def test_bound_suite_seed_12_completes(self):
        # its nested envelopes go through the certified gradient prox, which
        # must converge here in bounded time
        t0 = time.perf_counter()
        rows = run_experiment(ExperimentConfig(kind="bound_suite", seed=12))
        assert time.perf_counter() - t0 < 10.0
        assert len(rows) == 211
        assert all(r.passed for r in rows)


class TestCli:
    def test_runs_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = cli_main(["tlp", "--seed", "5", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli_main(["tlp", "--seed", "5", "--out", str(out), "--json"])
        assert code == 0
        mirror = json.loads((tmp_path / "t.json").read_text())
        assert {"experiment", "n", "t", "metric", "lhs", "rhs", "slack", "pass"} == set(mirror[0])

    EVERY_SUBCOMMAND = pytest.mark.parametrize("command,config", [
        ("bounds", ""),
        ("d2c", "sizes = 8, 16\ntime_grid = 3\n"),
        ("resolvents", "sizes = 8, 16\n"),
        ("tlp", ""),
        ("audit-stacking", "sizes = 4, 8\n"),
        ("audit-p0", ""),
    ])

    @staticmethod
    def _run_with_json(tmp_path, command, config):
        """Exit code, CSV lines and JSON mirror text of one subcommand run."""
        cfgfile, out = tmp_path / "exp.cfg", tmp_path / "t.csv"
        cfgfile.write_text(config)
        code = cli_main([command, "--config", str(cfgfile), "--out", str(out), "--json"])
        return code, out.read_text().splitlines(), (tmp_path / "t.json").read_text()

    @EVERY_SUBCOMMAND
    def test_json_mirror_of_every_subcommand(self, tmp_path, command, config):
        code, lines, text = self._run_with_json(tmp_path, command, config)
        mirror = json.loads(text)
        assert len(mirror) == len(lines) - 1 > 0
        for line, rec in zip(lines[1:], mirror):
            experiment, n, t, metric, lhs, rhs, slack, passed = line.split(",")
            assert (rec["experiment"], str(rec["n"]), rec["metric"]) == (experiment, n, metric)
            assert [f"{float(rec[k]):.12g}" for k in ("t", "lhs", "rhs", "slack")] == [t, lhs, rhs, slack]
            assert rec["pass"] is (passed == "true")
        assert code == (0 if all(rec["pass"] for rec in mirror) else 1)

    @EVERY_SUBCOMMAND
    def test_json_mirror_is_strict_json(self, tmp_path, command, config):
        def reject(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        _, _, text = self._run_with_json(tmp_path, command, config)
        json.loads(text, parse_constant=reject)

    def test_config_file_flow(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("kind = tlp_table\nseed = 3\noutput = %s\n" % (tmp_path / "o.csv"))
        assert cli_main(["tlp", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "o.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("junk junk junk\n")
        assert cli_main(["tlp", "--config", str(cfgfile)]) == 2

    @staticmethod
    def _assert_one_line_config_error(capsys, code, path):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1 and str(path) in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_config_error(self, capsys, tmp_path, kind):
        cfgfile = tmp_path / "exp.cfg"
        if kind == "directory":
            cfgfile.mkdir()
        elif kind == "not-utf8":
            cfgfile.write_bytes(b"\xff\xfekind = tlp_table\n")
        code = cli_main(["tlp", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")])
        self._assert_one_line_config_error(capsys, code, cfgfile)
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_out_is_config_error(self, monkeypatch, capsys, tmp_path):
        import gfstack.experiments as exps

        monkeypatch.setitem(exps.RUNNERS, "tlp_table",
                            lambda cfg: [Row("tlp", 1, 0.0, "ok", 0.0, 1.0, 1.0, True)])
        out = tmp_path / "missing" / "x.csv"
        self._assert_one_line_config_error(capsys, cli_main(["tlp", "--out", str(out)]), out)

    @pytest.mark.parametrize("command, line", [
        ("tlp", "p = inf"),
        ("tlp", "p = nan"),
        ("tlp", "q = nan"),
        ("tlp", "q = 2"),
        ("d2c", "tolerance = nan"),
        ("d2c", "horizon = inf"),
        ("d2c", "sizes ="),
        ("resolvents", "sizes = ,"),
        ("audit-stacking", "sizes ="),
    ])
    def test_nonfinite_or_out_of_range_number_is_config_error(self, capsys, tmp_path, command, line):
        cfgfile, out = tmp_path / "exp.cfg", tmp_path / "t.csv"
        cfgfile.write_text(line + "\n")
        code = cli_main([command, "--config", str(cfgfile), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1 and line.split()[0] in err
        assert not out.exists()

    def test_point_pair_distance_rows(self, tmp_path):
        a = TLpPoint(uniform_measure([[0.0], [1.0]]), np.array([0.0, 1.0]))
        b = TLpPoint(uniform_measure([[0.0], [1.0]]), np.array([1.0, 0.0]))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(dump_tlp_point(a))
        pb.write_text(dump_tlp_point(b))
        out = tmp_path / "t.csv"
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"kind = tlp_table\npoint_a = {pa}\npoint_b = {pb}\n")
        assert cli_main(["tlp", "--config", str(cfgfile), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if "point_pair_distance" in l]
        assert len(rows) == 2  # p = 1 and p = 2
        val = float(rows[0].split(",")[4])
        want, _ = tlp_distance(a, b, 1.0)
        assert val == pytest.approx(want)

    @staticmethod
    def _run_with_point_a(tmp_path, record_a):
        """Run tlp with point_a read from record_a (None: no such file)."""
        b = TLpPoint(uniform_measure([[0.0], [1.0]]), np.array([1.0, 0.0]))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        if record_a is not None:
            pa.write_text(record_a)
        pb.write_text(dump_tlp_point(b))
        out = tmp_path / "t.csv"
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"kind = tlp_table\npoint_a = {pa}\npoint_b = {pb}\n")
        code = cli_main(["tlp", "--config", str(cfgfile), "--out", str(out)])
        return code, pa, out

    def _assert_point_a_config_error(self, capsys, tmp_path, record_a):
        code, pa, out = self._run_with_point_a(tmp_path, record_a)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "point_a" in err and str(pa) in err
        assert not out.exists()

    def test_nan_point_record_writes_no_rows(self, capsys, tmp_path):
        self._assert_point_a_config_error(
            capsys, tmp_path,
            '{"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5], "values": [0.0, NaN]}')

    def test_wrong_dim_point_record_is_config_error(self, capsys, tmp_path):
        self._assert_point_a_config_error(
            capsys, tmp_path,
            '{"dim": 2, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5], "values": [0.0, 1.0]}')

    def test_malformed_point_record_is_config_error(self, capsys, tmp_path):
        self._assert_point_a_config_error(
            capsys, tmp_path, '{"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]}')
        self._assert_point_a_config_error(capsys, tmp_path, '{"dim": 1, "atoms": ')

    def test_missing_point_record_file_is_config_error(self, capsys, tmp_path):
        self._assert_point_a_config_error(capsys, tmp_path, None)

    @pytest.mark.parametrize("given, missing", [("point_a", "point_b"), ("point_b", "point_a")])
    def test_half_a_point_pair_is_config_error(self, capsys, tmp_path, given, missing):
        record = tmp_path / "p.json"
        record.write_text(dump_tlp_point(TLpPoint(uniform_measure([[0.0], [1.0]]), np.zeros(2))))
        with pytest.raises(ConfigError, match=f"{given} is set but {missing} is not"):
            run_experiment(ExperimentConfig(kind="tlp_table", **{given: str(record)}))
        out = tmp_path / "t.csv"
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"kind = tlp_table\n{given} = {record}\n")
        assert cli_main(["tlp", "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and missing in err
        assert not out.exists()

    def test_solver_errors_still_propagate(self, monkeypatch, tmp_path):
        import gfstack.experiments as exps

        def fake(cfg):
            raise SolverDiagnosticError("gave up", residual=1.0)

        monkeypatch.setitem(exps.RUNNERS, "tlp_table", fake)
        with pytest.raises(SolverDiagnosticError):
            cli_main(["tlp", "--out", str(tmp_path / "x.csv")])
        assert not (tmp_path / "x.csv").exists()

    def test_exit_one_on_failing_rows(self, monkeypatch, capsys, tmp_path):
        # doctor a runner so one asserted row fails, exit code must be 1
        import gfstack.experiments as exps

        def fake(cfg):
            return [Row("tlp", 1, 0.0, "forced_failure", 1.0, 0.0, -1.0, False)]

        monkeypatch.setitem(exps.RUNNERS, "tlp_table", fake)
        assert cli_main(["tlp", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "forced_failure" in err


class TestExperimentBehaviour:
    def test_d2c_zero_horizon_reports_initial_gaps(self):
        cfg = ExperimentConfig(kind="d2c_heat", sizes=(8, 16), horizon=0.0, time_grid=1)
        rows = run_experiment(cfg)
        dist_rows = [r for r in rows if r.metric == "tl2_distance"]
        assert {r.t for r in dist_rows} == {0.0}
        assert all(r.passed for r in rows if r.metric != "speed_integral_lower_bound")

    def test_d2c_self_comparison_is_zero(self):
        cfg = ExperimentConfig(kind="d2c_heat", sizes=(8, 16), time_grid=3)
        rng = np.random.default_rng(0)
        instances, fine = build_heat_instances(cfg, rng)
        pt = TLpPoint(fine.measure, fine.initial)
        d, _ = tlp_distance(pt, pt, 2.0)
        assert d < 1e-9

    def test_d2c_sin_profile_distance_column_decreases(self):
        cfg = ExperimentConfig(kind="d2c_heat", sizes=(8, 16, 32), time_grid=4,
                               profile="sin")
        rows = run_experiment(cfg)
        col = [r.lhs for r in rows if r.metric == "sup_tl2_distance"]
        assert np.all(np.diff(col) < 0)

    def test_uniform_sampling_depends_on_seed(self):
        base = dict(kind="d2c_heat", sizes=(8, 16), time_grid=3, sampling="uniform")
        a = rows_to_csv(run_experiment(ExperimentConfig(seed=1, **base)))
        b = rows_to_csv(run_experiment(ExperimentConfig(seed=2, **base)))
        assert a != b

    def test_uniform_d2c_known_false_speed_rows(self):
        # Known finite-n evidence, reproduced and pinned, not passed: with uniform
        # sampling, seed 0 reads speed integrals below the 0.95 floor at n = 64 and
        # 128.  The floor is a finite-n reading of a liminf inequality; ROADMAP
        # "Audit the finite-n gates" owns the diagnosis.  The pins keep a last-digit
        # change from flipping these rows, or moving them, without notice.
        cfg = ExperimentConfig(kind="d2c_heat", sizes=(16, 32, 64, 128), sampling="uniform",
                               seed=0)
        rows = {r.n: r for r in run_experiment(cfg) if r.metric == "speed_integral_lower_bound"}
        assert [n for n, r in sorted(rows.items()) if not r.passed] == [64, 128]
        assert all(r.rhs == pytest.approx(0.629106010595, rel=1e-9) for r in rows.values())
        assert rows[64].lhs == pytest.approx(0.561576235245, rel=1e-9)
        assert rows[128].lhs == pytest.approx(0.537564820988, rel=1e-9)

    def test_bound_suite_row_count_and_pass(self):
        rows = run_experiment(ExperimentConfig(kind="bound_suite", seed=0))
        assert len(rows) >= 200
        assert all(r.passed for r in rows)

    def test_bound_suite_samples_and_flows_once(self, monkeypatch):
        flows, values = [], []
        flow, functional = energies.gradient_flow, energies.counterexample_functional

        def counted(lam):
            phi = functional(lam)
            return replace(phi, value=lambda u: values.append(lam) or phi.value(u))

        monkeypatch.setattr(energies, "gradient_flow", lambda *a: flows.append(a) or flow(*a))
        monkeypatch.setattr(energies, "counterexample_functional", counted)
        rows = run_experiment(ExperimentConfig(kind="bound_suite", seed=0))
        # one flow pair per graph serves its five L^r rows
        assert sum(r.metric.startswith("lr_contraction:") for r in rows) == 15
        assert len(flows) == 6
        # the lambda-convexity samples go through value_rows; only the
        # exchange check's four points per lam reach value
        assert sorted(values) == [0.0] * 4 + [4.0] * 4

    def test_bound_suite_flows_each_sample_once(self, monkeypatch):
        # 7 zoo members x 2 points x 4 times, read by the energy, decay and
        # contraction rows alike, plus the 3 graphs' L^r flow pairs at t = 0.5
        calls = []
        original = semigroup.crandall_liggett

        def counted(R, t, x, tol):
            calls.append((R.name, R.omega, np.asarray(x, dtype=float).tobytes(), float(t)))
            return original(R, t, x, tol)

        for module in (semigroup, flow, experiments):
            monkeypatch.setattr(module, "crandall_liggett", counted)
        rows = run_experiment(ExperimentConfig(kind="bound_suite", seed=0))
        assert len(rows) == 211 and all(r.passed for r in rows)
        assert len(calls) == 56 + 6
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_bound_suite_nested_graph_envelopes_take_few_gradients(self, monkeypatch, seed):
        # the nested prox of each graph envelope runs the certified gradient
        # method; the 2024 adaptive steps certify it in about 12 evaluations
        counts = []
        make = experiments.envelope_functional

        def counted(phi, gamma):
            env, k = make(phi, gamma), len(counts)
            counts.append([env.name, 0])

            def gradient(y):
                counts[k][1] += 1
                return env.gradient(y)

            return replace(env, gradient=gradient)

        monkeypatch.setattr(experiments, "envelope_functional", counted)
        rows = run_experiment(ExperimentConfig(kind="bound_suite", seed=seed))
        assert all(r.passed for r in rows)
        graph = [n for name, n in counts if name.startswith("envelope(graph")]
        assert len(graph) == 6
        assert max(graph) <= 20

    def test_resolvent_columns_decrease(self):
        rows = run_experiment(ExperimentConfig(kind="resolvent_convergence", seed=0))
        for metric in ("matrix_resolvent_distance", "matrix_semigroup_distance",
                       "heat_resolvent_distance", "heat_semigroup_distance"):
            col = [r.lhs for r in rows if r.metric == metric]
            assert len(col) >= 3
            assert np.all(np.diff(col) < 0), metric

    def test_matrix_resolvent_distance_rate(self):
        # closed forms: |sqrt(1+1/n) z/(1+lam(1+1/n)) - z/(1+lam)| = O(1/n)
        rows = run_experiment(ExperimentConfig(kind="resolvent_convergence",
                                               sizes=(8, 16, 32, 64, 128), seed=0))
        col = [(r.n, r.lhs) for r in rows if r.metric == "matrix_resolvent_distance"]
        ratios = [a[1] / b[1] for a, b in zip(col, col[1:])]
        assert all(1.7 < r < 2.3 for r in ratios)

    def test_stacking_audit_negative_controls_flagged(self):
        rows = run_experiment(ExperimentConfig(kind="stacking_audit", sizes=(4, 8, 16, 32)))
        metrics = {r.metric: r for r in rows}
        assert metrics["gamma_liminf_broken_scaling_fails"].passed
        assert metrics["equicoercivity_escaping_fails"].passed
        assert metrics["circle_minimizers_do_not_converge"].passed
        assert all(r.passed for r in rows)

    def test_p0_audit_passes(self):
        rows = run_experiment(ExperimentConfig(kind="p0_audit", seed=0))
        assert all(r.passed for r in rows)
        slack0 = [r for r in rows if r.metric == "counterexample_slack" and r.t == 0.0]
        assert slack0[0].lhs == pytest.approx(-0.5, abs=1e-12)


    def test_constant_operator_family_zero_distances(self):
        # identical operators across the family: embedded distances vanish
        from gfstack.experiments import _scaled_identity_resolvent
        from gfstack.stacking import LIMIT, MatrixHilbertStacking, stacking_distance

        sizes = (8, 16, 32)
        mats = {n: np.eye(2) for n in sizes}
        mats[LIMIT] = np.eye(2)
        stack = MatrixHilbertStacking(mats)
        R = _scaled_identity_resolvent(1.0)
        z = np.array([1.0, -2.0])
        for n in sizes:
            d = stacking_distance(stack, n, R.resolve(0.5, z), LIMIT, R.resolve(0.5, z))
            assert d < 1e-12


    def test_help_prints_schema(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit) as exc:
            cli_main(["d2c", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for token in ("config grammar", "kind", "sizes", CSV_HEADER):
            assert token in out


def test_every_traced_name_resolves():
    # bench/tracer.py wraps these (module, attribute) pairs when a run asks
    # for --trace; a name the library no longer has would break every such
    # run.  Resolved as Tracer._install does, with nothing installed
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("gfstack_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(mod, attr) for mod, attr, *_ in tracer.SPANS + tracer.COUNTERS]
    assert targets
    for mod, attr in targets:
        owner = importlib.import_module(mod)
        if "." in attr:  # a method: looked up on its class
            cls_name, meth = attr.split(".")
            owner, attr = getattr(owner, cls_name), meth
        assert callable(getattr(owner, attr)), (mod, attr)

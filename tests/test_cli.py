"""Command-line contract: subcommands, exit codes, manifests, determinism."""

import hashlib
import json

import pytest

import stockswarm as ss
from stockswarm.cli import main
from stockswarm.config import (
    DEFAULT_SETTINGS,
    build_pso_config,
    build_topology,
    parse_settings,
)
from stockswarm.errors import ConfigError


class TestSettings:
    def test_defaults_without_file(self):
        settings = parse_settings(None)
        assert settings == DEFAULT_SETTINGS
        assert settings["swarm_size"] == "30"
        assert settings["agents_per_dc"] == "2,2"

    def test_file_overrides_and_comments(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# tuning\nswarm_size = 12\nmatch_radius=0\n\nlog_base = base10\n"
        )
        settings = parse_settings(path)
        assert settings["swarm_size"] == "12"
        assert settings["match_radius"] == "0"
        assert settings["log_base"] == "base10"
        assert settings["c1"] == "2.0"

    def test_last_assignment_wins(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed_like = 1\n".replace("seed_like", "r1") + "r1 = 7\n")
        assert parse_settings(path)["r1"] == "7"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("swarm = 12\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_settings(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("swarm_size 12\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_settings(path)

    def test_build_topology_consistency_check(self):
        settings = dict(DEFAULT_SETTINGS, member_count="9")
        with pytest.raises(ConfigError, match="member_count"):
            build_topology(settings)

    def test_build_pso_config_round_trip(self):
        settings = dict(DEFAULT_SETTINGS, swarm_size="14", per_dimension_r="true")
        cfg = build_pso_config(settings, seed=99)
        assert cfg.swarm_size == 14
        assert cfg.seed == 99
        assert cfg.per_dimension_r is True
        assert cfg.priorities == ss.PriorityConfig(10.0, 5.0, 1.0)
        assert cfg.bounds == ss.Bounds()

    def test_empty_agents_for_factory_only(self):
        settings = dict(
            DEFAULT_SETTINGS, dc_count="0", agents_per_dc="", member_count="1"
        )
        assert build_topology(settings).member_count == 1


class TestValidateCommand:
    def test_bundled_fixtures_summary(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "20 periods, 5 products, l=7" in out

    def test_missing_lead_row_exits_2_and_names_tid(self, tmp_path, paths, capsys):
        bad = tmp_path / "stock_lead_times.csv"
        lines = paths[1].read_text().splitlines()
        bad.write_text("\n".join(line for line in lines if not line.startswith("7,")) + "\n")
        code = main(["validate", "--stock-lead", str(bad)])
        assert code == 2
        assert "7" in capsys.readouterr().err

    def test_unreadable_path_exits_2(self, tmp_path, capsys):
        code = main(["validate", "--history", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "table, line, row, message",
        [
            ("history", 2, "1,3,99999999999999999999,0,0,0,0,0,0",
             "history line 2: value 99999999999999999999 outside the int64 range"),
            ("stock_lead", 2, f"1,{2**62},{2**62},0,0,0,0",
             f"lead-time TID 1 link times sum to {2**63}, past the int64 range"),
        ],
        ids=["level-past-int64", "lead-row-sum-past-int64"],
    )
    def test_past_int64_exit_2(self, tmp_path, paths, capsys, table, line, row, message):
        source = paths[0] if table == "history" else paths[1]
        lines = source.read_text().splitlines()
        lines[line - 1] = row
        bad = tmp_path / source.name
        bad.write_text("\n".join(lines) + "\n")
        code = main(["validate", f"--{table.replace('_', '-')}", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"


class TestOptimizeCommand:
    def test_reports_and_manifest_written(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["optimize", "--seed", "42", "--out", str(out), "--format", "json"])
        assert code == 0
        assert (out / "report.txt").exists()
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()
        stdout = capsys.readouterr().out
        assert "trace: first" in stdout
        assert '"product_id"' in stdout
        body = json.loads((out / "report.json").read_text())
        assert set(body) == {"product_id", "fitness", "weights", "iterations", "actions"}
        assert len(body["actions"]) == 7

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--seed", "42", "--out", str(a)]) == 0
        assert main(["optimize", "--seed", "42", "--out", str(b)]) == 0
        for name in ("report.txt", "report.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_changes_manifest(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--seed", "1", "--out", str(a)]) == 0
        assert main(["optimize", "--seed", "2", "--out", str(b)]) == 0
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["seed"] == 1 and mb["seed"] == 2
        assert ma["inputs"] == mb["inputs"]

    def test_manifest_digests_inputs(self, tmp_path, paths):
        out = tmp_path / "run"
        assert main(["optimize", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = hashlib.sha256(paths[0].read_bytes()).hexdigest()[:16]
        assert manifest["inputs"]["history"] == expected
        assert manifest["artifact_version"] == ss.__version__
        assert list(manifest["config"]) == list(DEFAULT_SETTINGS)

    def test_degenerate_priorities_exit_3(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("r2 = 0\nr3 = 0\n")
        code = main(["optimize", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "lead-time priorities" in capsys.readouterr().err

    def test_unknown_config_key_exit_3(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("swarms = 10\n")
        code = main(["optimize", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting",
        ["c1 = nan", "w_max = inf", "velocity_fraction = inf", "velocity_fraction = 1e308", "r1 = inf"],
    )
    def test_non_finite_setting_exit_3(self, tmp_path, capsys, setting):
        conf = tmp_path / "bad.conf"
        conf.write_text(setting + "\n")
        code = main(["optimize", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert setting.split()[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "setting, reason",
        [
            ("stock_ub = 100000000000000000000", "int64"),
            ("stock_ub = 9223372036854775807", "int64"),
            ("stock_lb = -9223372036854775808", "int64"),
            ("product_ub = 1" + "0" * 400, "int64"),
            ("c1 = 1e308", "overflow"),
            ("c2 = 1e308", "overflow"),
            ("w_max = 1e308", "overflow"),
            ("w_min = -1e308", "overflow"),
        ],
        ids=[
            "stock_ub-1e20", "stock_ub-int64-max", "stock_lb-int64-min", "product_ub-1e400",
            "c1", "c2", "w_max", "w_min",
        ],
    )
    def test_out_of_range_setting_exit_3(self, tmp_path, capsys, setting, reason):
        conf = tmp_path / "bad.conf"
        conf.write_text(setting + "\n")
        code = main(["optimize", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert setting.split()[0] in err and reason in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_lead_time_total_past_int64_exit_2(self, tmp_path, paths, capsys):
        # two product-3 periods whose link days each fit int64 but not together
        tids = [line.split(",")[0] for line in paths[0].read_text().splitlines()[1:]
                if line.split(",")[1] == "3"][:2]
        lines = paths[1].read_text().splitlines()
        huge = f"{2**62},{2**62 - 1},0,0,0,0"
        bad = tmp_path / "stock_lead_times.csv"
        bad.write_text("\n".join(
            f"{line.split(',')[0]},{huge}" if line.split(",")[0] in tids else line
            for line in lines
        ) + "\n")
        out = tmp_path / "o"
        code = main(["optimize", "--stock-lead", str(bad), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "int64" in err
        assert not out.exists()

    def test_trace_bounded_by_max_iterations(self, tmp_path, capsys):
        conf = tmp_path / "short.conf"
        conf.write_text("max_iterations = 8\nmatch_radius = 0\n")
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(conf), "--out", str(out)]) == 0
        body = json.loads((out / "report.json").read_text())
        assert 0 < body["iterations"] <= 8


class TestOracleCommand:
    def test_fixture_enumeration(self, tmp_path, capsys):
        out = tmp_path / "orc"
        conf = tmp_path / "zero.conf"
        conf.write_text("match_radius = 0\n")
        code = main(["oracle", "--config", str(conf), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "evaluations: 25" in stdout
        body = json.loads((out / "oracle.json").read_text())
        assert body["evaluations"] == 25
        assert body["skipped_products"] == []
        assert (out / "manifest.json").exists()

    def test_json_format_stdout(self, tmp_path, capsys):
        out = tmp_path / "orc"
        code = main(["oracle", "--out", str(out), "--format", "json"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert "best_fitness" in body and "best_position" in body

    def test_empty_match_vector_at_int64_extremes(self, tmp_path, capsys):
        # One product-1 period at 2**62 on every member; the lower stock bound
        # lies 2**63 below it, which an int64 gap scan wraps.
        far = 2**62
        files = {
            "stock_history.csv": f"TID,PI,F1,F2,F3,F4,F5,F6,F7\n1,1{f',{far}' * 7}\n",
            "stock_lead_times.csv": "TID,T1,T2,T3,T4,T5,T6\n1,1,2,3,4,5,6\n",
            "raw_material_lead_times.csv": "PI,RM,T\n1,1,7\n1,2,9\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        conf = tmp_path / "far.conf"
        conf.write_text(
            "match_radius = 0\nproduct_lb = 1\nproduct_ub = 1\n"
            f"stock_lb = {-far}\nstock_ub = {far}\n"
        )
        out = tmp_path / "orc"
        code = main([
            "oracle", "--config", str(conf), "--out", str(out),
            "--history", str(tmp_path / "stock_history.csv"),
            "--stock-lead", str(tmp_path / "stock_lead_times.csv"),
            "--raw-lead", str(tmp_path / "raw_material_lead_times.csv"),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""
        body = json.loads((out / "oracle.json").read_text())
        assert body["skipped_products"] == []
        assert body["evaluations"] == 2
        assert body["best_position"] == [1, -far, 0, 0, 0, 0, 0, 0]
        store = ss.load_store(*(tmp_path / name for name in files), ss.Topology())
        config = build_pso_config(parse_settings(conf), seed=0)
        assert body["best_fitness"] == ss.evaluate(store, config, body["best_position"])
        assert body["best_fitness"] < ss.evaluate(store, config, [1] + [far] * 7)


@pytest.mark.parametrize("command", ["optimize", "oracle"])
def test_raw_total_past_int64_exit_2(tmp_path, paths, capsys, command):
    lines = paths[2].read_text().splitlines()
    product_1 = [i for i, line in enumerate(lines) if line.startswith("1,")][:2]
    for i in product_1:
        lines[i] = lines[i].rsplit(",", 1)[0] + f",{2**62}"
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines if line.startswith("1,"))
    bad = tmp_path / "raw_material_lead_times.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main([command, "--raw-lead", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: raw-material times of product 1 sum to {total}, past the int64 range\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["optimize", "oracle"])
def test_jobs_build_no_record_objects(tmp_path, monkeypatch, command):
    built = []

    def counted(record_type):
        def build(*args):
            built.append(record_type.__name__)
            return record_type(*args)
        return build

    for name in ("HistoryRecord", "StockLeadTimeRecord", "RawMaterialLeadTime"):
        monkeypatch.setattr(ss.history, name, counted(getattr(ss.history, name)))
    assert main([command, "--out", str(tmp_path / "o")]) == 0
    assert built == []
    assert len(ss.load_store(*ss.fixture_paths(), ss.Topology()).records) == 20
    assert len(built) == 20


class TestSynthCommand:
    def test_generated_files_validate(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(["synth", "--seed", "7", "--periods", "30", "--out", str(out)])
        assert code == 0
        code = main(
            [
                "validate",
                "--history", str(out / "stock_history.csv"),
                "--stock-lead", str(out / "stock_lead_times.csv"),
                "--raw-lead", str(out / "raw_material_lead_times.csv"),
            ]
        )
        assert code == 0
        assert "30 periods" in capsys.readouterr().out

    def test_byte_identical_per_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--seed", "3", "--out", str(a)]) == 0
        assert main(["synth", "--seed", "3", "--out", str(b)]) == 0
        for name in (
            "stock_history.csv",
            "stock_lead_times.csv",
            "raw_material_lead_times.csv",
            "manifest.json",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unwritable_out_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["synth", "--out", str(blocker / "sub")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_synthetic_optimize_round_trip(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["synth", "--seed", "5", "--periods", "25", "--out", str(gen)]) == 0
        run = tmp_path / "run"
        code = main(
            [
                "optimize",
                "--history", str(gen / "stock_history.csv"),
                "--stock-lead", str(gen / "stock_lead_times.csv"),
                "--raw-lead", str(gen / "raw_material_lead_times.csv"),
                "--seed", "1",
                "--out", str(run),
            ]
        )
        assert code == 0
        body = json.loads((run / "report.json").read_text())
        assert 1 <= body["product_id"] <= 5

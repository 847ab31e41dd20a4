"""Command-line contract: subcommands, exit codes, manifests, determinism."""

import hashlib
import json
import math
import shutil

import pytest

import stockswarm as ss
from stockswarm.cli import _build_parser, main
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

    def test_defaults_equal_the_dataclass_defaults(self):
        # The settings file and the synth flags default to what the library
        # defaults to, so a command and a library call agree by default.
        args = _build_parser().parse_args(["synth"])
        synth = ss.SynthConfig()
        names = ("periods", "products", "link_time_lb", "link_time_ub", "raw_time_lb", "raw_time_ub")
        assert {name: getattr(args, name) for name in names} == {
            name: getattr(synth, name) for name in names
        }
        assert build_pso_config(DEFAULT_SETTINGS) == ss.PsoConfig()
        assert build_topology(DEFAULT_SETTINGS) == ss.Topology()

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

    def test_non_utf8_table_exit_2(self, tmp_path, paths, capsys):
        bad = tmp_path / "stock_history.csv"
        bad.write_bytes(paths[0].read_bytes().replace(b"632", b"6\xff2", 1))
        assert main(["validate", "--history", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read history file {bad}: 'utf-8' codec can't decode")
        assert len(err.splitlines()) == 1


class TestOptimizeCommand:
    def test_non_utf8_config_exit_3(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(b"swarm_size = 1\xff\n")
        code = main(["optimize", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {conf}: 'utf-8' codec can't decode")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

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

    def test_swarm_past_numpy_size_limit_exit_3(self, tmp_path, capsys):
        # 2**62 particles by 8 dimensions of 8 bytes pass the limit; run
        # refuses them before it allocates anything
        conf = tmp_path / "huge.conf"
        conf.write_text(f"swarm_size = {2**62}\n")
        code = main(["optimize", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == (
            f"error: swarm_size {2**62} by dimension 8 float64 matrices pass numpy's array size limit\n"
        )
        assert not (tmp_path / "o").exists()

    def test_swarm_out_of_memory_exit_3(self, tmp_path, monkeypatch, capsys):
        def exhausted(config, topology, rng):
            raise MemoryError

        monkeypatch.setattr("stockswarm.engine.draw_swarm", exhausted)
        conf = tmp_path / "big.conf"
        conf.write_text("swarm_size = 100000000000\n")
        code = main(["optimize", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: a swarm of 100000000000 particles does not fit in memory\n"
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("c1 = abc", "config key c1: 'abc' is not a number"),
            ("per_dimension_r = maybe", "config key per_dimension_r: expected true or false, got 'maybe'"),
        ],
        ids=["float", "bool"],
    )
    def test_unparsable_setting_exit_3(self, tmp_path, capsys, setting, message):
        conf = tmp_path / "bad.conf"
        conf.write_text(setting + "\n")
        code = main(["optimize", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"

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
        evaluator = ss.FitnessEvaluator(store, config)
        assert body["best_fitness"] == evaluator.evaluate(body["best_position"])
        assert body["best_fitness"] < evaluator.evaluate([1] + [far] * 7)

    def _three_member_oracle(self, tmp_path, history_rows, settings):
        """Run ``oracle`` on a 3-member chain whose periods all have link
        times (2, 3) and whose product 1 has raw-material time 5."""
        history = "".join(f"{tid},1,{levels}\n" for tid, levels in enumerate(history_rows, 1))
        files = {
            "stock_history.csv": "TID,PI,F1,F2,F3\n" + history,
            "stock_lead_times.csv": "TID,T1,T2\n"
            + "".join(f"{tid},2,3\n" for tid in range(1, len(history_rows) + 1)),
            "raw_material_lead_times.csv": "PI,RM,T\n1,1,5\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        conf = tmp_path / "three.conf"
        conf.write_text(
            "member_count = 3\ndc_count = 1\nagents_per_dc = 1\n"
            "product_lb = 1\nproduct_ub = 1\n" + settings
        )
        code = main([
            "oracle", "--config", str(conf), "--out", str(tmp_path / "orc"),
            "--history", str(tmp_path / "stock_history.csv"),
            "--stock-lead", str(tmp_path / "stock_lead_times.csv"),
            "--raw-lead", str(tmp_path / "raw_material_lead_times.csv"),
        ])
        settings = parse_settings(conf)
        store = ss.load_store(*(tmp_path / name for name in files), build_topology(settings))
        return code, tmp_path / "orc" / "oracle.json", store, build_pso_config(settings, seed=0)

    def test_skipped_product_line(self, tmp_path, capsys):
        # one member whose records at 0 and 1 cover the stock range [0, 1]
        files = {
            "stock_history.csv": "TID,PI,F1\n1,1,0\n2,1,1\n",
            "stock_lead_times.csv": "TID\n1\n2\n",
            "raw_material_lead_times.csv": "PI,RM,T\n1,1,5\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        conf = tmp_path / "one.conf"
        conf.write_text(
            "member_count = 1\ndc_count = 0\nagents_per_dc =\nmatch_radius = 0\n"
            "product_lb = 1\nproduct_ub = 1\nstock_lb = 0\nstock_ub = 1\n"
        )
        code = main([
            "oracle", "--config", str(conf), "--out", str(tmp_path / "orc"),
            *(f"--{flag}={tmp_path / name}" for flag, name in zip(("history", "stock-lead", "raw-lead"), files)),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[-1] == (
            "no empty-match candidate for products: [1] (radius blankets their stock range)"
        )
        assert json.loads((tmp_path / "orc" / "oracle.json").read_text())["skipped_products"] == [1]

    def test_record_at_int64_max(self, tmp_path, capsys):
        code, body, store, config = self._three_member_oracle(
            tmp_path, [f"{2**63 - 1},0,0"], "match_radius = 1\nstock_lb = -3\nstock_ub = 3\n"
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        body = json.loads(body.read_text())
        assert body["evaluations"] == 2
        assert body["best_position"] == [1, -3, 0, 0]
        evaluator = ss.FitnessEvaluator(store, config)
        assert body["best_fitness"] == evaluator.evaluate(body["best_position"])
        assert body["best_fitness"] < evaluator.evaluate([1, 2**63 - 1, 0, 0])

    def test_records_past_2_to_53(self, tmp_path, capsys):
        big = 2**60 + 100
        code, body, store, config = self._three_member_oracle(
            tmp_path, [f"{big},0,0", f"{big + 1},0,0"], "match_radius = 1\nr1 = 10\nr2 = 0\nr3 = 1\n"
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        body = json.loads(body.read_text())
        assert body["best_position"] == [1, big, 0, 0]
        assert body["best_fitness"] == pytest.approx(math.log(5 / 11))  # both records match
        assert len(store.match_individual(1, [big, 0, 0], 1)) == 2


# sha256 of the seed-0 output files on the bundled fixture (for synth: of its
# 50-period tables) and of validate's stdout.  "optimize-synth-2000" runs on
# `synth --periods 2000 --seed 1` tables instead: their levels spread much
# wider than the default radius of 100, so each query's member-1 window holds
# some of a product's rows but not all.  A change to the fitness values, the
# seeded trajectory, the generator or the report, manifest and summary layout
# shows here, and needs its own stated reason.
PINNED_OUTPUTS = {
    "optimize": {
        "report.txt": "fd39e8927212408648712c12f7415b871c1a133acbe07bce9b25711bb1f922d6",
        "report.json": "4baf9ac96f4a5c1b1100d714ffe9f4c1e23e9e5aa0c29e83a92e569f1618e32a",
        "manifest.json": "8727faf5df1cf610190a619a8c433656ca9c55d397b604b833c101677551e8b1",
    },
    "optimize-synth-2000": {
        "report.txt": "66d5f681e6a5ccc87fa7553cee0f85c6ebc3a4acd9638bbc540014afc0957597",
        "report.json": "8c8324c067582ef76825f423a329f08e5e73a1187ae156740ad33b9b7477c686",
        "manifest.json": "02a5f044c416efd9037b5b8bacc31bd6e698b70e5186cf17f89e120da23dadce",
    },
    # The per-dimension r1/r2 draw, and a radius-0 run whose gbest stalls
    # for five rounds and stops there.
    "optimize-per-dimension-r": {
        "report.txt": "d6e243256342c3ca8770ddcdf8cde0f47c8e36aeba3ce3351fff25a9940403c5",
        "report.json": "76277685eb23895d4c0a4b566e1c1507ef779daf0de1d52ba39adaeb5e167d91",
        "manifest.json": "9c1010b28924dbc3aa4dec9484df16cc5666543b80c345001e699410847e3cf8",
    },
    "optimize-radius-0-stall-5": {
        "report.txt": "04d51394af1e59ea4c021c0d53437b163b74203dd1168d87c5c3efa89502be0b",
        "report.json": "08963f10ba4f883be8f5174eeca1fce6d30ea7de272f65ad4617f9494d865cd2",
        "manifest.json": "06392a55b690e8ebecdd94aff03d8a15bc15f1b24010d221100988967f30c40e",
    },
    "oracle": {
        "oracle.json": "05cb90721b06229d7106a7172b7f33ed2ea39d9c19ff5986112b5fc996126099",
        "manifest.json": "8727faf5df1cf610190a619a8c433656ca9c55d397b604b833c101677551e8b1",
    },
    "oracle-radius-0": {
        "oracle.json": "ba54bf3ff0f06926de5156f1fd208ff9d126e59249de7ca725bd3b0cd78368b7",
        "manifest.json": "0881807fe6ba0f4ca2cc0da630eac9fdbf8fcf9eb5b5e4a1c0083491bc204ed0",
    },
    "synth": {
        "stock_history.csv": "d7f704d100576d3a556747729eef544dc212547f084bae2a2f42b526117d7abc",
        "stock_lead_times.csv": "1f4212c06a14aecec6a1362e70abb5e1d838e18f3792af00cbce340dcb1be06d",
        "raw_material_lead_times.csv": "7eadf8f29fbc7e8cd14cab41a316500a49f2396ceb2f861148472944c97a6f03",
        "manifest.json": "428e416ab9a07efd639b7b7de651451ca4efe330c78936912e6ee3837cf7d5ad",
    },
    # 50-period tables at the int64 stock limits, where every level takes
    # numpy's 64-bit draw path; computed before the array draws replaced
    # the per-period loop.
    "synth-int64-limits": {
        "stock_history.csv": "9660c3a5ad1dcfadf5b9519fba1a69b98c9bcb6db62c46ae7534ad8a7effebe7",
        "stock_lead_times.csv": "903b352ba0ecfcfae729879b75ffaba0a291a53892a962955e3998e0da6c3f0b",
        "raw_material_lead_times.csv": "8846748cf1e38dd17babebcb501f8c00ac745754acc45874b34f605be1ea951b",
        "manifest.json": "bc69a79be1512f77fb389db17da877e5dceecc87f44535ef7efdd49db8d5e0b7",
    },
    "validate": {"stdout": "35a74ff5bab5422544e30c8de22801b9f99811749a40863afc19fdc0c9bf289f"},
}


PINNED_CONFIGS = {
    "oracle-radius-0": "match_radius = 0\n",
    "optimize-per-dimension-r": "per_dimension_r = true\n",
    "optimize-radius-0-stall-5": "match_radius = 0\nstall_window = 5\n",
}


SYNTH_TABLES = ("stock_history.csv", "stock_lead_times.csv", "raw_material_lead_times.csv")


@pytest.mark.parametrize("job", sorted(PINNED_OUTPUTS))
def test_fixture_output_bytes_pinned(tmp_path, monkeypatch, capsys, job):
    # Relative paths keep validate's stdout free of the checkout's location.
    monkeypatch.chdir(tmp_path)
    argv = [job.split("-")[0], "--seed", "0", "--out", "out"]
    if job in PINNED_CONFIGS:
        (tmp_path / "job.conf").write_text(PINNED_CONFIGS[job])
        argv += ["--config", "job.conf"]
    elif job == "synth":
        argv += ["--periods", "50"]
    elif job == "synth-int64-limits":
        (tmp_path / "int64.conf").write_text(f"stock_lb = {-(2**63)}\nstock_ub = {2**63 - 1}\n")
        argv += ["--config", "int64.conf", "--periods", "50"]
    elif job == "optimize-synth-2000":
        assert main(["synth", "--periods", "2000", "--seed", "1", "--out", "gen"]) == 0
        for flag, name in zip(("--history", "--stock-lead", "--raw-lead"), SYNTH_TABLES):
            argv += [flag, f"gen/{name}"]
    elif job == "validate":
        for flag, path in zip(("--history", "--stock-lead", "--raw-lead"), ss.fixture_paths()):
            shutil.copy(path, tmp_path)
            argv += [flag, path.name]
    assert main(argv) == 0
    outputs = {"stdout": capsys.readouterr().out.encode("utf-8")}
    outputs.update((f.name, f.read_bytes()) for f in (tmp_path / "out").glob("*"))
    digests = {name: hashlib.sha256(outputs[name]).hexdigest() for name in PINNED_OUTPUTS[job]}
    assert digests == PINNED_OUTPUTS[job]


def test_validate_builds_no_record_objects(monkeypatch, capsys):
    def refuse(store):
        raise AssertionError("validate read a record tuple")

    for name in ("records", "lead_records", "raw_records"):
        monkeypatch.setattr(ss.HistoryStore, name, property(refuse))
    assert main(["validate"]) == 0
    assert "history rows: 20\nstock lead-time rows: 20\nraw-material rows: 20\n" in capsys.readouterr().out


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

    def test_out_of_memory_exits_3(self, tmp_path, monkeypatch, capsys):
        def exhausted(config, seed, out_dir):
            raise MemoryError

        monkeypatch.setattr("stockswarm.cli.write_fixtures", exhausted)
        out = tmp_path / "o"
        assert main(["synth", "--periods", "30", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: 30 periods and 5 products do not fit in memory\n"
        assert not out.exists()

    def test_unwritable_out_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["synth", "--out", str(blocker / "sub")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, flags, message",
        [
            ("stock_lb = abc", [], "config key stock_lb: 'abc' is not an integer"),
            ("", ["--seed", "-1"], "seed must be non-negative, got -1"),
            ("stock_ub = 100000000000000000000", [],
             "stock_ub 100000000000000000000 is outside the int64 range"),
            ("", ["--raw-time-ub", "99999999999999999999"],
             "5 draws of raw_time_ub 99999999999999999999 can sum past the int64 range"),
            ("", ["--link-time-lb", str(2**62), "--link-time-ub", str(2**62)],
             f"6 draws of link_time_ub {2**62} can sum past the int64 range"),
            ("", ["--raw-time-ub", str(2**62)],
             f"5 draws of raw_time_ub {2**62} can sum past the int64 range"),
            ("", ["--periods", str(2**63)], f"periods {2**63} is outside the int64 range"),
            ("", ["--periods", str(2**60)],
             f"periods {2**60} need {9 * 2**60} history cells, too many"),
        ],
        ids=[
            "stock_lb-abc", "seed-negative", "stock_ub-1e20", "raw_time_ub-1e20",
            "link-sum-past-int64", "raw-sum-past-int64", "periods-past-int64",
            "periods-past-numpy-size",
        ],
    )
    def test_bad_setting_exit_3(self, tmp_path, capsys, setting, flags, message):
        conf = tmp_path / "synth.conf"
        conf.write_text(setting + "\n")
        out = tmp_path / "o"
        assert main(["synth", "--config", str(conf), "--out", str(out), *flags]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

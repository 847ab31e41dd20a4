"""Synthetic fixture generation: schema validity and determinism."""

import pytest

import stockswarm as ss
from stockswarm.errors import ConfigError


class TestGenerate:
    def test_row_counts_and_coverage(self):
        cfg = ss.SynthConfig(periods=40, products=6)
        history, leads, raws = ss.generate(cfg, seed=1)
        assert len(history) == 40
        assert len(leads) == 40
        assert [t for t, _, _ in history] == list(range(1, 41))
        assert [t for t, _ in leads] == list(range(1, 41))
        raw_products = {p for p, _, _ in raws}
        assert raw_products == set(range(1, 7))

    def test_two_to_five_raw_materials_each(self):
        for seed in range(8):
            _, _, raws = ss.generate(ss.SynthConfig(products=9), seed=seed)
            per_product = {}
            for pid, _, _ in raws:
                per_product[pid] = per_product.get(pid, 0) + 1
            assert all(2 <= n <= 5 for n in per_product.values())

    def test_values_in_configured_ranges(self):
        cfg = ss.SynthConfig(
            periods=30,
            products=3,
            stock_lb=-12,
            stock_ub=9,
            link_time_lb=2,
            link_time_ub=4,
            raw_time_lb=1,
            raw_time_ub=2,
        )
        history, leads, raws = ss.generate(cfg, seed=5)
        for _, pid, levels in history:
            assert 1 <= pid <= 3
            assert all(-12 <= v <= 9 for v in levels)
        for _, times in leads:
            assert all(2 <= t <= 4 for t in times)
        for _, _, t in raws:
            assert 1 <= t <= 2

    def test_deterministic_per_seed(self):
        cfg = ss.SynthConfig()
        assert ss.generate(cfg, seed=7) == ss.generate(cfg, seed=7)
        assert ss.generate(cfg, seed=7) != ss.generate(cfg, seed=8)

    def test_loadable_via_from_records(self):
        cfg = ss.SynthConfig(periods=25, products=4)
        history, leads, raws = ss.generate(cfg, seed=3)
        store = ss.HistoryStore.from_records(cfg.topology, history, leads, raws)
        assert store.total_periods == 25
        assert set(store.products) <= set(range(1, 5))

    def test_validation(self):
        with pytest.raises(ConfigError):
            ss.SynthConfig(periods=0)
        with pytest.raises(ConfigError):
            ss.SynthConfig(products=0)
        with pytest.raises(ConfigError):
            ss.SynthConfig(stock_lb=5, stock_ub=4)
        with pytest.raises(ConfigError):
            ss.SynthConfig(link_time_lb=-1)
        with pytest.raises(ConfigError):
            ss.SynthConfig(raw_time_lb=9, raw_time_ub=8)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("periods", 2.5),  # once a TypeError inside generate
            ("products", 2.5),
            ("link_time_ub", 7.5),  # once accepted
            ("stock_lb", -3.5),
            ("stock_ub", "9"),
            ("link_time_lb", None),
            ("raw_time_lb", 6.0),
            ("raw_time_ub", 35.5),
        ],
    )
    def test_rejects_non_integer_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            ss.SynthConfig(**{field: value})


class TestWriteFixtures:
    def test_files_pass_validation(self, tmp_path):
        cfg = ss.SynthConfig(periods=20, products=5)
        paths = ss.write_fixtures(cfg, seed=11, out_dir=tmp_path)
        store = ss.load_store(
            paths["history"], paths["stock_lead"], paths["raw_lead"], cfg.topology
        )
        assert store.total_periods == 20

    def test_byte_identical_per_seed(self, tmp_path):
        cfg = ss.SynthConfig(periods=15, products=3)
        a = ss.write_fixtures(cfg, seed=4, out_dir=tmp_path / "a")
        b = ss.write_fixtures(cfg, seed=4, out_dir=tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_large_period_count(self, tmp_path):
        cfg = ss.SynthConfig(periods=1000, products=5)
        paths = ss.write_fixtures(cfg, seed=2, out_dir=tmp_path)
        history_lines = paths["history"].read_text().splitlines()
        lead_lines = paths["stock_lead"].read_text().splitlines()
        assert len(history_lines) == 1001
        assert len(lead_lines) == 1001

    def test_custom_topology_column_count(self, tmp_path):
        topo = ss.Topology(dc_count=1, agents_per_dc=(3,))
        cfg = ss.SynthConfig(periods=5, products=2, topology=topo)
        paths = ss.write_fixtures(cfg, seed=9, out_dir=tmp_path)
        header = paths["history"].read_text().splitlines()[0]
        assert header == "TID,PI,F1,F2,F3,F4,F5"
        store = ss.load_store(
            paths["history"], paths["stock_lead"], paths["raw_lead"], topo
        )
        assert store.topology.member_count == 5

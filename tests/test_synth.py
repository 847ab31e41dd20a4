"""Synthetic fixture generation: schema validity and determinism."""

import numpy as np
import pytest

import stockswarm as ss
from stockswarm.domain import INT64_MAX, INT64_MIN
from stockswarm.errors import ConfigError
from stockswarm.synth import _MAX_RAW_MATERIALS


def reference_generate(config, seed):
    """The draw order of ``generate`` as one call per period: per period the
    product then the levels, then per period the link times, then per
    product the raw-material count and its times one by one."""
    rng = np.random.default_rng(seed)
    l = config.topology.member_count
    history = []
    for tid in range(1, config.periods + 1):
        pid = int(rng.integers(1, config.products + 1))
        levels = tuple(
            int(v) for v in rng.integers(config.stock_lb, config.stock_ub + 1, size=l)
        )
        history.append((tid, pid, levels))
    leads = []
    for tid in range(1, config.periods + 1):
        times = tuple(
            int(v)
            for v in rng.integers(config.link_time_lb, config.link_time_ub + 1, size=l - 1)
        )
        leads.append((tid, times))
    raws = []
    for pid in range(1, config.products + 1):
        count = int(rng.integers(2, _MAX_RAW_MATERIALS + 1))
        for rm in range(1, count + 1):
            time = int(rng.integers(config.raw_time_lb, config.raw_time_ub + 1))
            raws.append((pid, rm, time))
    return history, leads, raws


class TestGenerate:
    def test_row_counts_and_coverage(self):
        cfg = ss.SynthConfig(periods=40, products=6)
        history, leads, raws = ss.generate(cfg, seed=1)
        assert len(history) == 40
        assert len(leads) == 40
        assert history[:, 0].tolist() == list(range(1, 41))
        assert leads[:, 0].tolist() == list(range(1, 41))
        raw_products = set(raws[:, 0].tolist())
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
        assert ((1 <= history[:, 1]) & (history[:, 1] <= 3)).all()
        assert ((-12 <= history[:, 2:]) & (history[:, 2:] <= 9)).all()
        assert ((2 <= leads[:, 1:]) & (leads[:, 1:] <= 4)).all()
        assert ((1 <= raws[:, 2]) & (raws[:, 2] <= 2)).all()

    def test_deterministic_per_seed(self):
        cfg = ss.SynthConfig()
        tables = [[t.tolist() for t in ss.generate(cfg, seed)] for seed in (7, 7, 8)]
        assert tables[0] == tables[1]
        assert tables[0] != tables[2]

    def test_loadable_via_from_records(self):
        # The tables are the constructor's matrices, which from_records builds.
        cfg = ss.SynthConfig(periods=25, products=4)
        store = ss.HistoryStore(cfg.topology, *ss.generate(cfg, seed=3))
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
            ("topology", None),  # once an AttributeError
        ],
    )
    def test_rejects_non_integer_field(self, field, value):
        kind = "a Topology" if field == "topology" else "an integer"
        with pytest.raises(ConfigError, match=f"^{field} must be {kind}"):
            ss.SynthConfig(**{field: value})

    @pytest.mark.parametrize("seed", [1.5, "3", None])  # once a TypeError from SeedSequence
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ConfigError, match="^seed must be an integer"):
            ss.generate(ss.SynthConfig(), seed)

    def test_periods_within_int64_and_numpy_sizes(self):
        with pytest.raises(ConfigError, match=f"^periods {2**63} is outside the int64 range"):
            ss.SynthConfig(periods=2**63)
        # numpy allocates at most INT64_MAX bytes; a history row is 8 bytes
        # for each of TID, PI and the l members.
        for topology in (ss.Topology(), ss.Topology(dc_count=0, agents_per_dc=())):
            width = topology.member_count + 2
            most = INT64_MAX // (8 * width)
            assert ss.SynthConfig(periods=most, topology=topology).periods == most
            message = f"^periods {most + 1} need {(most + 1) * width} history cells"
            with pytest.raises(ConfigError, match=message):
                ss.SynthConfig(periods=most + 1, topology=topology)

    @pytest.mark.parametrize(
        "stock_lb, stock_ub",
        [
            (-1000, 1000),
            (-(2**31), 2**31),
            (-(2**40), 2**40),
            (INT64_MIN, INT64_MAX),
            (0, 2**32 - 1),
            (0, 2**32),
            (5, 5),
        ],
    )
    @pytest.mark.parametrize("members", [7, 1])
    def test_draws_match_one_call_per_period(self, stock_lb, stock_ub, members):
        topology = ss.Topology() if members == 7 else ss.Topology(dc_count=0, agents_per_dc=())
        for periods in (1, 50, 2000):
            cfg = ss.SynthConfig(
                periods=periods, topology=topology, stock_lb=stock_lb, stock_ub=stock_ub
            )
            for seed in (0, 1, 3):
                history, leads, raws = ss.generate(cfg, seed)
                want_history, want_leads, want_raws = reference_generate(cfg, seed)
                assert history.dtype == leads.dtype == raws.dtype == np.int64
                assert history.tolist() == [[t, p, *lv] for t, p, lv in want_history]
                assert leads.tolist() == [[t, *lt] for t, lt in want_leads]
                assert raws.tolist() == [list(row) for row in want_raws]


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

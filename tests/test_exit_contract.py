"""Exit-code contract under fuzzed inputs (MacIver et al. 2019, hypothesis).

Whatever settings file or table bytes it is given, ``cli.main`` returns 0,
2 or 3, a non-zero exit prints exactly one ``error:`` line, and no
exception escapes it.  Sizes that set the work or the memory of a run
(swarm, iterations, chain members, product range, periods) are drawn small
or as text that is no integer, so every example runs in milliseconds.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import stockswarm as ss
from stockswarm.cli import main
from stockswarm.config import DEFAULT_SETTINGS

# Text with no decimal digit, so int() never reads a size out of it.
no_digits = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
odd_words = st.sampled_from(["", "nan", "inf", "-inf", "1e308", "-1e308", "1.5", "0x10", "1_0", "true"])


def small(low, high):
    return st.one_of(st.integers(low, high).map(str), odd_words, no_digits)


# Any other setting may take any number, int64 edges included.
numeric = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64, 10**30]).map(str),
    st.floats().map(repr),
    odd_words,
    no_digits,
)

SETTING_VALUES = {
    "swarm_size": small(-1, 6),
    "max_iterations": small(-1, 4),
    "member_count": small(0, 8),
    "dc_count": small(-1, 3),
    "agents_per_dc": st.one_of(
        st.lists(st.integers(-1, 3), max_size=3).map(lambda a: ",".join(map(str, a))), no_digits
    ),
    "product_lb": small(-3, 7),
    "product_ub": small(-3, 7),
    "log_base": st.one_of(st.sampled_from(["natural", "base10"]), no_digits),
    "per_dimension_r": st.one_of(st.sampled_from(["true", "false", "TRUE"]), no_digits),
    "stall_window": small(-1, 5),
}
line = st.one_of(
    st.sampled_from(sorted(DEFAULT_SETTINGS)).flatmap(
        lambda key: SETTING_VALUES.get(key, numeric).map(lambda v: f"{key} = {v}")
    ),
    st.sampled_from(["# comment", "", "swarm = 3", "swarm_size 3"]),
).map(lambda text: text.encode("utf-8"))
# Raw lines without "=" can break the encoding or the syntax, never assign.
raw_line = st.binary(max_size=12).filter(lambda b: b"=" not in b)
settings_bytes = st.lists(st.one_of(line, line, raw_line), max_size=8).map(b"\n".join)

FIXTURE_BYTES = [path.read_bytes() for path in ss.fixture_paths()]
TABLE_FLAGS = ["--history", "--stock-lead", "--raw-lead"]


@st.composite
def mutated_table(draw):
    """One fixture table with a few byte edits: each replaces a short span
    with up to four random bytes."""
    table = draw(st.integers(0, 2))
    data = bytearray(FIXTURE_BYTES[table])
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        span = draw(st.integers(0, 4))
        data[at : at + span] = draw(st.binary(max_size=4))
    return table, bytes(data)


def run_main(argv):
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def assert_contract(code, stderr):
    assert code in (0, 2, 3)
    if code:
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
    assert "Traceback" not in stderr


@given(command=st.sampled_from(["validate", "optimize", "oracle"]), conf=settings_bytes,
       seed=st.integers(-(2**65), 2**65))
@settings(max_examples=120, deadline=None)
def test_settings_bytes(command, conf, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.conf"
        path.write_bytes(conf)
        code, _, stderr = run_main(
            [command, "--config", str(path), "--seed", str(seed), "--out", str(Path(tmp) / "o")]
        )
    assert_contract(code, stderr)


@given(command=st.sampled_from(["validate", "optimize", "oracle"]), table=mutated_table(),
       radius=st.sampled_from([0, 1, 100]))
@settings(max_examples=120, deadline=None)
def test_mutated_table_bytes(command, table, radius):
    index, data = table
    with tempfile.TemporaryDirectory() as tmp:
        path, conf = Path(tmp) / "table.csv", Path(tmp) / "run.conf"
        path.write_bytes(data)
        conf.write_text(f"swarm_size = 4\nmax_iterations = 3\nmatch_radius = {radius}\n")
        argv = [command, TABLE_FLAGS[index], str(path), "--config", str(conf), "--out", str(Path(tmp) / "o")]
        code, _, stderr = run_main(argv)
    assert_contract(code, stderr)


# A day range (lb, ub): mostly valid, so that some runs write tables.
odd_days = st.one_of(st.integers(-3, 50), st.integers(2**60, 2**64), st.sampled_from([2**63 - 1, 2**63]))
day_range = st.one_of(
    st.lists(st.integers(0, 50), min_size=2, max_size=2).map(sorted),
    st.lists(st.integers(0, 50), min_size=2, max_size=2).map(sorted),
    st.lists(odd_days, min_size=2, max_size=2),
)


@given(conf=st.one_of(st.just(b""), settings_bytes), seed=st.integers(-(2**65), 2**65),
       periods=st.integers(-1, 30), products=st.integers(-1, 6), link=day_range, raw=day_range)
@settings(max_examples=120, deadline=None)
def test_synth_settings_and_flags(conf, seed, periods, products, link, raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.conf"
        path.write_bytes(conf)
        flags = ["--link-time-lb", "--link-time-ub", "--raw-time-lb", "--raw-time-ub"]
        argv = ["synth", "--config", str(path), "--seed", str(seed), "--out", str(Path(tmp) / "o"),
                "--periods", str(periods), "--products", str(products)]
        argv += [str(a) for pair in zip(flags, link + raw) for a in pair]
        code, _, stderr = run_main(argv)
        if code == 0:  # synth promises tables that pass validation
            generated = [str(Path(tmp) / "o" / p.name) for p in ss.fixture_paths()]
            validate = ["validate", "--config", str(path)]
            validate += [a for pair in zip(TABLE_FLAGS, generated) for a in pair]
            assert run_main(validate)[0] == 0
    assert_contract(code, stderr)

"""The evolve CSV writer against '%.17g' itself, the oracle it must match."""

import io
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import percent_rows
import lindblad2._fmt17 as fmt17
from lindblad2._fmt17 import K_MAX, format_rows, write_columns

EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,  # the largest subnormal
    2.2250738585072014e-308,
    1e-308,
    1e308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    float("inf"),
    float("-inf"),
    float("nan"),
]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    st.integers(1, 6),
    st.lists(st.one_of(st.floats(), st.sampled_from(EDGES)), min_size=6, max_size=60),
)
def test_matches_percent_on_any_doubles(cols, values):
    table = np.array(values[: len(values) // cols * cols]).reshape(-1, cols)
    assert format_rows(table) == percent_rows(table)


def test_matches_percent_at_every_power_of_ten():
    # Every 10^j of the fast path and three beyond it on each side, where
    # log10 may misjudge the exponent by one, with both neighbours.
    powers = np.array([float(f"1e{j}") for j in range(-K_MAX - 3, K_MAX + 4)])
    below = np.nextafter(powers, 0.0)
    above = np.nextafter(powers, np.inf)
    table = np.column_stack([powers, below, above, 2.0 * powers, 5.0 * powers, -below])
    assert format_rows(table) == percent_rows(table)


def test_fast_path_reaches_the_largest_finite_split():
    # The Veltkamp split multiplies by 2^27 + 1; at 10^(16 + K_MAX), the
    # largest power of the table, that product must be finite, and one power
    # more must not be, so K_MAX is as large as the splits allow.
    split = float(2**27 + 1)
    assert np.isfinite(fmt17._P_HI[0] * split) and fmt17._P_HI[0] == 1e300
    assert not np.isfinite(10.0 ** (17 + K_MAX) * split)
    remainders = np.abs(fmt17._P_LO[fmt17._P_LO != 0])
    assert np.all(np.isfinite(remainders)) and np.min(remainders) >= np.finfo(float).tiny


def test_matches_percent_across_the_exponent_range():
    # Mantissas in [1, 10) at every decimal exponent of 1e-300 ... 1e300, so
    # the fast path, three-digit exponents included, and the fallback on
    # both sides of +-K_MAX meet in one table.
    rng = np.random.default_rng(8)
    exponents = rng.integers(-300, 301, 20000)
    table = rng.uniform(1.0, 10.0, 20000) * 10.0 ** exponents.astype(float)
    table[::2] *= -1.0
    table = table.reshape(-1, 5)
    assert format_rows(table) == percent_rows(table)


def test_matches_percent_on_rounding_ties():
    # x = M / 2^(17-k) with M odd and 10^k <= x < 10^(k+1) has exactly 18
    # significant digits, the last a 5: '%.17g' rounds it half to even.
    rng = np.random.default_rng(5)
    ties = []
    for k in range(-4, 16):
        scale = 2.0 ** (17 - k)
        low = int(np.ceil(10.0**k * scale)) // 2
        high = min(int(10.0 ** (k + 1) * scale), 2**53) // 2
        ties.append((2 * rng.integers(low, high, size=60) + 1) / scale)
    ties = np.concatenate(ties)
    for x in ties:
        digits = str(Decimal(float(x))).replace(".", "").lstrip("0")
        assert len(digits) == 18 and digits[-1] == "5"
    table = np.column_stack([ties, -ties, ties * 0.5, ties + 1.0]).reshape(-1, 6)
    assert format_rows(table) == percent_rows(table)


def test_matches_percent_on_a_block_of_typical_cells():
    # Times, Bloch components and entropies of every scale the CSV shows:
    # positional cells for 1e-4 <= |x| < 1e17, scientific cells otherwise.
    rng = np.random.default_rng(11)
    table = rng.uniform(-1.0, 1.0, (4096, 6)) * np.exp(rng.uniform(-60.0, 45.0, (4096, 6)))
    table[:, 0] = np.arange(4096) * 0.01
    table[::7, 3] = 0.0
    assert format_rows(table) == percent_rows(table)


def test_write_columns_is_one_table_through_percent():
    # Five columns in blocks of BLOCK_CELLS // 5 rows, over three blocks and
    # part of a fourth; a -0.0 is written as 0, as the CLI prints it.
    rng = np.random.default_rng(9)
    n = 3 * (fmt17.BLOCK_CELLS // 5) + 17
    times = np.arange(n) * 0.01
    bloch = rng.normal(size=(n, 3)) * np.exp(rng.uniform(-690.0, 690.0, (n, 3)))
    bloch[::5, 1] = -0.0
    last = -rng.uniform(size=n)
    out = io.BytesIO()
    write_columns(out, times, bloch, last)
    assert out.getvalue() == percent_rows(np.column_stack([times, bloch, last]) + 0.0)


def _scratch_arrays():
    return {name: value for name, value in vars(fmt17._SCRATCH).items() if isinstance(value, np.ndarray)}


def test_scratch_is_kept_and_reused():
    # Wide-scale cells first, so that a later block that reads anything
    # its own cells did not write would print the wrong bytes.
    rng = np.random.default_rng(2)
    wide = rng.uniform(-1.0, 1.0, (512, 6)) * np.exp(rng.uniform(-200.0, 200.0, (512, 6)))
    times = np.column_stack([np.arange(300) * 0.01, rng.uniform(0.0, 1.0, (300, 3))])
    assert format_rows(wide) == percent_rows(wide)
    held = _scratch_arrays()
    for table in (wide, times, times[:7, :2], wide[:1, :1]):
        tracemalloc.start()
        try:
            text = format_rows(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == percent_rows(table)
        now = _scratch_arrays()
        assert now.keys() == held.keys() and all(now[name] is held[name] for name in held)
        # Only the output is new: the cells' bytes, the text joined from
        # them, and small objects. The working arrays take about six times
        # the cells' bytes.
        assert peak < 2 * table.size * fmt17._WIDTH + 2 * len(text) + 16384


def test_threads_format_with_their_own_scratch():
    # More threads than the two cores of a small runner, each formatting a
    # table of its own shape and scale over and over; numpy lets go of the
    # interpreter lock inside its loops, so shared arrays would mix them.
    rng = np.random.default_rng(4)
    tables = [
        rng.uniform(-1.0, 1.0, (512, 6)) * np.exp(rng.uniform(-60.0, 45.0, (512, 6))),
        np.column_stack([np.arange(333) * 0.01, rng.uniform(-1.0, 1.0, (333, 4))]),
        rng.integers(-10**6, 10**6, (97, 3)) / 8.0,
    ]
    expected = [percent_rows(table) for table in tables]
    start = threading.Barrier(len(tables))

    def work(j):
        start.wait(timeout=10)
        wrong = sum(format_rows(tables[j]) != expected[j] for _ in range(100))
        return wrong, _scratch_arrays()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(tables)) as pool:
            futures = [pool.submit(work, j) for j in range(len(tables))]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [wrong for wrong, _ in results] == [0] * len(tables)
    ids = [{id(array) for array in arrays.values()} for _, arrays in results]
    assert all(ids[j].isdisjoint(ids[m]) for j in range(len(ids)) for m in range(j))

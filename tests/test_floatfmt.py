"""The table writer against its oracles, byte for byte: ``repr`` on the
edge sets of the shortest-digit search, random bit patterns and Hypothesis
over all doubles; ``str`` on integers and bools; ``csv.writer`` rows on
mixed tables with text cells; and the table layout (separators, empty
tables, special values, block boundaries, files that share columns)."""

import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecorrect import floatfmt


def repr_text(table, seps) -> bytes:
    """The oracle: ``repr`` (``str`` of an integer) of each value and its
    column's separator."""
    return "".join(
        "".join(repr(v) + sep for v, sep in zip(row, seps)) for row in np.asarray(table).tolist()
    ).encode()


def written(files, seps) -> list[bytes]:
    """The bytes :func:`floatfmt.write_columns` writes to each of ``files``,
    a list of column lists."""
    handles = [io.BytesIO() for _ in files]
    floatfmt.write_columns(list(zip(handles, files)), seps)
    return [fh.getvalue() for fh in handles]


def table_text(table, seps) -> bytes:
    """The text of one (N, C) table, one column per table column."""
    return written([list(np.asarray(table).T)], seps)[0]


def assert_reprs(values):
    """One value per line, compared line by line so a failure names it."""
    column = np.asarray(values, dtype=np.float64)
    got = table_text(column[:, None], ["\n"]).decode().split("\n")[:-1]
    want = [repr(v) for v in column.tolist()]
    assert len(got) == len(want)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} differ, first {bad[:5]}"


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest finite value's upper neighbour is inf
        return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


class TestAgainstRepr:
    def test_signed_zeros_infinities_and_nans(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
        assert_reprs(np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans]))
        text = table_text(np.array([[-0.0, np.nan, -np.inf]]), [" ", " ", ""])
        assert text == b"-0.0 nan -inf"

    def test_powers_of_two_and_neighbours(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_reprs(with_neighbours(powers))
        assert_reprs(-with_neighbours(powers))

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
        assert_reprs(with_neighbours(powers))

    def test_layout_boundaries(self):
        # Positional for 1e-4 <= |x| < 1e16, exponent form outside; the
        # largest and smallest finite values; integral values get ".0".
        edges = [1e-4, 1e-5, 1e16, 1e15, 9999999999999998.0, 123456789012345678.0,
                 1.7976931348623157e308, 2.2250738585072014e-308, 5e-324, 0.1, 0.5,
                 1.0, 2.0, 100.0, 1e22, 1e23, 9007199254740993.0, 0.30000000000000004]
        assert_reprs(with_neighbours(edges + [-v for v in edges]))

    def test_subnormals(self):
        rng = np.random.default_rng(0)
        assert_reprs(rng.integers(1, 1 << 52, 200_000, dtype=np.uint64).view(np.float64))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(1)
        assert_reprs(rng.integers(0, 2**64 - 1, 400_000, dtype=np.uint64, endpoint=True).view(np.float64))

    def test_trajectory_like_values(self):
        rng = np.random.default_rng(2)
        assert_reprs(np.concatenate([
            rng.normal(size=50_000),
            rng.uniform(-100.0, 100.0, 50_000),
            np.round(rng.uniform(-100.0, 100.0, 50_000), 3),
            np.arange(-50_000, 50_000) * 0.05,
            np.arange(-1000, 1000, dtype=np.float64),
        ]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern(self, patterns):
        assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float(self, values):
        assert_reprs(values)


# Doubles that reach each branch of the digit search, found with a scalar
# Python-integer port of it, with their negatives below.
EDGE_SETS = {
    # Powers of two: the lower neighbour is nearer than the upper one.  The
    # larger divisor; the round-up of the value moved into the interval; the
    # tie of 2^-25 (binary exponent -77) rounded to even; 2^-1022.
    "shorter interval": [4.450147717014403e-308, 7.120236347223045e-307, 2.9802322387695312e-08,
                         2.2250738585072014e-308, 1.0, 0.5],
    "larger divisor, trailing zeros removed": [96.24, 197.0622, 422.8051, 6.953355807835e-310,
                                               0.1, 1e23, 123456.0],
    "open upper end, stepped below": [3.1696823741604228e+16, 3.9470644456524696e+16,
                                      2.5232708966019388e+16],
    "r == delta, larger divisor by parity": [697.36318, 614.613, 536.71481, 762.9178],
    "r == delta, smaller divisor by parity": [9.795833203218311e-80, 2.0985713558432692e+16,
                                              1.4470185273923591e-90, 3.1398211168932052e+16],
    "smaller divisor, kept": [1.7969859529054829e+164, 7.0219218056484876e+221,
                              6.479384618699686e-299],
    "smaller divisor, parity decrement": [1.9789427131590748e+27, 5.3067012820641204e+42,
                                          7.016121153123374e+278],
    "exact halfway, to even": [1974875250386464.2, 656691390506002.2, 180965856265192.62,
                               146891601783756.62],
}


class TestEdgeSets:
    @pytest.mark.parametrize("name", list(EDGE_SETS))
    def test_edge_set(self, name):
        assert_reprs(EDGE_SETS[name] + [-v for v in EDGE_SETS[name]])


def python_product(u, cache, at):
    """The oracle of :func:`floatfmt._mul`: the high and low words of the
    upper 128 bits of ``u * c`` in Python integers."""
    c = sum(cache[limb, at].astype(object) << (32 * limb) for limb in range(4))
    product = [int(a) * int(b) for a, b in zip(u, c)]
    return [p >> 128 for p in product], [(p >> 64) & (2**64 - 1) for p in product]


class TestExactMultiply:
    def test_constants_fit_the_limb_multiply(self):
        table = floatfmt._exponent_table()
        limbs = table["limbs"]
        assert (limbs < 2**32).all() and (limbs[3] >= 2**31).all()  # 2^127 <= c < 2^128
        assert table["beta"].min() == 6 and table["beta"].max() == 9  # (2 fc + 1) 2^beta < 2^63
        assert table["delta"].min() >= 100 and table["delta"].max() < 1000
        # Each entry is 10^k scaled into [2^127, 2^128) and rounded up, for
        # k = 2 - floor(log10 2^e), and e10 is 2 - k.
        cache = sum(limbs[limb].astype(object) << (32 * limb) for limb in range(4))
        for biased in range(2047):
            e = max(biased, 1) - 1075
            k = 2 - (len(str(2**e)) - 1 if e >= 0 else -len(str(2**-e)))
            log2 = (10**k).bit_length() - 1 if k >= 0 else -(10**-k).bit_length()
            scaled = Fraction(10) ** k * Fraction(2) ** (127 - log2)
            assert table["e10"][biased] == 2 - k
            assert cache[biased] - 1 < scaled <= cache[biased]

    def test_mul_equals_python_integers(self):
        table = floatfmt._exponent_table()
        rng = np.random.default_rng(3)
        at = rng.integers(0, 2047, 20_000)
        u = rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64, endpoint=True)
        cache = sum(table["limbs"][limb].astype(object) << (32 * limb) for limb in range(4))
        extremes = [0, 1, 2**57 - 1, 2**63 - 1, 2**64 - 1]
        # The largest and smallest powers, by value and by k (biased 0 and 2046).
        ends = [int(np.argmax(cache)), int(np.argmin(cache)), 0, 2046]
        u[:20] = extremes * 4
        at[:20] = np.repeat(ends, 5)
        high, low = floatfmt._mul(u, table["limbs"], at)
        assert (high.tolist(), low.tolist()) == python_product(u, table["limbs"], at)
        # Any 128-bit multiplier, all ones included.
        limbs = rng.integers(0, 2**32, (4, 1000), dtype=np.uint64)
        limbs[:, 0] = 2**32 - 1
        at = np.arange(1000)
        high, low = floatfmt._mul(u[:1000], limbs, at)
        assert (high.tolist(), low.tolist()) == python_product(u[:1000], limbs, at)


class TestTable:
    def test_empty_tables(self):
        assert table_text(np.empty((0, 3)), [" ", " ", "\n"]) == b""
        assert table_text(np.empty((0, 8)), [" "] * 7 + ["\n"]) == b""

    def test_block_of_only_zeros_infinities_and_nans(self):
        # No value takes the digit search's shortening loops.
        table = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]] * 3)
        seps = [" "] * 5 + ["\n"]
        assert table_text(table, seps) == repr_text(table, seps)
        assert table_text(np.zeros((1, 1)), [""]) == b"0.0"

    def test_separators_of_any_length(self):
        rng = np.random.default_rng(4)
        table = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-8, 20, (50, 4))
        seps = [", ", "", "\t|\t", "\r\n"]
        assert table_text(table, seps) == repr_text(table, seps)

    def test_separator_count_must_match(self):
        with pytest.raises(ValueError, match=r"1 separators for columns of lengths \[3, 3\]"):
            table_text(np.zeros((3, 2)), [" "])

    def test_columns_of_one_file_must_match_in_length(self):
        with pytest.raises(ValueError, match=r"2 separators for columns of lengths \[3, 2\]"):
            written([[np.zeros(3), np.zeros(2)]], [" ", "\n"])

    @pytest.mark.parametrize("extra", [-1, 0, 1, floatfmt.BLOCK // 8 + 3])
    def test_tables_across_block_boundaries(self, extra):
        rng = np.random.default_rng(5)
        rows = floatfmt.BLOCK // 8 + extra
        table = rng.normal(size=(rows, 8))
        table[::7, 0] = np.arange(len(table[::7])) * 0.1
        table[3::11, 5] = -0.0
        seps = [" "] * 7 + ["\n"]
        assert table_text(table, seps) == repr_text(table, seps)

    def test_non_contiguous_and_integer_input(self):
        table = np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2]
        assert table_text(table, [" ", " ", "\n"]) == repr_text(table, [" ", " ", "\n"])
        assert table_text(table.astype(float), [" ", " ", "\n"]) == repr_text(
            table.astype(float), [" ", " ", "\n"]
        )

    def test_table_is_built_on_first_use(self):
        floatfmt._exponent_table.cache_clear()
        assert floatfmt._exponent_table.cache_info().currsize == 0
        table_text(np.ones((1, 1)), [""])
        assert floatfmt._exponent_table.cache_info().currsize == 1


FLOAT_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.225073858507201e-308,
               1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, -1e16, -1e-4]
INT64 = np.iinfo(np.int64)
CELLS = {  # a kind's Hypothesis values, and its array dtype (None: bytes cells)
    "float": (st.floats(width=64) | st.sampled_from(FLOAT_EDGES)
              | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308), np.float64),
    "int": (st.integers(INT64.min, INT64.max) | st.sampled_from([INT64.min, INT64.max, 0]),
            np.int64),
    "bool": (st.booleans(), bool),
    "text": (st.lists(st.sampled_from([b",", b'"', b"\r", b"\n", b"a", b" ", b"-0.5"]), max_size=4)
             .map(b"".join), None),
}
CSV_SEPS = [","] * 5 + ["\r\n"]


def column_of(kind, values):
    return list(values) if CELLS[kind][1] is None else np.array(values, dtype=CELLS[kind][1])


def csv_rows(columns) -> bytes:
    """The oracle of a CSV table: ``csv.writer`` rows of ``repr`` of each
    float, ``str`` of each integer and bool, and each text cell (bytes
    decoded as Latin-1, which maps every byte to one character)."""
    out = io.StringIO(newline="")
    cells = [[c.decode("latin-1") for c in col] if isinstance(col, list) else
             [repr(v) if isinstance(v, float) else str(v) for v in col.tolist()] for col in columns]
    csv.writer(out).writerows(zip(*cells))
    return out.getvalue().encode("latin-1")


class TestTypedTables:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(list(CELLS)), min_size=6, max_size=6),
           st.lists(st.tuples(st.integers(0, 6), st.lists(st.integers(0, 1), min_size=6,
                                                           max_size=6)), min_size=1, max_size=4),
           st.data())
    def test_files_equal_csv_writer_rows(self, kinds, shapes, data):
        # Each file has the kinds' layout, a length and a pick per column
        # from a pool, so that files share some columns, and some columns
        # are byte-equal copies of others.
        pool = {}

        def column(kind, length, pick):
            if (kind, length, pick) not in pool:
                values = data.draw(st.lists(CELLS[kind][0], min_size=length, max_size=length))
                pool[kind, length, pick] = column_of(kind, values)
            col = pool[kind, length, pick]
            return col.copy() if data.draw(st.booleans()) else col

        files = [[column(kind, n, pick) for kind, pick in zip(kinds, picks)] for n, picks in shapes]
        for got, columns in zip(written(files, CSV_SEPS), files):
            assert got == csv_rows(columns)

    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
    def test_mixed_tables_across_block_boundaries(self, blocks, extra):
        rows = blocks * (floatfmt.BLOCK // 6) + extra  # a block holds BLOCK // 6 rows of six columns
        rng = np.random.default_rng(7)
        floats = rng.normal(size=rows) * 10.0 ** rng.integers(-20, 20, rows)
        floats[::5] = -0.0
        text = [[b"", b"a,b", b'say "x"', b"\r\n", b"plain"][k % 5] for k in range(rows)]
        columns = [floats, rng.integers(INT64.min, INT64.max, rows, endpoint=True),
                   rng.integers(0, 2, rows).astype(bool), text, floats[::-1].copy(), floats / 3.0]
        assert written([columns], CSV_SEPS) == [csv_rows(columns)]

    def test_several_files_share_columns(self):
        rng = np.random.default_rng(8)
        n = 2 * floatfmt.BLOCK + 3
        stamps, index = rng.normal(size=n), np.arange(n) - 7
        shared = rng.normal(size=n)
        files = [[stamps, index, shared, shared.copy(), [b"m,1"] * n, index > 0],
                 [stamps, index, -shared, shared, [b"m2"] * n, index > 0],
                 [stamps[:5], index[:5], shared[:5], shared[:5], [b""] * 5, index[:5] < 0],
                 [stamps[:0], index[:0], shared[:0], shared[:0], [], index[:0] < 0]]
        assert written(files, CSV_SEPS) == [csv_rows(columns) for columns in files]

    def test_files_of_one_kind_and_length_are_written_in_place(self):
        # Each file is the whole group of its block's float or int columns.
        rng = np.random.default_rng(9)
        tables = [rng.normal(size=(floatfmt.BLOCK // 3 + 2, 3)), rng.normal(size=(5, 3)),
                  np.arange(-3, 4)[:, None], np.empty((0, 3))]
        seps = [[" ", " ", "\n"], ["\t", ",", "\r\n"], ["\n"], [" ", " ", "\n"]]
        for table, sep in zip(tables, seps):
            assert written([list(table.T)], sep) == [repr_text(table, sep)]
        got = written([list(tables[0].T), list(tables[1].T)], seps[0])
        assert got == [repr_text(tables[0], seps[0]), repr_text(tables[1], seps[0])]

    def test_text_cells_are_quoted_as_csv_quotes_them(self):
        cells = [b"", b",", b'"', b"\r", b"\n", b'e,"q"', b"plain", b" lead", b"tab\t"]
        assert written([[cells, cells]], [",", "\r\n"])[0] == csv_rows([cells, cells])
        assert written([[[b'e,"q"'], np.array([0.5])]], [",", "\r\n"])[0] == b'"e,""q""",0.5\r\n'

    def test_bools_and_integers_print_as_str(self):
        flags = np.array([True, False])
        assert written([[flags, flags.astype(np.int64)]], [" ", "\n"]) == [b"True 1\nFalse 0\n"]


class TestValues:
    @staticmethod
    def texts(values, gap=0):
        buf, start, width = floatfmt.format_values(values, gap)
        return [bytes(buf[a:a + w]).decode() for a, w in zip(start.tolist(), width.tolist())]

    def test_integers_are_exact_str_over_all_int64(self):
        limits = np.iinfo(np.int64)
        edges = [0, 1, -1, 9, 10, -10, 2**53 + 1, -(2**53 + 1), limits.min, limits.max,
                 limits.min + 1, 10**18, 10**18 - 1, -(10**18)]
        values = np.array(edges, dtype=np.int64)
        assert self.texts(values) == [str(v) for v in edges]
        assert self.texts(values.astype(np.int32)[:6]) == [str(v) for v in edges[:6]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
    def test_any_int64(self, values):
        assert self.texts(np.array(values, dtype=np.int64)) == [str(v) for v in values]

    def test_floats_and_gaps(self):
        values = np.array([0.1, -0.0, np.nan, 1e300, -5e-324, 2.0])
        assert self.texts(values, gap=3) == [repr(v) for v in values.tolist()]
        buf, start, width = floatfmt.format_values(values, np.arange(6))
        assert (start[1:] == start[:-1] + width[:-1] + np.arange(5)).all()
        assert len(buf) == start[-1] + width[-1] + 5

    def test_empty(self):
        buf, start, width = floatfmt.format_values(np.empty(0, np.int64))
        assert buf.size == start.size == width.size == 0

import contextlib
import io
import itertools
import json
import math
import re
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aperiodica as ap
from aperiodica import cli, core, cps
from aperiodica.core import AperiodicaError, IntegerCoords, ModuleCoords
from plans import traced
from references import iterate_mfs, legal_clusters, paperfolding_total_intensity


CONSTRUCTORS = pytest.mark.parametrize("make, args", [
    (lambda p, w: ap.WeightedComb(p, w, 3.0), ([0.0, 1.0], [1.0 + 0j, 2.0])),
    (ap.LatticeBasis, ([[1.0, 0.0], [0.0, 2.0]],)),
    (lambda ks, v: ap.Periodogram(ks, v, 0.1, 1.0), ([0.0, 0.1], [1.0, 2.0])),
    (lambda d, e: ap.AutocorrelationEstimate(d, e, 1.0, 2.0, 1.0),
     ([-1.0, 0.0, 1.0], [1.0 + 0j, 2.0, 1.0])),
    (ap.SpectralMeasure, ([[0.0, 1.0], [0.5, 2.0]],)),
    (lambda k: ap.WeightedComb.from_integers(k, np.ones(3), 3.0).coords, ([0, 1, 2],)),
    (lambda mn: ap.WeightedComb.from_module(mn, np.ones(2), 3.0).coords,
     ([[0, 1], [1, 0]],)),
], ids=["comb", "lattice", "periodogram", "autocorrelation", "measure",
        "integer-coords", "module-coords"])


def _own_arrays(obj) -> list:
    return [v for v in vars(obj).values() if isinstance(v, np.ndarray)]


@CONSTRUCTORS
def test_constructors_leave_caller_arrays_writeable(make, args):
    # the object's arrays are read-only; the caller's own arrays used to be
    # frozen with them
    arrays = [np.array(a) for a in args]
    obj = make(*arrays)
    assert all(a.flags.writeable for a in arrays)
    own = _own_arrays(obj)
    assert own and not any(v.flags.writeable for v in own)


@CONSTRUCTORS
def test_caller_writes_do_not_reach_the_object(make, args):
    # the object's arrays used to be views of the caller's, so that
    # p[0] = 5.0 after WeightedComb(p, ...) left positions [5, 1] unchecked
    arrays = [np.array(a) for a in args]
    obj = make(*arrays)
    before = [v.copy() for v in _own_arrays(obj)]
    for a in arrays:
        a[...] = 5
    assert all(np.array_equal(v, b) for v, b in zip(_own_arrays(obj), before))


@pytest.mark.parametrize("make, keys", [
    (lambda k, w: ap.WeightedComb.from_integers(k, w, 9.0, 0.5), np.array([-3, 0, 2, 7])),
    (lambda k, w: ap.WeightedComb.from_positions(k, w, 9.0), np.array([-3.5, 0.0, 7.0])),
    (lambda mn, w: ap.WeightedComb.from_module(mn, w, 9.0),
     np.array([[-1, -1], [0, 0], [0, 1], [1, 0], [2, 1]])),
], ids=["integers", "positions", "module"])
@pytest.mark.parametrize("ascending", [True, False], ids=["ascending", "descending"])
def test_factories_copy_the_callers_arrays(make, keys, ascending):
    # keys of the comb's own dtype and complex weights need no conversion,
    # so only an explicit copy keeps a later write from reaching the comb
    keys = (keys if ascending else keys[::-1]).copy()
    weights = np.arange(len(keys), dtype=complex)
    comb = make(keys, weights)
    before = [a.copy() for a in _comb_arrays(comb)]
    keys[...] = 5
    weights[...] = 5
    assert all(np.array_equal(a, b) for a, b in zip(_comb_arrays(comb), before))
    assert not any(a.flags.writeable for a in _comb_arrays(comb))


def _comb_arrays(comb) -> list:
    coords = [] if comb.coords is None else _own_arrays(comb.coords)
    return [comb.positions, comb.weights, *coords]


@pytest.mark.parametrize("positions, weights, radius, error, match", [
    ([1.0, 0.0], [1.0, 1.0], 2.0, AperiodicaError, "strictly ascending"),
    ([0.0, 0.0], [1.0, 1.0], 2.0, AperiodicaError, "strictly ascending"),
    ([0.0, math.nan], [1.0, 1.0], 2.0, AperiodicaError, "positions must be finite"),
    ([0.0, 1.0], [1.0, math.nan], 2.0, AperiodicaError, "finite"),
    ([0.0, 1.0], [1.0, complex(0.0, math.inf)], 2.0, AperiodicaError, "finite"),
    ([0.0, 5.0], [1.0, 1.0], 2.0, AperiodicaError, "outside the stated radius"),
    ([-5.0, 0.0], [1.0, 1.0], 2.0, AperiodicaError, "outside the stated radius"),
    ([math.nan], [1.0], 2.0, AperiodicaError, "positions must be finite"),
    ([math.inf], [1.0], 2.0, AperiodicaError, "positions must be finite"),
    ([0.0, math.inf], [1.0, 1.0], 2.0, AperiodicaError, "positions must be finite"),
    ([-math.inf, 0.0], [1.0, 1.0], 2.0, AperiodicaError, "positions must be finite"),
    ([math.nan, 0.0, 1.0], [1.0, 1.0, 1.0], 2.0, AperiodicaError,
     "positions must be finite"),
    ([[0.0, 1.0]], [1.0, 1.0], 2.0, AperiodicaError, "1-d"),
    ([0.0, 1.0], [1.0], 2.0, AperiodicaError, "differ in length"),
    ([0.0], [1.0], 0.0, ap.OutOfRangeError, "finite and positive"),
    ([0.0], [1.0], math.nan, ap.OutOfRangeError, "finite and positive"),
    ([0.0, 1.0], 1.0, 2.0, AperiodicaError, "weights must be 1-d"),
    ([0.0, 1.0], [[1.0], [1.0]], 2.0, AperiodicaError, "weights must be 1-d"),
], ids=["descending", "repeated", "nan-position", "nan-weight", "inf-weight",
        "outside-right", "outside-left", "nan-single", "inf-single", "inf-last",
        "minus-inf-first", "nan-first", "2-d", "lengths", "zero-radius",
        "nan-radius", "weights-0-d", "weights-2-d"])
def test_owning_constructor_rejects_what_the_dataclass_rejects(positions, weights, radius,
                                                                 error, match):
    # library generators hand their fresh arrays to _owning, which must run
    # every check of __post_init__ and raise the same error
    raised = []
    for make in (ap.WeightedComb, ap.WeightedComb._owning):
        with pytest.raises(error, match=match) as info:
            make(np.array(positions), np.array(weights, dtype=complex), radius)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_owning_constructor_keeps_its_arrays():
    positions, weights = np.array([-1.0, 0.5, 2.0]), np.array([1.0, 2j, 3.0])
    comb = ap.WeightedComb._owning(positions, weights, 2.0)
    assert comb.positions is positions and comb.weights is weights
    assert not positions.flags.writeable and not weights.flags.writeable
    assert comb.radius == 2.0 and comb.coords is None


class TestWeightedComb:
    def test_sorted_and_distinct_enforced(self):
        with pytest.raises(AperiodicaError):
            ap.WeightedComb(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(AperiodicaError):
            ap.WeightedComb(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 1.0)

    def test_points_inside_ball(self):
        with pytest.raises(AperiodicaError):
            ap.WeightedComb(np.array([0.0, 5.0]), np.array([1.0, 1.0]), 2.0)

    def test_finite_weights(self):
        with pytest.raises(AperiodicaError):
            ap.WeightedComb(np.array([0.0]), np.array([np.inf]), 1.0)

    def test_coordinates_only_through_the_factories(self):
        # positions 0 and 1 with integer coordinates 0 and 3 contradict each
        # other: the autocorrelation read the coordinates, diffs [-3, 0, 3]
        with pytest.raises(AperiodicaError, match="from_integers"):
            ap.WeightedComb([0.0, 1.0], [1, 1], 4.0, IntegerCoords(np.array([0, 3])))
        with pytest.raises(AperiodicaError, match="from_module"):
            ap.WeightedComb([0.0], [1], 4.0, ModuleCoords(np.array([[0, 0]])))
        comb = ap.WeightedComb.from_integers([0, 3], [1, 1], 4.0)
        assert comb.positions.tolist() == [0.0, 3.0]
        assert ap.estimate_autocorrelation(comb, 4).diffs.tolist() == [-3, 0, 3]

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
    def test_radius_finite_and_positive(self, radius):
        # unchecked, radius 0 divides by a zero volume and radius inf makes
        # every estimate 0
        with pytest.raises(ap.OutOfRangeError, match="finite and positive"):
            ap.WeightedComb(np.array([0.0]), np.array([1.0]), radius)

    def test_volume_dim1(self):
        comb = ap.WeightedComb.from_integers([0, 1], [1.0, 1.0], 3.0)
        assert comb.volume == 6.0

    @pytest.mark.parametrize("make, keys", [
        (lambda k: ap.WeightedComb.from_integers(k, np.arange(len(k)), 9.0), [-3, 0, 2, 7]),
        (lambda k: ap.WeightedComb.from_positions(k, np.arange(len(k)), 9.0), [-3.5, 0.0, 7.0]),
        (lambda mn: ap.WeightedComb.from_module(mn, np.arange(len(mn)), 9.0),
         [[-1, -1], [0, 0], [0, 1], [1, 0], [2, 1]]),
    ], ids=["integers", "positions", "module"])
    def test_ascending_input_is_not_argsorted(self, make, keys):
        # sample, the 2-adic generator and comb files give ascending input;
        # a descent anywhere still sorts, stably
        with mock.patch("numpy.argsort", wraps=np.argsort) as argsort:
            comb = make(keys)
            assert argsort.call_count == 0
            shuffled = make(keys[::-1])
            assert argsort.call_count == 1
        assert np.array_equal(shuffled.positions, comb.positions)
        assert np.array_equal(shuffled.weights, comb.weights[::-1])

    def test_module_comb_positions(self):
        comb = ap.WeightedComb.from_module([[1, 0], [0, 1]], [1.0, 1.0], 2.0)
        assert np.allclose(comb.positions, [1.0, ap.TAU])


class TestRestrict:
    def test_integer_filtering(self):
        comb = ap.WeightedComb.from_integers([0, 1, 2, 3], np.ones(4), 3.0)
        small = ap.restrict(comb, 2.0)
        assert list(small.coords.values) == [0, 1, 2]
        assert small.radius == 2.0

    def test_identity_case(self):
        comb = ap.WeightedComb.from_integers([0, 1, 2], np.ones(3), 2.0)
        same = ap.restrict(comb, comb.radius)
        assert np.array_equal(same.positions, comb.positions)
        assert np.array_equal(same.weights, comb.weights)

    def test_radius_above_comb_radius_rejected(self):
        comb = ap.WeightedComb.from_integers([0], [1.0], 1.0)
        with pytest.raises(ap.OutOfRangeError):
            ap.restrict(comb, 2.0)

    def test_fibonacci_restriction_matches_regeneration(self):
        scheme = ap.fibonacci_scheme()
        window = ap.EuclideanWindow(((-0.3, 0.7),))
        big = ap.generate_model_set(scheme, window, (-100, 100))
        small = ap.restrict(big, 50.0)
        regen = ap.generate_model_set(scheme, window, (-50, 50))
        assert len(small) == len(regen)
        assert np.allclose(small.positions, regen.positions)

    def test_idempotent(self):
        comb = ap.WeightedComb.from_integers(np.arange(-10, 11), np.ones(21), 10.0)
        once = ap.restrict(comb, 4.0)
        twice = ap.restrict(once, 4.0)
        assert np.array_equal(once.positions, twice.positions)


class TestDualLattice:
    def test_identity_self_dual(self):
        basis = ap.LatticeBasis(np.eye(2))
        assert np.allclose(ap.dual_lattice(basis).matrix, np.eye(2))

    def test_diagonal(self):
        basis = ap.LatticeBasis(np.diag([2.0, 1.0]))
        assert np.allclose(ap.dual_lattice(basis).matrix, np.diag([0.5, 1.0]))

    def test_fibonacci_embedding_integrality(self):
        basis = ap.LatticeBasis(np.array([[ap.TAU, 1.0], [ap.TAU_CONJ, 1.0]]))
        dual = ap.dual_lattice(basis)
        rng = np.random.default_rng(11)
        for _ in range(100):
            mn = rng.integers(-50, 51, size=2)
            pq = rng.integers(-50, 51, size=2)
            x = basis.matrix @ mn
            k = dual.matrix @ pq
            assert abs(k @ x - round(k @ x)) < 1e-9

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            basis = ap.LatticeBasis(m)
            back = ap.dual_lattice(ap.dual_lattice(basis))
            assert np.max(np.abs(back.matrix - basis.matrix)) < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(ap.DegenerateLatticeError):
            ap.LatticeBasis(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestModuleElement:
    def test_embed_and_star(self):
        x = ap.ModuleElement(1, 0)
        assert math.isclose(x.embed(), ap.TAU)
        assert math.isclose(x.star(), -1.0 / ap.TAU)

    def test_injectivity_within_bound(self):
        # distinct (m, n) with |m|, |n| <= 1000 embed at least 1e-12 apart,
        # equivalently |dm*tau + dn| > 1e-12 for all nonzero (dm, dn) with
        # |dm|, |dn| <= 2000
        dm = np.arange(1, 2001)
        frac = np.abs(dm * ap.TAU - np.round(dm * ap.TAU))
        assert np.min(frac) > 1e-12
        assert 1.0 > 1e-12  # dm = 0 case: |dn| >= 1

    def test_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m1, n1, m2, n2 = rng.integers(-100, 100, size=4)
            a, b = ap.ModuleElement(m1, n1), ap.ModuleElement(m2, n2)
            assert math.isclose((a + b).star(), a.star() + b.star(), abs_tol=1e-9)


class TestSpectralMeasure:
    def test_negative_intensity_rejected(self):
        with pytest.raises(AperiodicaError):
            ap.SpectralMeasure(np.array([[0.0, -1.0]]))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(AperiodicaError):
            ap.SpectralMeasure(np.array([[0.0, 1.0], [0.0, 2.0]]))

    def test_atom_lookup(self):
        ms = ap.SpectralMeasure(np.array([[0.0, 1.0], [0.5, 0.25]]))
        assert ms.atom_at(0.5) == 0.25
        assert ms.atom_at(0.3) == 0.0


# every kind of double the writer may meet, edge values drawn often
TABLE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]))


def _reference_table(header, rows, fmt) -> str:
    """The writer as it was: format(x, '.17g') for each value, row by row."""
    cells = [[format(float(v), ".17g") for v in row] for row in rows]
    if fmt == "csv":
        return "\n".join([",".join(header)] + [",".join(c) for c in cells]) + "\n"
    body = ",\n".join("    [" + ", ".join(c) + "]" for c in cells)
    return ('{\n  "columns": ' + json.dumps(list(header)) +
            ',\n  "rows": [\n' + body + "\n  ]\n}\n")


def _first_difference(got: str, want: str):
    """(line number, got's line, want's line) of the first line where two
    texts differ, None where they are equal: a table of 10^4 rows fails
    with one line, not a diff of the whole text."""
    lines = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next(((i, g, w) for i, (g, w) in enumerate(lines, 1) if g != w), None)


@st.composite
def pooled_tables(draw):
    """1 to 4 columns whose rows draw from a pool of 1 to 5 doubles, so
    that values repeat within and across columns, over up to 2.5 blocks of
    the writer's rows, the block edges included."""
    ncols = draw(st.integers(1, 4))
    pool = draw(st.lists(TABLE_FLOATS, min_size=1, max_size=5))
    block = core._TABLE_BLOCK
    nrows = draw(st.one_of(st.integers(0, 5 * block // 2),
                           st.sampled_from([block - 1, block, block + 1, 2 * block])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    picks = rng.integers(0, len(pool), size=(nrows, ncols)).tolist()
    return ncols, [[pool[i] for i in row] for row in picks]


@settings(max_examples=200, deadline=None)
@given(st.one_of(
           st.integers(1, 4).flatmap(
               lambda n: st.lists(st.lists(TABLE_FLOATS, min_size=n, max_size=n), max_size=12)
               .map(lambda rows: (n, rows))),
           pooled_tables()),
       st.sampled_from(["csv", "json"]))
def test_write_table_matches_format_reference(table, fmt):
    ncols, rows = table
    header = [f"c{i}" for i in range(ncols)]
    columns = [np.array([row[i] for row in rows], dtype=float) for i in range(ncols)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        core.write_table(None, header, columns, fmt)
    first = _first_difference(out.getvalue(), _reference_table(header, rows, fmt))
    assert first is None


def _hard_doubles() -> np.ndarray:
    """Doubles where a '%.17g' kernel can go wrong: every power of ten in
    [1e-300, 1e300] and its neighbours, k/4 for odd k in [2^52, 2^54)
    (exact ties at the 17th digit below 2^53), the ends of the 17-digit
    range, subnormals, signed zeros, infinities, NaN and 10^5 random bit
    patterns."""
    rng = np.random.default_rng(26)
    tens = np.array([float(f"1e{s}") for s in range(-300, 301)])
    odd = rng.integers(2 ** 51, 2 ** 53, size=5000) * 2 + 1
    subnormal = rng.integers(1, 2 ** 52, size=200).view(float)
    return np.concatenate([
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
        [k / 4 for k in odd.tolist()],
        [1e16, 1e17, 9.999999999999999e16, 1234567890123456.25, 0.0, -0.0,
         math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072009e-308],
        subnormal, rng.integers(-2 ** 63, 2 ** 63, size=10 ** 5, dtype=np.int64).view(float)])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_hard_doubles_match_format(fmt):
    values = _hard_doubles()
    columns = [values, -values[::-1]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        core.write_table(None, ["a", "b"], columns, fmt)
    first = _first_difference(out.getvalue(), _reference_table(["a", "b"], zip(*columns), fmt))
    assert first is None


def test_write_table_memory_follows_the_block(tmp_path):
    """The writer's peak memory is set by _TABLE_BLOCK: 4x the rows may
    raise it by no more than half."""
    rng = np.random.default_rng(3)
    peaks = []
    for rows in (2 ** 15, 2 ** 17):
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
                   for _ in range(3)]
        peaks.append(traced(lambda: core.write_table(tmp_path / "table.csv", ["a", "b", "c"],
                                                     columns, "csv"))[1])
    assert peaks[1] <= 1.5 * peaks[0]


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                   st.sampled_from([-0.0, 0.0, 5e-324, -1e308]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300, allow_subnormal=True), min_size=1,
                max_size=30, unique=True),
       st.data())
def test_comb_csv_round_trip_is_bit_identical(positions, data):
    pos = np.sort(np.array(positions))
    w = np.array([complex(data.draw(FINITE), data.draw(FINITE)) for _ in pos])
    radius = max(float(np.max(np.abs(pos))), 1.0)
    comb = ap.WeightedComb.from_positions(pos, w, radius)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "comb.csv"
        ap.write_comb_csv(comb, path)
        back = ap.read_comb_csv(path, radius=radius)
    assert np.array_equal(_bits(back.positions), _bits(comb.positions))
    assert np.array_equal(_bits(back.weights.view(float)), _bits(comb.weights.view(float)))


@pytest.mark.parametrize("call, repeat", [
    (lambda: ap.WeightedComb.from_positions([1.0, 0.0, 1.0], [1, 1, 1], 2.0), "; 1.0 is repeated"),
    (lambda: ap.WeightedComb([0.0, 0.0], [1.0, 1.0], 2.0), "; 0.0 is repeated"),
    (lambda: ap.WeightedComb([2.0, 1.0, 0.5, 1.0], [1, 1, 1, 1], 2.0), "; 1.0 is repeated"),
    (lambda: ap.WeightedComb([1.0, 0.0], [1.0, 1.0], 2.0), ""),
], ids=["from-positions", "constructor", "constructor-apart", "descending"])
def test_ascending_names_a_repeat(call, repeat):
    # read only "positions must be strictly ascending", though from_positions
    # sorts the points itself
    with pytest.raises(AperiodicaError,
                       match=f"^positions must be strictly ascending{re.escape(repeat)}$"):
        call()


@contextlib.contextmanager
def opened():
    """Yields the list of the files opened within the block, by open or io.open."""
    files, real = [], io.open

    def counted(file, *args, **kwargs):
        files.append(file)
        return real(file, *args, **kwargs)

    with mock.patch("builtins.open", counted), mock.patch("io.open", counted):
        yield files


class TestCombCsv:
    @pytest.mark.parametrize("body", [
        "-1,1,0\n\n0,2,0.5\n\n",
        "-1,1,0\r\n0,2,0.5\r\n",
        "-1,1,0\r0,2,0.5",
        " -1 , 1 ,0\n0,2,0.5\n",
    ], ids=["blank-lines", "crlf", "cr-no-final-newline", "spaces-around-numbers"])
    def test_reads_what_csv_and_float_read(self, tmp_path, body):
        path = tmp_path / "comb.csv"
        path.write_bytes(b"x,re_weight,im_weight\n" + body.encode())
        comb = ap.read_comb_csv(path, radius=2.0)
        assert comb.positions.tolist() == [-1.0, 0.0]
        assert comb.weights.tolist() == [1.0, 2 + 0.5j]

    @pytest.mark.parametrize("row", ["   ", "1", "1_0,1,0", '"1.5",1,0'],
                             ids=["whitespace-only", "one-column", "underscore",
                                  "quoted"])
    def test_malformed_row_named(self, tmp_path, row):
        # csv and float() took 1_0 as 10 and "1.5" as 1.5; loadtxt does not
        path = tmp_path / "comb.csv"
        path.write_text(f"x,re_weight,im_weight\n0,1,0\n{row}\n1,1,0\n")
        with pytest.raises(AperiodicaError,
                           match=f"malformed comb row on line 3 of .*: {re.escape(repr(row))}"):
            ap.read_comb_csv(path)

    def test_bytes_not_utf8_come_before_a_malformed_row(self, tmp_path):
        # the byte lies past the lines np.loadtxt reads before it meets the
        # malformed row, so only a full read finds it
        head = b"x,re_weight,im_weight\n1,1\n" + b"1,1,0\n" * 60_000
        path = tmp_path / "comb.csv"
        path.write_bytes(head + b"\xe9,1,0\n")
        with pytest.raises(AperiodicaError,
                           match=f"not UTF-8 text: .* byte 0xe9 in position {len(head)}:"):
            ap.read_comb_csv(path)

    def test_bytes_not_utf8_come_before_a_wrong_header(self, tmp_path):
        # the byte lies past the first chunk that reading the header decodes
        head = b"x,weight\n" + b"1,1,0\n" * 60_000
        path = tmp_path / "comb.csv"
        path.write_bytes(head + b"\xe9,1,0\n")
        with pytest.raises(AperiodicaError,
                           match=f"not UTF-8 text: .* byte 0xe9 in position {len(head)}:"):
            ap.read_comb_csv(path)

    @pytest.mark.parametrize("row", ["0.5,nan,0", "0.5,1,inf", "0.5,1,-inf", "0.5,1e400,0"])
    def test_non_finite_weight_named(self, tmp_path, row):
        # read "weights must be finite", with no file or line
        path = tmp_path / "comb.csv"
        path.write_text(f"x,re_weight,im_weight\n0,1,0\n\n{row}\n1,1,0\n")
        with pytest.raises(AperiodicaError,
                           match=f"non-finite comb weight on line 4 of .*: {re.escape(repr(row))}"):
            ap.read_comb_csv(path)

    def test_repeated_position_named(self, tmp_path):
        path = tmp_path / "comb.csv"
        path.write_text("x,re_weight,im_weight\n1,1,0\n0,1,0\n1,2,0\n")
        with pytest.raises(AperiodicaError, match="strictly ascending; 1.0 is repeated"):
            ap.read_comb_csv(path)

    @pytest.mark.parametrize("body, tail, named", [
        ("0,1,0\nnan,1,0\n1,1,0\n2,x,0\n", b"", "malformed comb row on line 5"),
        ("0,nan,0\n0.5,1,0\n1,1,0\ninf,1,0\n", b"", "non-finite comb position on line 5"),
        ("0,1,0\nnan,1,0\n1,1,0\n2,x,0\n", b"\xe9,1,0\n", "byte 0xe9 in position 48:"),
    ], ids=["row-after-position", "position-after-weight", "byte-after-both"])
    def test_faults_in_order(self, tmp_path, body, tail, named):
        # the first fault of the gravest kind: a byte that is not UTF-8, a
        # wrong header, a malformed row, a non-finite position, then weight
        path = tmp_path / "comb.csv"
        path.write_bytes(b"x,re_weight,im_weight\n" + body.encode() + tail)
        with pytest.raises(AperiodicaError, match=re.escape(named)):
            ap.read_comb_csv(path)

    @pytest.mark.parametrize("data, opens", [
        (b"x,re_weight,im_weight\n0,1,0\n1,1,0\n", 1),
        (b"x,re_weight,im_weight\n1,1\n" + b"1,1,0\n" * 60_000 + b"\xe9,1,0\n", 2),
        (b"x,weight\n" + b"1,1,0\n" * 60_000 + b"\xe9,1,0\n", 2),
        (b"x,re_weight,im_weight\n0,1,0\nnan,1,0\n", 2),
        (b"x,re_weight,im_weight\n0,1,0\n", 1),
    ], ids=["loads", "malformed-then-byte", "header-then-byte", "non-finite",
            "radius-not-inferred"])
    def test_opens(self, tmp_path, data, opens):
        # a malformed row before a byte that is not UTF-8 was read three times
        path = tmp_path / "comb.csv"
        path.write_bytes(data)
        with opened() as files, contextlib.suppress(AperiodicaError):
            ap.read_comb_csv(path)
        assert files.count(path) == opens

    @pytest.mark.parametrize("row, named, calls", [
        (b"nan,1,0", "non-finite comb position on line 2", 1 + (1 << 17) // 4096),
        (b"1,1", "malformed comb row on line 2", 3)], ids=["non-finite", "malformed"])
    def test_fault_parses_blocks_of_rows(self, tmp_path, row, named, calls):
        # the rescan parsed each row with its own np.loadtxt: 2^17 calls,
        # 0.99 s, to name a NaN position on line 2 of a 2^17-row file.  Now
        # the load and one call a block of 4,096 rows, to the end of the
        # file, since a malformed row would outrank the NaN; a block that
        # does not parse is parsed again row by row up to its malformed row
        path = tmp_path / "comb.csv"
        path.write_bytes(b"x,re_weight,im_weight\n" + row + b"\n"
                         + b"".join(b"%d,1,0\n" % i for i in range(1, 1 << 17)))
        with mock.patch.object(core, "_FAULT_BLOCK", 4096), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
                pytest.raises(AperiodicaError, match=named):
            ap.read_comb_csv(path)
        assert loadtxt.call_count == calls

    @pytest.mark.parametrize("text, error", [
        ("", ap.EmptyInputError),
        ("x,re_weight,im_weight\n", ap.EmptyInputError),
        ("x,re_weight,im_weight\n\n\n", ap.EmptyInputError),
        ("x,weight\n1,1\n", AperiodicaError),
    ], ids=["empty", "header-only", "blank-body", "other-header"])
    def test_no_points_or_wrong_header(self, tmp_path, text, error):
        path = tmp_path / "comb.csv"
        path.write_text(text)
        with pytest.raises(error, match=re.escape(str(path))):
            ap.read_comb_csv(path)

    @pytest.mark.parametrize("text", [
        "x,re_weight,im_weight\n", "x,re_weight,im_weight\n\n\n",
        "x,re_weight,im_weight\r\n\r\n\r\n", "x,re_weight,im_weight\r\r"],
        ids=["header-only", "blank-body", "crlf-blank-body", "cr-blank-body"])
    def test_no_points_warns_nothing(self, tmp_path, text):
        path = tmp_path / "comb.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ap.EmptyInputError, match="has no points"):
                ap.read_comb_csv(path)

    @pytest.mark.parametrize("row", ["nan,1,0", "-inf,1,0", "1e400,1,0"])
    @pytest.mark.parametrize("radius", [None, 5.0])
    def test_non_finite_position_named(self, tmp_path, row, radius):
        # a NaN read as "comb radius must be finite and positive; got nan"
        # without a radius, and as "strictly ascending" with one
        path = tmp_path / "comb.csv"
        path.write_text(f"x,re_weight,im_weight\n0,1,0\n\n{row}\n1,1,0\n")
        with pytest.raises(AperiodicaError,
                           match=f"non-finite comb position on line 4 of .*: {re.escape(repr(row))}"):
            ap.read_comb_csv(path, radius=radius)

    def test_radius_that_cannot_be_inferred_named(self, tmp_path):
        # read as "comb radius must be finite and positive; got 0.0", a
        # radius the caller never gave
        path = tmp_path / "comb.csv"
        path.write_text("x,re_weight,im_weight\n0,1,0\n")
        with pytest.raises(ap.OutOfRangeError,
                           match=r"radius cannot be inferred from the points of .*comb\.csv.*"
                                 r"pass radius= \(CLI: --radius\)"):
            ap.read_comb_csv(path)
        assert ap.read_comb_csv(path, radius=1.0).positions.tolist() == [0.0]

    def test_signed_zero_weights_survive(self, tmp_path):
        # re + 1j*im turned -0.0 parts into +0.0
        w = np.array([complex(-0.0, -0.0), complex(-0.0, 1.0), complex(1.0, -0.0)])
        path = tmp_path / "comb.csv"
        ap.write_comb_csv(ap.WeightedComb.from_positions([-1.0, 0.0, 1.0], w, 1.0), path)
        back = ap.read_comb_csv(path)
        assert np.array_equal(_bits(back.weights.view(float)), _bits(w.view(float)))

    def test_round_trip_dim1(self, tmp_path):
        comb = ap.WeightedComb.from_positions([-1.5, 0.25], [1 + 2j, 0.5 - 1j], 2.0)
        path = tmp_path / "comb.csv"
        ap.write_comb_csv(comb, path)
        text = path.read_bytes()
        assert text.startswith(b"x,re_weight,im_weight\n")
        assert b"\r" not in text
        back = ap.read_comb_csv(path, radius=2.0)
        assert np.allclose(back.positions, comb.positions)
        assert np.allclose(back.weights, comb.weights)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ap.read_comb_csv(tmp_path / "absent.csv")

    @pytest.fixture(scope="class")
    def random_comb(self) -> ap.WeightedComb:
        rng = np.random.default_rng(33)
        n = 2 ** 17
        return ap.WeightedComb.from_positions(np.sort(rng.uniform(-1e3, 1e3, n)),
                                              rng.standard_normal((n, 2)) @ [1, 1j], 1e3)

    def test_reader_memory_follows_the_comb(self, tmp_path, random_comb):
        # the whole file as one str and a list of line strings came first:
        # 7.6x the comb's arrays
        path = tmp_path / "comb.csv"
        ap.write_comb_csv(random_comb, path)
        back, peak = traced(lambda: ap.read_comb_csv(path))
        assert np.array_equal(back.positions, random_comb.positions)
        assert np.array_equal(back.weights, random_comb.weights)
        assert peak <= 3 * (random_comb.positions.nbytes + random_comb.weights.nbytes)

    def test_reader_memory_on_a_byte_not_utf8(self, tmp_path, random_comb):
        # the file was read whole once more to find the byte's offset: 7.5x
        path = tmp_path / "comb.csv"
        ap.write_comb_csv(random_comb, path)
        size = path.stat().st_size
        with path.open("ab") as f:
            f.write(b"\xe9")

        def read():
            with pytest.raises(AperiodicaError,
                               match=f"not UTF-8 text: .* byte 0xe9 in position {size}:"):
                ap.read_comb_csv(path)

        _, peak = traced(read)
        assert peak <= 3 * (random_comb.positions.nbytes + random_comb.weights.nbytes)

    def test_writer_memory(self, tmp_path, random_comb):
        # an (n, 24) int64 index gathered each value's text: 4.9 MiB
        _, peak = traced(lambda: ap.write_comb_csv(random_comb, tmp_path / "comb.csv"))
        assert peak < 3 * 2 ** 20


class TestNextFastLen:
    def test_matches_scipy(self):
        from scipy.fft import next_fast_len

        ns = np.concatenate([np.arange(1, 2 ** 15 + 1),
                             np.random.default_rng(9).integers(1, 2 ** 32, 10_000,
                                                                endpoint=True)])
        assert [core.next_fast_len(int(n)) for n in ns] == [
            next_fast_len(int(n)) for n in ns]

    def test_past_the_table_rejected(self):
        assert core.next_fast_len(2 ** 32) == 2 ** 32
        with pytest.raises(ap.OutOfRangeError, match="FFT length"):
            core.next_fast_len(2 ** 32 + 1)


def raises_before_allocating(call, match):
    """call() raises OutOfRangeError naming match within 1 s, with a
    tracemalloc peak under 16 MiB."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ap.OutOfRangeError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 16 * 2 ** 20


class TestSizeBudget:
    def test_budget_boundary(self):
        core.check_size(core.SIZE_BUDGET, "an array")
        for count in (core.SIZE_BUDGET + 1, math.inf, math.nan):
            with pytest.raises(ap.OutOfRangeError, match="an array"):
                core.check_size(count, "an array")

    # without the guard each asks numpy for 8 TB or more, or, within the
    # small budget given, builds its arrays past it
    @pytest.mark.parametrize("call, match, budget", [
        (lambda: ap.periodogram(ap.WeightedComb.from_integers([0, 1], [1, 1], 1.0),
                                0.0, 1e12, 1e-3), "k grid", core.SIZE_BUDGET),
        (lambda: ap.generate_model_set(ap.fibonacci_scheme(),
                                       ap.EuclideanWindow(((-0.3, 0.7),)), (0, 1e17)),
         "m range", core.SIZE_BUDGET),
        (lambda: ap.generate_model_set(ap.qadic_scheme(), ap.QAdicWindow(((0, 4),)),
                                       (0, 1e12)), "2-adic region", core.SIZE_BUDGET),
        # one letter, but the word must grow past 2^40 letters to reach it
        (lambda: ap.fixed_point(ap.PAPERFOLDING, ("b", "a")).window(2 ** 40, 2 ** 40 + 1),
         "fixed-point word", core.SIZE_BUDGET),
        (lambda: ap.complement_check(np.array([0.0]), ap.LatticeBasis(np.array([[1e-12]])),
                                     1.0), "lattice points", core.SIZE_BUDGET),
        (lambda: ap.pp_part(ap.RandomTilingSpec(2, 1, 0.5), 1e12), "Bragg lattice",
         core.SIZE_BUDGET),
        (lambda: ap.paperfolding_spectrum(1, 1, 0, 0, 8, (0.0, 1e9)), "atom list",
         core.SIZE_BUDGET),
        # numpy's MemoryError from a fine grid of 1e18 k
        (lambda: ap.needle_free(ap.fibonacci_spec(), [0.0, 1e15]), "k grid", core.SIZE_BUDGET),
        # compare --kpoints 1000000000000000: a linspace of 1e15 k
        (lambda: cli._compare_fibonacci({"kpoints": 10 ** 15, "seed": 0}), "--kpoints",
         core.SIZE_BUDGET),
        # 2^(r_max - 1) atoms a unit overflowed a double at r_max = 600
        (lambda: paperfolding_total_intensity(1, 1, 0, 0, 600), "r_max",
         core.SIZE_BUDGET),
        # 2,000 k with 8 sub-offsets each
        (lambda: ap.mean_ac_periodogram(ap.fibonacci_spec(), np.linspace(0.1, 2.0, 2_000),
                                        100, 1, 0), "sub-offsets", 10_000),
        # 4 images of 2^16 letters
        (lambda: ap.PAPERFOLDING.power(16), "rule power", 10_000),
        # 4 letters' iterates of up to 2^16 letters
        (lambda: legal_clusters(
            ap.PAPERFOLDING, ap.fixed_point(ap.PAPERFOLDING, ("b", "a")), n_max=16),
         "iterates of the rule", 10_000),
        # one point doubles at each of 16 steps
        (lambda: iterate_mfs(ap.mfs_from_substitution(ap.PAPERFOLDING),
                             [[0], [], [], []], steps=16), "multiset", 10_000),
        # 10 patches of 2,001 heights
        (lambda: ap.empirical_height_histogram(ap.fibonacci_spec(), 1_000, 10), "pooled heights",
         10_000),
    ], ids=["periodogram-grid", "slab-m-range", "2-adic-region", "fixed-point-word",
            "complement-lattice", "tiling-bragg-lattice", "paperfolding-atoms",
            "needle-grid", "compare-kpoints", "paperfolding-total", "ac-sub-offsets",
            "rule-power", "legal-clusters", "mfs-steps", "height-pool"])
    def test_guard_raises_before_allocating(self, call, match, budget):
        with mock.patch.object(core, "SIZE_BUDGET", budget):
            raises_before_allocating(call, match)

    def test_slab_candidates_guarded(self):
        # 183 m values, but 17,888 points; at the real budget a square
        # window and region of side 2.2e5 would make 1.2e10 candidates
        window = ap.EuclideanWindow(((-100.0, 100.0),))
        with mock.patch.object(core, "SIZE_BUDGET", 10_000):
            raises_before_allocating(
                lambda: ap.generate_model_set(ap.fibonacci_scheme(), window, (-100, 100)),
                "candidate list")
        assert len(ap.generate_model_set(ap.fibonacci_scheme(), window, (-100, 100))) == 17_888

    def test_slab_guard_counts_every_array_held(self):
        # at +-1e4 the slab has ~8,950 m values and as many candidates, each
        # under a budget of 1e5 entries, but it holds ~9 arrays of the first
        # and ~7 of the second at once: 1.09 MB, over the 0.8 MB of the budget
        window = ap.EuclideanWindow(((-0.3, 0.7),))
        with mock.patch.object(core, "SIZE_BUDGET", 100_000):
            raises_before_allocating(
                lambda: ap.generate_model_set(ap.fibonacci_scheme(), window,
                                              (-10_000, 10_000)), "candidate list")
            # at +-5e3 the guards pass, and the peak stays within the budget
            mn, peak = traced(lambda: cps._slab_points(window, -5_000.0, 5_000.0))
        assert len(mn) == 4_473
        assert peak <= 8 * 100_000

    def test_paperfolding_atoms_guarded(self):
        # r_max 14 on [0, 1] has 16,384 atoms; the bound sized first is
        # 1 * 2^14 + 14 + 1
        with mock.patch.object(core, "SIZE_BUDGET", 10_000):
            raises_before_allocating(
                lambda: ap.paperfolding_spectrum(1, 1, 0, 0, 14, (0.0, 1.0)), "atom list")
        assert len(ap.paperfolding_spectrum(1, 1, 0, 0, 14, (0.0, 1.0)).pp_atoms) == 16_384


@pytest.mark.parametrize("call, match", [
    (lambda: ap.WeightedComb(np.zeros((1, 1)), [1.0], 1.0), "positions must be 1-d"),
    (lambda: ap.WeightedComb([0.0, 0.5], [1.0], 1.0), "positions and weights differ in length"),
    (lambda: ap.LatticeBasis([[1.0, 0.0]]), "basis matrix must be square"),
    # a NaN basis passed with a RuntimeWarning from det, and
    # lattice_periodicity_check on it raised a bare ValueError
    (lambda: ap.LatticeBasis([[math.nan]]), "basis matrix entries must be finite"),
    (lambda: ap.LatticeBasis([[1.0, 0.0], [0.0, math.inf]]), "basis matrix entries must be finite"),
    # a NaN position made atom_at's argmin land on its row and miss the atom
    # at 0.5; a NaN intensity passed the negativity check
    (lambda: ap.SpectralMeasure([[math.nan, 1.0], [0.5, 2.0]]),
     "atom positions and intensities must be finite"),
    (lambda: ap.SpectralMeasure([[0.0, math.nan]]), "atom positions and intensities must be finite"),
    (lambda: ap.SpectralMeasure([[0.0, math.inf]]), "atom positions and intensities must be finite"),
    # a scalar weight is named as such, whatever the order of the positions
    (lambda: ap.WeightedComb.from_integers([0, 1, 2], 1, 2.0), "weights must be 1-d"),
    (lambda: ap.WeightedComb.from_integers([2, 1, 0], 1, 2.0), "weights must be 1-d"),
    (lambda: ap.WeightedComb.from_positions([0.0, 1.0], 1.0, 2.0), "weights must be 1-d"),
    (lambda: ap.WeightedComb.from_positions([1.0, 0.0], 1.0, 2.0), "weights must be 1-d"),
    (lambda: ap.WeightedComb.from_module([[0, 1], [1, 0]], 1.0, 3.0), "weights must be 1-d"),
    (lambda: ap.WeightedComb.from_module([[1, 0], [0, 1]], 1.0, 3.0), "weights must be 1-d"),
    (lambda: ap.WeightedComb.from_integers(1, [1.0], 2.0), "positions must be 1-d"),
    (lambda: ap.WeightedComb.from_positions(1.0, [1.0], 2.0), "positions must be 1-d"),
    # weights of the wrong length are named before any sort, not cut to fit
    (lambda: ap.WeightedComb.from_integers([2, 1, 0], [1, 2, 3, 4], 2.0), "differ in length"),
    (lambda: ap.WeightedComb.from_integers([2, 1, 0], [1, 2], 2.0), "differ in length"),
    (lambda: ap.WeightedComb.from_positions([1.0, 0.0], [1, 2, 3], 2.0), "differ in length"),
    (lambda: ap.WeightedComb.from_positions([1.0, 0.0], [1], 2.0), "differ in length"),
    (lambda: ap.WeightedComb.from_module([[1, 0], [0, 1]], [1, 2, 3], 3.0), "differ in length"),
    (lambda: ap.WeightedComb.from_module([[1, 0], [0, 1]], [1], 3.0), "differ in length"),
    # a (2, 3) array read as three pairs; a 3-vector raised numpy's ValueError
    (lambda: ap.WeightedComb.from_module([[0, 1, 2], [3, 4, 5]], [1, 1, 1], 20.0),
     r"\(N, 2\) array or one pair; got shape \(2, 3\)"),
    (lambda: ap.WeightedComb.from_module([1, 0, 1], [1, 1, 1], 20.0), r"got shape \(3,\)"),
    # non-integers were truncated to exact coordinates: 0.5 became 0
    (lambda: ap.WeightedComb.from_module([[0.5, 1]], [1], 20.0), "within int64; got 0.5"),
    (lambda: ap.WeightedComb.from_integers([0.5, 1], [1, 1], 2.0), "within int64; got 0.5"),
    (lambda: ap.WeightedComb.from_integers([1, math.nan], [1, 1], 2.0), "got nan"),
    (lambda: ap.WeightedComb.from_integers([-math.inf], [1], 2.0), "got -inf"),
    (lambda: ap.WeightedComb.from_integers([2.0 ** 63], [1], 1e19), "within int64"),
    (lambda: ap.WeightedComb.from_integers([2 ** 70], [1], 2e21), "within int64"),
    # a NaN read as "strictly ascending" or "outside the stated radius"
    (lambda: ap.WeightedComb.from_positions([0.0, math.nan], [1, 1], 5.0),
     "positions must be finite"),
    (lambda: ap.WeightedComb.from_positions([math.nan], [1], 5.0), "positions must be finite"),
    (lambda: ap.WeightedComb.from_positions([-math.inf, 0.0, math.inf], [1, 1, 1], 5.0),
     "positions must be finite"),
], ids=["positions-2d", "weights-short", "basis-not-square", "basis-nan", "basis-inf",
        "measure-nan-position", "measure-nan-intensity", "measure-inf-intensity",
        "integers-weight-0-d",
        "integers-descending-weight-0-d", "positions-weight-0-d",
        "positions-descending-weight-0-d", "module-weight-0-d",
        "module-descending-weight-0-d", "integers-0-d", "positions-0-d",
        "integers-descending-weights-long", "integers-descending-weights-short",
        "positions-descending-weights-long", "positions-descending-weights-short",
        "module-descending-weights-long", "module-descending-weights-short",
        "module-2-by-3", "module-3-vector", "module-half", "integers-half", "integers-nan",
        "integers-inf", "integers-2-63", "integers-past-int64", "positions-nan",
        "positions-nan-single", "positions-inf"])
def test_invalid_shapes_rejected(call, match):
    with pytest.raises(AperiodicaError, match=match):
        call()


def test_factories_take_integral_floats_and_one_pair():
    comb = ap.WeightedComb.from_integers([2.0, -1.0, -2.0 ** 62], [1, 2, 3], 2.0 ** 62)
    assert comb.coords.values.tolist() == [-2 ** 62, -1, 2]
    assert ap.WeightedComb.from_module([1, 0], [1], 2.0).coords.mn.tolist() == [[1, 0]]
    assert ap.WeightedComb.from_module(np.empty((0, 2)), [], 2.0).coords.mn.shape == (0, 2)


def test_module_element_difference():
    assert ap.ModuleElement(3, 2) - ap.ModuleElement(1, 5) == ap.ModuleElement(2, -3)


def test_empty_measure_has_no_atom():
    assert ap.SpectralMeasure().atom_at(0.0) == 0.0

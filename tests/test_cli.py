import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import countmatch
from countmatch import cli
from countmatch.geometry import PointLabel, PointSet
from countmatch.matching import MatchConfig, match_points
from countmatch.synth import DensityProfile


def write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


# The per-line parser and writer that the array code replaced, kept as
# references for the differential tests below.
_COORD_LINE = re.compile(r"^(\d+) (\d+)$")


def _reference_lines(path, encoding: str):
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode(encoding)
        except UnicodeDecodeError:
            raise ValueError(f"{path}:{lineno}: not {encoding.upper()} text") from None
        yield lineno, line


def _reference_parse(path, label: PointLabel = PointLabel.UNLABELED) -> PointSet:
    pts = []
    for lineno, line in _reference_lines(path, "ascii"):
        m = _COORD_LINE.match(line)
        if not m:
            raise ValueError(f"{path}:{lineno}: malformed coordinate line: {line!r}")
        try:
            pts.append((float(int(m.group(1))), float(int(m.group(2)))))
        except OverflowError:
            raise ValueError(f"{path}:{lineno}: coordinate out of float range "
                             "(about 1.8e308)") from None
    return PointSet(pts, label=label)


def _reference_serialize(points: PointSet, path, quantize: bool = False) -> None:
    lines = []
    rounded_any = False
    for x, y in points.coords.tolist():
        rx, ry = _round_half_away(x), _round_half_away(y)
        if rx != x or ry != y:
            rounded_any = True
        if rx < 0 or ry < 0:
            raise ValueError(f"cannot serialize negative coordinate ({x}, {y})")
        lines.append(f"{rx} {ry}\n")
    if rounded_any and not quantize:
        warnings.warn("non-integer coordinates rounded half away from zero "
                      f"while writing {path}", stacklevel=2)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def _round_half_away(value: float) -> int:
    # |value| - floor(|value|) is exact; |value| + 0.5 rounds above 2**52.
    whole = math.floor(abs(value))
    return (whole + (abs(value) - whole >= 0.5)) * (1 if value >= 0 else -1)


# Bytes that a coordinate file may or may not hold, and digit runs of the
# lengths where the conversion changes: 15 digits fit int64 exactly, 16
# and 17 may round, 19 may overflow int64, 310 significant digits are
# beyond the float range (the reference's int refuses more than 4 300).
_COORD_BYTES = [b"0", b"7", b" ", b"\n", b"\r", b"\t", b"\x0c", b"-", b"a", b"\x80", b"\xff"]
_digit_runs = st.sampled_from([1, 2, 3, 14, 15, 16, 17, 19, 309, 310, 330]).flatmap(
    lambda n: st.integers(0, 10 ** n - 1).map(lambda v: str(v).zfill(n).encode()))
_coord_lines = st.tuples(_digit_runs, _digit_runs,
                         st.sampled_from([b"\n", b"\r\n", b"\r", b""]),
                         st.sampled_from([b" ", b" ", b" ", b"  ", b"\t", b"\xff "])
                         ).map(lambda t: t[0] + t[3] + t[1] + t[2])
# The largest float as an integer, and half its unit in the last place.
_FLOAT_MAX, _HALF_ULP = int(np.finfo(np.float64).max), 2 ** 970
_coord_values = st.one_of(
    st.integers(0, 10 ** 6).map(float),
    st.integers(-3, 2 ** 54).map(lambda i: i / 2),
    st.floats(-1.0, 1e6),
    st.floats(2.0 ** 52, 1e300),
)


class TestCoordFileFormat:
    def test_parse_basic(self, tmp_path):
        path = write(tmp_path / "a.txt", "3 4\n10 20\n")
        pts = cli.parse_coord_file(path)
        assert pts.coords.tolist() == [[3.0, 4.0], [10.0, 20.0]]

    def test_empty_file_is_empty_set(self, tmp_path):
        path = write(tmp_path / "e.txt", "")
        assert len(cli.parse_coord_file(path)) == 0

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path / "bad.txt", "1 2\n3,4\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2"):
            cli.parse_coord_file(path)

    def test_rejects_negative_and_extra_spaces(self, tmp_path):
        for content in ("-1 2\n", "1  2\n", "1 2 3\n", "a b\n"):
            path = write(tmp_path / "x.txt", content)
            with pytest.raises(ValueError, match="malformed"):
                cli.parse_coord_file(path)

    def test_round_trip_1000_random_integer_points(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = PointSet(rng.integers(0, 5000, (1000, 2)).astype(float))
        path = tmp_path / "rt.txt"
        cli.serialize_coord_file(pts, path)
        first = path.read_bytes()
        parsed = cli.parse_coord_file(path)
        np.testing.assert_array_equal(parsed.coords, pts.coords)
        cli.serialize_coord_file(parsed, path)
        assert path.read_bytes() == first

    def test_non_integer_rounds_half_away_with_warning(self, tmp_path):
        pts = PointSet([(1.5, 2.4), (0.5, 3.6)])
        path = tmp_path / "r.txt"
        with pytest.warns(UserWarning, match="rounded"):
            cli.serialize_coord_file(pts, path)
        assert path.read_text() == "2 2\n1 4\n"

    def test_negative_coordinate_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="negative"):
            cli.serialize_coord_file(PointSet([(-3.0, 1.0)]), tmp_path / "n.txt")

    @pytest.mark.parametrize("data, expected", [
        (b"1 2\r3 4\r", [(1, 2), (3, 4)]),
        (b"1 2\r\n3 4\r\n", [(1, 2), (3, 4)]),
        (b"1 2\n3 4\r\n5 6\r7 8\n", [(1, 2), (3, 4), (5, 6), (7, 8)]),
        (b"1 2\n3 4", [(1, 2), (3, 4)]),
        (b"007 3\n", [(7, 3)]),
        (b"999999999999999 9007199254740993\n",
         [(999999999999999, float(int("9007199254740993")))]),
    ], ids=["cr", "crlf", "mixed", "no-final-newline", "leading-zeros", "15-16-digits"])
    def test_line_ends_and_fields(self, tmp_path, data, expected):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        assert cli.parse_coord_file(path).coords.tolist() == [list(p) for p in expected]

    @pytest.mark.parametrize("data, message", [
        (b"1 2\n\n", r"f\.txt:2: malformed coordinate line: ''$"),
        (b"1 2\r\n\r\n", r"f\.txt:2: malformed coordinate line: ''$"),
        (b"1 2\x0c", r"f\.txt:1: malformed coordinate line: '1 2\\x0c'$"),
    ], ids=["trailing-blank-line", "trailing-blank-crlf", "form-feed-is-no-line-end"])
    def test_malformed_at_its_number(self, tmp_path, data, message):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            cli.parse_coord_file(path)

    def test_first_bad_line_whatever_its_kind(self, tmp_path):
        # A long out-of-range field before a malformed line, and a
        # malformed line before a non-ASCII one: the earlier line is named.
        path = tmp_path / "f.txt"
        path.write_bytes(b"1 2\n" + b"9" * 400 + b" 1\n1,2\n")
        with pytest.raises(ValueError, match=r"f\.txt:2: coordinate out of float range"):
            cli.parse_coord_file(path)
        path.write_bytes(b"1 2\n1,2\n" + b"9" * 400 + b" \xff\n")
        with pytest.raises(ValueError, match=r"f\.txt:2: malformed coordinate line: '1,2'$"):
            cli.parse_coord_file(path)

    @pytest.mark.parametrize("digits", [4301, 5000])
    def test_fields_beyond_the_int_digit_limit(self, tmp_path, digits):
        # Python's int refuses strings of more than 4 300 digits.
        path = tmp_path / "f.txt"
        path.write_bytes(b"0" * digits + b"1 " + b"0" * digits + b"\n")
        assert cli.parse_coord_file(path).coords.tolist() == [[1.0, 0.0]]
        path.write_bytes(b"1 1\n2 " + b"1" * digits + b"\n")
        with pytest.raises(ValueError, match=r"f\.txt:2: coordinate out of float range "
                                             r"\(about 1\.8e308\)$"):
            cli.parse_coord_file(path)

    def test_one_long_field_among_many_costs_its_own_length(self, tmp_path):
        # A million leading zeros beside 2 000 sixteen-digit fields: the
        # parse stays linear in the file, with no buffer as wide as the
        # longest field for every long one.
        values = np.random.default_rng(0).integers(10 ** 15, 10 ** 16, (1000, 2))
        path = tmp_path / "f.txt"
        path.write_bytes(b"0" * 10 ** 6 + b"1 3\n"
                         + b"".join(b"%d %d\n" % (x, y) for x, y in values.tolist()))
        tracemalloc.start()
        try:
            coords = cli.parse_coord_file(path).coords
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coords.tolist() == [[1.0, 3.0]] + values.astype(float).tolist()
        assert peak < 64 * 2 ** 20

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.lists(st.one_of(st.sampled_from(_COORD_BYTES), _digit_runs), max_size=24),
        st.lists(_coord_lines, max_size=12)).map(b"".join))
    @example(data=b"0" * 300 + b"1 " + b"7" * 310 + b"\r\n")
    @example(data=b"9999999999999999999 12345678901234567\n")
    # The float maximum's rounding boundary: max + ulp/2 is the first
    # integer that rounds to inf.
    @example(data=b"%d %d\n%d 1\n" % (_FLOAT_MAX, _FLOAT_MAX + _HALF_ULP - 1,
                                       _FLOAT_MAX + _HALF_ULP))
    @example(data=b"1 %d\n" % (_FLOAT_MAX + 2 * _HALF_ULP))
    # Out of float range, with 325 significant digits.
    @example(data=b"0000016630645165165494178606613281463127763166112681862008471311857541"
                  b"0457962616032239348321303348817822246870734737337800933844176228051382"
                  b"5424304801184724948015596955698410225727624052228179932903741573472303"
                  b"7829992146511304796627272454818723672437510696787139013411491624253922"
                  b"56466620237542457026405301150339939863107754756426 0")
    def test_parse_equals_line_loop(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("diff") / "f.txt"
        path.write_bytes(data)
        try:
            expected = _reference_parse(path).coords
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                cli.parse_coord_file(path)
            assert str(got.value) == str(exc)
        else:
            coords = cli.parse_coord_file(path).coords
            assert coords.shape == expected.shape
            assert coords.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.tuples(_coord_values, _coord_values), max_size=20),
           quantize=st.booleans())
    @example(points=[(2.0 ** 53 - 0.5, 2.0 ** 70), (-0.4, 0.5)], quantize=False)
    @example(points=[(1.0, 2.5), (-0.5, 3.0)], quantize=False)
    @example(points=[(2.0 ** 63, 2.0 ** 64 - 2 ** 11)], quantize=True)
    def test_serialize_equals_line_loop(self, tmp_path_factory, points, quantize):
        folder = tmp_path_factory.mktemp("ser")
        pts = PointSet(points)
        outcomes = []
        for write, name in ((cli.serialize_coord_file, "new.txt"),
                            (_reference_serialize, "ref.txt")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    write(pts, folder / name, quantize=quantize)
                    written = (folder / name).read_bytes()
                except ValueError as exc:
                    written = str(exc)
            outcomes.append((written, [str(w.message).replace(name, "") for w in caught]))
        assert outcomes[0] == outcomes[1]


class TestMatchCommand:
    def test_identical_files(self, tmp_path, capsys):
        path = write(tmp_path / "p.txt", "1 1\n5 5\n9 1\n")
        out = tmp_path / "report.txt"
        code = cli.main(["match", path, path, "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "pair_count: 3" in text
        assert "total_weight: 3" in text
        assert "unmatched_pred: \n" in text.replace("unmatched_pred:", "unmatched_pred: ", 1) or \
            "unmatched_pred:" in text

    def test_empty_pred_all_gt_unmatched(self, tmp_path, capsys):
        pred = write(tmp_path / "p.txt", "")
        gt = write(tmp_path / "g.txt", "1 1\n2 2\n3 3\n4 4\n")
        assert cli.main(["match", pred, gt]) == 0
        out = capsys.readouterr().out
        assert "unmatched_gt: 0 1 2 3" in out

    def test_matches_library_result(self, tmp_path):
        rng = np.random.default_rng(1)
        gt_pts = PointSet(rng.integers(0, 64, (15, 2)).astype(float))
        pred_pts = PointSet(rng.integers(0, 64, (12, 2)).astype(float))
        gt = tmp_path / "g.txt"
        pred = tmp_path / "p.txt"
        cli.serialize_coord_file(gt_pts, gt)
        cli.serialize_coord_file(pred_pts, pred)
        out = tmp_path / "r.txt"
        assert cli.main(["match", str(pred), str(gt), "--out", str(out)]) == 0
        expected = match_points(pred_pts, gt_pts, MatchConfig())
        text = out.read_text()
        assert f"pair_count: {len(expected.pairs)}" in text
        assert f"total_weight: {format(expected.total_weight, '.12g')}" in text

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        gt = write(tmp_path / "g.txt", "1 1\n")
        assert cli.main(["match", str(tmp_path / "nope.txt"), gt]) == 2

    def test_distance_beyond_float_range_is_data_error(self, tmp_path, capsys):
        # (0, 0) to (1.5e308, 1.5e308) is about 2.1e308: the radius
        # distance overflows.
        far = int(1.5e308)
        pred = write(tmp_path / "p.txt", "0 0\n")
        gt = write(tmp_path / "g.txt", f"{far} {far}\n")
        assert cli.main(["match", pred, gt]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: a distance overflowed: the coordinates span "
                              "more than the float range")

    def test_coordinate_beyond_float_range_is_data_error(self, tmp_path, capsys):
        pred = write(tmp_path / "p.txt", "0 0\n" + "1" + "0" * 400 + " 0\n")
        gt = write(tmp_path / "g.txt", "1 1\n")
        with pytest.raises(ValueError, match=r"p\.txt:2: coordinate out of float range"):
            cli.parse_coord_file(pred)
        assert cli.main(["match", pred, gt]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "p.txt:2: coordinate out of float range" in err

    def test_deterministic_output_bytes(self, tmp_path):
        pred = write(tmp_path / "p.txt", "1 1\n7 3\n")
        gt = write(tmp_path / "g.txt", "2 1\n7 4\n9 9\n")
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        cli.main(["match", pred, gt, "--out", str(out1)])
        cli.main(["match", pred, gt, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestCoordFileBytes:
    def test_non_ascii_line_is_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 2\n3 4\n5 \xff6\n")
        with pytest.raises(ValueError, match=r"^.*bad\.txt:3: not ASCII text$"):
            cli.parse_coord_file(str(path))

    @pytest.mark.parametrize("command", ["match", "eval"])
    def test_non_ascii_line_exits_two_with_one_line(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2\n3 4\n5 \xff6\n")
        good = write(tmp_path / "good.txt", "1 2\n")
        assert cli.main([command, good, str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("bad.txt:3: not ASCII text")

    # Every integer up to 2**53 is a float64; odd ones above 2**52 have
    # no room for the half of half-away rounding.
    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(st.integers(0, 2 ** 53), st.integers(0, 2 ** 53)),
                           max_size=30))
    @example(points=[(2 ** 53 - 1, 2 ** 52 + 1), (2 ** 53, 0)])
    def test_integer_round_trip_is_byte_identical(self, tmp_path_factory, points):
        folder = tmp_path_factory.mktemp("txt")
        text = "".join(f"{x} {y}\n" for x, y in points)
        src = write(folder / "in.txt", text)
        cli.serialize_coord_file(cli.parse_coord_file(src), folder / "out.txt")
        assert (folder / "out.txt").read_bytes() == text.encode("ascii")

    def test_rounding_is_exact(self, tmp_path):
        out = tmp_path / "out.txt"
        points = PointSet([(0.49999999999999994, 2.5), (2.0 ** 70, 2 ** 53 - 1)])
        cli.serialize_coord_file(points, out, quantize=True)
        assert out.read_text() == f"0 3\n{2 ** 70} {2 ** 53 - 1}\n"


class TestEvalCommand:
    def test_single_equal_pair(self, tmp_path, capsys):
        path = write(tmp_path / "p.txt", "1 1\n4 4\n")
        assert cli.main(["eval", path, path]) == 0
        out = capsys.readouterr().out
        assert "mae: 0" in out

    def test_two_pairs_arithmetic(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "1 1\n2 2\n3 3\n")
        b = write(tmp_path / "b.txt", "1 1\n2 2\n3 3\n")
        c = write(tmp_path / "c.txt", "1 1\n")
        d = write(tmp_path / "d.txt", "1 1\n2 2\n3 3\n4 4\n5 5\n")
        assert cli.main(["eval", a, b, c, d]) == 0
        out = capsys.readouterr().out
        assert "mae: 2" in out
        assert "mse_paper: 2.82842712475" in out

    def test_manifest_and_report_file(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        lines = []
        for i in range(20):
            gt_pts = PointSet(rng.integers(0, 99, (int(rng.integers(3, 30)), 2)).astype(float))
            pred_pts = PointSet(rng.integers(0, 99, (int(rng.integers(3, 30)), 2)).astype(float))
            g = tmp_path / f"g{i}.txt"
            p = tmp_path / f"p{i}.txt"
            cli.serialize_coord_file(gt_pts, g)
            cli.serialize_coord_file(pred_pts, p)
            lines.append(f"{p}\t{g}")
        manifest = write(tmp_path / "cases.tsv", "\n".join(lines) + "\n")
        report = tmp_path / "report.txt"
        assert cli.main(["eval", "--manifest", manifest, "--report-out", str(report)]) == 0
        text = report.read_text()
        assert "images: 20" in text
        assert text.count("image: ") == 20
        # machine-readable values agree with the library aggregation
        from countmatch.metrics import aggregate_report, evaluate_case
        cases = []
        for line in lines:
            p, g = line.split("\t")
            cases.append(evaluate_case(
                p, cli.parse_coord_file(p), cli.parse_coord_file(g), tolerance=4.0))
        agg = aggregate_report(cases)
        assert f"mae: {format(agg.mae, '.12g')}" in text
        assert f"mse_paper: {format(agg.mse_paper, '.12g')}" in text

    def test_unreadable_pair_aborts_with_data_error(self, tmp_path, capsys):
        good = write(tmp_path / "g.txt", "1 1\n")
        assert cli.main(["eval", str(tmp_path / "missing.txt"), good]) == 2
        err = capsys.readouterr().err
        assert "missing.txt" in err

    def test_skip_missing(self, tmp_path, capsys):
        good = write(tmp_path / "g.txt", "1 1\n")
        code = cli.main(["eval", str(tmp_path / "missing.txt"), good, good, good,
                         "--skip-missing"])
        assert code == 0
        assert "mae: 0" in capsys.readouterr().out

    def test_odd_positional_count_is_data_error(self, tmp_path, capsys):
        good = write(tmp_path / "g.txt", "1 1\n")
        assert cli.main(["eval", good]) == 2

    def test_nothing_to_evaluate(self, capsys):
        assert cli.main(["eval"]) == 2


class TestKernelCommand:
    def test_stdout_csv(self, capsys):
        assert cli.main(["kernel", "--sigma", "1", "--size", "3"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        grid = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert grid.shape == (3, 3)
        assert grid[1, 1] == pytest.approx(1 / (2 * np.pi), rel=1e-12)

    def test_gradient_files(self, tmp_path):
        out = tmp_path / "k.csv"
        assert cli.main(["kernel", "--sigma", "2", "--size", "5", "--out", str(out),
                         "--gradients"]) == 0
        assert out.exists()
        for name in ("sigma", "dx", "dy", "sx", "sy"):
            side = tmp_path / f"k.d_{name}.csv"
            assert side.exists()
            assert np.loadtxt(side, delimiter=",").shape == (5, 5)

    def test_gradients_need_out(self, capsys):
        assert cli.main(["kernel", "--gradients"]) == 2

    def test_invalid_params_are_data_errors(self, capsys):
        assert cli.main(["kernel", "--sigma", "0.2"]) == 2
        assert cli.main(["kernel", "--size", "4"]) == 2


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert cli.main(["gradcheck", "--trials", "10"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_always_passes_at_tolerance_one(self, capsys):
        assert cli.main(["gradcheck", "--trials", "3", "--tolerance", "1.0"]) == 0

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        # Negative control: break one analytic gradient and expect a
        # nonzero exit.
        from countmatch import kernels

        true_gradients = kernels.kernel_gradients

        def corrupted(params, size):
            g = true_gradients(params, size)
            return kernels.KernelGradients(
                d_sigma=g.d_sigma * 1.05, d_dx=g.d_dx, d_dy=g.d_dy,
                d_sx=g.d_sx, d_sy=g.d_sy)

        monkeypatch.setattr(cli, "kernel_gradients", corrupted)
        assert cli.main(["gradcheck", "--trials", "3"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_invalid_trials(self, capsys):
        assert cli.main(["gradcheck", "--trials", "0"]) == 2

    @pytest.mark.parametrize("epsilon", [0.0, -1e-5, float("inf"), float("nan")])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            cli.run_gradcheck(1, 9, epsilon)

    def test_nan_relative_error_fails(self, capsys, monkeypatch):
        from countmatch import kernels

        true_gradients = kernels.kernel_gradients

        def nan_dx(params, size):
            g = true_gradients(params, size)
            return kernels.KernelGradients(
                d_sigma=g.d_sigma, d_dx=np.full_like(g.d_dx, np.nan), d_dy=g.d_dy,
                d_sx=g.d_sx, d_sy=g.d_sy)

        monkeypatch.setattr(cli, "kernel_gradients", nan_dx)
        worst, desc = cli.run_gradcheck(3, 9, 1e-5)
        assert math.isnan(worst) and desc == "trial 0, parameter dx"
        assert cli.main(["gradcheck", "--trials", "3"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("FAIL gradcheck: max relative error nan ")


class TestSynthCommand:
    def test_writes_deterministic_scene(self, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        args = ["synth", "--profile", "uniform", "--n", "50", "--width", "128",
                "--height", "128", "--seed", "9"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(cli.parse_coord_file(out1)) == 50

    def test_perturb_and_density_outputs(self, tmp_path):
        gt = tmp_path / "gt.txt"
        pred = tmp_path / "pred.txt"
        dmap = tmp_path / "map.dmap"
        code = cli.main(["synth", "--n", "20", "--width", "64", "--height", "64",
                        "--seed", "3", "--out", str(gt),
                         "--perturb-out", str(pred), "--drop", "0.2",
                         "--density-out", str(dmap)])
        assert code == 0
        assert gt.exists() and pred.exists() and dmap.exists()
        from countmatch.densitymap import load_binary
        dm = load_binary(dmap)
        assert (dm.height, dm.width) == (64, 64)

    def test_density_csv_extension(self, tmp_path):
        gt = tmp_path / "gt.txt"
        dmap = tmp_path / "map.csv"
        assert cli.main(["synth", "--n", "5", "--width", "32", "--height", "32",
                         "--out", str(gt), "--density-out", str(dmap)]) == 0
        from countmatch.densitymap import load_csv
        assert load_csv(dmap).values.shape == (32, 32)

    def test_density_csv_bytes_frozen(self, tmp_path):
        # %.17g writes every bit of every pixel sum, so this digest pins
        # the rendered values and their summation order. It assumes
        # numpy's float64 exp returns the same bits as where the digest
        # was taken (numpy 2.4 on x86-64).
        gt = tmp_path / "gt.txt"
        dmap = tmp_path / "map.csv"
        assert cli.main(["synth", "--n", "40", "--width", "48", "--height", "40",
                         "--jitter", "0.3", "--render-sigma", "1.5", "--seed", "7",
                         "--out", str(gt), "--density-out", str(dmap)]) == 0
        assert hashlib.sha256(dmap.read_bytes()).hexdigest() == (
            "4821f476e070b2d5747969f6972cade638a1699035ca953e5a4d96f9b6461f1c")

    def test_infeasible_scene_is_data_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--profile", "two_cluster", "--n", "500",
                         "--width", "16", "--height", "16",
                         "--out", str(tmp_path / "x.txt")])
        assert code == 2


class TestBenchCommand:
    def test_match_small(self, capsys):
        assert cli.main(["bench", "match-small"]) == 0
        out = capsys.readouterr().out
        assert "preset: match-small" in out
        assert "elapsed_s:" in out

    def test_conv(self, capsys):
        assert cli.main(["bench", "conv"]) == 0
        out = capsys.readouterr().out
        assert "scale_9_s:" in out

    def test_unknown_preset_is_usage_error(self, capsys):
        assert cli.main(["bench", "warp-speed"]) == 1


class TestExitCodeDiscipline:
    def test_usage_errors_exit_one(self, capsys):
        assert cli.main(["no-such-command"]) == 1
        assert cli.main([]) == 1
        assert cli.main(["match"]) == 1  # missing required positionals
        assert capsys.readouterr().out == ""
        # One out-of-radius rule: the flag that chose between two is gone.
        for value in ("forbid", "linear_penalty"):
            assert cli.main(["match", "a", "b", "--mode", value]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments" in captured.err

    def test_module_entry_point_exits_with_main_code(self, tmp_path):
        # python -m countmatch.cli runs run(), which exits with main()'s code.
        good = write(tmp_path / "good.txt", "1 1\n5 5\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(countmatch.__file__))}
        for other, code in ((good, 0), (str(tmp_path / "missing.txt"), 2)):
            child = subprocess.run([sys.executable, "-m", "countmatch.cli", "match", good, other],
                                   capture_output=True, text=True, env=env, timeout=60)
            assert child.returncode == code
            assert len(child.stderr.splitlines()) == (code != 0)
            assert "Traceback" not in child.stderr
            assert ("pred_count: 2" in child.stdout) == (code == 0)

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["match", "--help"]) == 0


class TestParserReuse:
    # main builds its parser once per process and finds the handler by
    # name at call time.
    def test_calls_are_independent(self, capsys):
        outputs = []
        for size in ("3", "5", "3"):
            assert cli.main(["kernel", "--size", size]) == 0
            outputs.append(capsys.readouterr().out)
        assert [len(out.splitlines()) for out in outputs] == [3, 5, 3]
        assert outputs[0] == outputs[2]

    def test_handler_replaced_after_a_call_is_called(self, capsys, monkeypatch):
        assert cli.main(["kernel", "--size", "3"]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_kernel", lambda args: seen.append(args.size) or 7)
        assert cli.main(["kernel", "--size", "5"]) == 7
        assert seen == [5]


def _contract_files(tmp_path):
    """Inputs for the CLI contract cases, keyed by name."""
    files = {
        "empty": b"",
        "crlf": b"1 1\r\n5 5\r\n9 1\r\n",
        "good": b"1 1\n5 5\n9 1\n",
        "non_ascii": "\u00e9 1\n\u4e2d 2\n".encode("utf-8"),
        # Beyond Python's 4 300-digit int limit: a leading-zero field
        # is 1, and 5 000 significant digits are beyond the float range.
        "leading_zeros": b"0" * 5000 + b"1 1\n5 5\n",
        "too_many_digits": b"1 1\n" + b"1" * 5000 + b" 1\n",
    }
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_bytes(data)
    paths["manifest"] = tmp_path / "manifest.tsv"
    paths["manifest"].write_text(f"{paths['good']}\t{paths['good']}\n"
                                 f"{tmp_path / 'missing.txt'}\t{paths['good']}\n")
    paths["manifest_non_utf8"] = tmp_path / "non_utf8.tsv"
    paths["manifest_non_utf8"].write_bytes(f"{paths['good']}\t{paths['good']}\n".encode()
                                           + b"\xff\tgood.txt\n")
    paths["out"] = tmp_path / "out.txt"
    return {k: str(v) for k, v in paths.items()}


_SYNTH = ["synth", "--n", "10", "--width", "64", "--height", "64", "--seed", "2",
          "--out", "{out}", "--perturb-out", "{out}.p"]


_CONTRACT_CASES = {
    "empty-pair-match": (["match", "{empty}", "{empty}"], 0),
    "empty-pair-eval": (["eval", "{empty}", "{empty}"], 0),
    "crlf": (["match", "{crlf}", "{good}"], 0),  # text mode reads CRLF as LF
    "non-ascii-match": (["match", "{non_ascii}", "{good}"], 2),
    "non-ascii-eval": (["eval", "{good}", "{non_ascii}"], 2),
    "leading-zeros-5000": (["match", "{leading_zeros}", "{good}"], 0),
    "digits-5000": (["match", "{too_many_digits}", "{good}"], 2),
    "k-0": (["match", "{good}", "{good}", "--k", "0"], 2),
    "sigma-nan": (["match", "{good}", "{good}", "--sigma-value", "nan"], 2),
    "manifest-missing": (["eval", "--manifest", "{manifest}"], 2),
    "manifest-skip-missing": (["eval", "--manifest", "{manifest}", "--skip-missing"], 0),
    "noise-inf": (_SYNTH + ["--noise", "inf"], 2),
    "noise-nan": (_SYNTH + ["--noise", "nan"], 2),
    "spurious-inf": (_SYNTH + ["--spurious", "inf"], 2),
    "epsilon-0": (["gradcheck", "--trials", "1", "--epsilon", "0"], 2),
    "manifest-non-utf8": (["eval", "--manifest", "{manifest_non_utf8}"], 2),
    # Refused allocations of 29 TiB: a MemoryError is a data error.
    "kernel-size-alloc": (["kernel", "--size", "2000001"], 2),
    "gradcheck-size-alloc": (["gradcheck", "--size", "2000001", "--trials", "1"], 2),
    # Axial scales whose Gaussian factors over- or underflow float64.
    "kernel-sx-huge": (["kernel", "--sx", "1e160"], 2),
    "kernel-sx-tiny": (["kernel", "--sx", "1e-160"], 2),
    "kernel-sy-huge": (["kernel", "--sy", "1e160"], 2),
    "kernel-sy-tiny": (["kernel", "--sy", "1e-160"], 2),
    # Just inside the rule: the offset terms overflow to coefficients of 0.
    "kernel-sx-tiny-inside": (["kernel", "--sigma", "1", "--sx", "2e-154", "--size", "9"], 0),
    "kernel-sx-tiny-inside-gradients": (["kernel", "--sigma", "1", "--sx", "2e-154", "--size",
                                         "9", "--gradients", "--out", "{out}.csv"], 0),
    # Off the grid every coefficient underflows: a zero sum cannot be renormalized.
    "kernel-renormalize-zero-sum": (["kernel", "--sigma", "1", "--sx", "2e-154", "--dx", "0.5",
                                     "--size", "3", "--renormalize"], 2),
    # 20 000 points a side: the grid path of the matcher, end to end.
    "very-large-files": (["match", "{pred_large}", "{gt_large}", "--out", "{out}"], 0),
    # 2 000 points: the bench preset on the grid path of the k-NN pass.
    "bench-match-large": (["bench", "match-large"], 0),
}


@pytest.fixture(scope="module")
def large_pair(tmp_path_factory):
    """A 20 000-point prediction and ground-truth file, written once."""
    folder = tmp_path_factory.mktemp("large")
    rng = np.random.default_rng(64)
    gt = np.round(rng.uniform(0, 2800, (20000, 2)))
    pred = np.abs(np.round(np.vstack([gt[:19000] + rng.normal(0, 1.0, (19000, 2)),
                                      rng.uniform(0, 2800, (1000, 2))])))
    paths = {"pred_large": folder / "pred.txt", "gt_large": folder / "gt.txt"}
    cli.serialize_coord_file(PointSet(pred), paths["pred_large"])
    cli.serialize_coord_file(PointSet(gt), paths["gt_large"])
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("argv, code", _CONTRACT_CASES.values(), ids=_CONTRACT_CASES.keys())
def test_cli_input_contract(tmp_path, capsys, large_pair, argv, code):
    # Every bad input is a data error with one line on stderr; an
    # exception escaping cli.main (a traceback) or a warning fails here.
    paths = {**_contract_files(tmp_path), **large_pair}
    assert cli.main([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == (0 if code == 0 else 1)
    if code == 0 and "{out}" in argv:
        assert (tmp_path / "out.txt").read_text().startswith("pred_count: ")


def _synth_argv(folder, *flags):
    return ["synth", "--n", "10", "--out", str(folder / "o.txt"),
            *(f.format(dir=folder) for f in flags)]


# A data error or a failed write leaves no file behind.
_SYNTH_ERRORS = {
    "render-sigma-inf": (["--render-sigma", "inf", "--density-out", "{dir}/m.csv"],
                         "invalid sigma"),
    # 2 sigma^2 underflows to 0, 1 / (2 sigma^2) overflows, 8 sigma overflows.
    **{f"render-sigma-{s}": (["--render-sigma", s, "--density-out", "{dir}/m.csv"],
                             "invalid sigma")
       for s in ("1e-300", "1e-160", "1e308")},
    "width-beyond-float": (["--width", "1" + "0" * 400], "within the float range"),
    "drop-2": (["--perturb-out", "{dir}/p.txt", "--drop", "2"], "drop_rate must lie in [0, 1]"),
    "dmap-beyond-float32": (["--profile", "two_cluster", "--width", "64", "--height", "64",
                             "--spacing-sparse", "12", "--render-sigma", "1e-20",
                             "--density-out", "{dir}/m.dmap"], "float32 maximum"),
    **{f"spacing-nan-{p.value}": (["--profile", p.value, "--spacing-dense", "nan"],
                                  "spacings must be positive and finite")
       for p in DensityProfile},
    # A 1e8 x 1e8 map is a refused allocation of 71 PiB.
    "density-alloc": (["--width", "100000000", "--height", "100000000",
                       "--density-out", "{dir}/m.dmap"], "Unable to allocate"),
    # A later file that cannot be written removes the files written before it.
    "perturb-out-missing-dir": (["--perturb-out", "{dir}/nodir/p.txt"], "nodir/p.txt"),
    "perturb-out-missing-dir-after-map": (["--density-out", "{dir}/m.csv",
                                           "--perturb-out", "{dir}/nodir/p.txt"], "nodir/p.txt"),
}


@pytest.mark.parametrize("flags, message", _SYNTH_ERRORS.values(), ids=_SYNTH_ERRORS.keys())
def test_synth_data_error_writes_nothing(tmp_path, capsys, flags, message):
    assert cli.main(_synth_argv(tmp_path, *flags)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and message in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["kernel", "--gradients"], "--gradients needs --out"),
    (["eval", "{good}", "{good}", "--report-out", "{missing_dir}/r.txt"], "nodir"),
])
def test_failing_command_prints_nothing(tmp_path, capsys, argv, message):
    paths = {"good": write(tmp_path / "good.txt", "1 1\n5 5\n"),
             "missing_dir": str(tmp_path / "nodir")}
    assert cli.main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and message in captured.err

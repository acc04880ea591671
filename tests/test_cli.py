import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from axibeam.cli import main

from _polytopes import cell_24


def run_cli(*args, check=True):
    """Invoke the CLI in-process; returns (returncode, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse validation failures
            code = exc.code if isinstance(exc.code, int) else 2
    proc = SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def run_cli_subprocess(*args):
    return subprocess.run(
        [sys.executable, "-m", "axibeam", *args], capture_output=True, text=True
    )


def parse_csv(text):
    provenance, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            provenance[key.strip()] = val.strip()
            continue
        cells = line.split(",")
        if columns is None:
            columns = cells
        else:
            rows.append(cells)
    return provenance, columns, rows


class TestWeightsCommand:
    def test_basic_second_order(self):
        out = run_cli("weights", "--design", "basic", "--order", "2", "--dim", "3").stdout
        _, columns, rows = parse_csv(out)
        assert columns == ["n", "a_n"]
        assert [r[1] for r in rows] == ["1", "1", "1"]

    def test_maxre_reports_root(self):
        out = run_cli("weights", "--design", "maxre", "--order", "3", "--dim", "2").stdout
        prov, _, _ = parse_csv(out)
        assert float(prov["r_e_max"]) == pytest.approx(math.cos(math.pi / 8.0), abs=1e-11)

    def test_inphase_values(self):
        out = run_cli("weights", "--design", "inphase", "--order", "1", "--dim", "3").stdout
        _, _, rows = parse_csv(out)
        assert float(rows[0][1]) == 1.0
        assert float(rows[1][1]) == pytest.approx(1.0 / 3.0, rel=1e-11)

    def test_norm_flag(self):
        out = run_cli(
            "weights", "--design", "maxflat", "--order", "3", "--flat-l", "1",
            "--dim", "3", "--norm", "a0",
        ).stdout
        _, _, rows = parse_csv(out)
        assert float(rows[0][1]) == 1.0

    @pytest.mark.parametrize(
        "design, flag",
        [
            ("maxflat", "--flat-l"),
            ("cap", "--cap-x0"),
            ("cap-trapezoid", "--spacing-deg"),
            (None, "--design"),
        ],
        ids=["maxflat", "cap", "cap-trapezoid", "no-design"],
    )
    def test_missing_design_parameter_exits_2(self, design, flag):
        args = ("--design", design) if design else ()
        proc = run_cli("weights", *args, "--order", "3", check=False)
        assert proc.returncode == 2
        assert flag in proc.stderr

    def test_cap_needs_exactly_one_boundary(self):
        proc = run_cli(
            "weights", "--design", "cap", "--order", "2",
            "--cap-x0", "0.5", "--cap-angle-deg", "80", check=False,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("angle", ["0", "360", "540", "-30", "1e300", "inf", "nan"])
    def test_cap_angle_outside_open_range_exits_2(self, angle):
        proc = run_cli("weights", "--design", "cap", "--order", "2",
                       "--cap-angle-deg", angle, check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("axibeam: --cap-angle-deg must satisfy 0 < angle < 360")

    @pytest.mark.parametrize(
        "args, a0, key, value",
        [
            (("--design", "cap", "--cap-x0", "0.25"), 0.75, "cap_x0", 0.25),
            (("--design", "cap-trapezoid", "--spacing-deg", "40"),
             (1.0 - math.cos(math.radians(27.5))) * (1.0 - math.cos(math.radians(15.0))),
             "spacing_deg", 40.0),
        ],
        ids=["cap-x0", "cap-trapezoid"],
    )
    def test_cap_designs(self, args, a0, key, value):
        # D = 3: a cap's a_0 is its mass 1 - x0, a trapezoid's the product of two
        out = run_cli("weights", *args, "--order", "3", "--dim", "3").stdout
        prov, _, rows = parse_csv(out)
        assert float(prov[key]) == value
        assert float(rows[0][1]) == pytest.approx(a0, rel=1e-11)
        assert len(rows) == 4

    def test_argparse_validation_exit_code(self):
        proc = run_cli("weights", "--design", "nope", "--order", "2", check=False)
        assert proc.returncode == 2

    def test_invalid_dimension_exits_2(self):
        proc = run_cli("weights", "--design", "basic", "--order", "2",
                       "--dim", "1.5", check=False)
        assert proc.returncode == 2

    def test_dimension_above_max_exits_2(self):
        proc = run_cli("weights", "--design", "basic", "--order", "2",
                       "--dim", "400", check=False)
        assert proc.returncode == 2


class TestMetricsCommand:
    def test_basic_sphere_directivity_column(self):
        out = run_cli(
            "metrics", "--design", "basic", "--orders", "1..5", "--dim", "3"
        ).stdout
        _, columns, rows = parse_csv(out)
        q = [float(r[columns.index("q")]) for r in rows]
        assert q == pytest.approx([4.0, 9.0, 16.0, 25.0, 36.0], rel=1e-11)

    def test_basic_circle_zero_spread(self):
        out = run_cli("metrics", "--design", "basic", "--order", "1", "--dim", "2").stdout
        _, columns, rows = parse_csv(out)
        assert float(rows[0][columns.index("rv_spread_deg")]) == 0.0

    def test_supercardioid_fbr_regression_sphere(self):
        out = run_cli(
            "metrics", "--design", "supercard", "--orders", "1..5", "--dim", "3"
        ).stdout
        _, columns, rows = parse_csv(out)
        db = np.array([float(r[columns.index("fbr_db")]) for r in rows])
        slope, intercept = np.polyfit(np.arange(1, 6), db, 1)
        assert abs(slope - 13.75) < 0.5
        assert abs(intercept + 3.0) < 0.5

    def test_weights_file_round_trip(self, tmp_path):
        path = tmp_path / "weights.csv"
        run_cli(
            "weights", "--design", "inphase", "--order", "4", "--dim", "3",
            "--out", str(path),
        )
        direct = run_cli("metrics", "--design", "inphase", "--order", "4", "--dim", "3").stdout
        via_file = run_cli("metrics", "--weights-file", str(path), "--dim", "3").stdout
        _, cols_a, rows_a = parse_csv(direct)
        _, cols_b, rows_b = parse_csv(via_file)
        # the weights file quantizes to 12 significant digits, so metric
        # values re-derived from it can move in the last digit
        for col in ("q", "rv_spread_deg", "re_spread_deg", "fbr_db"):
            assert float(rows_b[0][cols_b.index(col)]) == pytest.approx(
                float(rows_a[0][cols_a.index(col)]), rel=1e-9
            )

    def test_weights_file_parse_error_exits_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,header\n1,2,3\n")
        proc = run_cli("metrics", "--weights-file", str(path), "--dim", "3", check=False)
        assert proc.returncode == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_weights_file_non_finite_exits_3(self, tmp_path, bad):
        path = tmp_path / "weights.csv"
        path.write_text(f"n,a_n\n0,1\n1,{bad}\n")
        proc = run_cli("metrics", "--weights-file", str(path), "--dim", "3", check=False)
        assert proc.returncode == 3
        assert "line 3" in proc.stderr

    def test_weights_file_all_zero_is_typed_error(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("n,a_n\n0,0\n1,0\n2,0\n")
        proc = run_cli("metrics", "--weights-file", str(path), "--dim", "3", check=False)
        assert proc.returncode in (2, 3)
        assert "zero energy" in proc.stderr

    def test_weights_file_back_dominant_pattern(self, tmp_path):
        # the mirrored supercardioid has FBR -229.7 dB, far below the analytic
        # quadratic form's floor, where the computed FBR is rounding noise
        from axibeam import Dimension, supercardioid

        a = supercardioid(16, Dimension(3.0)).a * (-1.0) ** np.arange(17)
        path = tmp_path / "mirrored.csv"
        path.write_text("n,a_n\n" + "".join(f"{n},{float(v)!r}\n" for n, v in enumerate(a)))
        proc = run_cli("metrics", "--weights-file", str(path), "--dim", "3")
        _, columns, rows = parse_csv(proc.stdout)
        fbr_db = float(rows[0][columns.index("fbr_db")])
        assert math.isnan(fbr_db) or fbr_db < -150.0

    def test_nonpositive_fbr_has_no_db_value(self):
        from axibeam.cli import _fbr_db

        assert math.isnan(_fbr_db(-3.8e-16))
        assert math.isnan(_fbr_db(0.0))
        assert _fbr_db(100.0) == pytest.approx(20.0, abs=1e-12)

    def test_needs_source(self):
        proc = run_cli("metrics", "--dim", "3", "--order", "2", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args, message",
        [((), "needs --order or --orders"), (("--orders", "1..x"), "cannot parse --orders"),
         (("--orders", "5..2"), "invalid order range"),
         (("--orders", "1:3"), "cannot parse --orders")],
        ids=["no-order", "orders-not-int", "orders-descending", "orders-colon"],
    )
    def test_bad_order_selection_exits_2(self, args, message):
        proc = run_cli("metrics", "--design", "basic", "--dim", "3", *args, check=False)
        assert proc.returncode == 2
        assert proc.stdout == "" and message in proc.stderr

    def test_weights_file_zero_pressure_has_no_rv_spread(self, tmp_path):
        # a_0 = 0 leaves rV = a_1/a_0 undefined; the other columns stay finite
        path = tmp_path / "dipole.csv"
        path.write_text("n,a_n\n0,0\n1,1\n")
        _, columns, rows = parse_csv(run_cli("metrics", "--weights-file", str(path)).stdout)
        assert rows[0][columns.index("rv_spread_deg")] == "nan"
        assert math.isfinite(float(rows[0][columns.index("re_spread_deg")]))


class TestPatternCommand:
    def test_cardioid_null_clamped(self):
        out = run_cli(
            "pattern", "--design", "inphase", "--order", "1", "--dim", "3",
            "--samples", "19",
        ).stdout
        _, columns, rows = parse_csv(out)
        last = rows[-1]
        assert float(last[columns.index("phi_deg")]) == 180.0
        assert float(last[columns.index("g")]) == pytest.approx(0.0, abs=1e-15)
        assert float(last[columns.index("db")]) == -120.0

    def test_on_axis_reference_level(self):
        out = run_cli(
            "pattern", "--design", "maxre", "--order", "3", "--dim", "2",
            "--samples", "10",
        ).stdout
        _, columns, rows = parse_csv(out)
        assert float(rows[0][columns.index("db")]) == 0.0

    def test_basic_matches_kernel_closed_form(self):
        from axibeam import Dimension, cd_kernel

        out = run_cli(
            "pattern", "--design", "basic", "--order", "5", "--dim", "3",
            "--samples", "37",
        ).stdout
        _, columns, rows = parse_csv(out)
        dim = Dimension(3.0)
        for row in rows:
            x = float(row[columns.index("x")])
            g = float(row[columns.index("g")])
            assert g == pytest.approx(
                cd_kernel(x, 1.0, 5, dim) / dim.subsurface, rel=1e-9, abs=1e-12
            )

    def test_sample_count_validation(self):
        proc = run_cli("pattern", "--design", "basic", "--order", "2",
                       "--samples", "1", check=False)
        assert proc.returncode == 2


class TestTDesignCommand:
    def test_icosahedron_passes(self):
        proc = run_cli("tdesign", "--builtin", "icosahedron", "--t", "5")
        assert proc.returncode == 0

    def test_cube_fails_degree_four(self):
        proc = run_cli("tdesign", "--builtin", "cube", "--t", "4", check=False)
        assert proc.returncode == 1

    def test_ring_aliasing_threshold(self):
        assert run_cli("tdesign", "--circle", "8", "--t", "7").returncode == 0
        proc = run_cli("tdesign", "--circle", "8", "--t", "8", check=False)
        assert proc.returncode == 1

    @pytest.mark.parametrize("text, t, dim", [
        ("1,0,0\n-1,0,0\n0,1,0\n0,-1,0\n0,0,1\n0,0,-1\n", 3, "3"),
        ("".join(",".join(f"{c:.17g}" for c in row) + "\n" for row in cell_24().nodes), 5, "4"),
    ], ids=["octahedron", "24-cell"])
    def test_nodes_file(self, tmp_path, text, t, dim):
        path = tmp_path / "nodes.csv"
        path.write_text(text)
        proc = run_cli("tdesign", "--nodes-file", str(path), "--t", str(t))
        assert proc.returncode == 0
        assert parse_csv(proc.stdout)[0]["node_dim"] == dim

    def test_missing_file_exits_3(self, tmp_path):
        proc = run_cli(
            "tdesign", "--nodes-file", str(tmp_path / "nope.csv"), "--t", "2",
            check=False,
        )
        assert proc.returncode == 3

    def test_bad_file_exits_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.2,0,0\n")
        proc = run_cli("tdesign", "--nodes-file", str(path), "--t", "2", check=False)
        assert proc.returncode == 3

    def test_needs_exactly_one_source(self):
        proc = run_cli("tdesign", "--builtin", "cube", "--circle", "4", "--t", "2",
                       check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("option", ["--dim", "--trials", "--seed"])
    def test_not_an_option(self, option):
        # the node set fixes the dimension, and the check, which takes the
        # nodes as its axes, has no orientation count or seed; argparse rejects them
        proc = run_cli("tdesign", "--builtin", "cube", "--t", "2", option, "3", check=False)
        assert proc.returncode == 2

    def test_non_finite_offset_exits_2(self):
        proc = run_cli("tdesign", "--circle", "8", "--offset-deg", "nan", "--t", "2",
                       check=False)
        assert proc.returncode == 2
        assert "finite" in proc.stderr


# undecodable input: a UTF-16 byte-order mark and a NUL
NOT_UTF8 = b"\xff\xfe\x00" + "n,a_n\n0,1\n".encode("utf-16-le")


class TestFileErrors:
    """Every unreadable or malformed input file exits 3 with one `axibeam:` line."""

    CASES = [
        ("--weights-file", None),
        ("--weights-file", "dir"),
        ("--weights-file", NOT_UTF8),
        ("--weights-file", "n,value\n0,1\n"),
        ("--weights-file", "n,a_n\n0,1\n1\n"),
        ("--weights-file", "n,a_n\n0,1\n2,0.5\n"),
        ("--weights-file", "n,a_n\n0,1\n1,nan\n"),
        ("--weights-file", "n,a_n\n0,1\n1,0.5\n1,9\n"),
        ("--weights-file", "n,a_n\n0,1\n1,0.5,junk\n"),
        ("--weights-file", "n,a_n\n"),
        ("--nodes-file", None),
        ("--nodes-file", "dir"),
        ("--nodes-file", NOT_UTF8),
        ("--nodes-file", "1,0,0\nfoo,0,0\n"),
        ("--nodes-file", "1,0,0\n0,1\n"),
        ("--nodes-file", "1,0,0\n0,inf,0\n"),
    ]
    IDS = ["weights-missing", "weights-dir", "weights-not-utf8", "weights-header",
           "weights-row", "weights-gap", "weights-nan", "weights-repeat",
           "weights-extra-field", "weights-header-only", "nodes-missing", "nodes-dir",
           "nodes-not-utf8", "nodes-row", "nodes-columns", "nodes-inf"]

    @staticmethod
    def _argv(flag, path):
        if flag == "--weights-file":
            return ("metrics", flag, str(path), "--dim", "3")
        return ("tdesign", flag, str(path), "--t", "2")

    @staticmethod
    def _input(tmp_path, content):
        path = tmp_path / "input.csv"
        if content == "dir":
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        return path

    @pytest.mark.parametrize("flag,content", CASES, ids=IDS)
    def test_exits_3_with_one_line(self, tmp_path, flag, content):
        proc = run_cli(*self._argv(flag, self._input(tmp_path, content)), check=False)
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("axibeam: ")

    @pytest.mark.parametrize("flag", ["--weights-file", "--nodes-file"])
    def test_not_utf8_exits_3_without_traceback(self, tmp_path, flag):
        proc = run_cli_subprocess(*self._argv(flag, self._input(tmp_path, NOT_UTF8)))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("axibeam: ") and "not UTF-8" in proc.stderr

    def test_out_into_missing_directory_exits_3(self, tmp_path):
        proc = run_cli("weights", "--design", "basic", "--order", "2",
                       "--out", str(tmp_path / "missing" / "w.csv"), check=False)
        assert proc.returncode == 3
        assert proc.stderr.startswith("axibeam: ") and len(proc.stderr.splitlines()) == 1


class TestSizeCaps:
    # one past each cap: small enough to run, so a missing cap shows as exit 0/1
    @pytest.mark.parametrize(
        "args",
        [
            ("weights", "--design", "basic", "--order", "129"),
            ("metrics", "--design", "basic", "--orders", "0..129"),
            ("metrics", "--design", "basic", "--orders", "1,129"),
            ("pattern", "--design", "basic", "--order", "2", "--samples", "100001"),
            ("tdesign", "--builtin", "cube", "--t", "257"),
            ("tdesign", "--circle", "2049", "--t", "2"),
            # (t+1) * nodes^2 = 33 * 2048^2, just past 2^27
            ("tdesign", "--circle", "2048", "--t", "32"),
        ],
        ids=["order", "orders-range", "orders-list", "samples", "t", "nodes",
             "tdesign-cells"],
    )
    def test_value_past_cap_exits_2(self, args):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2
        assert "must lie in" in proc.stderr

    def test_values_at_cap_accepted(self):
        run_cli("weights", "--design", "basic", "--order", "128")
        for dim in ("3", "64"):
            out = run_cli("weights", "--design", "supercard", "--order", "128",
                          "--dim", dim).stdout
            _, _, rows = parse_csv(out)
            assert len(rows) == 129
            assert all(math.isfinite(float(r[1])) for r in rows)
        proc = run_cli("tdesign", "--builtin", "octahedron", "--t", "256", check=False)
        assert proc.returncode == 1


class TestOutputContracts:
    COMMANDS = [
        ("weights", "--design", "basic", "--order", "2", "--dim", "3"),
        ("weights", "--design", "maxre", "--order", "3", "--dim", "2"),
        ("weights", "--design", "cap", "--order", "4", "--cap-angle-deg", "80", "--dim", "3"),
        ("metrics", "--design", "inphase", "--orders", "1..4", "--dim", "2.5"),
        ("pattern", "--design", "supercard", "--order", "3", "--dim", "3", "--samples", "25"),
        ("tdesign", "--builtin", "dodecahedron", "--t", "5"),
        ("weights", "--design", "cap", "--order", "4", "--cap-x0", "0.3", "--dim", "2.5"),
        ("weights", "--design", "cap-trapezoid", "--order", "3", "--spacing-deg", "20"),
    ]

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: "_".join(a[:2]))
    def test_byte_identical_reruns(self, args):
        first = run_cli(*args, check=False)
        second = run_cli(*args, check=False)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: "_".join(a[:2]))
    def test_csv_json_round_trip(self, args):
        csv_out = run_cli(*args, check=False).stdout
        json_out = run_cli(*args, "--format", "json", check=False).stdout
        prov_csv, columns_csv, rows_csv = parse_csv(csv_out)
        payload = json.loads(json_out)
        assert payload["columns"] == columns_csv
        assert len(payload["rows"]) == len(rows_csv)
        for jrow, crow in zip(payload["rows"], rows_csv):
            for jcell, ccell in zip(jrow, crow):
                if isinstance(jcell, str):
                    assert jcell == ccell
                else:
                    assert float(ccell) == jcell
        for key, val in payload["provenance"].items():
            if isinstance(val, bool):
                assert prov_csv[key] == ("true" if val else "false")
                continue
            assert key in prov_csv
            if isinstance(val, (int, float)):
                assert float(prov_csv[key]) == pytest.approx(float(val), rel=1e-12)
            else:
                assert prov_csv[key] == str(val)

    def test_out_file_matches_stdout(self, tmp_path):
        path = tmp_path / "out.csv"
        stdout = run_cli("weights", "--design", "basic", "--order", "3", "--dim", "3").stdout
        run_cli(
            "weights", "--design", "basic", "--order", "3", "--dim", "3",
            "--out", str(path),
        )
        assert path.read_text() == stdout


class TestSubprocessEntryPoints:
    """Interpreter-level smoke tests; everything else runs in-process."""

    def test_module_entry_point(self):
        proc = run_cli_subprocess("weights", "--design", "basic", "--order", "1")
        assert proc.returncode == 0
        assert "a_n" in proc.stdout

    def test_exit_code_propagates(self):
        proc = run_cli_subprocess("tdesign", "--builtin", "cube", "--t", "4")
        # a child that cannot import axibeam also exits 1, but prints no table
        assert proc.returncode == 1
        assert "degree,max_abs_error" in proc.stdout.splitlines()

    def test_subprocess_reruns_byte_identical(self):
        args = ("metrics", "--design", "maxre", "--orders", "1..3", "--dim", "3")
        first = run_cli_subprocess(*args)
        assert first.returncode == 0
        _, columns, rows = parse_csv(first.stdout)
        assert columns[:3] == ["design", "order", "q"]
        assert rows
        assert run_cli_subprocess(*args).stdout == first.stdout

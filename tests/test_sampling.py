import math
import tracemalloc
import warnings

import numpy as np
import pytest

from axibeam import (
    Dimension,
    DomainError,
    NormError,
    ParseError,
    WeightVector,
    basic,
    circle_nodes,
    compute_metrics,
    discrete_metrics,
    eval_pattern,
    load_nodes,
    max_re,
    platonic,
    tdesign_check,
)
from axibeam import sampling
from axibeam.errors import _file_lines
from axibeam.sampling import MAX_NODES, PLATONIC_NAMES, NodeSet

from _polytopes import cell_24, cell_600

D2 = Dimension(2.0)
D3 = Dimension(3.0)


class TestNodeSet:
    def test_rejects_non_unit(self):
        with pytest.raises(NormError):
            NodeSet(3, [[0.5, 0.0, 0.0]])

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            NodeSet(2, [[1.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("ambient", [2, 3])
    def test_duplicate_threshold_is_1e9_rad(self, ambient):
        # p and a unit u orthogonal to it; the pair is t rad apart
        if ambient == 2:
            p, u = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        else:
            p, u = np.ones(3) / math.sqrt(3.0), np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)

        def pair(t):
            return [p, math.cos(t) * p + math.sin(t) * u]

        NodeSet(ambient, pair(1e-8))
        with pytest.raises(DomainError, match="duplicate"):
            NodeSet(ambient, pair(1e-10))

    @pytest.mark.parametrize("dim", [0, 1, 65, 2.5])
    def test_rejects_bad_dim(self, dim):
        with pytest.raises(DomainError, match="integer >= 2 and <= 64"):
            NodeSet(dim, [[1.0, 0.0]])

    def test_integer_dims_stored_as_int(self):
        assert NodeSet(4, [[0.0, 0.0, 0.0, 1.0]]).dim == 4
        nodes = NodeSet(3.0, [[0.0, 0.0, 1.0]])
        assert nodes.dim == 3 and type(nodes.dim) is int

    @pytest.mark.parametrize("dim, nodes", [(3, [[1.0, 0.0]]), (2, [[1.0, 0.0, 0.0]])])
    def test_rejects_wrong_column_count(self, dim, nodes):
        with pytest.raises(DomainError, match=f"\\(L, {dim}\\)"):
            NodeSet(dim, nodes)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "ab"])
    def test_rejects_non_finite_coordinates(self, bad):
        # DomainError, not NormError: NaN slips through the unit-norm test,
        # and a string is no number at all
        with pytest.raises(DomainError, match="finite"):
            NodeSet(2, [[bad, 0.0]])
        with pytest.raises(DomainError, match="finite"):
            NodeSet(3, [[1.0, 0.0, 0.0], [0.0, bad, 0.0]])

    def test_rejects_more_than_max_nodes(self):
        # distinct unit vectors, so only the count cap can reject them
        ang = 2.0 * math.pi * np.arange(MAX_NODES + 1) / (MAX_NODES + 1)
        with pytest.raises(DomainError, match=f"<= {MAX_NODES}"):
            NodeSet(2, np.column_stack([np.cos(ang), np.sin(ang)]))


class TestCircleNodes:
    def test_square_layout(self):
        nodes = circle_nodes(4)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert nodes.nodes == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("count", [0, MAX_NODES + 1])
    def test_count_validation(self, count):
        with pytest.raises(DomainError):
            circle_nodes(count)

    @pytest.mark.parametrize("count", [2.5, "3", None, math.nan])
    def test_non_integral_count_rejected(self, count):
        # 2.5 would otherwise space 3 nodes 144 degrees apart, labelled circle-2.5
        with pytest.raises(DomainError, match="node count must be an integer"):
            circle_nodes(count)

    def test_integral_float_count(self):
        ring = circle_nodes(3.0)
        assert ring.label == "circle-3"
        assert np.array_equal(ring.nodes, circle_nodes(3).nodes)

    def test_non_finite_offset_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            circle_nodes(4, math.nan)

    def test_offset_rotates(self):
        nodes = circle_nodes(3, offset_rad=0.5)
        assert nodes.nodes[0] == pytest.approx([math.cos(0.5), math.sin(0.5)])

    def test_ring_is_tdesign_up_to_count_minus_one(self):
        for count in (4, 7, 10):
            assert tdesign_check(circle_nodes(count), count - 1).passed
            assert not tdesign_check(circle_nodes(count), count).passed

    def test_three_nodes_fail_degree_three(self):
        report = tdesign_check(circle_nodes(3), 3)
        assert not report.passed
        # degrees 1 and 2 are still exact
        assert report.per_degree_errors[0] < 1e-12
        assert report.per_degree_errors[1] < 1e-12
        assert report.per_degree_errors[2] > 1e-3


class TestPlatonic:
    @pytest.mark.parametrize(
        "name,count,t_pass,t_fail",
        [
            ("tetrahedron", 4, 2, 3),
            ("octahedron", 6, 3, 4),
            ("cube", 8, 3, 4),
            ("icosahedron", 12, 5, 6),
            ("dodecahedron", 20, 5, 6),
        ],
    )
    def test_vertex_counts_and_design_strength(self, name, count, t_pass, t_fail):
        nodes = platonic(name)
        assert nodes.count == count
        exact = tdesign_check(nodes, t_pass)
        assert exact.passed and exact.max_abs_error <= 1e-13
        assert not tdesign_check(nodes, t_fail).passed

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            platonic("hexagon")


class TestLoadNodes:
    @pytest.mark.parametrize("nodes", [platonic("icosahedron"), cell_24()],
                             ids=["icosahedron", "24-cell"])
    def test_cartesian_round_trip(self, tmp_path, nodes):
        path = tmp_path / "nodes.csv"
        path.write_text(
            "# vertices\n"
            + "\n".join(",".join(f"{c:.17g}" for c in row) for row in nodes.nodes)
        )
        loaded = load_nodes(path)
        assert loaded.dim == nodes.dim
        assert loaded.count == nodes.count
        assert loaded.nodes == pytest.approx(nodes.nodes, abs=1e-12)

    def test_azimuth_zenith_conversion(self, tmp_path):
        path = tmp_path / "azzen.csv"
        path.write_text("0,90\n90,90\n0,0\n")
        loaded = load_nodes(path)
        expected = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        assert loaded.nodes == pytest.approx(expected, abs=1e-12)

    def test_single_column_azimuth(self, tmp_path):
        path = tmp_path / "ring.csv"
        path.write_text("0\n90\n180\n270\n")
        loaded = load_nodes(path)
        assert loaded.dim == 2
        assert loaded.nodes == pytest.approx(
            np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float), abs=1e-12
        )

    def test_two_column_unit_rows_read_as_2d(self, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("1,0\n0,1\n-1,0\n")
        loaded = load_nodes(path)
        assert loaded.dim == 2

    def test_two_column_forced_3d(self, tmp_path):
        path = tmp_path / "azzen2.csv"
        path.write_text("0,90\n90,90\n")
        loaded = load_nodes(path, dim=3)
        assert loaded.dim == 3

    @pytest.mark.parametrize("dim", [0, 1, 2.5, "3", 65])
    def test_dim_not_an_integer_from_2_to_64(self, tmp_path, dim):
        path = tmp_path / "xy.csv"
        path.write_text("1,0\n0,1\n")
        with pytest.raises(DomainError, match="dim must be an integer >= 2 and <= 64"):
            load_nodes(path, dim=dim)

    def test_dim_four_reads_four_columns(self, tmp_path):
        path = tmp_path / "s3.csv"
        path.write_text("1,0,0,0\n0,1,0,0\n0,0,0,-1\n")
        forced, found = load_nodes(path, dim=4), load_nodes(path)
        assert forced.dim == found.dim == 4
        assert np.array_equal(forced.nodes, found.nodes)

    @pytest.mark.parametrize(
        "text, dim, message",
        [("1,0,0\n0,1,0\n", 2, "3-column file cannot be a 2-d"),
         ("0\n90\n", 3, "1-column file cannot be a 3-d"),
         ("1,0,0,0\n0,1,0,0\n", 3, "4-column file cannot be a 3-d"),
         # without the check a two-column file reads as azimuth/zenith for any dim but 2
         ("1,0\n0,1\n", 4, "2-column file cannot be a 4-d"),
         ("1,0\n0,1\n", 5, "2-column file cannot be a 5-d"),
         (",".join(["0"] * 64 + ["1"]) + "\n", None, "expected 1 to 64 columns, got 65")],
        ids=["3-columns-as-2d", "1-column-as-3d", "4-columns-as-3d", "2-columns-as-4d",
             "2-columns-as-5d", "65-columns"],
    )
    def test_columns_do_not_fit(self, tmp_path, text, dim, message):
        path = tmp_path / "nodes.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_nodes(path, dim=dim)

    def test_norm_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0,0\n0,1,0\n0,0,1\n")
        with pytest.raises(NormError):
            load_nodes(path)

    def test_small_norm_drift_renormalized(self, tmp_path):
        drift = 1.0 + 5e-7
        path = tmp_path / "drift.csv"
        path.write_text(f"{drift},0,0\n0,1,0\n")
        loaded = load_nodes(path)
        assert np.linalg.norm(loaded.nodes, axis=1) == pytest.approx(
            [1.0, 1.0], abs=1e-15
        )

    def test_parse_error(self, tmp_path):
        path = tmp_path / "garbled.csv"
        path.write_text("1,0,0\nfoo,bar,baz\n")
        with pytest.raises(ParseError):
            load_nodes(path)

    def test_inconsistent_columns(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,0,0\n0,1\n")
        with pytest.raises(ParseError):
            load_nodes(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only comments\n")
        with pytest.raises(ParseError):
            load_nodes(path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe\x00" + "1,0,0\n".encode("utf-16-le"))
        with pytest.raises(ParseError, match="not UTF-8"):
            load_nodes(path)

    @pytest.mark.parametrize("text", ["1,0,0\nnan,0,0\n", "0\ninf\n"])
    def test_non_finite_value(self, tmp_path, text):
        path = tmp_path / "nonfinite.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="line 2: non-finite"):
            load_nodes(path)

    def test_file_lines_cut_comments_and_blanks(self, tmp_path):
        path = tmp_path / "lines.csv"
        path.write_text("# head\n\n 1, 0 # tail\n  \n0,1\n")
        assert list(_file_lines(path)) == [(3, "1, 0"), (5, "0,1")]


class TestTDesignCheck:
    def test_degree_zero_always_passes(self):
        # no degree to check: the general path reports no errors and passes
        for nodes in (circle_nodes(1), platonic("tetrahedron")):
            report = tdesign_check(nodes, 0)
            assert (report.t_claimed, report.max_abs_error, report.per_degree_errors,
                    report.passed) == (0, 0.0, (), True)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(55)
        mat = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        for name, t in (("icosahedron", 5), ("icosahedron", 6), ("cube", 3)):
            nodes = platonic(name)
            rotated = NodeSet(3, nodes.nodes @ mat.T, label="rotated")
            assert (
                tdesign_check(rotated, t).passed == tdesign_check(nodes, t).passed
            )

    def test_report_fields(self):
        report = tdesign_check(platonic("cube"), 4)
        assert report.t_claimed == 4
        assert len(report.per_degree_errors) == 4
        assert report.max_abs_error == max(report.per_degree_errors)
        assert not report.passed

    def test_argument_validation(self):
        with pytest.raises(DomainError, match="t must be"):
            tdesign_check(platonic("cube"), -1)

    @pytest.mark.parametrize("nodes", [circle_nodes(7, 0.3), platonic("cube")],
                             ids=["circle-7", "cube"])
    def test_matches_closed_form_node_sums(self, nodes):
        # P_n(cos phi) = cos(n phi) at D = 2 and the Legendre P_n at D = 3,
        # summed over every pair of nodes with node k as the axis
        t = 9
        dots = np.clip(nodes.nodes @ nodes.nodes.T, -1.0, 1.0)
        if nodes.dim == 2:
            values = [np.cos(n * np.arccos(dots)) for n in range(1, t + 1)]
        else:
            values = [np.polynomial.legendre.legval(dots, np.eye(t + 1)[n])
                      for n in range(1, t + 1)]
        d_omega = Dimension(nodes.dim).surface / nodes.count
        want = [d_omega * float(np.max(np.abs(v.sum(axis=1)))) for v in values]
        report = tdesign_check(nodes, t)
        assert report.per_degree_errors == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_peak_memory_within_2_22_floats(self):
        # tracemalloc sees numpy's buffers; t = 2 is the tightest fit at L = 2048
        nodes = circle_nodes(MAX_NODES, 0.1)
        for t in (0, 2):
            tracemalloc.start()
            try:
                assert tdesign_check(nodes, t).passed
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 << 22, t

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        nodes = platonic("dodecahedron")
        whole = tdesign_check(nodes, 7)
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", 3 * 8 * nodes.count)
        assert tdesign_check(nodes, 7) == whole

    @pytest.mark.parametrize("make, t", [(cell_24, 5), (cell_600, 11)],
                             ids=["24-cell", "600-cell"])
    def test_four_dimensional_polytopes(self, make, t):
        nodes = make()
        exact = tdesign_check(nodes, t)
        assert exact.passed and exact.max_abs_error <= 1e-13
        beyond = tdesign_check(nodes, t + 1)
        assert not beyond.passed and beyond.per_degree_errors[t] > 1.0


def ring_discrete(weights, count, aim_angle, offset=0.0):
    nodes = circle_nodes(count, offset_rad=offset)
    aim = np.array([math.cos(aim_angle), math.sin(aim_angle)])
    return discrete_metrics(weights, nodes, aim)


class TestDiscreteMetrics:
    def test_matches_continuous_on_icosahedron(self):
        # icosahedron is a 5-design, enough for order 2 (needs t >= 2N+1 = 5)
        rng = np.random.default_rng(91)
        vec = max_re(2, D3).weights
        cont = compute_metrics(vec)
        aim = rng.normal(size=3)
        aim /= np.linalg.norm(aim)
        disc = discrete_metrics(vec, platonic("icosahedron"), aim)
        assert disc.p == pytest.approx(cont.p, abs=1e-9)
        assert disc.e == pytest.approx(cont.e, abs=1e-9)
        assert disc.r_v == pytest.approx(cont.r_v, abs=1e-9)
        assert disc.r_e == pytest.approx(cont.r_e, abs=1e-9)
        assert disc.r_v_misaim_rad < 1e-9
        assert disc.r_e_misaim_rad < 1e-9

    def test_ring_exact_at_recommended_size(self):
        for order in (1, 3, 5):
            vec = basic(order, D2)
            cont = compute_metrics(vec)
            disc = ring_discrete(vec, 2 * order + 2, aim_angle=1.234)
            assert disc.p == pytest.approx(cont.p, abs=1e-11)
            assert disc.e == pytest.approx(cont.e, abs=1e-11)
            assert disc.r_v == pytest.approx(cont.r_v, abs=1e-11)
            assert disc.r_e == pytest.approx(cont.r_e, abs=1e-11)

    def test_undersampled_ring_aliases_energy(self):
        order = 4
        vec = basic(order, D2)
        cont = compute_metrics(vec)
        disc = ring_discrete(vec, order + 1, aim_angle=0.1)
        assert abs(disc.e - cont.e) > 1e-3

    def test_degree_thresholds(self):
        # P needs t >= N, rV >= N+1, E >= 2N, rE >= 2N+1; ring of L nodes is a
        # (L-1)-design, so the minimal exact ring sizes are N+1, N+2, 2N+1, 2N+2
        order = 4
        vec = basic(order, D2)
        cont = compute_metrics(vec)
        checks = {
            "p": (lambda m: m.p, cont.p, order + 1),
            "r_v": (lambda m: m.r_v, cont.r_v, order + 2),
            "e": (lambda m: m.e, cont.e, 2 * order + 1),
            "r_e": (lambda m: m.r_e, cont.r_e, 2 * order + 2),
        }
        for name, (get, expected, min_count) in checks.items():
            exact = get(ring_discrete(vec, min_count, aim_angle=0.1))
            assert exact == pytest.approx(expected, abs=1e-10), name
            aliased = get(ring_discrete(vec, min_count - 1, aim_angle=0.1))
            assert abs(aliased - expected) > 1e-4, name

    @pytest.mark.parametrize("nodes,a", [(platonic("icosahedron"), [0.0, 1.0, 0.5]),
                                         (circle_nodes(4), [0.0, 1.0])],
                             ids=["icosahedron", "circle-4"])
    def test_zero_pressure_reports_no_rv(self, nodes, a):
        # the node sum P is zero up to rounding, so rV = |sum g theta| / P is undefined
        vec = WeightVector(Dimension(nodes.dim), np.array(a), "raw")
        aim = np.eye(nodes.dim)[0]
        disc = discrete_metrics(vec, nodes, aim)
        cont = compute_metrics(vec)
        assert disc.r_v is None and disc.r_v_misaim_rad is None and cont.r_v is None
        assert disc.r_e == pytest.approx(cont.r_e, abs=1e-12)

    def test_cancelled_node_sum_reports_no_rv(self):
        # a_0 != 0, but the two node values cancel: the true P is 0 and the
        # computed P = -8.7e-17 is rounding, which gave rV = 6.9e15 with misaim pi
        vec = WeightVector(Dimension(2.0), np.array([1.0, 0.3, -0.5]), "raw")
        disc = discrete_metrics(vec, NodeSet(2, [[1.0, 0.0], [-1.0, 0.0]]), [1.0, 0.0])
        assert abs(disc.p) < 1e-15
        assert disc.r_v is None and disc.r_v_misaim_rad is None

    def test_noise_re_reports_no_misaim(self):
        # the same two nodes: the node sum of g^2 theta cancels, so rE = 2.9e-16
        # is rounding noise below L eps, whose direction gave misaim pi
        vec = WeightVector(Dimension(2.0), np.array([1.0, 0.3, -0.5]), "raw")
        disc = discrete_metrics(vec, NodeSet(2, [[1.0, 0.0], [-1.0, 0.0]]), [1.0, 0.0])
        assert disc.r_e <= 2 * np.finfo(float).eps
        assert disc.r_e_misaim_rad is None
        # a resolved rE keeps its misaim
        ring = discrete_metrics(vec, circle_nodes(8), [1.0, 0.0])
        assert ring.r_e > 0.1 and ring.r_e_misaim_rad < 1e-12

    @pytest.mark.parametrize(
        "nodes, a",
        [(circle_nodes(5), [1.0]), (circle_nodes(8), [1.0]), (circle_nodes(12), [1.0]),
         (platonic("icosahedron"), [1.0]), (circle_nodes(9), [1.0, 0.0, 0.3])],
        ids=["circle-5", "circle-8", "circle-12", "icosahedron", "circle-9-a1-zero"],
    )
    def test_noise_rv_reports_no_misaim(self, nodes, a):
        # the true rV is 0 and the computed one (up to 5e-17) is rounding noise
        # below L eps dOmega sum|g| / |P|, whose direction gave misaims up to 3.09
        vec = WeightVector(Dimension(nodes.dim), np.array(a), "raw")
        aim = np.ones(nodes.dim) / math.sqrt(nodes.dim)
        disc = discrete_metrics(vec, nodes, aim)
        assert disc.r_v is not None and disc.r_v < 1e-15
        assert disc.r_v_misaim_rad is None
        # a resolved rV on the same nodes keeps its misaim
        ring = discrete_metrics(basic(1, vec.dim), nodes, aim)
        assert ring.r_v > 0.1 and ring.r_v_misaim_rad < 1e-12

    @pytest.mark.parametrize(
        "a, nodes, aim",
        [([0.0, 0.0], platonic("cube"), [0.0, 0.0, 1.0]),
         ([0.0, 1.0], circle_nodes(1), [0.0, 1.0])],
        ids=["zero-weights", "dipole-null-on-node"],
    )
    def test_zero_node_energy(self, a, nodes, aim):
        # g is 0 at every node, so rE = |sum g^2 theta| / E is undefined
        vec = WeightVector(Dimension(nodes.dim), np.array(a), "raw")
        with pytest.raises(DomainError, match="node energy is zero"):
            discrete_metrics(vec, nodes, aim)

    @pytest.mark.parametrize(
        "scale", [2.0**-600, 2.0**600, 5e-324, 1e-300, 1e-170, 1e170, 1e300]
    )
    @pytest.mark.parametrize(
        "a, nodes, aim",
        [([1.0, 1.0], platonic("icosahedron"), [0.0, 0.0, 1.0]),
         ([2.0, 2.0, 1.0], platonic("tetrahedron"), [0.6, 0.0, 0.8])],
        ids=["icosahedron-on-axis", "tetrahedron-misaimed"],
    )
    def test_extreme_scales_match_unscaled(self, a, nodes, aim, scale):
        # the weights are scaled by an exact power of two before the pattern is
        # summed, so even subnormal weights such as 5e-324 keep every digit
        # (integer a keeps s a exact there): the ratios of s a equal those of
        # a bit for bit when s is a power of two, and within rounding
        # otherwise (misaims on the icosahedron axis are rounding-level
        # angles, hence the absolute bound)
        base = discrete_metrics(WeightVector(D3, a, "raw"), nodes, aim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            met = discrete_metrics(WeightVector(D3, np.multiply(scale, a), "raw"), nodes, aim)
        exact = math.frexp(scale)[0] == 0.5
        for field in ("r_v", "r_e", "r_v_misaim_rad", "r_e_misaim_rad"):
            got, want = getattr(met, field), getattr(base, field)
            assert got == (want if exact else pytest.approx(want, rel=1e-14, abs=1e-15))
        assert met.p == pytest.approx(scale * base.p, rel=1e-14)
        # the true energy, about s^2 E, lies outside the double range
        assert met.e == (math.inf if scale > 1.0 else 0.0)

    @pytest.mark.parametrize("d", [2.0, 3.0])
    def test_matches_direct_formulas(self, d):
        # the node sums written out, np.linalg.norm for every vector length;
        # the arithmetic is the same, so every field agrees bit for bit.  Each
        # set is also aimed at those of its nodes that project onto themselves
        # past 1, where the clip is what keeps the pattern's x in [-1, 1]
        dim = Dimension(d)
        rng = np.random.default_rng(23)
        sets = ([circle_nodes(m, float(rng.uniform(0.0, 1.0))) for m in (1, 7, 64, 257)]
                if d == 2.0 else [platonic(name) for name in PLATONIC_NAMES])
        past_one = 0
        for order in (0, 1, 5, 32, 128):
            weights = WeightVector(dim, rng.standard_normal(order + 1) * 1e5, "raw")
            _, k = np.frexp(np.max(np.abs(weights.a)))
            unit = WeightVector(dim, np.ldexp(weights.a, -k), "raw")
            cases = []
            for nodes in sets:
                aim = rng.standard_normal(nodes.dim)
                aim /= np.linalg.norm(aim) * (1.0 + 1e-9)  # inside the 1e-6 tolerance
                past = [v for v in nodes.nodes if np.max(nodes.nodes @ (v / np.linalg.norm(v))) > 1]
                past_one += len(past)
                cases += [(nodes, aim)] + [(nodes, v) for v in past]
            for nodes, aim in cases:
                disc = discrete_metrics(weights, nodes, aim)
                aim = aim / np.linalg.norm(aim)
                g = eval_pattern(unit, np.clip(nodes.nodes @ aim, -1.0, 1.0))
                d_omega = dim.surface / nodes.count
                p, e = (d_omega * np.array([g, g * g]).sum(axis=1)).tolist()
                sums, squares = d_omega * (np.array([g, g * g]) @ nodes.nodes)
                floor = nodes.count * np.finfo(float).eps * d_omega * float(np.sum(np.abs(g)))

                def misaim(vec):
                    along = float(vec @ aim)
                    return math.atan2(float(np.linalg.norm(vec - along * aim)), along)

                r_e = float(np.linalg.norm(squares / e))
                r_v = rv_misaim = None
                if abs(p) > floor:
                    r_v = float(np.linalg.norm(sums / p))
                    rv_misaim = misaim(sums / p) if r_v > floor / abs(p) else None
                assert disc.p == float(np.ldexp(p, k))
                assert disc.e == float(np.ldexp(e, 2 * k))
                assert disc.r_v == r_v
                assert disc.r_e == r_e
                assert disc.r_v_misaim_rad == rv_misaim
                assert disc.r_e_misaim_rad == (misaim(squares / e)
                                               if r_e > nodes.count * np.finfo(float).eps
                                               else None)
        assert past_one

    def test_aim_of_wrong_shape(self):
        for aim in ([1.0, 0.0], [[1.0, 0.0, 0.0]], 1.0, "ab"):
            with pytest.raises(DomainError, match="3-vector"):
                discrete_metrics(basic(2, D3), platonic("cube"), aim)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            discrete_metrics(basic(2, D3), circle_nodes(8), np.array([1.0, 0.0]))

    def test_non_unit_aim(self):
        # a NaN norm fails the unit test too, rather than a later finiteness check
        for aim in ([1.0, 1.0, 0.0], [math.nan, 0.0, 0.0]):
            with pytest.raises(DomainError, match="aim must be a unit vector"):
                discrete_metrics(basic(2, D3), platonic("cube"), np.array(aim))

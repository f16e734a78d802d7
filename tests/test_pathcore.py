import io
import math
import tracemalloc

import numpy as np
import pytest

from helpers import bisected_mesh, brute_force_frechet, random_path, refined
from minaction import pathcore
from minaction import (
    FePath,
    Mesh,
    Polyline,
    Quadrature,
    clustering_fraction,
    discrete_frechet,
    linear_interpolant_path,
    path_polyline,
    fixed_t_value_grad,
    read_path_csv,
    resample_path,
    tmam_value_grad,
    trajectory_polyline,
    two_scale_field,
    uniform_mesh,
    write_path_csv,
)


def sweep_with_np_sum(a, b) -> float:
    """Reference: the anti-diagonal Eiter-Mannila sweep with each cost summed
    by ``np.sum`` over the components.  Up to 7 components the library must
    match it bit for bit, whether its bounds certify the value or not."""
    short, tall = sorted((np.asarray(a, float), np.asarray(b, float)), key=len)
    p, q = len(short), len(tall)
    rev = tall[::-1]
    prev2, prev1, cur = (np.full(p + 2, np.inf) for _ in range(3))
    prev2[0] = 0.0
    for d in range(p + q - 1):
        lo, hi = max(0, d - q + 1), min(d, p - 1)
        diff = short[lo:hi + 1] - rev[q - 1 - d + lo:q - d + hi]
        reach = np.minimum(prev1[lo:hi + 1], prev1[lo + 1:hi + 2])
        np.minimum(reach, prev2[lo:hi + 1], out=reach)
        np.maximum(reach, np.sum(diff * diff, axis=1), out=cur[lo + 1:hi + 2])
        cur[lo] = cur[hi + 2] = np.inf
        prev2, prev1, cur = prev1, cur, prev2
    return float(np.sqrt(prev1[p]))


def exact_trajectory(points):
    """The case_ii transition path, the two-scale flow from (1, 1) to the origin,
    sampled at ``points`` points."""
    matrix = two_scale_field().linear_matrix
    return trajectory_polyline(matrix, [1.0, 1.0], math.inf, samples=points - 1)


@pytest.fixture
def sweep_calls(monkeypatch):
    """Record every call of the anti-diagonal sweep behind discrete_frechet."""
    calls = []
    sweep = pathcore._frechet_sweep

    def recorded(short, tall):
        calls.append((short.shape, tall.shape))
        return sweep(short, tall)

    monkeypatch.setattr(pathcore, "_frechet_sweep", recorded)
    return calls


@pytest.fixture
def no_sweep(monkeypatch):
    """Make the anti-diagonal sweep fail, so only a certified value can return."""

    def refuse(short, tall):
        raise AssertionError("the bounds differ; the sweep ran")

    monkeypatch.setattr(pathcore, "_frechet_sweep", refuse)


class TestMesh:
    def test_uniform_smallest(self):
        mesh = uniform_mesh(1)
        assert mesh.nodes.tolist() == [0.0, 1.0]
        assert mesh.num_elements == 1

    def test_uniform_equispacing(self):
        mesh = uniform_mesh(4)
        assert mesh.nodes.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_uniform_fine(self):
        mesh = uniform_mesh(128)
        assert mesh.nodes.size == 129
        assert mesh.h == pytest.approx(1.0 / 128, abs=1e-15)
        assert np.all(np.diff(mesh.nodes) > 0)

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError):
            uniform_mesh(0)

    @pytest.mark.parametrize(
        "nodes",
        [[0.1, 0.5, 1.0], [0.0, 0.5, 0.9], [0.0, 0.5, 0.5, 1.0], [0.0, 0.6, 0.4, 1.0]],
    )
    def test_invalid_nodes_rejected(self, nodes):
        with pytest.raises(ValueError):
            Mesh(np.array(nodes))

    def test_nodes_read_only(self):
        mesh = uniform_mesh(4)
        with pytest.raises(ValueError):
            mesh.nodes[0] = 0.5


class TestFePath:
    def test_endpoints_pinned_bit_exact(self):
        x1 = np.array([0.1, -0.3])
        x2 = np.array([0.7, 0.2])
        path = linear_interpolant_path(x1, x2, uniform_mesh(7))
        assert np.array_equal(path.left, x1)
        assert np.array_equal(path.right, x2)

    def test_replace_interior_keeps_endpoints(self):
        path = linear_interpolant_path([0.0], [1.0], uniform_mesh(5))
        new = path.replace_interior(np.full((4, 1), 9.0))
        assert np.array_equal(new.left, path.left)
        assert np.array_equal(new.right, path.right)
        assert np.all(new.values[1:-1] == 9.0)

    def test_replace_interior_copies_into_a_new_read_only_array(self):
        # a signed zero and a subnormal endpoint must come through bit for bit
        path = linear_interpolant_path([-0.0, 5e-324], [1.0, -2.5], uniform_mesh(6))
        interior = np.arange(10.0).reshape(5, 2)
        new = path.replace_interior(interior)
        assert new.mesh is path.mesh
        assert new.values.tobytes()[:16] == path.values.tobytes()[:16]
        assert new.values.tobytes()[-16:] == path.values.tobytes()[-16:]
        assert np.array_equal(new.values[1:-1], interior)
        assert not new.values.flags.writeable
        assert not np.shares_memory(new.values, interior)
        assert not np.shares_memory(new.values, path.values)
        interior[0, 0] = 99.0
        assert new.values[1, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            new.values[1, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_replace_interior_rejects_nonfinite_rows(self, bad):
        path = linear_interpolant_path([0.0, 0.0], [1.0, 1.0], uniform_mesh(4))
        interior = np.zeros((3, 2))
        interior[2, 1] = bad
        with pytest.raises(ValueError, match="path values must be finite"):
            path.replace_interior(interior)

    @pytest.mark.parametrize("rows", [2, 4])
    def test_replace_interior_rejects_a_wrong_row_count(self, rows):
        path = linear_interpolant_path([0.0, 0.0], [1.0, 1.0], uniform_mesh(4))
        with pytest.raises(ValueError, match="interior rows must match"):
            path.replace_interior(np.zeros((rows, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FePath(uniform_mesh(2), np.array([[0.0], [np.nan], [1.0]]))

    def test_row_count_must_match(self):
        with pytest.raises(ValueError):
            FePath(uniform_mesh(3), np.zeros((3, 1)))


class TestLinearInterpolant:
    def test_degenerate_endpoints(self):
        path = linear_interpolant_path([0.0, 0.0], [0.0, 0.0], uniform_mesh(6))
        assert np.all(path.values == 0.0)

    def test_scalar_linearity(self):
        path = linear_interpolant_path([0.0], [1.0], uniform_mesh(2))
        np.testing.assert_allclose(path.values[:, 0], [0.0, 0.5, 1.0], atol=1e-15)

    def test_midpoint_2d(self):
        path = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(4))
        np.testing.assert_allclose(path.values[2], [0.5, 0.5], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linear_interpolant_path([0.0], [1.0, 2.0], uniform_mesh(2))


class TestRefine:
    def test_single_element_bisection(self):
        path = linear_interpolant_path([0.0], [1.0], uniform_mesh(1))
        fine = resample_path(path, bisected_mesh(path.mesh))
        assert fine.mesh.num_elements == 2
        assert fine.values[1, 0] == pytest.approx(0.5, abs=0)

    def test_double_refine_quadruples(self):
        path = random_path(np.random.default_rng(3), dim=2)
        twice = refined(refined(path))
        assert twice.mesh.num_elements == 4 * path.mesh.num_elements

    def test_action_preserved_linear_field(self):
        # nested linear FE spaces: same function, so exact functionals agree
        rng = np.random.default_rng(7)
        field = two_scale_field()
        quad = Quadrature(2)
        for _ in range(5):
            path = random_path(rng, dim=2, nonuniform=True)
            fine = refined(path)
            for T in (0.5, 1.0, 3.0):
                a0 = fixed_t_value_grad(path, field, T, quad)[0]
                a1 = fixed_t_value_grad(fine, field, T, quad)[0]
                assert abs(a1 - a0) <= 1e-12 * max(1.0, abs(a0))
            v0, _, t0 = tmam_value_grad(path, field, quad)
            v1, _, t1 = tmam_value_grad(fine, field, quad)
            assert abs(v1 - v0) <= 1e-12 * max(1.0, abs(v0))
            assert abs(t1 - t0) <= 1e-12 * max(1.0, t0)

    def test_resample_nested_exact(self):
        path = linear_interpolant_path([0.0, 1.0], [1.0, -1.0], uniform_mesh(4))
        resampled = resample_path(path, uniform_mesh(12))
        np.testing.assert_allclose(resampled(path.mesh.nodes), path.values, atol=1e-15)
        assert np.array_equal(resampled.left, path.left)
        assert np.array_equal(resampled.right, path.right)


class TestDiscreteFrechet:
    def test_identical_polylines(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((6, 2))
        assert discrete_frechet(Polyline(pts), Polyline(pts)) == 0.0

    def test_parallel_segments(self):
        # frozen from the exhaustive-coupling oracle
        a = Polyline([[0.0, 0.0], [1.0, 0.0]])
        b = Polyline([[0.0, 1.0], [1.0, 1.0]])
        assert brute_force_frechet(a.points, b.points) == pytest.approx(1.0, abs=0)
        assert discrete_frechet(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_subdivided_segment(self):
        # The midpoint of b lies on a's segment but not among a's vertices, so
        # the best coupling still pays 0.5 (oracle-confirmed; the continuous
        # distance would be 0).
        a = Polyline([[0.0], [1.0]])
        b = Polyline([[0.0], [0.5], [1.0]])
        assert brute_force_frechet(a.points, b.points) == pytest.approx(0.5, abs=0)
        assert discrete_frechet(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for k in range(60):
            p_len, q_len = (int(m) for m in rng.integers(2, 6, size=2))
            # two points, the fewest a polyline has, on either side
            if k % 4 == 0:
                p_len = 2
            elif k % 4 == 1:
                q_len = 2
            n = 1 + k % 3
            p = rng.standard_normal((p_len, n))
            q = rng.standard_normal((q_len, n))
            want = brute_force_frechet(p, q)
            got = discrete_frechet(Polyline(p), Polyline(q))
            assert got == pytest.approx(want, abs=1e-12)

    def test_metric_properties_random_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            a, b, c = (Polyline(rng.standard_normal((int(rng.integers(2, 7)), 3))) for _ in range(3))
            dab = discrete_frechet(a, b)
            dba = discrete_frechet(b, a)
            dac = discrete_frechet(a, c)
            dcb = discrete_frechet(c, b)
            assert dab >= 0.0
            assert abs(dab - dba) <= 1e-12
            assert dab <= dac + dcb + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            discrete_frechet(Polyline([[0.0], [1.0]]), Polyline([[0.0, 0.0], [1.0, 1.0]]))

    # Values of the Eiter-Mannila loop over a stored P x Q distance table, on
    # random walks with one side much longer than the other.
    @pytest.mark.parametrize(
        "p, q, n, want",
        [
            (7, 300, 1, "0x1.352ac0c6a1624p+0"),
            (7, 300, 2, "0x1.2479418749988p+0"),
            (7, 300, 3, "0x1.44353b176bee9p+1"),
            (300, 7, 1, "0x1.eb476cfab23ecp-1"),
            (300, 7, 2, "0x1.0828ee5f6f899p+1"),
            (300, 7, 3, "0x1.104fe38648b7ap+1"),
            (2, 50, 1, "0x1.331e5948f2c0fp+0"),
            (2, 50, 2, "0x1.050388b0d2f78p+1"),
            (2, 50, 3, "0x1.b64592e40ca02p+0"),
            (50, 2, 1, "0x1.04199074abc52p+1"),
            (50, 2, 2, "0x1.6029104f1b413p+0"),
            (50, 2, 3, "0x1.5f51538c4cd19p+0"),
        ],
    )
    def test_lopsided_pairs_match_full_table(self, p, q, n, want):
        rng = np.random.default_rng([p, q, n])
        a = np.cumsum(rng.standard_normal((p, n)), axis=0) / np.sqrt(p)
        b = np.cumsum(rng.standard_normal((q, n)), axis=0) / np.sqrt(q)
        assert discrete_frechet(Polyline(a), Polyline(b)) == float.fromhex(want)

    def test_memory_stays_linear(self):
        # the full table of a 513 x 5121 pair (the case_ii size at N=512)
        # takes about 84 MB of temporaries; two diagonals take a few kB
        rng = np.random.default_rng(9)
        a = Polyline(np.cumsum(rng.standard_normal((513, 2)), axis=0))
        b = Polyline(np.cumsum(rng.standard_normal((5121, 2)), axis=0))
        tracemalloc.start()
        try:
            discrete_frechet(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    # Seeded pairs of three kinds: a curve sampled twice with noise on the
    # coarse side, random walks and integer coordinates (ties among costs and
    # partners).  Each kind has pairs on both sides of the certificate.
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("kind", ["curve", "walk", "integer"])
    def test_matches_np_sum_sweep(self, n, kind, sweep_calls):
        rng = np.random.default_rng([n, len(kind)])
        phase = rng.uniform(0.0, 2.0 * np.pi, n)
        for _ in range(40):
            p, q = (int(m) for m in rng.integers(2, 30, size=2))
            if kind == "curve":
                curve = lambda s: np.cos(np.outer(3.0 * s, np.arange(1, n + 1)) + phase)
                a = curve(np.linspace(0.0, 1.0, p)) + 1e-3 * rng.standard_normal((p, n))
                b = curve(np.linspace(0.0, 1.0, 10 * q))
            elif kind == "walk":
                a = np.cumsum(rng.standard_normal((p, n)), axis=0)
                b = np.cumsum(rng.standard_normal((q, n)), axis=0)
            else:
                a = rng.integers(-2, 3, (p, n)).astype(float)
                b = rng.integers(-2, 3, (q, n)).astype(float)
            want = sweep_with_np_sum(a, b)
            assert discrete_frechet(Polyline(a), Polyline(b)) == want
            assert discrete_frechet(Polyline(b), Polyline(a)) == want
        # both paths ran: some of the 80 calls were certified, some swept
        assert 0 < len(sweep_calls) < 80

    @pytest.mark.parametrize("n_elements", [16, 64, 512])
    def test_p1_path_against_fine_sampling_is_certified(self, n_elements, no_sweep):
        # the case_ii comparison: the N+1 nodes of a P1 path on the exact
        # trajectory against a sampling with 10(N+1)+1 points
        coarse = exact_trajectory(n_elements + 1)
        fine = exact_trajectory(10 * (n_elements + 1) + 1)
        got = discrete_frechet(coarse, fine)
        assert got > 0.0
        assert got == sweep_with_np_sum(coarse.points, fine.points)

    def test_random_walks_reach_the_sweep(self, sweep_calls):
        # about half of such walks certify; with this seed the bounds differ
        rng = np.random.default_rng(0)
        a = np.cumsum(rng.standard_normal((40, 2)), axis=0)
        b = np.cumsum(rng.standard_normal((90, 2)), axis=0)
        assert discrete_frechet(Polyline(a), Polyline(b)) == sweep_with_np_sum(a, b)
        assert sweep_calls == [((2, 40), (2, 90))]

    def test_certified_memory_stays_linear(self, no_sweep):
        # 513 x 5131 is the case_ii pair at N=512; of its 2.6M cells the
        # certificate visits a few per point, in blocks of a fixed size
        a, b = exact_trajectory(513), exact_trajectory(5131)
        assert (len(a.points), len(b.points)) == (513, 5131)
        tracemalloc.start()
        try:
            discrete_frechet(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_certified_call_does_linear_work(self, no_sweep, monkeypatch):
        # 1025 x 10251 is the case_ii pair at N=1024: about 10.5M lattice
        # cells, of which a certified call computes a few per point
        a, b = exact_trajectory(1025), exact_trajectory(10251)
        cells = []
        sq_dist = pathcore._sq_dist

        def counted(x, y):
            out = sq_dist(x, y)
            cells.append(out.size)
            return out

        monkeypatch.setattr(pathcore, "_sq_dist", counted)
        assert discrete_frechet(a, b) > 0.0
        assert sum(cells) <= 40 * (1025 + 10251)

    @pytest.mark.parametrize("q", [1, 2, 9, 30])
    @pytest.mark.parametrize("n", [1, 3])
    def test_one_point_polyline_matches_brute_force(self, n, q, no_sweep):
        # a Polyline has two points at least; the distance itself takes one,
        # and its only coupling pairs that point with every other, certified
        rng = np.random.default_rng([n, q])
        point = rng.standard_normal((1, n))
        other = np.cumsum(rng.standard_normal((q, n)), axis=0)
        short, tall = (np.ascontiguousarray(x.T) for x in (point, other))
        got = float(np.sqrt(pathcore._squared_frechet(short, tall)))
        assert got == sweep_with_np_sum(point, other)
        assert got == pytest.approx(brute_force_frechet(point, other), abs=1e-12)

    # zero arc length on the shorter side, the longer side or both
    @pytest.mark.parametrize("p, q, still", [(4, 11, "a"), (9, 3, "a"), (5, 12, "ab"), (2, 2, "ab")])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_repeated_equal_points_match_brute_force(self, p, q, still, n):
        rng = np.random.default_rng([p, q, n])
        a = np.cumsum(rng.standard_normal((p, n)), axis=0)
        b = np.cumsum(rng.standard_normal((q, n)), axis=0)
        a[:] = a[p // 2]
        if "b" in still:
            b[:] = a[0] + 0.5
        want = sweep_with_np_sum(a, b)
        assert discrete_frechet(Polyline(a), Polyline(b)) == want
        assert discrete_frechet(Polyline(b), Polyline(a)) == want
        assert want == pytest.approx(brute_force_frechet(a, b), abs=1e-12)

    def test_ties_on_max_cost_pairs_match_brute_force(self, sweep_calls):
        # integer coordinates in {-1, 0, 1}: many pairs share the largest
        # cost, and every squared cost is an exact integer, so the oracle's
        # np.linalg.norm gives the same bits
        rng = np.random.default_rng(5)
        tied = certified_on_ties = 0
        for k in range(60):
            p, q = (int(m) for m in rng.integers(2, 7, size=2))
            a = rng.integers(-1, 2, (p, 1 + k % 2)).astype(float)
            b = rng.integers(-1, 2, (q, 1 + k % 2)).astype(float)
            short, tall = (np.ascontiguousarray(x.T) for x in sorted((a, b), key=len))
            _, _, cost = pathcore._coupling(short, tall, pathcore._window_partner(short, tall))
            swept = len(sweep_calls)
            assert discrete_frechet(Polyline(a), Polyline(b)) == brute_force_frechet(a, b)
            if np.count_nonzero(cost == cost.max()) > 1:
                tied += 1
                by_ends = max(cost[0], cost[-1]) == cost.max()
                certified_on_ties += len(sweep_calls) == swept and not by_ends
        # the tied pairs include some certified by a nearest-partner cost
        assert tied > 20 and certified_on_ties > 0

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            Polyline(np.zeros((3, 0)))


class TestClustering:
    def test_constant_at_center(self):
        path = linear_interpolant_path([0.5, 0.5], [0.5, 0.5], uniform_mesh(9))
        assert clustering_fraction(path, [0.5, 0.5], 0.01) == 1.0

    def test_direct_count_oracle(self):
        path = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(10))
        dist = np.linalg.norm(path.values, axis=1)
        want = np.count_nonzero(dist <= 0.1) / 11
        assert clustering_fraction(path, [0.0, 0.0], 0.1) == pytest.approx(want, abs=0)

    def test_huge_radius(self):
        path = random_path(np.random.default_rng(5), dim=2)
        assert clustering_fraction(path, [0.0, 0.0], 1e9) == 1.0

    def test_nonpositive_radius_rejected(self):
        path = linear_interpolant_path([0.0], [1.0], uniform_mesh(2))
        with pytest.raises(ValueError):
            clustering_fraction(path, [0.0], 0.0)

    @pytest.mark.parametrize("center", [[0.0], [0.0, 0.0, 0.0], [math.nan, 0.0], [0.0, math.inf],
                                        [[0.0, 0.0]]],
                             ids=["short", "long", "nan", "inf", "matrix"])
    def test_bad_center_rejected(self, center):
        # a short center used to broadcast over every component
        path = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(2))
        with pytest.raises(ValueError, match=r"^center must be a finite vector of 2 components$"):
            clustering_fraction(path, center, 0.5)

    def test_scalar_center_of_a_scalar_path(self):
        path = linear_interpolant_path([0.0], [1.0], uniform_mesh(4))
        assert clustering_fraction(path, 0.0, 0.3) == 2 / 5


class TestPathCsv:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(17)
        path = random_path(rng, dim=3, nonuniform=True)
        buf = io.StringIO()
        write_path_csv(path, buf)
        buf.seek(0)
        back = read_path_csv(buf)
        assert np.array_equal(back.mesh.nodes, path.mesh.nodes)
        assert np.array_equal(back.values, path.values)

    def test_header_format(self):
        path = linear_interpolant_path([0.0, 1.0], [1.0, 0.0], uniform_mesh(2))
        buf = io.StringIO()
        write_path_csv(path, buf)
        assert buf.getvalue().splitlines()[0] == "s,x1,x2"

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_path_csv(io.StringIO("t,x1\n0.0,0.0\n1.0,1.0\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="'s' column"):
            read_path_csv(io.StringIO(""))

    def test_polyline_view(self):
        path = linear_interpolant_path([0.0], [1.0], uniform_mesh(3))
        poly = path_polyline(path)
        assert np.array_equal(poly.points, path.values)

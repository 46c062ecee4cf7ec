import numpy as np
import pytest

from nichewave import ConfigError, ResourceLimitError, build_grid, snap_radius


def test_1d_ball_cell_centers():
    g = build_grid(1, 2.0, 0.5)
    assert np.allclose(g.points[:, 0], -2.0 + 0.25 + 0.5 * np.arange(8))
    assert g.weights.sum() == pytest.approx(4.0)


def test_1d_ball_keeps_all_cell_centers():
    g = build_grid(1, 1.0, 0.25)
    assert g.size == 8
    assert np.all(np.abs(g.points[:, 0]) <= 1.0)


def test_2d_ball_filters_box_centers():
    g = build_grid(2, 1.0, 0.5)
    assert g.size == 12  # 4x4 box minus the four corners
    assert np.all(np.sqrt((g.points**2).sum(axis=1)) <= 1.0 + 1e-12)
    assert g.weights.sum() == pytest.approx(12 * 0.25)


def test_lexicographic_ordering():
    g = build_grid(2, 1.0, 0.5)
    order = np.lexsort((g.points[:, 1], g.points[:, 0]))
    assert np.array_equal(order, np.arange(g.size))


def test_refinement_halves_integration_error():
    # smooth integrand over the interval: midpoint error must at least halve
    f = lambda x: np.cos(x) + 0.3 * np.sin(2 * x)
    exact = 2.0 * np.sin(2.0)  # integral of cos over [-2, 2]; sin term integrates to 0
    errs = []
    for h in (0.5, 0.25, 0.125):
        g = build_grid(1, 2.0, h)
        errs.append(abs(np.sum(g.weights * g.sample(f)) - exact))
    assert errs[1] <= 0.5 * errs[0] + 1e-15
    assert errs[2] <= 0.5 * errs[1] + 1e-15


def test_2d_disc_smooth_integrand_converges():
    # smooth integrand vanishing on the rim: halving h at least halves the error
    errs = []
    for h in (0.25, 0.125, 0.0625):
        g = build_grid(2, 1.0, h)
        f = 1.0 - (g.points**2).sum(axis=1)
        errs.append(abs(np.sum(g.weights * f) - np.pi / 2))
    assert errs[1] <= 0.5 * errs[0]
    assert errs[2] <= 0.5 * errs[1]


def test_resource_limit():
    with pytest.raises(ResourceLimitError):
        build_grid(1, 10.0, 0.001, max_cells_per_axis=4096)


def test_bad_spacing_rejected():
    with pytest.raises(ConfigError):
        build_grid(1, 1.0, 0.3)  # 2R/h not integral
    with pytest.raises(ConfigError):
        build_grid(1, 1.0, 1.5)  # h >= R


def test_snap_radius_multiples_of_h():
    assert snap_radius(4.01, 0.05) == pytest.approx(4.05)
    assert snap_radius(4.0, 0.05) == pytest.approx(4.0)


def test_common_with_maps_shared_lattice():
    g1 = build_grid(1, 4.0, 0.25)
    g2 = build_grid(1, 6.0, 0.25)
    i1, i2 = g1.common_with(g2)
    assert i1.size == g1.size  # smaller grid embeds entirely
    assert np.allclose(g1.points[i1, 0], g2.points[i2, 0])


@pytest.mark.parametrize("dimension, small, big", [
    (1, 4.0, 6.0),
    (2, 1.5, 2.5),
    (2, 2.0, 2.0),
])
def test_common_with_matches_brute_force(dimension, small, big):
    g_small = build_grid(dimension, small, 0.25)
    g_big = build_grid(dimension, big, 0.25)
    for a, b in ((g_small, g_big), (g_big, g_small)):
        same = np.all(np.abs(a.points[:, None, :] - b.points[None, :, :]) < 1e-9, axis=2)
        brute_a, brute_b = np.nonzero(same)
        ia, ib = a.common_with(b)
        assert np.array_equal(ia, brute_a)
        assert np.array_equal(ib, brute_b)
    assert ia.size == g_small.size


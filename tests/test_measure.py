"""Density functions, perimeter, surface sums, and the Gauss identity."""

import csr_oracles as oracles
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragrid import (
    Ball,
    Box,
    Domain,
    GridFunction,
    HalfSpace,
    NodeMask,
    build_level,
    density,
    gauss_check,
    normal_field,
    perimeter,
    surface_integral,
)
from ultragrid.measure import (
    _box_fraction,
    _mask_fraction,
    _sampled_fraction,
    _unit_ball_samples,
)

DOM1 = Domain(((0.0, 1.0),))
DOM2 = Domain(((0.0, 1.0), (0.0, 1.0)))
DOM3 = Domain(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))


def test_density_probe_values_2d():
    level = build_level(DOM2, 5)
    theta = density(HalfSpace(0, 0.5), level).grid_values
    mid = level.shape[0] // 2
    assert theta[mid, mid] == 0.5  # node on the boundary plane
    assert theta[2, 2] == 1.0  # deep inside
    assert theta[-1, -1] == 0.0  # deep outside


def test_density_probe_values_1d_3d():
    for dom in (DOM1, DOM3):
        level = build_level(dom, 4)
        theta = density(HalfSpace(0, 0.5), level)
        x = level.coordinates[:, 0]
        assert np.all(theta.values[x < 0.5 - level.h] == 1.0)
        assert np.all(theta.values[x > 0.5 + level.h] == 0.0)
        assert np.all(theta.values[np.isclose(x, 0.5)] == 0.5)


def test_density_in_unit_interval():
    level = build_level(DOM2, 5)
    for region in (Ball((0.4, 0.6), 0.2), Box(((0.2, 0.7), (0.1, 0.5)))):
        theta = density(region, level).values
        assert np.all((theta >= 0.0) & (theta <= 1.0))


def test_box_closed_form_matches_sampling_2d():
    level = build_level(DOM2, 5)
    eta = level.h
    box = Box(((0.22, 0.61), (0.33, 0.84)))
    exact = _box_fraction(level, box, eta)
    sampled = _sampled_fraction(level, box, eta)
    # the sampled rule carries midpoint error near corners; the closed form
    # is the reference
    assert np.max(np.abs(exact - sampled)) < 0.05


def test_square_perimeter():
    level = build_level(DOM2, 7)
    p = perimeter(Box(((0.25, 0.75), (0.25, 0.75))), level)
    assert abs(p - 2.0) / 2.0 < 0.05


def test_disk_perimeter():
    level = build_level(DOM2, 7)
    r = 0.25
    p = perimeter(Ball((0.5, 0.5), r), level)
    assert abs(p - 2 * np.pi * r) / (2 * np.pi * r) < 0.05


def test_half_mask_perimeter_is_interface_length():
    # the nearest-node region extends past the box, so only the internal
    # interface contributes
    level = build_level(DOM2, 6)
    mask = level.coordinates[:, 0] <= 0.5
    assert perimeter(NodeMask(level, mask), level) == pytest.approx(1.0, rel=0.02)


def test_full_and_empty_masks():
    level = build_level(DOM2, 4)
    full = NodeMask(level, np.ones(level.node_count, bool))
    empty = NodeMask(level, np.zeros(level.node_count, bool))
    assert perimeter(full, level) == 0.0
    assert perimeter(empty, level) == 0.0
    assert np.all(density(full, level).values == 1.0)
    assert np.all(density(empty, level).values == 0.0)


def test_surface_integral_of_coordinate():
    # integral of x over the boundary of the square [0.25, 0.75]^2 is 1.0
    level = build_level(DOM2, 7)
    v = GridFunction(level, level.coordinates[:, 0])
    s = surface_integral(v, Box(((0.25, 0.75), (0.25, 0.75))))
    assert s == pytest.approx(1.0, rel=0.05)


def test_normal_field_points_outward():
    level = build_level(DOM2, 6)
    normals = normal_field(Ball((0.5, 0.5), 0.25), level)
    nx, ny = normals[0].values, normals[1].values
    mag = np.sqrt(nx**2 + ny**2)
    active = mag > 0.5
    offset = level.coordinates[active] - np.array([0.5, 0.5])
    radial = offset / np.linalg.norm(offset, axis=1, keepdims=True)
    dots = nx[active] * radial[:, 0] + ny[active] * radial[:, 1]
    assert np.all(dots > 0.7)


@pytest.mark.parametrize("dom", [DOM1, DOM2])
def test_gauss_identity_random_masks(dom):
    rng = np.random.default_rng(13)
    for n in (3, 4, 5):
        level = build_level(dom, n)
        for _ in range(20):
            mask = rng.random(level.node_count) > 0.5
            phi = tuple(
                GridFunction(level, rng.standard_normal(level.node_count))
                for _ in range(level.dimension)
            )
            res = gauss_check(phi, NodeMask(level, mask))
            assert res.gap <= 1e-12 * max(abs(res.lhs), abs(res.rhs), 1.0)


def test_gauss_identity_smooth_region():
    level = build_level(DOM2, 5)
    rng = np.random.default_rng(17)
    phi = tuple(
        GridFunction(level, rng.standard_normal(level.node_count)) for _ in range(2)
    )
    res = gauss_check(phi, Ball((0.5, 0.5), 0.3))
    assert res.gap <= 1e-12 * max(abs(res.lhs), abs(res.rhs), 1.0)


def test_region_validation():
    with pytest.raises(ValueError):
        Ball((0.5,), -1.0)
    with pytest.raises(ValueError):
        Box(((0.5, 0.5),))
    with pytest.raises(ValueError):
        HalfSpace(0, 0.5, side="sideways")
    level = build_level(DOM1, 3)
    with pytest.raises(ValueError):
        NodeMask(level, np.ones(3, bool))


# ---------------------------------------------------------------------------
# node-mask density: the count-stencil correlation against the indicator
# oracle (``_sampled_fraction`` evaluates ``NodeMask.indicator`` at every
# sample point)
# ---------------------------------------------------------------------------

MASK_DOMAINS = {
    1: (DOM1, Domain(((0.3, 3.3),))),
    2: (DOM2, Domain(((0.3, 1.3), (-2.0, 0.0)))),
    3: (DOM3, Domain(((0.1, 0.6), (-1.0, 0.0), (2.0, 2.5)))),
}
MASK_MAX_LEVEL = {1: 8, 2: 5, 3: 3}
# no sample t of the unit ball makes t * eta_factor a half-integer
TIE_FREE_FACTORS = (1.0, 1.25, 1.5, 3.0, 1e6)


def _assert_matches_oracle(region, eta_factor):
    level = region.level
    expected = _sampled_fraction(level, region, eta_factor * level.h)
    np.testing.assert_array_equal(density(region, level, eta_factor).values, expected)


def _indicator_mean(region, nodes):
    """The sampling rule at ``eta_factor = 1``, evaluated at ``nodes`` only."""
    level = region.level
    offsets = _unit_ball_samples(level.dimension) * level.h
    pts = level.coordinates[nodes, None, :] + offsets[None, :, :]
    return region.indicator(pts).mean(axis=1)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from((1, 2, 3)), data=st.data())
def test_mask_density_matches_indicator_sampling(dim, data):
    domain = data.draw(st.sampled_from(MASK_DOMAINS[dim]))
    level = build_level(domain, data.draw(st.integers(0, MASK_MAX_LEVEL[dim])))
    eta_factor = data.draw(st.sampled_from(TIE_FREE_FACTORS))
    fill = data.draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(level.node_count) < fill
    _assert_matches_oracle(NodeMask(level, mask), eta_factor)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from((1, 2, 3)), data=st.data())
def test_mask_density_bit_identical_to_ndimage_correlation(dim, data):
    # the integer sum of shifted slices against the former float correlation
    domain = data.draw(st.sampled_from(MASK_DOMAINS[dim]))
    level = build_level(domain, data.draw(st.integers(0, MASK_MAX_LEVEL[dim])))
    eta_factor = data.draw(st.sampled_from((1.0, 1.5, 3.0, 1e6)))
    fill = data.draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    region = NodeMask(level, rng.random(level.node_count) < fill)
    got = _mask_fraction(region, eta_factor)
    expected = oracles.mask_fraction(region, eta_factor)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("dom, n", [(DOM1, 5), (DOM2, 4), (DOM3, 2)])
@pytest.mark.parametrize("eta_factor", TIE_FREE_FACTORS)
def test_mask_density_explicit_masks(dom, n, eta_factor):
    level = build_level(dom, n)
    corner = np.zeros(level.node_count, bool)
    corner[0] = True
    face = level.coordinates[:, 0] == 0.0
    full = np.ones(level.node_count, bool)
    for mask in (corner, face, full, ~full):
        _assert_matches_oracle(NodeMask(level, mask), eta_factor)


def test_mask_density_past_former_gather_cap():
    # 263169 nodes x 316 samples: 83M sample points, far past the size of a
    # full nearest-node gather; the oracle runs on a subset of the nodes
    level = build_level(DOM2, 9)
    rng = np.random.default_rng(29)
    region = NodeMask(level, rng.random(level.node_count) < 0.5)
    theta = density(region, level).values
    m0, m1 = level.shape
    corners = level.flat_index(([0, 0, m0 - 1, m0 - 1], [0, m1 - 1, 0, m1 - 1]))
    picks = np.concatenate([rng.choice(level.node_count, 1000, replace=False), corners])
    np.testing.assert_array_equal(theta[picks], _indicator_mean(region, picks))


def test_mask_density_on_levels_rebuilt_in_turn():
    # same spacing, other node counts; each level is freed before the next is
    # built, so a new level may reuse the memory (and the id()) of an old one:
    # nothing may carry over
    rng = np.random.default_rng(31)
    for dom in (DOM1, DOM2, DOM3, DOM2, DOM1, DOM2):
        level = build_level(dom, 3)
        region = NodeMask(level, rng.random(level.node_count) < 0.5)
        theta = density(region, level).values
        np.testing.assert_array_equal(theta, _indicator_mean(region, slice(None)))
        del level, region


@pytest.mark.parametrize("dom, n", [(DOM1, 5), (DOM2, 4)])
def test_mask_density_ties_round_alike_at_every_node(dom, n):
    # at eta_factor = 2 the samples t = +-0.25, +-0.75 give half-integer
    # shifts; each is rounded once, so a one-node mask at any interior node
    # must produce the same stencil around it
    level = build_level(dom, n)
    reach = 2
    center = level.flat_index(tuple(m // 2 for m in level.shape))
    windows = {}
    for node in np.flatnonzero(~level.boundary_mask):
        mask = np.zeros(level.node_count, bool)
        mask[node] = True
        theta = density(NodeMask(level, mask), level, 2.0).grid_values
        padded = np.pad(theta, reach, constant_values=np.nan)
        at = level.multi_index(node)
        window = padded[tuple(slice(i, i + 2 * reach + 1) for i in at)]
        inside = ~np.isnan(window)
        assert np.count_nonzero(window[inside]) == np.count_nonzero(theta)
        windows[node] = window
    ref = windows[center]
    assert not np.isnan(ref).any()
    for window in windows.values():
        inside = ~np.isnan(window)
        np.testing.assert_array_equal(window[inside], ref[inside])


@pytest.mark.parametrize("eta_factor", [np.nan, np.inf, -np.inf, 0.5])
def test_density_rejects_bad_eta_factor(eta_factor):
    level = build_level(DOM1, 3)
    for region in (HalfSpace(0, 0.5), NodeMask(level, level.coordinates[:, 0] < 0.5)):
        with pytest.raises(ValueError):
            density(region, level, eta_factor)


def test_mask_density_stencil_is_bounded_for_huge_eta_factor():
    # shifts past the last node are cut to it; uncut, eta_factor = 1e6 would
    # ask for a count stencil of (2e6 + 1)**3 entries
    level = build_level(DOM3, 2)
    rng = np.random.default_rng(37)
    region = NodeMask(level, rng.random(level.node_count) < 0.5)
    theta = density(region, level, 1e6).values
    np.testing.assert_array_equal(
        theta, _sampled_fraction(level, region, 1e6 * level.h)
    )
    np.testing.assert_array_equal(density(region, level, 1e300).values, theta)


def test_mask_density_rejects_mask_of_another_level():
    level = build_level(DOM1, 3)
    for other in (build_level(DOM1, 4), build_level(DOM2, 3)):
        with pytest.raises(ValueError):
            density(NodeMask(other, np.ones(other.node_count, bool)), level)


def test_mask_density_accepts_mask_of_an_equal_level():
    level, equal = build_level(DOM2, 4), build_level(DOM2, 4)
    mask = np.random.default_rng(41).random(level.node_count) < 0.5
    np.testing.assert_array_equal(
        density(NodeMask(equal, mask), level).values,
        density(NodeMask(level, mask), level).values,
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x, node", [(1e300, -1), (-1e300, 0)])
def test_node_mask_indicator_far_outside_the_box(x, node):
    # a far point belongs to the cell of the nearest (clipped) node; the
    # float-to-int cast must not wrap before the clip
    level = build_level(DOM1, 3)
    for mask_node in (node, 4):
        mask = np.zeros(level.node_count, bool)
        mask[mask_node] = True
        hit = NodeMask(level, mask).indicator(np.array([[x]]))
        assert hit.tolist() == [mask_node == node]

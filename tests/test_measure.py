"""Density functions, perimeter, and the Gauss identity."""

import dataclasses
import tracemalloc

import csr_oracles as oracles
import measure_oracles
import numpy as np
import pytest
from grid_oracles import coordinate_table
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragrid import (
    Ball,
    Box,
    Domain,
    GaussResult,
    GridFunction,
    HalfSpace,
    NodeMask,
    build_level,
    density,
    gauss_check,
    perimeter,
)
from ultragrid import measure
from ultragrid.measure import _box_fraction, _mask_fraction

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
        x = coordinate_table(level)[:, 0]
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
    sampled = measure_oracles.sampled_fraction(box, level)
    # the sampled rule carries midpoint error near corners; the closed form
    # is the reference
    assert np.max(np.abs(exact - sampled)) < 0.05


@pytest.mark.parametrize("region, dim", [
    (HalfSpace(0, 0.5), 1),
    (HalfSpace(0, 0.3), 2),
    (HalfSpace(1, 0.625), 2),
    (HalfSpace(0, 0.5), 3),
    (HalfSpace(2, 0.41), 3),
    (Box(((0.25, 0.61),)), 1),
    (Box(((0.25, 0.75), (0.33, 0.84))), 2),
    (Box(((0.22, 0.5), (0.0, 1.0))), 2),
])
@pytest.mark.parametrize("n", [2, 5])
def test_closed_forms_on_the_axes_are_the_coordinate_table_ones(region, dim, n):
    # on the open mesh of the axes, bit for bit as on the coordinate table,
    # signed zeros included
    level = build_level(Domain(((0.0, 1.0),) * dim), n)
    got = density(region, level).values
    expected = measure_oracles.closed_form_density(region, level)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


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
    mask = coordinate_table(level)[:, 0] <= 0.5
    assert perimeter(NodeMask(level, mask), level) == pytest.approx(1.0, rel=0.02)


def test_full_and_empty_masks():
    level = build_level(DOM2, 4)
    full = NodeMask(level, np.ones(level.node_count, bool))
    empty = NodeMask(level, np.zeros(level.node_count, bool))
    assert perimeter(full, level) == 0.0
    assert perimeter(empty, level) == 0.0
    assert np.all(density(full, level).values == 1.0)
    assert np.all(density(empty, level).values == 0.0)


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
    level = build_level(DOM1, 3)
    with pytest.raises(ValueError):
        NodeMask(level, np.ones(3, bool))


# ---------------------------------------------------------------------------
# the counted sampling rule of node masks and 3D boxes against the indicator
# oracle (``measure_oracles.sampled_fraction`` evaluates the region's
# indicator at every sample point)
# ---------------------------------------------------------------------------

MASK_DOMAINS = {
    1: (DOM1, Domain(((0.3, 3.3),))),
    2: (DOM2, Domain(((0.3, 1.3), (-2.0, 0.0)))),
    3: (DOM3, Domain(((0.1, 0.6), (-1.0, 0.0), (2.0, 2.5)))),
}
MASK_MAX_LEVEL = {1: 8, 2: 5, 3: 3}


def _same_bytes(got, expected):
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def _assert_matches_oracle(region, level, nodes=slice(None)):
    _same_bytes(
        density(region, level).values[nodes],
        measure_oracles.sampled_fraction(region, level, nodes),
    )


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from((1, 2, 3)), data=st.data())
def test_mask_density_matches_indicator_sampling(dim, data):
    domain = data.draw(st.sampled_from(MASK_DOMAINS[dim]))
    level = build_level(domain, data.draw(st.integers(0, MASK_MAX_LEVEL[dim])))
    fill = data.draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(level.node_count) < fill
    _assert_matches_oracle(NodeMask(level, mask), level)


#: calculus-check covers the Gauss identity in 1D and 2D only
GAUSS_MAX_LEVEL = {1: 8, 2: 5, 3: 4}


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from((1, 2, 3)), data=st.data())
def test_gauss_identity_on_random_masks_and_fields(dim, data):
    # the identity is algebraic (the weighted derivative is antisymmetric),
    # so it holds to rounding for any mask and field
    domain = data.draw(st.sampled_from(MASK_DOMAINS[dim]))
    level = build_level(domain, data.draw(st.integers(0, GAUSS_MAX_LEVEL[dim])))
    fill = data.draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(level.node_count) < fill
    phi = tuple(
        GridFunction(level, rng.standard_normal(level.node_count)) for _ in range(dim)
    )
    res = gauss_check(phi, NodeMask(level, mask))
    assert res.gap <= 1e-12 * max(abs(res.lhs), abs(res.rhs), 1.0)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from((1, 2, 3)), data=st.data())
def test_mask_density_bit_identical_to_ndimage_correlation(dim, data):
    # the integer sum of shifted slices against the former float correlation
    domain = data.draw(st.sampled_from(MASK_DOMAINS[dim]))
    level = build_level(domain, data.draw(st.integers(0, MASK_MAX_LEVEL[dim])))
    fill = data.draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    region = NodeMask(level, rng.random(level.node_count) < fill)
    _same_bytes(_mask_fraction(region), oracles.mask_fraction(region))


@pytest.mark.parametrize("dom, n", [(DOM1, 5), (DOM2, 4), (DOM3, 2)])
def test_mask_density_explicit_masks(dom, n):
    level = build_level(dom, n)
    corner = np.zeros(level.node_count, bool)
    corner[0] = True
    face = coordinate_table(level)[:, 0] == 0.0
    full = np.ones(level.node_count, bool)
    for mask in (corner, face, full, ~full):
        _assert_matches_oracle(NodeMask(level, mask), level)


#: boxes inside the cube, across a face, around it, thinner than a sample
#: step, and off it
BOXES_3D = (
    Box(((0.2, 0.65), (0.1, 0.7), (0.3, 0.9))),
    Box(((0.25, 0.75),) * 3),
    Box(((-0.5, 0.5), (0.0, 1.0), (0.125, 0.375))),
    Box(((-1.0, 2.0),) * 3),
    Box(((0.5, 0.5 + 1e-9), (0.3, 0.6), (0.4, 0.45))),
    Box(((1.5, 2.0),) * 3),
)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_box_density_matches_indicator_sampling_3d(n):
    level = build_level(DOM3, n)
    # and a box whose faces hold samples: x + tau * h at the end nodes
    ticks = (np.arange(20) + 0.5) / 20 * 2.0 - 1.0
    on_samples = Box(tuple((x[0] + ticks[12] * level.h, x[-1] + ticks[6] * level.h)
                           for x in level.axes))
    # at level 4 every 7th node: the oracle takes ~0.3 s a box over all 4913
    nodes = slice(None, None, 7 if n == 4 else 1)
    for box in BOXES_3D + (on_samples,):
        _assert_matches_oracle(box, level, nodes)


def test_mask_density_past_former_gather_cap():
    # 263169 nodes x 316 samples: 83M sample points, far past the size of a
    # full nearest-node gather; the oracle runs on a subset of the nodes
    level = build_level(DOM2, 9)
    rng = np.random.default_rng(29)
    region = NodeMask(level, rng.random(level.node_count) < 0.5)
    theta = density(region, level).values
    m0, m1 = level.shape
    corners = np.ravel_multi_index(([0, 0, m0 - 1, m0 - 1], [0, m1 - 1, 0, m1 - 1]), level.shape)
    picks = np.concatenate([rng.choice(level.node_count, 1000, replace=False), corners])
    _same_bytes(theta[picks], measure_oracles.sampled_fraction(region, level, picks))


def test_mask_density_on_levels_rebuilt_in_turn():
    # same spacing, other node counts; each level is freed before the next is
    # built, so a new level may reuse the memory (and the id()) of an old one:
    # nothing may carry over
    rng = np.random.default_rng(31)
    for dom in (DOM1, DOM2, DOM3, DOM2, DOM1, DOM2):
        level = build_level(dom, 3)
        region = NodeMask(level, rng.random(level.node_count) < 0.5)
        _assert_matches_oracle(region, level)
        del level, region


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
        hit = measure_oracles.indicator(NodeMask(level, mask), np.array([[x]]))
        assert hit.tolist() == [mask_node == node]


# ---------------------------------------------------------------------------
# the in-place gradient sums against their former whole-array forms
# (``measure_oracles``), and the node-sized arrays they hold
# ---------------------------------------------------------------------------


def _regions(level, rng):
    dim = level.dimension
    return (
        NodeMask(level, rng.random(level.node_count) < 0.5),
        NodeMask(level, coordinate_table(level)[:, 0] <= 0.4),
        NodeMask(level, np.zeros(level.node_count, bool)),
        Ball((0.45,) * dim, 0.3),
        Box(tuple((0.2, 0.65) for _ in range(dim))),
        HalfSpace(dim - 1, 0.4),
    )


def _negative_where_flat(values, flat):
    # phi * (+0.0) is -0.0 where phi < 0: the sum must still start from +0.0
    values[flat] = -np.abs(values[flat]) - 1.0
    return values


@pytest.mark.parametrize("dom, n", [(DOM1, 6), (DOM2, 4), (DOM3, 2)])
def test_gradient_sums_bit_identical_to_whole_array_forms(dom, n):
    level = build_level(dom, n)
    rng = np.random.default_rng(43 + n)
    flat_seen = 0
    for region in _regions(level, rng):
        theta = density(region, level)
        flat = measure_oracles.below_floor(measure_oracles.sbp_gradient(theta)[1])
        flat_seen += np.count_nonzero(flat)
        phi = tuple(
            GridFunction(level, _negative_where_flat(rng.standard_normal(level.node_count), flat))
            for _ in range(level.dimension)
        )
        res = gauss_check(phi, region)
        _same_bytes((res.lhs, res.rhs), measure_oracles.gauss_check(phi, region))
        _same_bytes(perimeter(region, level),
                    measure_oracles.perimeter(region, level))
    assert flat_seen > 0


def test_gauss_result_holds_both_sides_only():
    assert [f.name for f in dataclasses.fields(GaussResult)] == ["lhs", "rhs"]
    assert not hasattr(measure, "_density_gradient")


def _traced_peak(call):
    """Traced bytes of a second ``call()`` above its entry (the first warms
    the unit-ball samples, the derivative matrices and the level's caches)."""
    call()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def _peak_node_vectors(call, level):
    return _traced_peak(call) / (8 * level.node_count)


def test_gauss_check_and_perimeter_hold_few_node_vectors():
    # 5 node vectors in 2D: theta, the derivative rows and |D theta| or the
    # derivative temporaries (10 when the normals were stacked and kept, 8
    # for the perimeter's stacked gradient)
    level = build_level(DOM2, 7)
    rng = np.random.default_rng(47)
    region = NodeMask(level, rng.random(level.node_count) < 0.5)
    phi = tuple(
        GridFunction(level, rng.standard_normal(level.node_count)) for _ in range(2)
    )
    assert _peak_node_vectors(lambda: gauss_check(phi, region), level) <= 6.0
    assert _peak_node_vectors(lambda: perimeter(region, level), level) <= 6.0


def test_perimeter_holds_three_node_vectors_at_2d_level_7():
    # theta, |D theta| (the first row, squared in place) and one derivative
    # row: 3.03 node vectors.  Below numpy's 256 KiB temporary elision,
    # np.gradient's difference and quotient temporaries and the square of a
    # row beside it made 4.99
    level = build_level(DOM2, 7)
    region = NodeMask(level, np.random.default_rng(47).random(level.node_count) < 0.5)
    assert _peak_node_vectors(lambda: perimeter(region, level), level) <= 3.5


def test_consistent_gradient_is_np_gradient_byte_for_byte():
    rng = np.random.default_rng(59)
    for dim, n in [(1, 0), (1, 1), (1, 6), (2, 0), (2, 3), (3, 1), (3, 3), (4, 2)]:
        level = build_level(Domain(((0.0, 1.0),) * dim), n)
        theta = GridFunction(level, rng.standard_normal(level.node_count))
        rows = list(measure._consistent_gradient(theta))
        assert len(rows) == dim
        for axis, row in enumerate(rows):
            expected = np.gradient(theta.grid_values, level.h, axis=axis).ravel()
            assert row.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 5)])
def test_perimeter_makes_one_derivative_row_at_a_time(dim, n):
    # theta, |D theta| and one derivative row: 3.01 node vectors in 2D, and
    # in 3D 4.02 while the node-mask density is made; the rows of every
    # axis made at once and then summed held 5.00 and 6.01
    level = build_level(Domain(((0.0, 1.0),) * dim), n)
    region = NodeMask(level, np.random.default_rng(53).random(level.node_count) < 0.5)
    assert _peak_node_vectors(lambda: perimeter(region, level), level) <= 4.5


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sampled_density_peak_is_bounded(n):
    # the ball counts take ~3 node vectors (the count, one corner and its
    # flat index) and numpy's iterator buffers, at most 8192 elements per
    # operand; evaluated point by point, a level-4 box had 4913 nodes x 4224
    # unit-ball samples (32 MiB traced in chunks, 183 MiB in one)
    level = build_level(DOM3, n)
    box = Box(((0.2, 0.65), (0.1, 0.7), (0.3, 0.9)))
    node_vector = 8 * level.node_count
    assert _traced_peak(lambda: density(box, level)) <= 4 * node_vector + 256 * 2**10

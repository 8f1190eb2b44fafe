"""Domains, levels, node sets, and nesting."""

import numpy as np
import pytest
from grid_oracles import coordinate_table, monad
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultragrid import (
    Domain,
    GridLevel,
    NodeSet,
    ResourceLimitError,
    build_level,
)
from ultragrid import grid


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(((1.0, 0.0),))  # reversed bounds
    with pytest.raises(ValueError):
        Domain(((0.0, 1.0), (0.0, 1.5)))  # 1.5 not an integer multiple of 1.0


def test_domain_properties():
    dom = Domain(((0.0, 1.0), (0.0, 2.0)))
    assert dom.dimension == 2
    assert dom.base_spacing == 1.0


def test_level_shapes_and_spacing():
    dom = Domain(((0.0, 1.0),))
    for n in range(3, 7):
        level = build_level(dom, n)
        assert level.h == 2.0**-n
        assert level.node_count == 2**n + 1
        assert np.isclose(level.axes[0][-1], 1.0)


def test_level_nesting_is_dyadic():
    dom = Domain(((0.0, 1.0), (0.0, 1.0)))
    coarse = build_level(dom, 3)
    fine = build_level(dom, 4)
    # every coarse node is a fine node
    cset = {tuple(p) for p in np.round(coordinate_table(fine), 12)}
    assert all(tuple(p) in cset for p in np.round(coordinate_table(coarse), 12))


def test_trapezoid_weights_sum_to_volume():
    dom = Domain(((0.0, 1.0), (0.0, 2.0)))
    level = build_level(dom, 4)
    assert np.isclose(level.weights.sum(), 2.0)
    # interior weight h^N, boundary halved per touched face
    interior = ~level.boundary_mask
    assert np.allclose(level.weights[interior], level.h**2)


def test_node_cap():
    dom = Domain(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ResourceLimitError):
        build_level(dom, 10)


def test_node_cap_refuses_a_level_from_its_smallest_axis(monkeypatch):
    # level n's smallest axis alone has 2**n + 1 nodes: from level log2(cap)
    # up the level is refused before its spacing 2.0**-n is computed, which
    # is 0.0 at level 1100 and would divide by zero
    line = Domain(((0.0, 1.0),))
    assert build_level(line, 23).node_count == 2**23 + 1
    for n in (24, 1100, 10**15):
        with pytest.raises(ResourceLimitError, match=f"level {n} requires more than"):
            build_level(line, n)
    # build_level reads the cap at call time
    monkeypatch.setattr(grid, "DEFAULT_NODE_CAP", 100)
    with pytest.raises(ResourceLimitError, match="level 7 requires more than 100 nodes"):
        build_level(Domain(((0.0, 1.0), (0.0, 4.0))), 7)


def test_boundary_nodes_1d():
    level = build_level(Domain(((0.0, 1.0),)), 3)
    assert np.flatnonzero(level.boundary_mask).tolist() == [0, level.node_count - 1]


def test_cached_level_arrays_are_read_only():
    # objectives and kernels share a level's cached arrays, so none may
    # write into them
    level = build_level(Domain(((0.0, 1.0), (0.0, 2.0))), 3)
    for arr in (level.boundary_mask, level.weights, level.axes[0], level.axis_weights[1]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_monad_symmetry_and_membership():
    # the tests' monad oracle: sorted, the node in its own monad, symmetric
    level = build_level(Domain(((0.0, 1.0), (0.0, 1.0))), 3)
    rng = np.random.default_rng(1)
    for node in rng.integers(0, level.node_count, size=10):
        node = int(node)
        nb = monad(level, node)
        assert np.all(np.diff(nb) > 0)
        assert node in nb
        for j in nb:
            assert node in monad(level, int(j))


def test_node_set_sorted_unique_mask():
    level = build_level(Domain(((0.0, 1.0),)), 3)
    ns = NodeSet(level, np.array([4, 1, 4, 2]))
    assert ns.indices.tolist() == [1, 2, 4]
    assert ns.mask().sum() == 3
    with pytest.raises(ValueError):
        NodeSet(level, np.array([level.node_count]))


def test_levels_are_values():
    # built separately, from equal but distinct domain objects
    a = build_level(Domain(((0.0, 1.0), (0.0, 2.0))), 4)
    b = build_level(Domain(((0.0, 1.0), (0.0, 2.0))), 4)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != build_level(a.domain, 5)
    assert a != build_level(Domain(((0.0, 1.0), (0.0, 1.0))), 4)


@pytest.mark.parametrize("bounds, center", [
    (((0.0, 1.0),), (0.3,)),
    (((-1.0, 2.0),), (0.5,)),
    (((0.0, 1.0), (0.0, 1.0)), (0.4, 0.6)),
    (((0.0, 2.0), (-1.0, 0.0)), (0.7, -0.2)),
])
@pytest.mark.parametrize("n", [0, 3, 6])
def test_distance_bit_identical_to_coordinate_norm(bounds, center, n):
    # the 1D and 2D cases of the radius broadcast from the axes; 3D and 4D
    # are checked with the quotient's starts in test_problems
    level = build_level(Domain(bounds), n)
    dist = np.linalg.norm(coordinate_table(level) - np.asarray(center), axis=1)
    np.testing.assert_array_equal(level.distance(center), dist)


@pytest.mark.parametrize("bounds", [
    ((0.0, 1.0),),
    ((0.0, 2.0), (-1.0, 0.0)),
    ((0.0, 1.0), (0.0, 2.0), (-0.5, 0.5)),
])
def test_coordinates_of_nodes_are_rows_of_the_coordinate_table(bounds):
    level = build_level(Domain(bounds), 3)
    table = coordinate_table(level)
    nodes = np.random.default_rng(5).integers(0, level.node_count, size=17)
    np.testing.assert_array_equal(level.coordinates_of(nodes), table[nodes])
    np.testing.assert_array_equal(level.coordinates_of(int(nodes[0])), table[nodes[0]])
    assert level.coordinates_of(nodes[:0]).shape == (0, level.dimension)


@settings(max_examples=200, deadline=None)
@given(
    indices=st.lists(st.integers(-3, 30), max_size=40),
    as_array=st.booleans(),
)
@example(indices=[], as_array=True)
@example(indices=[], as_array=False)
@example(indices=[5, 2, 5, 5], as_array=False)
@example(indices=[16, 17], as_array=True)
@example(indices=[-1, 3], as_array=False)
def test_node_set_indices_match_np_unique(indices, as_array):
    # a 1D level-4 line has 17 nodes: the draws hit duplicates, the empty
    # list, and indices below 0 and above the last node
    level = build_level(Domain(((0.0, 1.0),)), 4)
    given_indices = np.array(indices, dtype=np.int64) if as_array else indices
    expected = np.unique(np.asarray(indices, dtype=np.int64))
    if expected.size and (expected[0] < 0 or expected[-1] >= level.node_count):
        with pytest.raises(ValueError, match="out of range"):
            NodeSet(level, given_indices)
        return
    got = NodeSet(level, given_indices).indices
    assert got.dtype == expected.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


def test_node_count_is_a_python_int_without_numpy(monkeypatch):
    # math.prod of the shape tuple: np.prod took ~50x longer per call
    level = build_level(Domain(((0.0, 1.0), (0.0, 2.0), (-1.0, 0.0))), 3)

    def no_numpy(*args, **kwargs):
        raise AssertionError("node_count called np.prod")

    monkeypatch.setattr(np, "prod", no_numpy)
    assert level.node_count == 9 * 17 * 9
    assert type(level.node_count) is int

"""Domains, levels, node sets, and nesting."""

import numpy as np
import pytest

from ultragrid import (
    Domain,
    GridLevel,
    NodeSet,
    ResourceLimitError,
    boundary_nodes,
    build_level,
    level_to_csv,
    monad_neighbors,
)


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(((1.0, 0.0),))  # reversed bounds
    with pytest.raises(ValueError):
        Domain(((0.0, 1.0), (0.0, 1.5)))  # 1.5 not an integer multiple of 1.0


def test_domain_properties():
    dom = Domain(((0.0, 1.0), (0.0, 2.0)))
    assert dom.dimension == 2
    assert dom.base_spacing == 1.0
    assert dom.volume == 2.0
    inside = dom.contains(np.array([[0.5, 1.0], [1.5, 0.5]]))
    assert inside.tolist() == [True, False]


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
    cset = {tuple(p) for p in np.round(fine.coordinates, 12)}
    assert all(tuple(p) in cset for p in np.round(coarse.coordinates, 12))


def test_trapezoid_weights_sum_to_volume():
    dom = Domain(((0.0, 1.0), (0.0, 2.0)))
    level = build_level(dom, 4)
    assert np.isclose(level.weights.sum(), dom.volume)
    # interior weight h^N, boundary halved per touched face
    interior = ~level.boundary_mask
    assert np.allclose(level.weights[interior], level.h**2)


def test_node_cap():
    dom = Domain(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ResourceLimitError):
        build_level(dom, 10)


def test_boundary_nodes_1d():
    level = build_level(Domain(((0.0, 1.0),)), 3)
    assert boundary_nodes(level).indices.tolist() == [0, level.node_count - 1]


def test_monad_symmetry_and_membership():
    level = build_level(Domain(((0.0, 1.0), (0.0, 1.0))), 3)
    rng = np.random.default_rng(1)
    for node in rng.integers(0, level.node_count, size=10):
        node = int(node)
        nb = monad_neighbors(level, node)
        assert node in nb
        for j in nb.indices:
            assert node in monad_neighbors(level, int(j))


def test_node_set_sorted_unique_mask():
    level = build_level(Domain(((0.0, 1.0),)), 3)
    ns = NodeSet(level, np.array([4, 1, 4, 2]))
    assert ns.indices.tolist() == [1, 2, 4]
    assert ns.mask().sum() == 3
    with pytest.raises(ValueError):
        NodeSet(level, np.array([level.node_count]))


def test_level_to_csv(tmp_path):
    level = build_level(Domain(((0.0, 1.0),)), 3)
    path = tmp_path / "level.csv"
    level_to_csv(level, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("index,")
    assert len(lines) == level.node_count + 1


def test_flat_multi_index_round_trip():
    level = build_level(Domain(((0.0, 1.0), (0.0, 1.0))), 3)
    flat = np.arange(level.node_count)
    assert np.array_equal(level.flat_index(level.multi_index(flat)), flat)


def test_levels_are_values():
    # built separately, from equal but distinct domain objects
    a = build_level(Domain(((0.0, 1.0), (0.0, 2.0))), 4)
    b = build_level(Domain(((0.0, 1.0), (0.0, 2.0))), 4)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != build_level(a.domain, 5)
    assert a != build_level(Domain(((0.0, 1.0), (0.0, 1.0))), 4)

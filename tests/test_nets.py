"""Level-indexed nets and standard-part classification."""

from unittest import mock

import numpy as np
import pytest
from grid_oracles import coordinate_table
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragrid import (
    Classification,
    Domain,
    GridFunction,
    Kind,
    Net,
    build_level,
    classify,
    coarse_values,
    pointwise_standard_part,
    restrict,
)
from ultragrid import nets

DOM1 = Domain(((0.0, 1.0),))


def number_net(pairs):
    return Net(tuple(pairs))


def test_net_validation():
    with pytest.raises(ValueError):
        number_net([(3, 1.0), (4, 2.0)])  # too short
    with pytest.raises(ValueError):
        number_net([(3, 1.0), (3, 2.0), (4, 3.0)])  # not increasing
    with pytest.raises(ValueError):
        number_net([(3, 1.0), (4, float("nan")), (5, 2.0)])
    level = build_level(DOM1, 3)
    u = GridFunction(level, np.zeros(level.node_count))
    with pytest.raises(ValueError):
        Net(((3, u), (4, 1.0), (5, 2.0)))  # mixed payloads


def test_classify_convergent_geometric():
    # x_n = 2 + 4^-n: second-order tail
    net = number_net([(n, 2.0 + 4.0**-n) for n in range(3, 8)])
    c = classify(net)
    assert c.kind is Kind.STANDARD
    assert c.value == pytest.approx(2.0, abs=1e-10)
    assert c.exponent == pytest.approx(2.0, abs=0.01)


def test_classify_settled_constant_keeps_small_value():
    # constant below the KAPPA*h floor must NOT snap to zero
    net = number_net([(n, 0.03125) for n in range(3, 9)])
    c = classify(net)
    assert c.kind is Kind.STANDARD
    assert c.value == 0.03125


def test_classify_infinitesimal_snap():
    net = number_net([(n, 2.0**-n * (-1.0) ** n) for n in range(3, 9)])
    c = classify(net)
    assert c.kind is Kind.STANDARD
    assert c.value == 0.0


def test_classify_divergent_plus_minus():
    plus = number_net([(n, 2.0**n) for n in range(3, 8)])
    minus = number_net([(n, -(2.0**n)) for n in range(3, 8)])
    assert classify(plus).kind is Kind.INFINITE_PLUS
    assert classify(minus).kind is Kind.INFINITE_MINUS


def test_classify_oscillating_unclassified():
    net = number_net([(n, (-1.0) ** n) for n in range(3, 9)])
    c = classify(net)
    assert c.kind is Kind.UNCLASSIFIED
    assert not c.monotone_growth


def test_classify_rejects_grid_net():
    level = build_level(DOM1, 3)
    u = GridFunction(level, np.zeros(level.node_count))
    gnet = Net(((3, u), (4, u), (5, u)))
    with pytest.raises(ValueError):
        classify(gnet)


@settings(max_examples=100, deadline=None)
@given(
    head=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
    tail=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    first=st.integers(-2, 12),
    kappa=st.sampled_from((0.0, 10.0, 1e4)),
)
def test_classify_reads_only_the_last_three_entries(head, tail, first, kappa):
    # prepending coarser levels leaves the classification unchanged, at the
    # module's KAPPA and at others
    levels = list(range(first, first + len(head) + 3))
    with mock.patch.object(nets, "KAPPA", kappa):
        short = classify(number_net(zip(levels[-3:], tail)))
        assert classify(number_net(zip(levels, head + tail))) == short


def test_classification_requires_finite_standard_value():
    with pytest.raises(ValueError):
        Classification(Kind.STANDARD, float("inf"))


def test_coarse_values_alignment():
    levels = [build_level(DOM1, n) for n in (3, 4, 5)]
    fns = [restrict(lambda x: x**2, lvl) for lvl in levels]
    net = Net(tuple((lvl.n, f) for lvl, f in zip(levels, fns)))
    vals = coarse_values(net)
    coarse_x = coordinate_table(levels[0])[:, 0]
    # the same spatial points are sampled on every level
    for row in vals:
        assert np.allclose(row, coarse_x**2)


def test_pointwise_standard_part_convergent():
    levels = [build_level(DOM1, n) for n in (3, 4, 5, 6)]
    fns = [
        restrict(lambda x, h=lvl.h: np.cos(x) + h**2, lvl) for lvl in levels
    ]
    net = Net(tuple((lvl.n, f) for lvl, f in zip(levels, fns)))
    w, singular = pointwise_standard_part(net)
    x = coordinate_table(levels[0])[:, 0]
    assert len(singular) == 0
    assert np.allclose(w.values, np.cos(x), atol=1e-6)


def test_pointwise_standard_part_log_singularity():
    # the synthetic blow-up net log(x^2 + h^2) on [-1, 1]
    dom = Domain(((-1.0, 1.0),))
    levels = [build_level(dom, n) for n in (3, 4, 5, 6, 7, 8)]
    fns = [
        restrict(lambda x, h=lvl.h: np.log(x**2 + h**2), lvl) for lvl in levels
    ]
    net = Net(tuple((lvl.n, f) for lvl, f in zip(levels, fns)))
    w, singular = pointwise_standard_part(net)
    coarse = levels[0]
    coords = coordinate_table(coarse)[singular.indices][:, 0]
    assert coords.tolist() == [0.0]
    x = coordinate_table(coarse)[:, 0]
    off = np.abs(x) >= 0.1
    err = np.abs(w.values[off] - 2.0 * np.log(np.abs(x[off])))
    assert np.max(err) <= 0.05


def test_pointwise_standard_part_marks_a_growing_standard_node_over_the_bound():
    # two nodes with the same geometric tail, growing strictly, that classify
    # STANDARD: the one at or over h**-0.5 at the finest level (32**0.5) is
    # singular with w = 0, the one below it keeps its standard value
    levels = [build_level(DOM1, n) for n in (3, 4, 5)]
    assert nets.SINGULAR_SCALE * levels[-1].h ** -nets.SINGULAR_EXPONENT == 32**0.5
    tails = {2: (10.0, 15.0, 17.5), 5: (1.0, 1.5, 1.75)}
    entries = []
    for k, lvl in enumerate(levels):
        u = np.zeros(lvl.node_count)
        for node, tail in tails.items():
            u[node * 2**k] = tail[k]
        entries.append((lvl.n, GridFunction(lvl, u)))
    for node, limit in ((2, 20.0), (5, 2.0)):
        c = classify(number_net((lvl.n, tails[node][k]) for k, lvl in enumerate(levels)))
        assert c.kind is Kind.STANDARD and c.monotone_growth
        assert c.value == pytest.approx(limit)
    w, singular = pointwise_standard_part(Net(tuple(entries)))
    assert singular.indices.tolist() == [2]
    assert w.values[2] == 0.0
    assert w.values[5] == pytest.approx(2.0)


def test_spacings_grid_vs_number():
    net = number_net([(3, 1.0), (4, 1.0), (5, 1.0)])
    assert net.spacings() == (2.0**-3, 2.0**-4, 2.0**-5)
    levels = [build_level(DOM1, n) for n in (3, 4, 5)]
    gnet = Net(
        tuple(
            (lvl.n, GridFunction(lvl, np.zeros(lvl.node_count))) for lvl in levels
        )
    )
    assert gnet.spacings() == tuple(lvl.h for lvl in levels)

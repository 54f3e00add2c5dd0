import math
import warnings

import numpy as np
import pytest

from conftest import traced_peak
from ftagree import (
    algebraic_connectivity,
    exponent_transform,
    is_connected,
    path_topology,
    reconstruct_paper_graph,
    t1_bound,
    v1,
)
from ftagree import reconstruct
from ftagree.errors import FtagreeError, ValidationError

X0 = np.array([-5.0, -3.0, 7.0, 9.0, 4.0, 5.0])
# The three graphs the published targets give, in subset-encoding order.
PUBLISHED_CANDIDATES = [
    [(0, 1), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3)],
    [(0, 1), (0, 2), (0, 5), (1, 5), (3, 4), (4, 5)],
    [(0, 2), (1, 2), (1, 5), (2, 5), (3, 4), (4, 5)],
]


def brute_force_matches(contrib, targets):
    """For each target, the ascending masks of every subset whose sum is
    within TOL_V of it: each mask's bits times contrib, in chunks of masks."""
    total = 1 << contrib.size
    shifts = np.arange(contrib.size)
    hits = [[] for _ in targets]
    for start in range(0, total, 1 << 14):
        masks = np.arange(start, min(start + (1 << 14), total))
        sums = ((masks[:, None] >> shifts) & 1).astype(float) @ contrib
        for found, target in zip(hits, targets):
            found += masks[np.abs(sums - target) <= reconstruct.TOL_V].tolist()
    return hits


class TestReconstruction:
    def test_published_targets_found(self):
        cands = reconstruct_paper_graph(X0, 338.0, 1.0409, 0.5)
        assert len(cands) >= 1
        for c in cands:
            assert v1(c, X0) == pytest.approx(338.0, abs=1e-9)
            lam2b = algebraic_connectivity(exponent_transform(c, 0.5))
            assert lam2b == pytest.approx(1.0409, abs=5e-4)
            # each candidate independently re-yields the published t1
            lam2a = algebraic_connectivity(c)
            assert t1_bound(338.0, lam2a, 0.5) == pytest.approx(11.7681, abs=1e-2)

    def test_plant_and_recover(self):
        planted = path_topology(6, 2.0)
        v1_target = v1(planted, X0)
        lam2b_target = algebraic_connectivity(exponent_transform(planted, 0.5))
        cands = reconstruct_paper_graph(X0, v1_target, lam2b_target, 0.5)
        assert any(np.array_equal(c.weights, planted.weights) for c in cands)

    def test_impossible_targets(self):
        assert reconstruct_paper_graph(X0, -1.0, 1.0, 0.5) == []

    def test_deterministic(self):
        a = reconstruct_paper_graph(X0, 338.0, 1.0409, 0.5)
        b = reconstruct_paper_graph(X0, 338.0, 1.0409, 0.5)
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.weights, tb.weights)

    def test_too_large(self):
        with pytest.raises(ValidationError, match="exhaustive search limited to n <= 7, got n=8"):
            reconstruct_paper_graph(np.zeros(8), 1.0, 1.0, 0.5)


def test_published_search_counts_and_candidates(monkeypatch):
    # is_connected runs once on each energy match.
    connected = []

    def recording_is_connected(top):
        connected.append(is_connected(top))
        return connected[-1]

    monkeypatch.setattr(reconstruct, "is_connected", recording_is_connected)
    cands = reconstruct_paper_graph(X0, 338.0, 1.0409, 0.5)
    assert (len(connected), sum(connected)) == (89, 63)
    assert [list(zip(c.i.tolist(), c.j.tolist())) for c in cands] == PUBLISHED_CANDIDATES
    for c in cands:
        assert c.n == 6 and c.w.tolist() == [2.0] * 6


def test_energy_matches_equal_the_all_masks_search():
    # Integer states and weight 2 make every contribution and every
    # subset sum an exact integer, so both searches must agree exactly.
    rng = np.random.default_rng(20261020)
    for _ in range(12):
        n = int(rng.integers(3, 8))
        x0 = rng.integers(-6, 7, n).astype(float)
        contrib = np.array([(x0[j] - x0[i]) ** 2 for i in range(n) for j in range(i + 1, n)])
        masks = rng.integers(0, 1 << contrib.size, 3)
        sums = [float(((m >> np.arange(contrib.size)) & 1) @ contrib) for m in masks]
        targets = [*sums, 0.0, sums[0] + 0.5, -1.0]
        for target, expected in zip(targets, brute_force_matches(contrib, targets)):
            assert reconstruct._energy_matches(contrib, target) == expected


def test_a_seven_vertex_search_recovers_its_planted_path_within_40_megabytes():
    # The largest size searched: a table of 2**21 sums, 16 MB. Square
    # roots make subset sums distinct, so few subsets match.
    x0 = np.sqrt(np.arange(1.0, 8.0))
    planted = path_topology(7, 2.0)
    lam2b = algebraic_connectivity(exponent_transform(planted, 0.5))
    target, found = v1(planted, x0), []
    peak = traced_peak(lambda: found.append(reconstruct_paper_graph(x0, target, lam2b, 0.5)))
    assert peak < 40e6
    assert any(np.array_equal(c.weights, planted.weights) for c in found[0])


def test_published_search_peaks_below_one_megabyte():
    peak = traced_peak(lambda: reconstruct_paper_graph(X0, 338.0, 1.0409, 0.5))
    assert peak < 1e6


@pytest.mark.parametrize(
    "x0, kw",
    [
        ([0.0, math.inf, 1.0], {}),
        ([0.0, math.nan, 1.0], {}),
        ([0.0, 1.0, 2.0], {"weight": math.inf}),
        ([0.0, 1.0, 2.0], {"weight": 0.0}),
        ([0.0, 1.0, 2.0], {"weight": -2.0}),
        ([0.0, 1e200, 0.0], {}),
        ([[0.0, 1.0]], {}),
        ([], {}),
        ([0.0, 1.0, 2.0], {"alpha": 1.5}),
        ([0.0, 1.0, 2.0], {"alpha": 0.0}),
        ([0.0, 1.0, 2.0], {"alpha": math.nan}),
        ([0.0, 1.0, 2.0], {"v1_target": math.nan}),
        ([0.0, 1.0, 2.0], {"lambda2b_target": math.inf}),
    ],
    ids=["x0-inf", "x0-nan", "weight-inf", "weight-zero", "weight-negative",
         "contribution-overflow", "x0-2d", "x0-empty", "alpha-above-1", "alpha-zero",
         "alpha-nan", "v1-nan", "lambda2-inf"],
)
def test_invalid_arguments_raise_without_a_warning(x0, kw):
    args = {"v1_target": 1.0, "lambda2b_target": 1.0, "alpha": 0.5, **kw}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FtagreeError):
            reconstruct_paper_graph(x0, **args)

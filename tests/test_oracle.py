"""Dyadic-grid brute force: argmax sets, maximizing edges, slope identity."""

import math
import random
from fractions import Fraction as F

import pytest

from takagi import oracle
from takagi import evaluate as ev
from takagi import step_engine as se


def test_generation_zero_argmax():
    assert {d.to_fraction() for d in oracle.grid_argmax([F(-1)], 0)} == {F(0), F(1)}
    assert {d.to_fraction() for d in oracle.grid_argmax([F(2, 3)], 0)} == {F(1, 2)}
    # flat degeneracy: zero leading coefficient makes every point maximal
    assert len(oracle.grid_argmax([F(0)], 0)) == 3


def test_integer_grid_is_the_scaled_truncation():
    # _grid_values is L N f_n(k / N), N = 2^(n+1), L the lcm of the
    # denominators; lists with zeros, negatives, ints and more terms than n
    rng = random.Random(9)
    cases = [([F(-1)], 0), ([F(2, 3)], 0), ([F(0)], 0), ([F(1, 2), F(-1, 3)], 0), ([1, F(1, 6)], 3)]
    for _ in range(40):
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 9)) for _ in range(rng.randint(1, 6))]
        cases.append((coeffs, rng.randint(0, 7)))
    for coeffs, n in cases:
        N, L = 1 << (n + 1), math.lcm(*(F(c).denominator for c in coeffs[: n + 1]))
        want = [L * N * oracle.f_truncated(coeffs, n, F(k, N)) for k in range(N + 1)]
        assert oracle._grid_values(coeffs, n) == want, (coeffs, n)


def test_edges_match_both_characterizations():
    # the equivalence check is built into maximizing_edges; exercise it broadly
    rng = random.Random(42)
    for _ in range(40):
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        n = rng.randint(0, 7)
        edges = oracle.maximizing_edges(coeffs, n)
        assert edges
        for e in edges:
            a, b = e.interval()
            assert b - a == F(1, 2 ** (n + 1))


def test_forward_edge_consistency():
    # a midpoint of a generation-n edge extends to a generation-(n+1) edge
    rng = random.Random(8)
    for _ in range(20):
        coeffs = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        for n in range(0, 5):
            nxt = oracle.edge_intervals(coeffs, n + 1)
            for e in oracle.maximizing_edges(coeffs, n):
                x = e.x.to_fraction()
                z = (e.x.to_fraction() + e.y.to_fraction()) / 2
                assert any(lo <= x <= hi or lo <= z <= hi for lo, hi in nxt)


def test_edge_interval_nesting():
    rng = random.Random(15)
    for _ in range(20):
        coeffs = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        prev = oracle.edge_intervals(coeffs, 0)
        for n in range(1, 7):
            cur = oracle.edge_intervals(coeffs, n)
            for lo, hi in cur:
                assert any(plo <= lo and hi <= phi for plo, phi in prev)
            prev = cur


def test_slope_examples():
    assert oracle.slope([F(1)], [1], 0) == 1
    assert oracle.slope([F(1), F(1, 2)], [1, -1], 1) == 0
    assert oracle.slope([F(1), F(1, 2)], [1, 1], 1) == 2


def test_slope_validation_errors():
    with pytest.raises(ValueError):
        oracle.slope([F(1)], [1], 1)  # prefix too short
    with pytest.raises(ValueError):
        oracle.slope([F(1)], [0, 1], 1)


def test_budget_guard():
    with pytest.raises(oracle.BudgetError):
        oracle.grid_argmax([F(1)], 25)


def test_engine_locations_inside_edge_intervals():
    rng = random.Random(4)
    for _ in range(10):
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        if all(v == 0 for v in coeffs):
            coeffs[0] = F(1)
        c = ev.FiniteSupport(coeffs)
        sharp = se.build_rho(c, "sharp", 12)
        flat = se.build_rho(c, "flat", 12)
        for tr in (sharp, flat):
            if not tr.certified:
                continue
            t = ev.t_map_fraction(tr.signs)
            for n in range(0, 9):
                assert oracle.covers(oracle.edge_intervals(coeffs, n), t), (coeffs, t, n)

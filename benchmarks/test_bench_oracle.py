"""Tests of the benchmark's own oracle and tracer.

The pixels below are worked out by hand from Eq. 1 on a two-wavelength,
two-bit camera whose linear response table is g^-1 = [1/6, 1/3, 2/3, 1].
"""

import math

import pytest

from oracle import ForwardOracle, unsaturated_rmse
from tracing import Tracer

TABLE = [1 / 6, 1 / 3, 2 / 3, 1.0]


def camera(gamut=None):
    return {
        "omega": [[0.5, 0.25, 0.0], [0.0, 0.25, 0.5]],  # rows per wavelength
        "response": {"ln_e": [[math.log(v) for v in TABLE]] * 3},
        "gamut": gamut,
    }


LIGHT = [1.0, 1.0]
SURFACE = [0.8, 0.4]  # S = (0.4, 0.3, 0.2)


def test_identity_gamut_pixels():
    cam = ForwardOracle(camera())
    assert cam.tristimulus(LIGHT, SURFACE) == pytest.approx([0.4, 0.3, 0.2], abs=1e-15)
    # 0.4 sits 0.2 of the way from 1/3 to 2/3; 0.3 sits 0.8 of the way from
    # 1/6 to 1/3; 0.2 sits 0.2 of the way from 1/6 to 1/3.
    assert cam.pixel(LIGHT, SURFACE, 1.0) == [1, 1, 0]
    # Exposure scales E at the response input: (0.8, 0.6, 0.4).
    assert cam.pixel(LIGHT, SURFACE, 2.0) == [2, 2, 1]


def test_quantizer_clamps_and_rounds_up_past_half():
    cam = ForwardOracle(camera())
    assert cam.quantize(0.01, 0) == 0
    assert cam.quantize(5.0, 0) == 3
    mid = 0.5 * (TABLE[1] + TABLE[2])
    assert cam.quantize(mid * (1 + 1e-12), 1) == 2
    assert cam.quantize(mid * (1 - 1e-12), 1) == 1


def test_affine_plus_gaussian_gamut_map():
    gamut = {
        "affine": [[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.1], [0.0, 0.0, 1.0, 0.0]],
        # One kernel centred on S itself (phi = 1) and one too far to matter.
        "centers": [[0.4, 0.3, 0.2], [50.0, 50.0, 50.0]],
        "weights": [[0.0, 0.0, 0.35], [1.0, 1.0, 1.0]],
        "kernel_width": 0.1,
    }
    cam = ForwardOracle(camera(gamut))
    e = cam.gamut_map([0.4, 0.3, 0.2])
    assert e == pytest.approx([0.8, 0.4, 0.55], abs=1e-15)
    # 0.8 -> 0.4 past 2/3; 0.4 -> 0.2 past 1/3; 0.55 -> 0.65 past 1/3.
    assert cam.pixel(LIGHT, SURFACE, 1.0) == [2, 1, 2]


def test_unsaturated_rmse_skips_saturated_rows():
    rows = [(0, 10, 12, 0), (0, 20, 20, 0), (1, 5, 9, 0), (2, 7, 7, 0), (0, 250, 100, 1)]
    rmse, worst = unsaturated_rmse(rows)
    assert rmse == pytest.approx([math.sqrt(2.0), 4.0, 0.0])
    assert worst == [2.0, 4.0, 0.0]


def traced_calls():
    tracer = Tracer()

    def leaf(n):
        return sum(range(n))

    def fails():
        raise ValueError("boom")

    leaf_t = tracer.wrap("layer.leaf", leaf)
    fails_t = tracer.wrap("layer.fails", fails)

    def middle(depth):
        leaf_t(20000)
        if depth:
            middle_t(depth - 1)
        with pytest.raises(ValueError):
            fails_t()
        return leaf_t(5000)

    middle_t = tracer.wrap("layer.middle", middle)
    root = tracer.open("bench.round")
    middle_t(2)
    leaf_t(1000)
    tracer.close(root)
    return tracer


def test_self_times_add_up_to_each_span():
    tracer = traced_calls()
    n = len(tracer)
    for i in range(n):
        children = [j for j in range(n) if tracer.parent[j] == i]
        dur = tracer.end[i] - tracer.start[i]
        child_ns = sum(tracer.end[j] - tracer.start[j] for j in children)
        assert 0 <= child_ns <= dur
    summary = tracer.summary()
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(summary["bench.round"]["s"], rel=1e-9)


def test_busy_time_counts_recursion_once_and_failures_are_counted():
    tracer = traced_calls()
    summary = tracer.summary()
    assert summary["layer.middle"]["calls"] == 3
    assert summary["layer.leaf"]["calls"] == 7
    assert summary["layer.middle"]["s"] <= summary["bench.round"]["s"]
    outer = [i for i in range(len(tracer)) if tracer.names[tracer.name_id[i]] == "layer.middle"
             and tracer.parent[i] == 0]
    assert summary["layer.middle"]["s"] == pytest.approx(
        sum(tracer.end[i] - tracer.start[i] for i in outer) * 1e-9)
    assert tracer.weighted_counts() == {"layer.fails.failed": 3}
    halved = tracer.summary({"bench.round": 0.5})
    assert halved["layer.leaf"]["calls"] == 3.5

"""Tracer: self time from nested spans, kernel counts, bit-identical results."""

from dataclasses import replace

import numpy as np
import pytest

from thzbench import tracer as tr
from thzris import beamforming, channel, cli, graphene, harness, optimizer

MODULES = {"cli": cli, "harness": harness, "channel": channel, "optimizer": optimizer,
           "beamforming": beamforming, "graphene": graphene}
TINY = replace(harness.ExperimentConfig(), n_bs=8, n_ris=8, n_ms=4, m_bs=4, m_ms=4,
               n_streams=2, n_realizations=2,
               optimizer=optimizer.OptimizerSettings(max_iterations=20))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_traced_children():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    wrapped_inner = t.wrap("inner", inner, span=True)

    def outer():
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 0.5

    t.wrap("outer", outer, span=True)()
    assert t.stats["outer"].total_s == 5.5
    assert t.stats["outer"].self_s == 1.5
    assert t.stats["inner"].calls == 2 and t.stats["inner"].self_s == 4.0
    outer_span = [s for s in t.spans if s[2] == "outer"][0]
    assert outer_span[1] is None
    assert all(s[1] == outer_span[0] for s in t.spans if s[2] == "inner")


@pytest.fixture()
def installed():
    t = tr.Tracer()
    originals = {name: getattr(optimizer, name) for name in ("run_cgd", "gradient")}
    t.install(MODULES)
    try:
        yield t
    finally:
        t.uninstall()
    assert all(getattr(optimizer, name) is fn for name, fn in originals.items())


def test_calibration_nests_cgd_spans(installed):
    t = installed
    harness.calibrate_fixed_step(TINY)
    n_cgd = len(harness.CGD_CALIBRATION_GRID) * harness.CGD_CALIBRATION_REALIZATIONS
    calib = t.stats["harness.calibrate_fixed_step"]
    assert t.stats["optimizer.run_cgd"].calls == n_cgd
    children = sum(t.stats[name].total_s for name in (
        "optimizer.run_cgd", "channel.sample_channel", "optimizer.build_quadratic_form",
        "graphene.build_codebook"))
    assert calib.self_s == pytest.approx(calib.total_s - children, abs=1e-9)
    assert 0.0 < calib.self_s < calib.total_s
    calib_id = [s for s in t.spans if s[2] == "harness.calibrate_fixed_step"][0][0]
    assert {s[1] for s in t.spans if s[2] == "optimizer.run_cgd"} == {calib_id}
    # gradient is a hot helper: aggregated, never a span
    assert t.stats["optimizer.gradient"].calls == n_cgd * TINY.optimizer.max_iterations
    assert not any(s[2] == "optimizer.gradient" for s in t.spans)


def _form():
    rng = harness.stream_rng(1, 0, "h1")
    h1, _ = channel.sample_channel(TINY, channel.Hop.BS_RIS, rng)
    h2, _ = channel.sample_channel(TINY, channel.Hop.RIS_MS, harness.stream_rng(1, 0, "h2"))
    form, _ = optimizer.build_quadratic_form(h1, h2).trace_normalized()
    return form


def test_counts_matvecs_and_keeps_results_bit_identical():
    form, codebook, settings = _form(), TINY.codebook(), TINY.optimizer
    plain_agd = optimizer.run_agd(form, codebook, settings)
    plain_cgd = optimizer.run_cgd(form, codebook, settings)
    t = tr.Tracer()
    t.install(MODULES)
    try:
        traced_agd = optimizer.run_agd(form, codebook, settings)
        traced_cgd = optimizer.run_cgd(form, codebook, settings)
    finally:
        t.uninstall()
    assert np.array_equal(plain_agd.quantized_phases_rad, traced_agd.quantized_phases_rad)
    assert plain_agd.iterations == traced_agd.iterations
    assert plain_cgd.iterations == traced_cgd.iterations
    n = settings.max_iterations
    # A-GD: gradient 2 + step model 3 + objective 1 per iteration; C-GD: 2 + 1.
    # Both add the initial and the quantized objective.
    assert t.stats["optimizer.run_agd"].runs[0][3] == 6 * n + 2
    assert t.stats["optimizer.run_cgd"].runs[0][3] == 3 * n + 2
    metrics = tr.layer_metrics(t, [])
    assert metrics["optimizer.run_agd.iters"] == n
    assert metrics["optimizer.run_agd.matvecs_per_iter"] == pytest.approx(6 + 2 / n)
    assert metrics["optimizer.bytes_per_iter_computed"] == pytest.approx(
        (9 * n + 4) * form.n_ris ** 2 * 16 / (2 * n))
    assert 0 <= metrics["optimizer.run_agd.iters_to_best_p50"] <= n


def test_iters_to_best_uses_relative_tolerance():
    rows = [(0, 1.0, 0, 0), (1, 2.0 - 1e-12, 0, 0), (2, 2.0, 0, 0), (3, 2.0, 0, 0)]
    assert tr.iters_to_best(rows, 2.0) == 1
    assert tr.iters_to_best(rows, 2.0, rel=0.0) == 2

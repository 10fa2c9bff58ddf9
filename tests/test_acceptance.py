"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its measured values (run with -s to see them live).

Criteria cover oracle equivalence of the quadratic form, gradient
correctness, SVD/rate consistency, proximity of the quantized optimizer to
the exhaustive discrete optimum, scheme ordering and figure-level properties
of the experiment harness at desk and paper scale, empirical complexity
scaling, and byte-level determinism of the CSV pipeline.
"""

import math
import time

import numpy as np
import pytest

from thzris import beamforming as bf
from thzris import harness, optimizer as opt
from thzris.graphene import build_codebook

from test_beamforming import jensen_upper_bound

CODEBOOK = build_codebook(math.radians(306.82), 2, mean_amplitude=0.8)
MU = 0.8


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def rate_table(rows):
    return {(r.sweep_value, r.scheme, r.snr_db): r.mean_rate for r in rows}


def test_criterion_1_quadratic_form_oracles():
    """theta^H D theta == ||H2 diag(theta) H1||_F^2 and the Hadamard identity
    matches the explicit Kronecker-column construction."""
    t0 = time.perf_counter()
    worst_trace = 0.0
    worst_kron = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        h1, h2 = crandn(rng, 6, 8), crandn(rng, 4, 6)
        form = opt.build_quadratic_form(h1, h2)

        theta = MU * np.exp(1j * rng.uniform(0, 2 * math.pi, 6))
        quad = float(np.real(theta.conj() @ form.matrix @ theta))
        he = (h2 * theta[None, :]) @ h1
        trace = float(np.linalg.norm(he) ** 2)
        worst_trace = max(worst_trace, abs(quad - trace) / trace)

        big = np.kron(h1.T, h2)
        dhat = np.stack([big[:, k * 6 + k] for k in range(6)], axis=1)
        kron_d = dhat.conj().T @ dhat
        worst_kron = max(worst_kron, np.max(np.abs(form.matrix - kron_d))
                         / np.max(np.abs(kron_d)))
    dt = time.perf_counter() - t0
    ok = worst_trace <= 1e-10 and worst_kron <= 1e-12 and dt < 5.0
    report(1, ok, f"trace rel err {worst_trace:.2e} (<=1e-10), kron rel err "
                  f"{worst_kron:.2e} (<=1e-12), {dt:.2f}s (<5s)")


def test_criterion_2_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 17))
        form = opt.build_quadratic_form(crandn(rng, n, n + 2),
                                        crandn(rng, max(2, n - 1), n))
        phases = rng.uniform(0, 2 * math.pi, n)
        grad = opt.gradient(form, phases, MU)
        fd = np.empty(n)
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            fd[k] = (opt.objective(form, phases + e, MU)
                     - opt.objective(form, phases - e, MU)) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and dt < 5.0
    report(2, ok, f"gradient vs FD rel l2 err {worst:.2e} (<=1e-4), "
                  f"{dt:.2f}s (<5s)")


def test_criterion_3_svd_rate_consistency():
    """The log-det rate under SVD beamforming equals its closed form and the
    sweep's own rate function (harness._rates_for_channel, the rate that
    reaches the CSV), and stays below the Jensen bound."""
    t0 = time.perf_counter()
    worst_rate = 0.0
    worst_sweep = 0.0
    worst_power = 0.0
    jensen_ok = True
    for seed in range(100):
        rng = np.random.default_rng(300 + seed)
        he = crandn(rng, 6, 9)
        ns = int(rng.integers(1, 5))
        snr = float(rng.uniform(0.01, 100.0))
        pair = bf.svd_beamformers(he, ns)
        general = bf.achievable_rate(he, pair, snr)
        s = np.linalg.svd(he, compute_uv=False)
        closed = float(np.sum(np.log2(1 + snr / ns * s[:ns] ** 2)))
        worst_rate = max(worst_rate, abs(general - closed) / max(closed, 1e-12))
        cfg = harness.ExperimentConfig(n_streams=ns, snr_grid_db=(10.0 * math.log10(snr),))
        sweep, = harness._rates_for_channel(he, cfg)
        worst_sweep = max(worst_sweep, abs(general - sweep) / max(general, 1e-12))
        bound = jensen_upper_bound(he, snr, ns)
        jensen_ok = jensen_ok and bound >= general - 1e-12
        worst_power = max(worst_power,
                          abs(np.linalg.norm(pair.precoder) ** 2 - ns))
    dt = time.perf_counter() - t0
    ok = (worst_rate <= 1e-8 and worst_sweep <= 1e-8 and jensen_ok
          and worst_power <= 1e-10 and dt < 5.0)
    report(3, ok, f"log-det vs closed form rel err {worst_rate:.2e} (<=1e-8), "
                  f"vs sweep rate rel err {worst_sweep:.2e} (<=1e-8), "
                  f"Jensen dominates: {jensen_ok}, power err {worst_power:.2e} "
                  f"(<=1e-10), {dt:.2f}s (<5s)")


def test_criterion_4_discrete_optimum_proximity():
    """Quantized adaptive descent vs exhaustive search, N_RIS=4, 2 bits."""
    t0 = time.perf_counter()
    settings = opt.OptimizerSettings(max_iterations=100)
    ratios = []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        form = opt.build_quadratic_form(crandn(rng, 4, 8), crandn(rng, 4, 4))
        trace = opt.run_agd(form, MU, settings)
        _, best = opt.run_exhaustive(form, CODEBOOK)
        quantized = opt.quantize_phases(trace.best_phases_rad, CODEBOOK)
        ratios.append(-opt.objective(form, quantized, MU) / best)
    dt = time.perf_counter() - t0
    med = float(np.median(ratios))
    p10 = float(np.percentile(ratios, 10))
    ok = med >= 0.9 and p10 >= 0.8 and dt < 30.0
    report(4, ok, f"quantized/exhaustive median {med:.3f} (>=0.9), "
                  f"p10 {p10:.3f} (>=0.8), {dt:.1f}s (<30s)")


@pytest.fixture(scope="module")
def fig7_desk_serial():
    """fig7-desk's rows at workers=1 and the seconds they took, shared by
    criteria 5 and 10."""
    t0 = time.perf_counter()
    rows = harness.run_experiment(harness.preset("fig7-desk"), workers=1)
    return rows, time.perf_counter() - t0


def test_criterion_5_scheme_ordering_desk_scale(fig7_desk_serial):
    """fig7 analog: A-GD >= C-GD >= random > no-RIS at every SNR, monotone."""
    config = harness.preset("fig7-desk")
    rows, dt = fig7_desk_serial
    rates = rate_table(rows)
    ordering = True
    monotone = True
    prev = {s: -math.inf for s in config.schemes}
    for snr in config.snr_grid_db:
        agd = rates[(0.0, "agd", snr)]
        cgd = rates[(0.0, "cgd", snr)]
        rnd = rates[(0.0, "random", snr)]
        none = rates[(0.0, "no_ris", snr)]
        ordering = ordering and (agd >= cgd >= rnd > none)
        for s in config.schemes:
            monotone = monotone and rates[(0.0, s, snr)] >= prev[s]
            prev[s] = rates[(0.0, s, snr)]
    ok = ordering and monotone and dt < 300.0
    mid = rates[(0.0, "agd", 10.0)]
    report(5, ok, f"ordering agd>=cgd>=random>no_ris at all SNRs: {ordering}, "
                  f"monotone: {monotone}, agd@10dB {mid:.2f} bps/Hz, "
                  f"{dt:.0f}s (<300s)")


def test_criterion_6_phase_range_saturation():
    """fig5 analog: calibrated 306.82 deg range within 2% of the ideal 360,
    and at least 1 bps/Hz above a 60 deg range at 10 dB."""
    t0 = time.perf_counter()
    rows = harness.run_experiment(harness.preset("fig5-desk"))
    dt = time.perf_counter() - t0
    rates = rate_table(rows)
    at = lambda deg: rates[(deg, "agd", 10.0)]
    ratio = at(306.82) / at(360.0)
    gap = at(306.82) - at(60.0)
    ok = ratio >= 0.98 and gap >= 1.0
    report(6, ok, f"rate(306.82)/rate(360) = {ratio:.4f} (>=0.98), "
                  f"rate(306.82)-rate(60) = {gap:.2f} bps/Hz (>=1.0), {dt:.0f}s")


def test_criterion_7_quantization_sufficiency():
    """fig6 analog: 2 bits within 5% of 4 bits; 1 bit measurably worse."""
    t0 = time.perf_counter()
    rows = harness.run_experiment(harness.preset("fig6-desk"))
    dt = time.perf_counter() - t0
    rates = rate_table(rows)
    at = lambda b: rates[(b, "agd", 10.0)]
    ratio = at(2.0) / at(4.0)
    gap = at(2.0) - at(1.0)
    ok = ratio >= 0.95 and gap >= 0.3
    report(7, ok, f"rate(b=2)/rate(b=4) = {ratio:.4f} (>=0.95), "
                  f"rate(b=2)-rate(b=1) = {gap:.2f} bps/Hz (>=0.3), {dt:.0f}s")


def test_criterion_8_paper_scale_gap():
    """fig7 at paper scale (512/256/32, 100 realizations): the adaptive
    scheme's margin over random phases at 10 dB, trend-level >= 5 bps/Hz
    (nominal benchmark ~8.4 bps/Hz)."""
    t0 = time.perf_counter()
    rows = harness.run_experiment(harness.preset("fig7-paper"))
    dt = time.perf_counter() - t0
    rates = rate_table(rows)
    gap = rates[(0.0, "agd", 10.0)] - rates[(0.0, "random", 10.0)]
    ok = gap >= 5.0
    report(8, ok, f"agd minus random at 10 dB = {gap:.2f} bps/Hz "
                  f"(>=5.0, nominal benchmark ~8.4), {dt:.0f}s")


def test_criterion_9_complexity_scaling():
    """Wall time of the adaptive optimizer grows at most ~cubically with the
    element count: <= 10x per doubling (cubic prediction 8x). Each timed run
    must run its whole budget, so an early stop cannot hide the scaling."""
    settings = opt.OptimizerSettings(max_iterations=100)
    times = {}
    for n in (64, 128, 256):
        rng = np.random.default_rng(n)
        form, _ = opt.build_quadratic_form(
            crandn(rng, n, 32), crandn(rng, 16, n)).trace_normalized()
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            trace = opt.run_agd(form, MU, settings)
            best = min(best, time.perf_counter() - t0)
            assert len(trace.iterations) == settings.max_iterations + 1
        times[n] = best
    r1 = times[128] / times[64]
    r2 = times[256] / times[128]
    ok = r1 <= 10.0 and r2 <= 10.0
    report(9, ok, f"time ratios per doubling: 64->128 {r1:.2f}x, "
                  f"128->256 {r2:.2f}x (both <=10x); "
                  f"times {[f'{times[n]*1e3:.1f}ms' for n in (64, 128, 256)]}")


def test_criterion_10_csv_determinism(fig7_desk_serial, tmp_path):
    """fig7-desk run twice with different worker counts: byte-identical CSV."""
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.emit_csv(fig7_desk_serial[0], path_a)
    harness.emit_csv(harness.run_experiment(harness.preset("fig7-desk"), workers=2), path_b)
    same = path_a.read_bytes() == path_b.read_bytes()
    report(10, same, f"workers=1 vs workers=2 CSVs byte-identical: {same} "
                     f"({path_a.stat().st_size} bytes)")

"""RIS phase optimization tests.

Oracles: explicit Kronecker-column construction of the quadratic form, direct
cascaded-channel traces, central finite differences for the gradient, full
codebook enumeration for the discrete optimum, and closed-form rank-one phase
alignment.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thzris.beamforming import cascaded_channel
from thzris.channel import (Hop, hop_reference, referenced_hop, sample_channel,
                            sample_paths)
from thzris.graphene import build_codebook
from thzris import optimizer
from thzris.harness import (AGD_CERTIFICATE_RTOL, ExperimentConfig, _objective_bound,
                            _ris_paths, stream_rng)
from thzris.harness import preset as load_preset
from thzris.optimizer import (C2_EPSILON, FALLBACK_STEP, OptimizerSettings,
                              QuadraticForm, _block_terms, adaptive_step,
                              build_quadratic_form, fixed_step_descents,
                              gradient, objective, quadratic_model_coeffs,
                              quantize_phases, run_agd, run_cgd,
                              run_exhaustive, run_random_phase,
                              trace_normalized_factor)

CODEBOOK = build_codebook(math.radians(306.82), 2, mean_amplitude=0.8)
MU = 0.8


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def random_form(rng, n_ris=6, n_bs=8, n_ms=4) -> QuadraticForm:
    return build_quadratic_form(crandn(rng, n_ris, n_bs), crandn(rng, n_ms, n_ris))


def kron_column_form(h1, h2):
    """Quadratic form via the explicit Kronecker-column construction."""
    n = h1.shape[0]
    big = np.kron(h1.T, h2)
    cols = [big[:, k * n + k] for k in range(n)]
    dhat = np.stack(cols, axis=1)
    return dhat.conj().T @ dhat


class TestBuildQuadraticForm:
    def test_single_element_scalar(self):
        rng = np.random.default_rng(0)
        h1, h2 = crandn(rng, 1, 4), crandn(rng, 3, 1)
        form = build_quadratic_form(h1, h2)
        expect = np.linalg.norm(h1) ** 2 * np.linalg.norm(h2) ** 2
        assert form.matrix.shape == (1, 1)
        assert form.matrix[0, 0].real == pytest.approx(expect, rel=1e-12)
        assert abs(form.matrix[0, 0].imag) <= 1e-12 * expect

    def test_matches_kronecker_columns(self):
        rng = np.random.default_rng(1)
        h1, h2 = crandn(rng, 3, 4), crandn(rng, 2, 3)
        form = build_quadratic_form(h1, h2)
        oracle = kron_column_form(h1, h2)
        assert np.max(np.abs(form.matrix - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_quadratic_form_equals_cascaded_trace(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h1, h2 = crandn(rng, 5, 6), crandn(rng, 4, 5)
            form = build_quadratic_form(h1, h2)
            phases = rng.uniform(0, 2 * math.pi, 5)
            theta = MU * np.exp(1j * phases)
            quad = float(np.real(theta.conj() @ form.matrix @ theta))
            he = cascaded_channel(h1, h2, theta)
            trace = np.linalg.norm(he) ** 2
            assert quad == pytest.approx(trace, rel=1e-10)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
           st.integers(0, 2 ** 32 - 1), st.data())
    def test_quadratic_form_equals_cascaded_trace_property(self, n_ris, n_bs, n_ms,
                                                           seed, data):
        """theta^H D theta == ||H2 diag(theta) H1||_F^2 over drawn shapes and
        phases (the channel entries come from the drawn seed)."""
        rng = np.random.default_rng(seed)
        h1, h2 = crandn(rng, n_ris, n_bs), crandn(rng, n_ms, n_ris)
        phases = np.array(data.draw(st.lists(st.floats(0.0, 2 * math.pi),
                                             min_size=n_ris, max_size=n_ris)))
        theta = MU * np.exp(1j * phases)
        quad = float(np.real(theta.conj() @ build_quadratic_form(h1, h2).matrix @ theta))
        trace = np.linalg.norm(cascaded_channel(h1, h2, theta)) ** 2
        assert quad == pytest.approx(trace, rel=1e-10)

    def test_hermitian_and_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            form = random_form(rng)
            d = form.matrix
            assert (np.linalg.norm(d - d.conj().T)
                    <= 1e-10 * np.linalg.norm(d))
            eigs = np.linalg.eigvalsh(d)
            assert eigs.min() >= -1e-10 * eigs.max()

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="mismatch"):
            build_quadratic_form(crandn(rng, 5, 4), crandn(rng, 3, 6))


class TestObjective:
    def test_identity_form_is_constant(self):
        form = QuadraticForm(matrix=np.eye(7, dtype=complex))
        rng = np.random.default_rng(5)
        for _ in range(5):
            phases = rng.uniform(0, 2 * math.pi, 7)
            assert objective(form, phases, MU) == pytest.approx(-MU**2 * 7, rel=1e-12)

    def test_dark_surface(self):
        rng = np.random.default_rng(6)
        form = random_form(rng)
        assert objective(form, np.zeros(6), 0.0) == 0.0

    def test_literal_double_sum_and_residue(self):
        rng = np.random.default_rng(7)
        form = random_form(rng)
        phases = rng.uniform(0, 2 * math.pi, 6)
        total = 0.0 + 0.0j
        for p in range(6):
            for q in range(6):
                total += (np.exp(-1j * phases[p]) * form.matrix[p, q]
                          * np.exp(1j * phases[q]))
        total *= -MU**2
        assert abs(total.imag) <= 1e-10 * abs(total.real)
        assert objective(form, phases, MU) == pytest.approx(total.real, rel=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(8)
        form = random_form(rng)
        phases = rng.uniform(0, 2 * math.pi, 6)
        base = objective(form, phases, MU)
        for shift in (0.3, 1.7, -2.9, 11.0):
            assert objective(form, phases + shift, MU) == pytest.approx(base, rel=1e-10)


class TestGradient:
    def test_identity_form_zero_gradient(self):
        form = QuadraticForm(matrix=np.eye(5, dtype=complex))
        rng = np.random.default_rng(9)
        grad = gradient(form, rng.uniform(0, 2 * math.pi, 5), MU)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_real_symmetric_zero_phases(self):
        d = np.array([[2.0, 0.7], [0.7, 1.0]], dtype=complex)
        form = QuadraticForm(matrix=d)
        np.testing.assert_allclose(gradient(form, np.zeros(2), MU), 0.0, atol=1e-14)

    def test_matches_finite_differences(self):
        h = 1e-5
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(2, 17))
            form = random_form(rng, n_ris=n, n_bs=n + 2, n_ms=max(2, n - 1))
            phases = rng.uniform(0, 2 * math.pi, n)
            grad = gradient(form, phases, MU)
            fd = np.empty(n)
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                fd[k] = (objective(form, phases + e, MU)
                         - objective(form, phases - e, MU)) / (2 * h)
            assert (np.linalg.norm(grad - fd)
                    <= 1e-4 * max(np.linalg.norm(fd), 1e-30))

    def test_literal_two_sum_form_and_residue(self):
        rng = np.random.default_rng(11)
        form = random_form(rng)
        phases = rng.uniform(0, 2 * math.pi, 6)
        grad = gradient(form, phases, MU)
        for n in range(6):
            s1 = sum(form.matrix[n, q] * np.exp(1j * phases[q]) for q in range(6))
            s2 = sum(form.matrix[p, n] * np.exp(-1j * phases[p]) for p in range(6))
            entry = (MU**2 * 1j * np.exp(-1j * phases[n]) * s1
                     - MU**2 * 1j * np.exp(1j * phases[n]) * s2)
            assert abs(entry.imag) <= 1e-10 * max(abs(entry.real), 1e-30)
            assert grad[n] == pytest.approx(entry.real, rel=1e-10, abs=1e-12)

    def test_gradient_orthogonal_to_global_phase(self):
        # sum of gradient entries vanishes (objective is gauge invariant)
        rng = np.random.default_rng(12)
        form = random_form(rng)
        grad = gradient(form, rng.uniform(0, 2 * math.pi, 6), MU)
        assert abs(np.sum(grad)) <= 1e-10 * np.linalg.norm(grad)


class TestAdaptiveStep:
    def test_stationary_point_falls_back(self):
        form = QuadraticForm(matrix=np.eye(4, dtype=complex))
        phases = np.zeros(4)
        grad = gradient(form, phases, MU)
        lam = adaptive_step(form, phases, grad, MU)
        assert lam == FALLBACK_STEP

    def test_convex_branch_returns_vertex(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            form = random_form(rng)
            phases = rng.uniform(0, 2 * math.pi, 6)
            grad = gradient(form, phases, MU)
            c0, c1, c2 = quadratic_model_coeffs(form, phases, grad, MU)
            lam = adaptive_step(form, phases, grad, MU)
            if c2 > C2_EPSILON * abs(c0):
                assert lam == pytest.approx(-c1 / (2 * c2), rel=1e-12)
                # vertex of the model parabola minimizes it
                model = lambda x: c0 + c1 * x + c2 * x * x
                assert model(lam) <= min(model(0.5 * lam), model(2.0 * lam)) + 1e-12
            elif c2 < -C2_EPSILON * abs(c0):
                assert lam == pytest.approx(abs(c1) / abs(c2), rel=1e-12)

    def test_synthetic_direction_coefficients(self):
        # a hand-picked non-gradient direction still yields the advertised
        # lambda = -C1/(2 C2) on the convex branch
        d = np.diag([2.0, 1.0]).astype(complex)
        d[0, 1] = d[1, 0] = 0.5
        form = QuadraticForm(matrix=d)
        phases = np.array([0.3, -0.4])
        direction = np.array([1.0, -2.0])
        c0, c1, c2 = quadratic_model_coeffs(form, phases, direction, MU)
        lam = adaptive_step(form, phases, direction, MU)
        if c2 > C2_EPSILON * abs(c0):
            assert lam == pytest.approx(-c1 / (2 * c2), rel=1e-12)

    def test_first_coefficient_is_descent_rate(self):
        # C1 equals -||grad||^2 when the direction is the true gradient
        rng = np.random.default_rng(14)
        for _ in range(20):
            form = random_form(rng)
            phases = rng.uniform(0, 2 * math.pi, 6)
            grad = gradient(form, phases, MU)
            _, c1, _ = quadratic_model_coeffs(form, phases, grad, MU)
            assert c1 == pytest.approx(-np.dot(grad, grad), rel=1e-10)

    def test_coefficients_match_directional_derivatives(self):
        rng = np.random.default_rng(15)
        form = random_form(rng)
        phases = rng.uniform(0, 2 * math.pi, 6)
        grad = gradient(form, phases, MU)
        c0, c1, c2 = quadratic_model_coeffs(form, phases, grad, MU)
        h = 1e-6
        f = lambda lam: objective(form, phases - lam * grad, MU)
        assert c0 == pytest.approx(f(0.0), rel=1e-12)
        assert c1 == pytest.approx((f(h) - f(-h)) / (2 * h), rel=1e-5)
        assert 2 * c2 == pytest.approx((f(h) - 2 * f(0) + f(-h)) / h**2, rel=1e-3)

    def test_model_quality_near_optimum(self):
        # within the validity range of the second-order expansion (small
        # perturbations of a converged point), the chosen step beats half and
        # double steps in >= 80% of trials; far from an optimum the truncated
        # model is unreliable and no such guarantee holds
        good = 0
        settings = OptimizerSettings(max_iterations=100)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            form, _ = random_form(rng).trace_normalized()
            best = run_agd(form, MU, settings).best_phases_rad
            phases = best + rng.uniform(-0.3, 0.3, 6)
            grad = gradient(form, phases, MU)
            if np.linalg.norm(grad) < 1e-12:
                good += 1
                continue
            lam = adaptive_step(form, phases, grad, MU)
            f_star = objective(form, phases - lam * grad, MU)
            if (f_star <= objective(form, phases - 0.5 * lam * grad, MU)
                    and f_star <= objective(form, phases - 2.0 * lam * grad, MU)):
                good += 1
        assert good >= 80


class TestRunAgd:
    def test_single_element_phase_invariant(self):
        rng = np.random.default_rng(16)
        form = build_quadratic_form(crandn(rng, 1, 4), crandn(rng, 3, 1))
        trace = run_agd(form, MU, OptimizerSettings(max_iterations=10))
        expect = MU**2 * form.matrix[0, 0].real
        assert trace.best_objective == pytest.approx(expect, rel=1e-10)
        quantized = quantize_phases(trace.best_phases_rad, CODEBOOK)
        assert quantized[0] in CODEBOOK.phases_rad
        assert -objective(form, quantized, MU) == pytest.approx(expect, rel=1e-10)

    def test_rank_one_alignment(self):
        # closed-form optimum of a rank-one form: phases aligned to the
        # vector's angles, objective mu^2 (sum |v_n|)^2
        settings = OptimizerSettings(max_iterations=200)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v = crandn(rng, 8)
            form = QuadraticForm(matrix=np.outer(v, v.conj()))
            trace = run_agd(form, MU, settings)
            optimum = MU**2 * np.sum(np.abs(v)) ** 2
            assert trace.best_objective >= 0.99 * optimum

    def test_best_objective_is_max_of_rows(self):
        rng = np.random.default_rng(17)
        form = random_form(rng)
        trace = run_agd(form, MU, OptimizerSettings(max_iterations=30))
        assert trace.best_objective == pytest.approx(
            max(row[1] for row in trace.iterations), rel=1e-12)
        assert len(trace.iterations) == 31

    def test_best_non_decreasing_in_budget(self):
        rng = np.random.default_rng(18)
        form = random_form(rng)
        short = run_agd(form, MU, OptimizerSettings(max_iterations=50))
        long = run_agd(form, MU, OptimizerSettings(max_iterations=100))
        assert long.best_objective >= short.best_objective - 1e-12

    def test_quantized_output_in_codebook(self):
        rng = np.random.default_rng(19)
        form = random_form(rng)
        trace = run_agd(form, MU, OptimizerSettings(max_iterations=50))
        quantized = quantize_phases(trace.best_phases_rad, CODEBOOK)
        assert all(p in CODEBOOK.phases_rad for p in quantized)

    def test_quantized_vs_exhaustive_optimum(self):
        # N = 4, 2 bits: quantized result is near the exact discrete optimum
        ratios = []
        settings = OptimizerSettings(max_iterations=100)
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            form = build_quadratic_form(crandn(rng, 4, 8), crandn(rng, 4, 4))
            trace = run_agd(form, MU, settings)
            _, best = run_exhaustive(form, CODEBOOK)
            quantized = quantize_phases(trace.best_phases_rad, CODEBOOK)
            ratios.append(-objective(form, quantized, MU) / best)
        assert np.median(ratios) >= 0.9


class TestRunCgd:
    def test_auto_step_rejected(self):
        settings = OptimizerSettings(max_iterations=5, fixed_step="auto")
        with pytest.raises(ValueError, match="numeric fixed_step"):
            run_cgd(random_form(np.random.default_rng(20)), MU, settings)

    def test_zero_like_step_freezes(self):
        rng = np.random.default_rng(21)
        form = random_form(rng)
        settings = OptimizerSettings(max_iterations=20, fixed_step=1e-30)
        trace = run_cgd(form, MU, settings)
        start = -objective(form, np.zeros(6), MU)
        assert trace.best_objective == pytest.approx(start, rel=1e-10)

    def test_tiny_step_converges_slower_than_agd(self):
        rng = np.random.default_rng(22)
        v = crandn(rng, 8)
        form = QuadraticForm(matrix=np.outer(v, v.conj()))
        agd = run_agd(form, MU, OptimizerSettings(max_iterations=10))
        cgd = run_cgd(form, MU,
                      OptimizerSettings(max_iterations=10, fixed_step=1e-6))
        start = -objective(form, np.zeros(8), MU)
        assert agd.best_objective - start > cgd.best_objective - start

    def test_adaptive_wins_or_ties_on_channel_like_instances(self):
        # near-rank-one forms (LoS-dominated cascades); the constant step is
        # calibrated on the first ten instances like the experiment harness
        cfg = ExperimentConfig(n_ris=16)
        forms = []
        for r in range(200):
            h1 = (sample_channel(cfg, Hop.BS_RIS, stream_rng(60, r, "h1"))[0]
                  / hop_reference(cfg, Hop.BS_RIS))
            h2 = (sample_channel(cfg, Hop.RIS_MS, stream_rng(60, r, "h2"))[0]
                  / hop_reference(cfg, Hop.RIS_MS))
            forms.append(build_quadratic_form(h1, h2).trace_normalized()[0])
        grid = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
        means = []
        for step in grid:
            s = OptimizerSettings(max_iterations=100, fixed_step=step)
            means.append(np.mean([run_cgd(f, MU, s).best_objective
                                  for f in forms[:10]]))
        step = grid[int(np.argmax(means))]
        s_c = OptimizerSettings(max_iterations=100, fixed_step=step)
        s_a = OptimizerSettings(max_iterations=100)
        wins = sum(run_agd(f, MU, s_a).best_objective
                   >= run_cgd(f, MU, s_c).best_objective for f in forms)
        assert wins >= 0.7 * len(forms)


def reference_descent(form, mu, settings, adaptive):
    """The uninterrupted descent loop composed of the public oracles gradient,
    adaptive_step, objective and np.linalg.norm, recomputing every product per
    call for the whole budget; returns (iteration rows, best phases, best
    objective, every iterate's phases)."""
    phases = np.zeros(form.n_ris)
    trace_obj = -objective(form, phases, mu)
    best_obj, best_phases, rows, iterates = trace_obj, phases.copy(), [], [phases]
    for i in range(settings.max_iterations):
        grad = gradient(form, phases, mu)
        lam = adaptive_step(form, phases, grad, mu) if adaptive else settings.fixed_step
        rows.append((i, trace_obj, lam, float(np.linalg.norm(grad))))
        phases = phases - lam * grad
        iterates.append(phases)
        trace_obj = -objective(form, phases, mu)
        if trace_obj > best_obj:
            best_obj, best_phases = trace_obj, phases.copy()
    rows.append((settings.max_iterations, trace_obj, 0.0, 0.0))
    return rows, best_phases, best_obj, iterates


def first_recurrence(iterates) -> tuple | None:
    """(k, p): the first iterate k whose phases equal, bit for bit, those of an
    earlier iterate k - p; None if no iterate repeats."""
    bits = np.stack(iterates).view(np.uint64)
    for k in range(1, len(bits)):
        (earlier,) = np.nonzero(np.all(bits[:k] == bits[k], axis=1))
        if earlier.size:
            return k, k - int(earlier[0])
    return None


class CountingMatrix(np.ndarray):
    """Quadratic-form matrix or factor stack that counts the matrix products it,
    or its conjugate, takes part in."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingMatrix.matmuls += 1
        plain = tuple(x.view(np.ndarray) if isinstance(x, CountingMatrix) else x
                      for x in inputs)
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(CountingMatrix) if ufunc is np.conjugate else out


def _first_branch(form, mu):
    """'convex', 'concave' or 'fallback': the adaptive step's branch at zero phases."""
    phases = np.zeros(form.n_ris)
    c0, _, c2 = quadratic_model_coeffs(form, phases, gradient(form, phases, mu), mu)
    guard = C2_EPSILON * abs(c0)
    return "convex" if c2 > guard else "concave" if c2 < -guard else "fallback"


def sweep_form(preset, n_ris, r) -> tuple:
    """(trace-normalized form, point config) of realization r at n_ris elements
    of a preset, built as the sweep builds it."""
    cfg = replace(load_preset(preset), sweep="none", sweep_grid=(), n_ris=n_ris)
    h1, h2 = (referenced_hop(cfg, hop, sample_paths(cfg, hop, stream_rng(
        cfg.master_seed, r, hop.value))) for hop in (Hop.BS_RIS, Hop.RIS_MS))
    return build_quadratic_form(h1, h2).trace_normalized()[0], cfg


class TestDescentExactness:
    """run_agd and run_cgd compute each iterate's products once and stop at the
    first iterate k whose phases repeat an earlier one's: their trace is the
    uninterrupted loop built from the public oracles cut at k, with every float
    equal and the same best iterate."""

    SETTINGS = OptimizerSettings(max_iterations=60, fixed_step=0.1)

    @staticmethod
    def assert_matches_reference(form, mu, settings, runs=((run_agd, True), (run_cgd, False))):
        for run, adaptive in runs:
            trace = run(form, mu, settings)
            rows, best, best_obj, iterates = reference_descent(form, mu, settings, adaptive)
            k = (first_recurrence(iterates) or (settings.max_iterations,))[0]
            assert trace.iterations == rows[:k] + [(k, rows[k][1], 0.0, 0.0)]
            assert np.array_equal(trace.best_phases_rad, best)
            assert trace.best_objective == best_obj

    @staticmethod
    def count_products(run, form, mu, settings) -> int:
        """Products with D that one run takes; its trace equals an uncounted run's."""
        counted = QuadraticForm(matrix=form.matrix.view(CountingMatrix))
        before = CountingMatrix.matmuls
        trace = run(counted, mu, settings)
        assert trace.iterations == run(form, mu, settings).iterations
        return CountingMatrix.matmuls - before

    @pytest.mark.parametrize("mu", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("n_ris", [1, 2, 8, 64])
    @pytest.mark.parametrize("rank", ["full", "rank1"])
    def test_matches_reference_loop(self, rank, n_ris, mu):
        rng = np.random.default_rng(100 * n_ris + int(10 * mu))
        if rank == "full":
            form = random_form(rng, n_ris=n_ris, n_bs=n_ris + 2, n_ms=n_ris + 1)
        else:
            v = crandn(rng, n_ris)
            form = QuadraticForm(matrix=np.outer(v, v.conj()))
        self.assert_matches_reference(form, mu, self.SETTINGS)

    def test_identity_form_takes_fallback_steps(self):
        """The identity form's gradient is zero, so iterate 1 repeats iterate 0:
        A-GD stops after one fallback-step iteration (4 products)."""
        form = QuadraticForm(matrix=np.eye(8, dtype=complex))
        assert _first_branch(form, MU) == "fallback"
        self.assert_matches_reference(form, MU, self.SETTINGS)
        trace = run_agd(form, MU, self.SETTINGS)
        assert len(trace.iterations) == 2 and trace.iterations[0][2] == FALLBACK_STEP
        assert self.count_products(run_agd, form, MU, self.SETTINGS) == 4

    def test_concave_branch(self):
        form = random_form(np.random.default_rng(0), n_ris=8)
        assert _first_branch(form, MU) == "concave"
        self.assert_matches_reference(form, MU, self.SETTINGS)

    def test_products_per_iteration(self):
        """A-GD takes 3 products with D per iteration (u^H D, D u and the step
        model's (g u)^H D), C-GD 2; both add the first objective's u^H D. No
        iterate of this form repeats, so both run the whole budget."""
        rng = np.random.default_rng(3)
        form = random_form(rng, n_ris=8)
        n = self.SETTINGS.max_iterations
        for run, adaptive, per_iter in ((run_agd, True, 3), (run_cgd, False, 2)):
            assert first_recurrence(reference_descent(form, MU, self.SETTINGS, adaptive)[3]) \
                is None
            assert len(run(form, MU, self.SETTINGS).iterations) == n + 1
            assert self.count_products(run, form, MU, self.SETTINGS) == per_iter * n + 1

    @pytest.mark.parametrize("preset, n_ris, r, adaptive, step, period", [
        ("fig7-desk", 64, 0, True, "auto", 1),
        ("fig8-desk", 96, 0, True, "auto", 8),
        ("fig8-desk", 96, 10, True, "auto", 2),
        ("fig8-desk", 32, 0, False, 1e-2, 1)])
    def test_stops_at_first_recurrence(self, preset, n_ris, r, adaptive, step, period):
        """A desk realization's form, built as the sweep builds it, whose descent
        repeats an iterate within the preset's 400-iteration budget (C-GD at the
        step calibration picks for that point): the run stops at the first
        recurrence k, after 3k + 1 (A-GD) or 2k + 1 (C-GD) products, with k + 1
        rows that equal the uninterrupted loop's cut at k. The 2-cycle of
        fig8-desk's realization 10 alternates between two objectives, so the
        final row must hold iterate k's, not iterate k - 1's."""
        form, cfg = sweep_form(preset, n_ris, r)
        settings = replace(cfg.optimizer, fixed_step=step)
        run = run_agd if adaptive else run_cgd
        recurrence = first_recurrence(reference_descent(form, cfg.mean_amplitude, settings,
                                                        adaptive)[3])
        assert recurrence is not None and recurrence[1] == period
        k = recurrence[0]
        self.assert_matches_reference(form, cfg.mean_amplitude, settings, ((run, adaptive),))
        assert len(run(form, cfg.mean_amplitude, settings).iterations) == k + 1
        per_iter = 3 if adaptive else 2
        assert self.count_products(run, form, cfg.mean_amplitude, settings) == per_iter * k + 1

    def test_budget_does_not_bound_a_stopped_run(self):
        """fig7-desk realization 0's A-GD repeats at iterate 24, so a budget of
        10**6 iterations returns the same 25 rows and best iterate as the
        preset's 400: nothing past the recurrence is computed or stored."""
        form, cfg = sweep_form("fig7-desk", 64, 0)
        trace = run_agd(form, cfg.mean_amplitude,
                        replace(cfg.optimizer, max_iterations=10 ** 6))
        budget = run_agd(form, cfg.mean_amplitude, cfg.optimizer)
        assert len(trace.iterations) == 25 and trace.iterations == budget.iterations
        assert np.array_equal(trace.best_phases_rad, budget.best_phases_rad)
        assert trace.best_objective == budget.best_objective


class TestCertifiedStop:
    """Given a target, run_agd also stops at the first iterate whose best
    objective reaches it; the sweep's target is the bound U of the form's thin
    factor less AGD_CERTIFICATE_RTOL. Its trace is then the run's whose budget
    ends at that iterate, and a run that never reaches the target is the
    untargeted run."""

    @staticmethod
    def target(factor, mu) -> float:
        return _objective_bound(factor[None], mu) * (1 - AGD_CERTIFICATE_RTOL)

    @pytest.mark.parametrize("preset, n_ris, r", [
        ("fig7-desk", 64, 0), ("fig7-desk", 64, 6), ("fig7-paper", 256, 0)])
    def test_stops_at_first_certified_iterate(self, preset, n_ris, r):
        """On a rank-1 sweep form, the certified run stops at the first iterate k
        whose objective reaches the target, before the untargeted run stops, and
        its rows, best phases and best objective are those of a run with a budget
        of k iterations."""
        form, cfg = sweep_form(preset, n_ris, r)
        mu, settings = cfg.mean_amplitude, cfg.optimizer
        target = self.target(trace_normalized_factor(*_ris_paths(cfg, r).roots), mu)
        trace = run_agd(form, mu, settings, target)
        full = run_agd(form, mu, settings)
        objs = [row[1] for row in full.iterations]
        k = len(trace.iterations) - 1
        assert objs[0] < target and k == next(i for i, obj in enumerate(objs) if obj >= target)
        assert k < len(full.iterations) - 1
        cut = run_agd(form, mu, replace(settings, max_iterations=k))
        assert trace.iterations == cut.iterations
        assert np.array_equal(trace.best_phases_rad, cut.best_phases_rad)
        assert trace.best_objective == cut.best_objective >= target

    @pytest.mark.parametrize("seed", range(4))
    def test_full_rank_form_never_certifies(self, seed):
        """Off rank 1, theta^H D theta stays well below N lambda_1 on unit-modulus
        theta, so the target is never reached and the trace is the untargeted one."""
        form, factor = form_and_factor(np.random.default_rng(seed), 16, 8, 4)
        settings = OptimizerSettings(max_iterations=200)
        target = self.target(factor, MU)
        trace, plain = run_agd(form, MU, settings, target), run_agd(form, MU, settings)
        assert trace.best_objective < target
        assert trace.iterations == plain.iterations
        assert np.array_equal(trace.best_phases_rad, plain.best_phases_rad)
        assert trace.best_objective == plain.best_objective


def form_and_factor(rng, n_ris, n_bs, n_ms) -> tuple:
    """A random form D and its factor G with G G^H = D: column (i, k) of G is
    conj(H1[:, i]) * conj(H2[k, :])."""
    h1, h2 = crandn(rng, n_ris, n_bs), crandn(rng, n_ms, n_ris)
    factor = (h1.conj()[:, :, None] * h2.T.conj()[:, None, :]).reshape(n_ris, -1)
    return build_quadratic_form(h1, h2), factor


class TestFixedStepBlock:
    """fixed_step_descents runs C-GD at one or several constant steps on a stack
    of forms given by their factors, as one phase block; objective, gradient and
    run_cgd on the dense form stay its oracles. Its sums reassociate, so it
    matches them to rounding."""

    STEPS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)

    @pytest.mark.parametrize("n_ris", [8, 64])
    def test_block_terms_match_oracles(self, n_ris):
        rng = np.random.default_rng(n_ris)
        pairs = [form_and_factor(rng, n_ris, 3, 2) for _ in range(2)]
        factors = np.stack([factor for _, factor in pairs])
        phases = rng.uniform(-math.pi, 3.0 * math.pi, size=(2, len(self.STEPS), n_ris))
        trace_obj, grad = _block_terms(factors, phases, MU)
        assert trace_obj.shape == (2, len(self.STEPS)) and grad.shape == phases.shape
        for f, (form, _) in enumerate(pairs):
            for k in range(len(self.STEPS)):
                assert trace_obj[f, k] == pytest.approx(-objective(form, phases[f, k], MU),
                                                        rel=1e-12)
                ref = gradient(form, phases[f, k], MU)
                assert np.linalg.norm(grad[f, k] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n_ris", [8, 64])
    @pytest.mark.parametrize("rank", ["full", "rank1"])
    def test_tracks_run_cgd_rows(self, rank, n_ris):
        """After i iterations, i = 0..10, each run's best objective is the best
        of run_cgd's first i + 1 trace rows at the same step on the dense form.
        On a rank-one form, steps 0.1 and 1.0 amplify a last-bit difference about
        tenfold per iteration (at n_ris = 64 it passes 1e-12 by the 4th iteration
        at step 1.0 and the 8th at 0.1), so there only the steps 1e-4 to 1e-2
        are compared."""
        rng = np.random.default_rng(7 * n_ris)
        if rank == "full":
            form, factor = form_and_factor(rng, n_ris, n_ris + 2, n_ris + 1)
            steps = self.STEPS
        else:
            factor = crandn(rng, n_ris, 1)
            form, steps = QuadraticForm(matrix=factor @ factor.conj().T), self.STEPS[:3]
        form, scale = form.trace_normalized()
        factors = (factor * math.sqrt(scale))[None]
        rows = [run_cgd(form, MU, OptimizerSettings(max_iterations=10, fixed_step=step))
                .iterations for step in steps]
        for i in range(11):
            best, _ = fixed_step_descents(factors, steps, MU, i)
            for k, step_rows in enumerate(rows):
                ref = max(obj for _, obj, _, _ in step_rows[:i + 1])
                assert best[0, k] == pytest.approx(ref, rel=1e-12)

    def test_one_product_per_iteration(self):
        """One product z = conj(U) * (G (G^H U)) per iteration, taken as two thin
        matrix products on the whole stack."""
        rng = np.random.default_rng(5)
        factors = np.stack([form_and_factor(rng, 8, 3, 2)[1] for _ in range(3)])
        counted = factors.view(CountingMatrix)
        before = CountingMatrix.matmuls
        best, phases = fixed_step_descents(counted, self.STEPS, MU, 30)
        assert CountingMatrix.matmuls - before == 2 * 31
        plain = fixed_step_descents(factors, self.STEPS, MU, 30)
        assert np.array_equal(best, plain[0]) and np.array_equal(phases, plain[1])


def sweep_factors(preset, n_ris, realizations) -> np.ndarray:
    """(R, N, L) stack of the sweep's thin factors of the given realizations at
    n_ris elements of a preset, as the sweep's C-GD block receives them."""
    cfg = replace(load_preset(preset), sweep="none", sweep_grid=(), n_ris=n_ris)
    return np.stack([trace_normalized_factor(*_ris_paths(cfg, r).roots)
                     for r in realizations])


def reference_block(factors, steps, mu, max_iterations) -> tuple:
    """fixed_step_descents without its stop: the whole budget runs, and each run
    keeps its best iterate by a strict > in a per-run Python loop."""
    lam = np.asarray(steps, dtype=float)[:, None]
    phases = np.zeros((factors.shape[0], lam.size, factors.shape[1]))
    best, best_phases = np.full(phases.shape[:2], -math.inf), np.zeros(phases.shape)
    for _ in range(max_iterations + 1):
        trace_obj, grad = _block_terms(factors, phases, mu)
        for run in np.ndindex(best.shape):
            if trace_obj[run] > best[run]:
                best[run], best_phases[run] = trace_obj[run], phases[run]
        phases = phases - lam * grad
    return best, best_phases


class TestSweepBlock:
    """The sweep's C-GD: every realization of a point group descends at the
    group's step as one block (K = 1) on the sweep's thin factors. fig8-desk at
    N=32 and step 1e-2 reaches a fixed point in each of these realizations;
    fig7-desk at N=64 and 1e-3 does not within the 400-iteration budget."""

    CASES = {"fixed point": ("fig8-desk", 32, 1e-2), "full budget": ("fig7-desk", 64, 1e-3)}
    REALIZATIONS = range(5)

    @pytest.mark.parametrize("case", CASES)
    def test_quantizes_as_dense_run_cgd(self, case):
        """Each row's best phases quantize to the same codebook entries as
        run_cgd's on the realization's dense form, and the best objectives agree
        to 1e-9 relative."""
        preset, n_ris, step = self.CASES[case]
        cfg = sweep_form(preset, n_ris, 0)[1]
        settings, codebook = replace(cfg.optimizer, fixed_step=step), cfg.codebook()
        best, phases = fixed_step_descents(sweep_factors(preset, n_ris, self.REALIZATIONS),
                                           (step,), cfg.mean_amplitude, settings.max_iterations)
        for r in self.REALIZATIONS:
            dense = run_cgd(sweep_form(preset, n_ris, r)[0], cfg.mean_amplitude, settings)
            assert np.array_equal(quantize_phases(phases[r, 0], codebook),
                                  quantize_phases(dense.best_phases_rad, codebook))
            assert best[r, 0] == pytest.approx(dense.best_objective, rel=1e-9)

    @pytest.mark.parametrize("case", CASES)
    def test_row_alone_equals_row_in_block(self, case):
        """A realization's row is the same bit for bit whether it descends alone
        or inside the group's block, where other rows run longer or stop sooner:
        rows do not depend on the number of realizations or the worker count."""
        preset, n_ris, step = self.CASES[case]
        factors = sweep_factors(preset, n_ris, self.REALIZATIONS)
        block = fixed_step_descents(factors, (step,), MU, 400)
        for r in self.REALIZATIONS:
            alone = fixed_step_descents(factors[r:r + 1], (step,), MU, 400)
            assert alone[0][0, 0] == block[0][r, 0]
            assert np.array_equal(alone[1][0], block[1][r])

    @pytest.mark.parametrize("case", CASES)
    def test_stop_equals_full_budget(self, monkeypatch, case):
        """The block stops once a step leaves every row's phases unchanged bit for
        bit, and its best objectives and phases equal, bit for bit, those of the
        same loop run for the whole budget: before the budget on the fixed-point
        case, and never on the other."""
        preset, n_ris, step = self.CASES[case]
        factors = sweep_factors(preset, n_ris, self.REALIZATIONS)
        calls, block_terms = [], _block_terms

        def counted(*args):
            calls.append(1)
            return block_terms(*args)

        monkeypatch.setattr(optimizer, "_block_terms", counted)
        best, phases = fixed_step_descents(factors, (step,), MU, 400)
        iterations = len(calls)
        ref_best, ref_phases = reference_block(factors, (step,), MU, 400)
        assert np.array_equal(best, ref_best) and np.array_equal(phases, ref_phases)
        assert (iterations < 401) if case == "fixed point" else (iterations == 401)


class TestTraceNormalizedFactor:
    """trace_normalized_factor combines the RIS-side roots of two hops given as
    path factors (R, w, T), H = R diag(w) T^H, into G with G G^H = D."""

    @staticmethod
    def path_hops(rng, n_ris, n_bs, n_ms, n_paths):
        h1 = (crandn(rng, n_ris, n_paths), crandn(rng, n_paths), crandn(rng, n_bs, n_paths))
        h2 = (crandn(rng, n_ms, n_paths), crandn(rng, n_paths), crandn(rng, n_ris, n_paths))
        return h1, h2

    @staticmethod
    def roots(h1, h2):
        """P1 P1^H = H1 H1^H and P2 P2^H = H2^H H2, from the triangular factor Q
        of a thin QR of T1 and of R2 (X^H X = Q^H Q)."""
        (r1, w1, t1), (r2, w2, t2) = h1, h2
        return ((r1 * w1) @ np.linalg.qr(t1, mode="r").conj().T,
                (t2 * w2.conj()) @ np.linalg.qr(r2, mode="r").conj().T)

    @pytest.mark.parametrize("n_ris, n_paths, repeat", [
        pytest.param(n_ris, n_paths, False, id=f"{n_ris}-{n_paths}")
        for n_ris, n_paths in [(8, 3), (4, 3), (6, 1), (5, 5)]
    ] + [pytest.param(6, 3, True, id="6-3-repeated")])
    def test_equals_dense_trace_normalized_form(self, n_ris, n_paths, repeat):
        """G has min(n_bs, L1) min(n_ms, L2) columns, here with n_bs = 7 and
        n_ms = 3: wider than D for n_ris 4 (9 columns) and 5 (15 columns, as the
        3-element ms array caps P2 at 3). With repeat, the tx steering matrix T1
        repeats a column, so T1^H T1 is singular."""
        rng = np.random.default_rng(n_ris * 10 + n_paths)
        h1, h2 = self.path_hops(rng, n_ris, 7, 3, n_paths)
        if repeat:
            h1[2][:, 1] = h1[2][:, 0]
        dense = [r @ np.diag(w) @ t.conj().T for r, w, t in (h1, h2)]
        form, _ = build_quadratic_form(*dense).trace_normalized()
        g = trace_normalized_factor(*self.roots(h1, h2))
        assert g.shape == (n_ris, min(7, n_paths) * min(3, n_paths))
        err = np.linalg.norm(g @ g.conj().T - form.matrix)
        assert err <= 1e-12 * np.linalg.norm(form.matrix)

    @pytest.mark.parametrize("gain", [0.0, math.nan])
    def test_degenerate_trace_raises(self, gain):
        """Zero or NaN path gains give a zero or NaN trace, which raises as
        QuadraticForm.trace_normalized does."""
        h1, (r2, w2, t2) = self.path_hops(np.random.default_rng(3), 4, 5, 2, 3)
        with pytest.raises(ValueError, match="positive and finite"):
            trace_normalized_factor(*self.roots(h1, (r2, np.full_like(w2, gain), t2)))


class TestRunRandomPhase:
    def test_single_element_two_values(self):
        rng = np.random.default_rng(24)
        h1, h2 = crandn(rng, 1, 3), crandn(rng, 2, 1)
        form = build_quadratic_form(h1, h2)
        cb1 = build_codebook(2 * math.pi, 1, mean_amplitude=0.8)
        seen = {round(-objective(form, run_random_phase(1, cb1, np.random.default_rng(s)),
                                 cb1.mean_amplitude), 12)
                for s in range(40)}
        assert len(seen) <= 2

    def test_phases_come_from_codebook(self):
        rng = np.random.default_rng(25)
        form = random_form(rng)
        phases = run_random_phase(form.n_ris, CODEBOOK, rng)
        assert phases.shape == (form.n_ris,)
        assert all(p in CODEBOOK.phases_rad for p in phases)

    def test_mean_matches_enumeration(self):
        # empirical mean over draws vs the exact mean over the full grid
        rng = np.random.default_rng(26)
        h1, h2 = crandn(rng, 3, 4), crandn(rng, 2, 3)
        form = build_quadratic_form(h1, h2)
        cb1 = build_codebook(2 * math.pi, 1, mean_amplitude=0.8)
        grid = cb1.phases_rad
        exact = []
        for idx in range(2 ** 3):
            combo = [(idx >> k) & 1 for k in (2, 1, 0)]
            exact.append(-objective(form, grid[combo], cb1.mean_amplitude))
        exact = np.array(exact)
        draw_rng = np.random.default_rng(99)
        draws = np.array([-objective(form, run_random_phase(3, cb1, draw_rng),
                                     cb1.mean_amplitude) for _ in range(1000)])
        se = exact.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - exact.mean()) <= 3 * se


class TestRunExhaustive:
    def test_single_element(self):
        rng = np.random.default_rng(27)
        h1, h2 = crandn(rng, 1, 3), crandn(rng, 2, 1)
        form = build_quadratic_form(h1, h2)
        phases, best = run_exhaustive(form, CODEBOOK)
        values = [-objective(form, np.array([p]), MU) for p in CODEBOOK.phases_rad]
        assert best == pytest.approx(max(values), rel=1e-12)

    def test_identity_tie_returns_first_lexicographic(self):
        form = QuadraticForm(matrix=np.eye(3, dtype=complex))
        phases, best = run_exhaustive(form, CODEBOOK)
        np.testing.assert_array_equal(phases, np.zeros(3))
        assert best == pytest.approx(MU**2 * 3, rel=1e-12)

    def test_search_space_guard(self):
        rng = np.random.default_rng(28)
        form = random_form(rng, n_ris=11, n_bs=12, n_ms=4)
        with pytest.raises(ValueError, match="exceeds"):
            run_exhaustive(form, CODEBOOK)  # 4^11 > 10^6

    def test_beats_every_sampled_grid_point(self):
        rng = np.random.default_rng(29)
        form = random_form(rng, n_ris=4)
        _, best = run_exhaustive(form, CODEBOOK)
        grid = CODEBOOK.phases_rad
        for _ in range(50):
            phases = grid[rng.integers(0, 4, size=4)]
            assert best >= -objective(form, phases, MU) - 1e-10


class TestQuantizePhases:
    def test_codebook_phase_fixed_point(self):
        phases = CODEBOOK.phases_rad
        np.testing.assert_array_equal(quantize_phases(phases, CODEBOOK), phases)

    def test_wraparound_maps_to_zero(self):
        got = quantize_phases(np.array([math.radians(350.0)]), CODEBOOK)
        assert got[0] == 0.0

    def test_midpoint_tie_breaks_low(self):
        grid = CODEBOOK.phases_rad
        mid = 0.5 * (grid[1] + grid[2])
        assert quantize_phases(np.array([mid]), CODEBOOK)[0] == grid[1]

    def test_idempotent_and_member(self):
        rng = np.random.default_rng(30)
        phases = rng.uniform(-20, 20, 64)
        once = quantize_phases(phases, CODEBOOK)
        assert all(p in CODEBOOK.phases_rad for p in once)
        np.testing.assert_array_equal(quantize_phases(once, CODEBOOK), once)

    @given(st.integers(1, 4),
           st.floats(0.0, 360.0, exclude_min=True).filter(lambda d: math.radians(d) > 0),
           st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=32))
    def test_idempotent_property(self, bits, phi_max_deg, phases):
        """Quantizing a quantized phase vector returns it unchanged, for every
        1-4 bit codebook with phi_max in (0, 360] degrees. Degree values so
        small that their radians round to 0 make no codebook, and the config
        rejects them (TestLoadConfig::test_constraint_violation_named)."""
        codebook = build_codebook(math.radians(phi_max_deg), bits)
        once = quantize_phases(np.array(phases), codebook)
        np.testing.assert_array_equal(quantize_phases(once, codebook), once)

    def test_nearest_by_circular_distance(self):
        grid = CODEBOOK.phases_rad
        rng = np.random.default_rng(31)
        for _ in range(200):
            phi = rng.uniform(0, 2 * math.pi)
            got = quantize_phases(np.array([phi]), CODEBOOK)[0]
            diffs = np.abs(phi - grid)
            dist = np.minimum(diffs, 2 * math.pi - diffs)
            expect = dist.min()
            got_diff = abs(phi - got)
            assert min(got_diff, 2 * math.pi - got_diff) == pytest.approx(expect, abs=1e-9)


class TestScaleBehavior:
    def test_trace_normalization_preserves_agd_path(self):
        # adaptive steps are invariant under positive rescaling of the form
        # (within the guard's working range), so normalization only fixes the
        # numeric scale for the constant-step baseline
        rng = np.random.default_rng(32)
        form = random_form(rng)
        settings = OptimizerSettings(max_iterations=40)
        a = run_agd(form, MU, settings)
        b = run_agd(QuadraticForm(form.matrix * 128.0), MU, settings)
        np.testing.assert_allclose(a.best_phases_rad, b.best_phases_rad,
                                   rtol=1e-8, atol=1e-8)

    def test_trace_normalized_scale(self):
        rng = np.random.default_rng(33)
        form = random_form(rng)
        normalized, scale = form.trace_normalized()
        assert np.trace(normalized.matrix).real == pytest.approx(6.0, rel=1e-12)
        np.testing.assert_allclose(normalized.matrix, form.matrix * scale, rtol=1e-15)

    @pytest.mark.parametrize("entry", [0.0, math.nan])
    def test_trace_normalized_rejects_degenerate_trace(self, entry):
        form = QuadraticForm(matrix=np.full((3, 3), entry, dtype=complex))
        with pytest.raises(ValueError, match="positive and finite"):
            form.trace_normalized()

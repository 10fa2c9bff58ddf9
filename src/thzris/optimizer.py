"""Passive beamforming: RIS phase optimization on the trace objective.

With theta_n = mu e^{j phi_n}, tr(H_e H_e^H) = theta^H D theta for the
Hermitian PSD matrix D = conj(H1 H1^H) o (H2^H H2) (entrywise product).
Minimizing f(phi) = -theta^H D theta over the unconstrained continuous phases
is done by gradient descent; the adaptive variant picks each step size from
the exact second-order expansion of f along the gradient direction. A-GD and
C-GD return continuous phases; the harness quantizes them onto each sweep
point's discrete hardware codebook (quantize_phases). A descent stops at the
first iterate that repeats an earlier one bit for bit, and an A-GD run given a
target objective also at the first iterate that raises its best to the target;
its trace holds what ran.

C-GD never builds D, in the sweep or in its step calibration: D = G G^H for a
thin factor G, with at most one column per pair of paths, that
trace_normalized_factor combines from the hops' thin roots (channel.ris_root),
and fixed_step_descents descends a stack of such factors at one or several
constant steps at once, returning each run's best objective and phases.
run_cgd, C-GD on the dense D, is the tests' oracle; the sweep does not call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphene import PhaseCodebook

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadraticForm:
    """Hermitian PSD matrix of the trace objective theta^H D theta."""

    matrix: np.ndarray

    @property
    def n_ris(self) -> int:
        return self.matrix.shape[0]

    def trace_normalized(self) -> tuple:
        """Rescale so tr(D) = n_ris; returns (form, applied scale factor).

        Gradient descent trajectories with the adaptive step are invariant
        under positive rescaling, but the constant-step baseline and the
        curvature guard are calibrated for order-one matrices, so harness
        optimization always runs on the normalized form. A zero or non-finite
        trace (a zero or NaN channel) raises ValueError.
        """
        scale = _trace_scale(float(np.real(np.trace(self.matrix))), self.n_ris)
        return QuadraticForm(self.matrix * scale), scale


def _trace_scale(trace: float, n_ris: int) -> float:
    """n_ris / trace, the factor that normalizes a form's trace to n_ris; a zero or
    non-finite trace raises ValueError."""
    if not 0.0 < trace < math.inf:
        raise ValueError(f"quadratic form trace must be positive and finite, got {trace!r}")
    return n_ris / trace


# adaptive-step constants: curvature guard relative to |C0|, and the step used
# when the quadratic model degenerates
C2_EPSILON = 1e-12
FALLBACK_STEP = 1e-2


@dataclass(frozen=True)
class OptimizerSettings:
    """Iteration budget shared by A-GD and C-GD, and the C-GD step size, or
    "auto" for a step the harness calibrates before any C-GD run."""

    max_iterations: int = field(default=100, metadata={
        "kind": "int", "doc": "gradient-descent iteration budget"})
    fixed_step: float | str = field(default=1e-2, metadata={
        "kind": "float_or_auto", "doc": "C-GD step size; 'auto' calibrates once per n_ris value"})

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.fixed_step != "auto" and self.fixed_step <= 0:
            raise ValueError("fixed_step must be > 0")


@dataclass
class GdTrace:
    """Per-iteration record of one optimizer run.

    iterations rows are (iteration index, trace objective theta^H D theta,
    step size applied at that iterate, gradient norm): one per iteration run,
    then (k, objective, 0, 0) for the last iterate k = len(iterations) - 1,
    the budget's, a repeated one's or, for a run given a target, the first
    that reached it. best_* track the continuous iterate with the largest
    trace objective.
    """

    iterations: list
    best_phases_rad: np.ndarray
    best_objective: float


def build_quadratic_form(h1: np.ndarray, h2: np.ndarray) -> QuadraticForm:
    """D = conj(H1 H1^H) o (H2^H H2), the Hadamard form of the Kronecker
    column construction; satisfies theta^H D theta = ||H2 diag(theta) H1||_F^2."""
    h1 = np.asarray(h1)
    h2 = np.asarray(h2)
    if h1.shape[0] != h2.shape[1]:
        raise ValueError(f"dimension mismatch: h1 {h1.shape} vs h2 {h2.shape}")
    d = np.conj(h1 @ h1.conj().T) * (h2.conj().T @ h2)
    return QuadraticForm(matrix=d)


def objective(form: QuadraticForm, phases: np.ndarray, mean_amplitude: float) -> float:
    """f(phi) = -mu^2 sum_pq e^{-j phi_p} D_pq e^{j phi_q}; real and <= 0.

    The imaginary residue of the double sum (zero by Hermitian symmetry) is
    discarded.
    """
    u = np.exp(1j * np.asarray(phases, dtype=float))
    value = -mean_amplitude ** 2 * (u.conj() @ form.matrix @ u)
    return float(value.real)


def gradient(form: QuadraticForm, phases: np.ndarray, mean_amplitude: float) -> np.ndarray:
    """Analytic gradient of f; entry n is

    mu^2 j e^{-j phi_n} sum_q D_nq e^{j phi_q} - mu^2 j e^{j phi_n} sum_p D_pn e^{-j phi_p}

    which is real for Hermitian D (residue discarded).
    """
    u = np.exp(1j * np.asarray(phases, dtype=float))
    mu2 = mean_amplitude ** 2
    row = form.matrix @ u          # sum_q D_nq e^{j phi_q}
    col = u.conj() @ form.matrix   # sum_p D_pn e^{-j phi_p}
    grad = mu2 * 1j * (u.conj() * row) - mu2 * 1j * (u * col)
    return grad.real.copy()


def quadratic_model_coeffs(form: QuadraticForm, phases: np.ndarray,
                           grad: np.ndarray, mean_amplitude: float) -> tuple:
    """(C0, C1, C2) of the step-size model f(phi - lam*grad) ~ C0 + C1 lam + C2 lam^2.

    Expanding the double sum along the gradient direction with
    Gamma_pq = grad_p - grad_q gives

        C1 = Re[-mu^2 sum_pq D_pq e^{j(phi_q - phi_p)} j Gamma_pq]
        C2 = Re[+mu^2 sum_pq D_pq e^{j(phi_q - phi_p)} Gamma_pq^2 / 2]

    evaluated here with matrix-vector products only (no N^2 temporaries).
    """
    u = np.exp(1j * np.asarray(phases, dtype=float))
    g = np.asarray(grad, dtype=float)
    mu2 = mean_amplitude ** 2
    row = u.conj() * (form.matrix @ u)       # sum over q of M_pq, per p
    col = u * (u.conj() @ form.matrix)       # sum over p of M_pq, per q
    c0 = -mu2 * np.sum(row)
    s1 = g @ row - g @ col                   # sum_pq M_pq Gamma_pq
    gu = g * u
    s2 = (g * g) @ row + (g * g) @ col - 2.0 * (gu.conj() @ form.matrix @ gu)
    c1 = -mu2 * 1j * s1
    c2 = 0.5 * mu2 * s2
    return float(c0.real), float(c1.real), float(c2.real)


def _model_step(c0: float, c1: float, c2: float) -> float:
    """The step the model C0 + C1 lam + C2 lam^2 picks: the vertex -C1/(2 C2) for
    convex curvature, |C1|/|C2| for concave curvature, and FALLBACK_STEP when
    |C2| degenerates (threshold C2_EPSILON scaled by |C0|)."""
    guard = C2_EPSILON * abs(c0)
    if c2 > guard:
        return -c1 / (2.0 * c2)
    if c2 < -guard:
        return abs(c1) / abs(c2)
    return FALLBACK_STEP


def adaptive_step(form: QuadraticForm, phases: np.ndarray, grad: np.ndarray,
                  mean_amplitude: float) -> float:
    """Step size from the second-order model of f along -grad (see _model_step)."""
    return _model_step(*quadratic_model_coeffs(form, phases, grad, mean_amplitude))


def _descend(form: QuadraticForm, mean_amplitude: float, settings: OptimizerSettings,
             fixed_step: float | None, target: float | None = None) -> GdTrace:
    """Common gradient-descent loop from zero phases with best-iterate tracking:
    A-GD's adaptive step when fixed_step is None, else C-GD's constant step.

    Each iterate's products are computed once, in the order objective,
    gradient and quadratic_model_coeffs compute them, so every float equals
    theirs: col = u^H D gives the objective, row = D u the gradient, and A-GD's
    step model adds only (g u)^H D (g u). An iterate's row and successor depend
    only on its phases, so the loop stops at the first iterate that repeats an
    earlier one bit for bit: past it the run only cycles, and the strict > keeps
    the best. Given a target, the loop also stops at the first iterate whose
    strict > improvement raises the best objective to at least the target, so
    its trace is that of a run whose budget ends at that iterate. phases is
    rebound, never written in place, so it needs no copy.
    """
    d = form.matrix
    mu2 = mean_amplitude ** 2
    phases = np.zeros(form.n_ris)
    u = np.exp(1j * phases)
    uh = u.conj()
    col = uh @ d
    trace_obj = -float((-mu2 * (col @ u)).real)
    best_obj, best_phases = trace_obj, phases
    rows, seen = [], {phases.tobytes()}
    for i in range(settings.max_iterations):
        ur = uh * (d @ u)
        uc = u * col
        grad = (mu2 * 1j * ur - mu2 * 1j * uc).real.copy()
        if fixed_step is None:
            gu = grad * u
            g2 = grad * grad
            s2 = g2 @ ur + g2 @ uc - 2.0 * (gu.conj() @ d @ gu)
            lam = _model_step(float((-mu2 * np.sum(ur)).real),
                              float((-mu2 * 1j * (grad @ ur - grad @ uc)).real),
                              float((0.5 * mu2 * s2).real))
        else:
            lam = fixed_step
        rows.append((i, trace_obj, lam, math.sqrt(grad @ grad)))
        phases = phases - lam * grad
        u = np.exp(1j * phases)
        uh = u.conj()
        col = uh @ d
        trace_obj = -float((-mu2 * (col @ u)).real)
        if trace_obj > best_obj:
            best_obj, best_phases = trace_obj, phases
            if target is not None and best_obj >= target:
                break
        key = phases.tobytes()
        if key in seen:
            break
        seen.add(key)
    rows.append((len(rows), trace_obj, 0.0, 0.0))
    return GdTrace(iterations=rows, best_phases_rad=best_phases, best_objective=best_obj)


def run_agd(form: QuadraticForm, mean_amplitude: float, settings: OptimizerSettings,
            target: float | None = None) -> GdTrace:
    """Adaptive-step gradient descent (A-GD) on continuous phases; given a target
    trace objective, it stops at the first iterate whose best reaches it."""
    return _descend(form, mean_amplitude, settings, None, target)


def run_cgd(form: QuadraticForm, mean_amplitude: float,
            settings: OptimizerSettings) -> GdTrace:
    """Constant-step gradient descent (C-GD) baseline on continuous phases, on the
    dense form: the oracle of fixed_step_descents, which the sweep calls instead."""
    if settings.fixed_step == "auto":
        raise ValueError("run_cgd needs a numeric fixed_step, got 'auto'")
    return _descend(form, mean_amplitude, settings, settings.fixed_step)


def trace_normalized_factor(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Thin factor G (N x k1 k2) of the trace-normalized form, G G^H = D with
    tr(D) = N, from roots P1 (N x k1, P1 P1^H = H1 H1^H) and P2 (N x k2,
    P2 P2^H = H2^H H2) as channel.ris_root builds them: column (i, k) of G is
    conj(P1[:, i]) * P2[:, k], so ||G||_F^2 = sum_p ||P1[p]||^2 ||P2[p]||^2 =
    tr(D), and a zero or non-finite trace raises ValueError."""
    g = (p1.conj()[:, :, None] * p2[:, None, :]).reshape(p1.shape[0], -1)
    return g * math.sqrt(_trace_scale(float(np.vdot(g, g).real), g.shape[0]))


def _block_terms(factors: np.ndarray, phases: np.ndarray, mean_amplitude: float) -> tuple:
    """Trace objective (F, K) and gradient (F, K, N) of f for K phase vectors per
    form, an (F, K, N) phase block, on the forms D = G G^H of an (F, N, L) factor
    stack, from one product z = conj(u) * (G (G^H u)) per phase vector u: the
    objective is mu^2 sum Re z and the gradient -2 mu^2 Im z. A phase vector is
    a row, so G^H u is the row conj(conj(u)^T G); z is built in place in the
    product, so the block holds two complex arrays at a time."""
    uc = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=uc.real)
    np.sin(phases, out=uc.imag)
    np.conjugate(uc, out=uc)
    z = (uc @ factors).conj() @ factors.transpose(0, 2, 1)
    z *= uc
    mu2 = mean_amplitude ** 2
    return mu2 * z.real.sum(axis=2), -2.0 * mu2 * z.imag


def fixed_step_descents(factors: np.ndarray, steps, mean_amplitude: float,
                        max_iterations: int) -> tuple:
    """Best trace objective (F, K) and best phases (F, K, N) of a max_iterations
    C-GD run at each of K constant steps on each form G G^H of an (F, N, L) factor
    stack: all forms and steps descend together from zero phases as one phase
    block. Each run tracks its best iterate as run_cgd does (strict >); sums
    reassociate, so objectives match run_cgd's on the dense form to rounding,
    which a large step amplifies. An iterate depends only on the block's phases,
    so once a step leaves every run's phases unchanged bit for bit, the rest of
    the budget would only repeat it, and the block stops."""
    lam = np.asarray(steps, dtype=float)[:, None]
    phases = np.zeros((factors.shape[0], lam.size, factors.shape[1]))
    stepped, best_phases = np.empty_like(phases), np.zeros_like(phases)
    best = np.full(phases.shape[:2], -math.inf)
    for _ in range(max_iterations + 1):
        trace_obj, grad = _block_terms(factors, phases, mean_amplitude)
        np.copyto(best_phases, phases, where=(trace_obj > best)[:, :, None])
        best = np.maximum(best, trace_obj)   # a NaN objective stays NaN
        grad *= lam
        np.subtract(phases, grad, out=stepped)
        if np.array_equal(stepped.view(np.uint64), phases.view(np.uint64)):
            break
        phases, stepped = stepped, phases
    return best, best_phases


def run_random_phase(n_ris: int, codebook: PhaseCodebook, rng) -> np.ndarray:
    """One uniform draw of n_ris codebook phases: a non-optimizing surface."""
    return codebook.phases_rad[rng.integers(0, codebook.size, size=n_ris)]


EXHAUSTIVE_LIMIT = 10 ** 6


def run_exhaustive(form: QuadraticForm, codebook: PhaseCodebook) -> tuple:
    """Exact discrete optimum of theta^H D theta over the codebook grid.

    Enumerates lexicographically; near-ties (1e-12 relative) resolve to the
    first grid point. Guarded to 10^6 candidates.
    """
    n = form.n_ris
    n_comb = codebook.size ** n
    if n_comb > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search over {n_comb} candidates exceeds "
                         f"the {EXHAUSTIVE_LIMIT} limit")
    grid = codebook.phases_rad
    shape = (codebook.size,) * n
    mu2 = codebook.mean_amplitude ** 2
    values = np.empty(n_comb)
    chunk = 1 << 14
    for start in range(0, n_comb, chunk):
        idx = np.arange(start, min(start + chunk, n_comb))
        combos = np.stack(np.unravel_index(idx, shape), axis=1)
        u = np.exp(1j * grid[combos])
        values[idx] = mu2 * np.real(
            np.einsum("kn,nm,km->k", u.conj(), form.matrix, u))
    top = values.max()
    best = int(np.argmax(values >= top - 1e-12 * max(abs(top), 1.0)))
    best_combo = np.array(np.unravel_index(best, shape))
    return grid[best_combo], float(values[best])


def quantize_phases(phases: np.ndarray, codebook: PhaseCodebook) -> np.ndarray:
    """Map each phase to the nearest codebook entry by circular distance.

    Phases are first wrapped into [0, 2pi); distances use the full circle, so
    values just below 2pi can map back to codebook phase 0. Ties (to 1e-12)
    break toward the lower-index entry.
    """
    wrapped = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    grid = codebook.phases_rad
    diff = np.abs(wrapped[:, None] - grid[None, :])
    dist = np.minimum(diff, TWO_PI - diff)
    best = dist.min(axis=1)
    choice = np.argmax(dist <= best[:, None] + 1e-12, axis=1)
    return grid[choice]

"""Cascaded channel, SVD transceiver beamforming, achievable rate: the rate definition and
the tests' oracle; no run builds a cascade, the sweep's rates read the hops' thin roots.

The RIS applies a diagonal reflection matrix diag(theta) with theta_n = mean_amplitude
e^{j phi_n}; the effective channel is H_e = H2 diag(theta) H1. With the channel fixed,
the optimal precoder and combiner are the leading right/left singular vectors of H_e,
and the rate reduces to a sum of per-stream log terms over the leading singular values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BeamformerPair:
    """Transmit precoder F (N_BS x N_s) and receive combiner W (N_MS x N_s).

    Columns are orthonormal, so the transmit power constraint
    ||F||_F^2 = N_s holds by construction.
    """

    precoder: np.ndarray
    combiner: np.ndarray
    n_streams: int


def cascaded_channel(h1: np.ndarray, h2: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """H_e = H2 diag(theta) H1 without forming the diagonal matrix."""
    h1 = np.asarray(h1)
    h2 = np.asarray(h2)
    n_ris = theta.shape[0]
    if h1.shape[0] != n_ris or h2.shape[1] != n_ris:
        raise ValueError(f"dimension mismatch: h1 {h1.shape}, h2 {h2.shape}, "
                         f"{n_ris} reflection coefficients")
    return (h2 * theta[None, :]) @ h1


def svd_beamformers(he: np.ndarray, n_streams: int) -> BeamformerPair:
    """Leading-singular-vector precoder/combiner of the effective channel."""
    he = np.asarray(he)
    n_ms, n_bs = he.shape
    if not 1 <= n_streams <= min(n_ms, n_bs):
        raise ValueError(f"n_streams must lie in [1, {min(n_ms, n_bs)}], "
                         f"got {n_streams}")
    u, _, vh = np.linalg.svd(he, full_matrices=False)
    return BeamformerPair(precoder=vh[:n_streams].conj().T,
                          combiner=u[:, :n_streams],
                          n_streams=int(n_streams))


def achievable_rate(he: np.ndarray, pair: BeamformerPair, snr_linear: float) -> float:
    """Spectral efficiency (bits/s/Hz) of the general log-det expression

    log2 det(I + snr/N_s (W^H W)^{-1} W^H H_e F F^H H_e^H W)

    with equal power snr/N_s per stream. A singular W^H W raises a linear
    algebra error rather than returning garbage.
    """
    if snr_linear < 0:
        raise ValueError("snr_linear must be >= 0")
    f = pair.precoder
    w = pair.combiner
    ns = pair.n_streams
    gram = w.conj().T @ w
    np.linalg.cholesky(gram)  # rank-deficient combiner fails loudly here
    wf = w.conj().T @ np.asarray(he) @ f
    m = np.eye(ns, dtype=complex) + (snr_linear / ns) * np.linalg.solve(gram, wf @ wf.conj().T)
    sign, logdet = np.linalg.slogdet(m)
    if not np.isfinite(logdet):
        raise np.linalg.LinAlgError("log-det of the rate matrix is not finite")
    return float(logdet / math.log(2.0))


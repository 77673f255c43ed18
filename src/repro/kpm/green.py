"""Green's functions and local DoS via KPM.

The paper (Sec. I) motivates KPM with "DoS and Green's functions"; the
Green's function follows from the same moments:

    G(omega) = -i * [g_0 mu_0 + 2 sum_{n>=1} g_n mu_n exp(-i n arccos x)]
               / (a * sqrt(1 - x^2)),          x = (omega - b) / a,

whose imaginary part is ``-pi rho(omega)`` — a relation the tests pin.
The Lorentz kernel is the conventional choice here because it preserves
the resolvent's analytic structure.

The *local* DoS at site ``i`` replaces the stochastic trace by the single
deterministic start vector ``|i>``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.kpm.config import KPMConfig
from repro.kpm.moments import moments_single_vector
from repro.kpm.reconstruct import apply_kernel_damping, dos_from_moments
from repro.kpm.rescale import Rescaling, rescale_operator
from repro.sparse import as_operator
from repro.util.validation import check_nonnegative_int

__all__ = ["greens_function", "local_dos", "local_dos_map"]


def greens_function(
    moments,
    rescaling: Rescaling,
    energies,
    *,
    kernel: str | np.ndarray = "lorentz",
    **kernel_kwargs,
) -> np.ndarray:
    """Retarded Green's function ``G(omega + i0+)`` at the given energies.

    Parameters
    ----------
    moments:
        Normalized moments (array or :class:`~repro.kpm.MomentData`).
        Trace-normalized moments give ``G = Tr[(omega - H)^{-1}]/D``;
        single-site moments give the local resolvent element.
    rescaling:
        The spectral map used to produce the moments.
    energies:
        Original-unit energies, strictly inside the rescaled interval.
    kernel:
        Damping kernel; ``"lorentz"`` by default (see module docstring).
    """
    if not isinstance(rescaling, Rescaling):
        raise ValidationError(
            f"rescaling must be a Rescaling, got {type(rescaling).__name__}"
        )
    damped = apply_kernel_damping(moments, kernel, **kernel_kwargs)
    x = np.atleast_1d(rescaling.to_scaled(np.asarray(energies, dtype=np.float64)))
    # Written as "all inside" so that a NaN energy fails it too.
    if not np.all(np.abs(x) < 1.0):
        raise ValidationError(
            "energies must lie strictly inside the rescaled spectral interval"
        )
    theta = np.arccos(x)
    orders = np.arange(damped.shape[0], dtype=np.float64)
    phases = np.exp(-1j * np.outer(orders, theta))  # (N, M)
    weights = damped.astype(np.complex128)
    weights[1:] *= 2.0
    series = weights @ phases
    return -1j * series / (rescaling.scale * np.sqrt(1.0 - x**2))


def local_dos(
    hamiltonian,
    site: int,
    config: KPMConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Local density of states ``rho_i(omega) = <i|delta(omega - H)|i>``.

    Deterministic (no random vectors): the start vector is the basis
    vector of ``site``.  Uses ``config.num_moments``, ``kernel``,
    ``bounds_method``, ``epsilon``, and ``num_energy_points``.

    Returns
    -------
    (energies, ldos):
        ``ldos`` integrates to ~1 over the band.
    """
    config = KPMConfig() if config is None else config
    op = as_operator(hamiltonian)
    site = check_nonnegative_int(site, "site")
    if site >= op.shape[0]:
        raise ValidationError(f"site {site} out of range for dimension {op.shape[0]}")
    scaled, rescaling = rescale_operator(
        op, method=config.bounds_method, epsilon=config.epsilon
    )
    start = np.zeros(op.shape[0], dtype=np.float64)
    start[site] = 1.0
    mu = moments_single_vector(
        scaled, start, config.num_moments, use_doubling=config.use_doubling
    )
    return dos_from_moments(
        mu,
        rescaling,
        kernel=config.kernel,
        num_points=config.num_energy_points,
    )


def local_dos_map(
    hamiltonian,
    energies,
    *,
    sites=None,
    config: KPMConfig | None = None,
    batch_size: int = 64,
) -> np.ndarray:
    """LDoS of many sites at chosen energies — spatial imaging.

    Computes ``rho_i(omega) = <i|delta(omega - H)|i>`` for every site in
    ``sites`` (default: all of them) via the batched recursion — the
    workhorse behind STM-style maps of disordered or defected samples.

    Parameters
    ----------
    hamiltonian:
        The (unscaled) Hamiltonian.
    energies:
        Original-unit energies to evaluate at, strictly inside the band.
    sites:
        Site indices (default ``range(D)``).
    config:
        Uses ``num_moments``, ``kernel``, ``bounds_method``, ``epsilon``.
    batch_size:
        Sites per batched recursion sweep (memory/time trade-off).

    Returns
    -------
    ndarray of shape ``(len(sites), len(energies))``; the mean over all
    ``D`` sites equals the exact-trace DoS.
    """
    from repro.kpm.moments import moments_block
    from repro.kpm.reconstruct import apply_kernel_damping, evaluate_series_at

    config = KPMConfig() if config is None else config
    op = as_operator(hamiltonian)
    dim = op.shape[0]
    if sites is None:
        site_indices = np.arange(dim, dtype=np.int64)
    else:
        site_indices = np.asarray(sites, dtype=np.int64).ravel()
        if site_indices.size == 0:
            raise ValidationError("sites must not be empty")
        if site_indices.min() < 0 or site_indices.max() >= dim:
            raise ValidationError("site index out of range")
    batch_size = check_nonnegative_int(batch_size, "batch_size") or 1

    scaled, rescaling = rescale_operator(
        op, method=config.bounds_method, epsilon=config.epsilon
    )
    x = rescaling.to_scaled(np.atleast_1d(np.asarray(energies, dtype=np.float64)))
    if np.any(np.abs(x) >= 1.0):
        raise ValidationError(
            "energies must lie strictly inside the rescaled spectral interval"
        )

    result = np.empty((site_indices.size, x.size), dtype=np.float64)
    for start in range(0, site_indices.size, batch_size):
        batch = site_indices[start : start + batch_size]
        # Per-batch unit-vector slab, not per-recursion churn; the final
        # batch can be narrower, so the shape is loop-dependent.
        block = np.zeros((dim, batch.size), dtype=np.float64)  # repro: noqa[RA009]
        block[batch, np.arange(batch.size)] = 1.0
        raw = moments_block(scaled, block, config.num_moments)  # (N, B)
        for k in range(batch.size):
            damped = apply_kernel_damping(raw[:, k], config.kernel)
            result[start + k] = (
                evaluate_series_at(damped, x) * rescaling.density_jacobian
            )
    return result

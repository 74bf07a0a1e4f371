"""Kinetic diagnostics for lattice gases.

These measurements back the physical claims the paper leans on:

* :func:`collision_rate` — the fraction of sites whose state changes in
  a collision step.  FHP-I < FHP-II < saturated, which is the whole
  point of richer collision sets (viscosity falls as collisions rise).
* :func:`channel_occupation` — per-channel mean occupation; an
  equilibrated unbiased gas approaches equal occupation of all moving
  channels (the Fermi–Dirac equilibrium of a boolean gas).
* :func:`measure_shear_viscosity` — the real experiment: initialize a
  sinusoidal transverse shear wave and fit the exponential decay of its
  amplitude, ``a(t) = a(0) · exp(−ν k² t)``.  The fitted kinematic
  viscosity is compared (in tests and benches) against the Boltzmann
  prediction of :func:`repro.lgca.observables.fhp_viscosity` — the
  reproduction's strongest physics check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.lgca.automaton import SiteModel
from repro.lgca.bits import unpack_channels
from repro.lgca.flows import _biased_state, _drifted_probs
from repro.util.errors import ConfigError
from repro.util.validation import check_positive, check_probability

__all__ = [
    "collision_rate",
    "channel_occupation",
    "ViscosityMeasurement",
    "measure_shear_viscosity",
    "SoundSpeedMeasurement",
    "measure_sound_speed",
]


def collision_rate(
    model: SiteModel,
    state: np.ndarray,
    t: int = 0,
    rng: np.random.Generator | None = None,
) -> float:
    """Fraction of sites whose state changes under one collision step."""
    state = model.check_state(state)
    collided = model.collide(state, t, rng)
    return float(np.count_nonzero(collided != state) / state.size)


def channel_occupation(state: np.ndarray, num_channels: int) -> np.ndarray:
    """Mean occupation of each velocity channel, shape ``(C,)``."""
    num_channels = check_positive(num_channels, "num_channels", integer=True)
    channels = unpack_channels(np.asarray(state), num_channels)
    return channels.reshape(num_channels, -1).mean(axis=1)


@dataclass(frozen=True)
class ViscosityMeasurement:
    """Result of a shear-wave decay experiment.

    Attributes
    ----------
    measured:
        Fitted kinematic viscosity ν.
    predicted:
        Boltzmann-approximation ν(d) for the same per-channel density.
    wavenumber:
        k of the initialized shear wave.
    amplitudes:
        Recorded shear amplitude per time step (for plotting).
    r_squared:
        Goodness of the log-linear fit.
    """

    measured: float
    predicted: float
    wavenumber: float
    amplitudes: np.ndarray
    r_squared: float

    @property
    def relative_error(self) -> float:
        return abs(self.measured - self.predicted) / abs(self.predicted)


@dataclass(frozen=True)
class SoundSpeedMeasurement:
    """Result of a sound-wave dispersion experiment.

    Attributes
    ----------
    measured:
        c_s from the fitted oscillation frequency, ω / k.
    predicted:
        The Boltzmann sound speed: 1/√2 for the 6-bit FHP gas,
        √(3/7) for the 7-bit gas at low speed.
    wavenumber:
        k of the initialized density wave.
    amplitudes:
        The recorded density-mode time series.
    """

    measured: float
    predicted: float
    wavenumber: float
    amplitudes: np.ndarray

    @property
    def relative_error(self) -> float:
        return abs(self.measured - self.predicted) / self.predicted


def measure_sound_speed(
    model: SiteModel,
    density: float,
    amplitude: float,
    steps: int,
    rng: np.random.Generator,
) -> SoundSpeedMeasurement:
    """Measure the sound speed from a standing density wave.

    A plane density perturbation ``δρ ∝ cos(k x)`` (k = 2π/cols along
    the columns) oscillates at ω = c_s·k; the dominant FFT frequency of
    the recorded mode amplitude gives c_s.  For FHP the prediction is
    ``c_s = 1/√2`` (6-bit) — one of the standard quantitative checks of
    the model's hydrodynamics.
    """
    steps = check_positive(steps, "steps", integer=True)
    rows, cols = model.rows, model.cols
    velocities = np.asarray(model.velocities, dtype=np.float64)
    num_channels = velocities.shape[0]
    k = 2.0 * math.pi / cols

    cols_idx = np.arange(cols)
    probs = np.empty((num_channels, rows, cols), dtype=np.float64)
    modulation = density * (1.0 + amplitude * np.cos(k * cols_idx))
    probs[:, :, :] = np.clip(modulation, 0.0, 1.0)[None, None, :]
    state = _biased_state(rows, cols, probs, rng)

    basis = np.cos(k * cols_idx)
    norm = basis @ basis

    def mode(s: np.ndarray) -> float:
        from repro.lgca.bits import popcount

        col_density = popcount(s, num_channels).astype(np.float64).sum(axis=0)
        return float((col_density * basis).sum() / norm)

    series = np.empty(steps + 1, dtype=np.float64)
    series[0] = mode(state)
    for t in range(steps):
        state = model.step(state, t, rng)
        series[t + 1] = mode(state)

    # dominant oscillation frequency (exclude the DC bin)
    demeaned = series - series.mean()
    spectrum = np.abs(np.fft.rfft(demeaned))
    freqs = np.fft.rfftfreq(series.size, d=1.0)
    peak = int(np.argmax(spectrum[1:])) + 1
    omega = 2.0 * math.pi * float(freqs[peak])
    measured = omega / k

    predicted = math.sqrt(3.0 / 7.0) if num_channels == 7 else 1.0 / math.sqrt(2.0)
    return SoundSpeedMeasurement(
        measured=measured,
        predicted=predicted,
        wavenumber=k,
        amplitudes=series,
    )


def _shear_amplitude(state: np.ndarray, velocities: np.ndarray, k: float) -> float:
    """Projection of the x-momentum profile onto sin(k·row)."""
    channels = unpack_channels(state, velocities.shape[0])
    ux_per_row = np.zeros(state.shape[0], dtype=np.float64)
    for ch in range(velocities.shape[0]):
        ux_per_row += channels[ch].sum(axis=1) * velocities[ch][0]
    rows = np.arange(state.shape[0])
    basis = np.sin(k * (rows + 0.5))
    return float(2.0 * (ux_per_row * basis).sum() / (state.shape[0] * basis @ basis))


def measure_shear_viscosity(
    model: SiteModel,
    density: float,
    amplitude: float,
    steps: int,
    rng: np.random.Generator,
    *,
    discard: int = 5,
) -> ViscosityMeasurement:
    """Fit ν from the decay of a transverse shear wave.

    The gas starts in linearized local equilibrium with
    ``u_x(y) = amplitude · sin(k y)``, ``k = 2π / rows``; under
    Navier–Stokes dynamics the mode decays as ``exp(−ν k² t)``.

    Parameters
    ----------
    model:
        A periodic FHP-family model (hexagonal velocities expected).
    density:
        Per-channel occupation d.
    amplitude:
        Initial shear speed (keep ≲ 0.2 for the linear regime).
    steps:
        Evolution length; a few hundred for a clean fit.
    discard:
        Initial transient steps excluded from the fit (the gas takes a
        few collisions to reach local equilibrium).
    """
    steps = check_positive(steps, "steps", integer=True)
    if steps <= discard:
        raise ConfigError(
            f"steps={steps} must exceed discard={discard}, the transient "
            "left out of the fit"
        )
    check_probability(density, "density")
    rows, cols = model.rows, model.cols
    k = 2.0 * math.pi / rows
    velocities = np.asarray(model.velocities, dtype=np.float64)

    # per-row drifted channel probabilities
    probs = np.empty((velocities.shape[0], rows, cols), dtype=np.float64)
    for r in range(rows):
        u = amplitude * math.sin(k * (r + 0.5))
        p = _drifted_probs(velocities, density, np.array([u, 0.0]))
        probs[:, r, :] = p[:, None]
    state = _biased_state(rows, cols, probs, rng)

    amplitudes = np.empty(steps + 1, dtype=np.float64)
    amplitudes[0] = _shear_amplitude(state, velocities, k)
    for t in range(steps):
        state = model.step(state, t, rng)
        amplitudes[t + 1] = _shear_amplitude(state, velocities, k)

    ts = np.arange(discard, steps + 1, dtype=np.float64)
    ys = amplitudes[discard:]
    sign = np.sign(ys[0]) or 1.0
    ys = ys * sign
    usable = ys > max(1e-9, 0.02 * abs(amplitudes[0]))
    if usable.sum() < 10:
        raise ConfigError(
            "shear wave decayed below the noise floor too quickly; "
            "use a larger lattice or fewer steps"
        )
    ts, logy = ts[usable], np.log(ys[usable])
    slope, intercept = np.polyfit(ts, logy, 1)
    fitted = slope * ts + intercept
    ss_res = float(((logy - fitted) ** 2).sum())
    ss_tot = float(((logy - logy.mean()) ** 2).sum()) or 1e-30
    nu = -slope / (k * k)

    from repro.lgca.observables import fhp_viscosity

    rest = velocities.shape[0] == 7
    predicted = fhp_viscosity(density, rest_particles=rest)
    return ViscosityMeasurement(
        measured=float(nu),
        predicted=float(predicted),
        wavenumber=k,
        amplitudes=amplitudes,
        r_squared=1.0 - ss_res / ss_tot,
    )

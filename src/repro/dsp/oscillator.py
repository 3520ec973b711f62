"""Local oscillators / frequency synthesizers.

An :class:`Oscillator` models one synthesizer on the relay PCB (or inside
the reader). Real synthesizers differ from their programmed frequency by
a carrier-frequency offset (CFO, from crystal tolerance) and start at an
arbitrary phase; both corrupt relayed phase measurements unless the
mirrored architecture cancels them (paper §4.3).

The waveform is generated on an *absolute* time base. Reusing the same
``Oscillator`` instance for downconversion and later upconversion — what
the paper's shared synthesizers do — therefore cancels its CFO and phase
exactly, up to the per-call white phase jitter which models phase noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class Oscillator:
    """A frequency synthesizer with CFO, phase offset, and phase jitter.

    Parameters
    ----------
    nominal_frequency_hz:
        The programmed output frequency in Hz.
    cfo_hz:
        Actual-minus-nominal frequency error. A 1 ppm crystal at 915 MHz
        gives ~915 Hz.
    phase_offset_rad:
        Phase of the oscillator at absolute time zero.
    phase_jitter_std_rad:
        Standard deviation of white phase noise added independently on
        every generated sample (and independently across calls).
    rng:
        Source of randomness for the jitter. Required if jitter > 0.
    """

    nominal_frequency_hz: float
    cfo_hz: float = 0.0
    phase_offset_rad: float = 0.0
    phase_jitter_std_rad: float = 0.0
    rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if self.nominal_frequency_hz < 0:
            raise ConfigurationError(
                f"oscillator frequency must be >= 0, got {self.nominal_frequency_hz}"
            )
        if self.phase_jitter_std_rad < 0:
            raise ConfigurationError("phase jitter std must be >= 0")
        if self.phase_jitter_std_rad > 0 and self.rng is None:
            raise ConfigurationError("an rng is required when phase jitter is enabled")

    def phase_at(self, times: np.ndarray) -> np.ndarray:
        """Instantaneous phase (radians) at the given absolute times.

        Only the *error* terms are included: the rotation relative to an
        ideal oscillator at the nominal frequency. This is exactly the
        rotation a mixer using this LO imparts on a complex envelope.
        """
        times = np.asarray(times, dtype=float)
        phase = 2.0 * np.pi * self.cfo_hz * times + self.phase_offset_rad
        if self.phase_jitter_std_rad > 0:
            phase = phase + self.rng.normal(
                0.0, self.phase_jitter_std_rad, size=times.shape
            )
        return phase

    def envelope_rotation(self, times: np.ndarray) -> np.ndarray:
        """``exp(j * phase_at(times))`` — the envelope factor of upmixing."""
        return np.exp(1j * self.phase_at(times))

    @staticmethod
    def ideal(nominal_frequency_hz: float) -> "Oscillator":
        """An oscillator with no CFO, no phase offset, and no jitter."""
        return Oscillator(nominal_frequency_hz=nominal_frequency_hz)

    @staticmethod
    def random(
        nominal_frequency_hz: float,
        rng: np.random.Generator,
        max_cfo_ppm: float = 2.0,
        phase_jitter_std_rad: float = 0.0,
    ) -> "Oscillator":
        """An oscillator with a random CFO (uniform in ±ppm) and phase."""
        cfo = nominal_frequency_hz * max_cfo_ppm * 1e-6 * rng.uniform(-1.0, 1.0)
        return Oscillator(
            nominal_frequency_hz=nominal_frequency_hz,
            cfo_hz=cfo,
            phase_offset_rad=rng.uniform(0.0, 2.0 * np.pi),
            phase_jitter_std_rad=phase_jitter_std_rad,
            rng=rng,
        )

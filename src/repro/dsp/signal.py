"""Complex-envelope signal container.

The :class:`Signal` class is the currency of the sample-level simulator:
every block (mixer, filter, amplifier, channel, relay path) consumes and
produces one. It is deliberately immutable-ish — operations return new
instances — so a signal can fan out to several blocks (e.g. the four
self-interference paths of the relay) without aliasing bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SampleRateError, SignalError

_RATE_RTOL = 1e-9


@dataclass(frozen=True)
class Signal:
    """Complex envelope of an RF signal.

    Parameters
    ----------
    samples:
        Complex envelope, units of sqrt(watt): ``abs(samples)**2`` is the
        instantaneous power in watts.
    sample_rate:
        Sample rate in Hz.
    center_frequency_hz:
        The absolute RF frequency (Hz) that baseband 0 Hz represents.
    start_time:
        Absolute time (s) of the first sample. Oscillators are generated
        on an absolute time base so that coherent reuse of a synthesizer
        (the relay's mirrored architecture) cancels exactly.
    """

    samples: np.ndarray
    sample_rate: float
    center_frequency_hz: float = 0.0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise SignalError(
                f"Signal samples must be 1-D, got shape {samples.shape}"
            )
        if self.sample_rate <= 0:
            raise SignalError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Signal length in seconds."""
        return len(self.samples) / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        """Absolute sample times in seconds."""
        return self.start_time + np.arange(len(self.samples)) / self.sample_rate

    @property
    def mean_power_watts(self) -> float:
        """Mean power over the signal, in watts."""
        if len(self.samples) == 0:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))

    # -- derivation helpers --------------------------------------------------

    def with_samples(self, samples: np.ndarray) -> "Signal":
        """Return a copy of this signal carrying different samples."""
        return Signal(samples, self.sample_rate, self.center_frequency_hz, self.start_time)

    def scaled(self, linear_amplitude_gain: float | complex) -> "Signal":
        """Return this signal with every sample multiplied by a constant."""
        return self.with_samples(self.samples * linear_amplitude_gain)

    def delayed(self, delay_seconds: float) -> "Signal":
        """Return this signal shifted later in absolute time.

        The envelope is additionally rotated by ``exp(-j 2 pi f_c delay)``,
        the carrier phase a propagation delay imparts — this is what makes
        distance measurable from phase (paper Eq. 2).
        """
        phase = np.exp(-2j * np.pi * self.center_frequency_hz * delay_seconds)
        return Signal(
            self.samples * phase,
            self.sample_rate,
            self.center_frequency_hz,
            self.start_time + delay_seconds,
        )

    def sliced(self, start: int, stop: int | None = None) -> "Signal":
        """Return samples ``[start:stop]`` with the time base adjusted."""
        stop_index = len(self.samples) if stop is None else stop
        if not 0 <= start <= stop_index <= len(self.samples):
            raise SignalError(
                f"slice [{start}:{stop_index}] out of range for {len(self.samples)} samples"
            )
        return Signal(
            self.samples[start:stop_index],
            self.sample_rate,
            self.center_frequency_hz,
            self.start_time + start / self.sample_rate,
        )

    # -- combination ----------------------------------------------------------

    def _check_compatible(self, other: "Signal") -> None:
        if not np.isclose(self.sample_rate, other.sample_rate, rtol=_RATE_RTOL):
            raise SampleRateError(
                f"sample rates differ: {self.sample_rate} vs {other.sample_rate}"
            )
        if not np.isclose(
            self.center_frequency_hz, other.center_frequency_hz, rtol=0, atol=1.0
        ):
            raise SignalError(
                "cannot combine signals at different centers: "
                f"{self.center_frequency_hz} vs {other.center_frequency_hz}"
            )

    def __add__(self, other: "Signal") -> "Signal":
        """Superpose two time-aligned, same-center signals.

        Shorter operands are zero-padded at the tail; the start times must
        already agree (propagation delays are applied via :meth:`delayed`
        before superposition, which keeps sample grids aligned).
        """
        self._check_compatible(other)
        if not np.isclose(
            self.start_time, other.start_time, atol=0.25 / self.sample_rate
        ):
            raise SignalError(
                "cannot superpose signals with different start times: "
                f"{self.start_time} vs {other.start_time}"
            )
        n = max(len(self.samples), len(other.samples))
        total = np.zeros(n, dtype=np.complex128)
        total[: len(self.samples)] += self.samples
        total[: len(other.samples)] += other.samples
        return self.with_samples(total)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def silence(
        duration: float,
        sample_rate: float,
        center_frequency_hz: float = 0.0,
        start_time: float = 0.0,
    ) -> "Signal":
        """An all-zero signal of the given duration."""
        n = int(round(duration * sample_rate))
        return Signal(
            np.zeros(n, dtype=np.complex128), sample_rate, center_frequency_hz, start_time
        )

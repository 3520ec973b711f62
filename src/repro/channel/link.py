"""Link-budget computations.

:class:`Link` ties together endpoints, an environment, antennas and a
frequency, and answers the questions the experiments ask: received
power, SNR over a bandwidth, the complex (phasor) channel, and small-
scale fading realizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.antenna import IsotropicAntenna
from repro.channel.environment import Environment
from repro.constants import BOLTZMANN_DBM_PER_HZ
from repro.dsp.units import db_to_linear, linear_to_db
from repro.errors import LinkBudgetError
from repro.obs import metrics


@dataclass
class LinkBudget:
    """The computed budget of one link direction."""

    tx_power_dbm: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    path_gain_db: float
    rx_power_dbm: float
    snr_db: Optional[float] = None


class Link:
    """A radio link between two points in an environment.

    Parameters
    ----------
    a, b:
        Endpoint coordinates.
    environment:
        Propagation environment (defaults to free space).
    frequency_hz:
        Carrier frequency.
    tx_antenna, rx_antenna:
        Gain models; default isotropic.
    polarization_loss_db:
        Fixed mismatch loss (RFID tags are linearly polarized while
        readers are usually circular: ~3 dB).
    """

    def __init__(
        self,
        a,
        b,
        frequency_hz: float,
        environment: Optional[Environment] = None,
        tx_antenna=None,
        rx_antenna=None,
        polarization_loss_db: float = 0.0,
    ) -> None:
        if frequency_hz <= 0:
            raise LinkBudgetError(f"frequency must be positive, got {frequency_hz}")
        if polarization_loss_db < 0:
            raise LinkBudgetError("polarization loss must be >= 0 dB")
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.frequency_hz = float(frequency_hz)
        self.environment = environment or Environment.free_space()
        self.tx_antenna = tx_antenna or IsotropicAntenna()
        self.rx_antenna = rx_antenna or IsotropicAntenna()
        self.polarization_loss_db = float(polarization_loss_db)

    # -- channel -----------------------------------------------------------------

    def complex_channel(self) -> complex:
        """One-way channel including antenna gains and polarization loss."""
        metrics.count("channel.links_evaluated")
        h = self.environment.channel(self.a, self.b, self.frequency_hz)
        gain_db = (
            self.tx_antenna.gain_dbi(self.b - self.a)
            + self.rx_antenna.gain_dbi(self.a - self.b)
            - self.polarization_loss_db
        )
        return complex(h * np.sqrt(db_to_linear(gain_db)))

    def path_gain_db(self) -> float:
        """Power gain of the composite channel in dB (negative = loss)."""
        h = self.complex_channel()
        power = abs(h) ** 2
        if power == 0.0:
            return float("-inf")
        return float(linear_to_db(power))

    # -- budget ---------------------------------------------------------------

    def budget(
        self,
        tx_power_dbm: float,
        bandwidth_hz: Optional[float] = None,
        noise_figure_db: float = 0.0,
    ) -> LinkBudget:
        """Full link budget for a given transmit power.

        When ``bandwidth_hz`` is provided the SNR over that bandwidth is
        included.
        """
        path_gain = self.path_gain_db()
        rx_power = tx_power_dbm + path_gain
        snr = None
        if bandwidth_hz is not None:
            if bandwidth_hz <= 0:
                raise LinkBudgetError("bandwidth must be positive")
            noise = BOLTZMANN_DBM_PER_HZ + linear_to_db(bandwidth_hz) + noise_figure_db
            snr = rx_power - noise
        return LinkBudget(
            tx_power_dbm=tx_power_dbm,
            tx_gain_dbi=self.tx_antenna.gain_dbi(self.b - self.a),
            rx_gain_dbi=self.rx_antenna.gain_dbi(self.a - self.b),
            path_gain_db=path_gain,
            rx_power_dbm=float(rx_power),
            snr_db=None if snr is None else float(snr),
        )

    def faded_channel(
        self, rng: np.random.Generator, rician_k_db: float = 10.0
    ) -> complex:
        """One small-scale fading realization around the deterministic channel.

        A Rician draw: the ray-traced channel is the specular component
        and a diffuse complex-Gaussian term with K-factor ``rician_k_db``
        models unmodeled scatterers.
        """
        h = self.complex_channel()
        k = db_to_linear(rician_k_db)
        sigma = abs(h) / np.sqrt(2.0 * k)
        diffuse = sigma * (rng.standard_normal() + 1j * rng.standard_normal())
        return complex(h + diffuse)

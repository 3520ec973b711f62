"""The read-rate-vs-distance model behind paper Fig. 11.

Three curves:

* **No relay** — the reader powers the tag directly. The downlink power
  budget is the binding constraint (paper §2): the tag needs about
  -15 dBm, which free-space physics denies beyond ~10 m.
* **Relay, line-of-sight** — the relay re-amplifies the query with its
  tunable downlink gain, decoupling communication range from power-up
  range. The binding constraints become (a) the oscillation criterion
  L < I of Eq. 3, and (b) enough output power to light the tag.
* **Relay, non-line-of-sight** — identical, minus wall attenuation on
  the reader-relay leg.

Every trial draws small-scale fading on each leg, so the read rate is a
probability rather than a step function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.pathloss import (
    free_space_path_loss_db,
    log_distance_path_loss_db,
)
from repro.constants import (
    BOLTZMANN_DBM_PER_HZ,
    READER_ANTENNA_GAIN_DBI,
    READER_DECODE_SNR_DB,
    READER_NOISE_FIGURE_DB,
    READER_TX_POWER_DBM,
    RELAY_PA_P1DB_DBM,
    TAG_ANTENNA_GAIN_DBI,
    TAG_MODULATION_LOSS_DB,
    TAG_SENSITIVITY_DBM,
    UHF_CENTER_FREQUENCY,
)
from repro.errors import ConfigurationError
from repro.dsp.units import linear_to_db
from repro.obs import metrics, tracing


@dataclass(frozen=True)
class RangeConfig:
    """Link parameters of the Fig. 11 experiment."""

    frequency_hz: float = UHF_CENTER_FREQUENCY
    reader_tx_power_dbm: float = READER_TX_POWER_DBM
    reader_antenna_gain_dbi: float = READER_ANTENNA_GAIN_DBI
    tag_antenna_gain_dbi: float = TAG_ANTENNA_GAIN_DBI
    tag_sensitivity_dbm: float = TAG_SENSITIVITY_DBM
    tag_backscatter_loss_db: float = TAG_MODULATION_LOSS_DB
    polarization_loss_db: float = 3.0
    indoor_exponent: float = 2.3
    fading_std_db: float = 2.5
    # Relay parameters. The Eq. 3 isolation here is the TX-to-RX
    # leakage suppression seen by the reader-relay loop, which the
    # baseband filters raise above the worst-case intra-link figure.
    relay_isolation_db: float = 82.0
    relay_antenna_gain_dbi: float = 2.0
    relay_pa_output_dbm: float = RELAY_PA_P1DB_DBM
    relay_max_downlink_gain_db: float = 74.0
    relay_max_uplink_gain_db: float = 58.0
    relay_tag_distance_m: float = 2.0
    nlos_wall_loss_db: float = 13.0
    # Receiver.
    decode_snr_db: float = READER_DECODE_SNR_DB
    noise_bandwidth_hz: float = 1.0e6
    noise_figure_db: float = READER_NOISE_FIGURE_DB

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        if self.fading_std_db < 0:
            raise ConfigurationError("fading std must be >= 0")
        if self.relay_isolation_db <= 0:
            raise ConfigurationError("isolation must be positive")

    @property
    def noise_floor_dbm(self) -> float:
        """Receiver noise floor over the noise bandwidth."""
        return (
            BOLTZMANN_DBM_PER_HZ
            + linear_to_db(self.noise_bandwidth_hz)
            + self.noise_figure_db
        )


class RangeModel:
    """Monte-Carlo read-rate estimator for the three Fig. 11 curves."""

    def __init__(self, config: RangeConfig = RangeConfig()) -> None:
        self.config = config

    # -- helpers ----------------------------------------------------------------

    def _fade(self, rng: Optional[np.random.Generator]) -> float:
        if rng is None or self.config.fading_std_db == 0.0:
            return 0.0
        return float(rng.normal(0.0, self.config.fading_std_db))

    def _indoor_loss(self, distance_m: float) -> float:
        return log_distance_path_loss_db(
            distance_m, self.config.frequency_hz, self.config.indoor_exponent
        )

    # -- no relay ------------------------------------------------------------

    def no_relay_read(
        self, distance_m: float, rng: Optional[np.random.Generator] = None
    ) -> bool:
        """One trial of a direct reader->tag read at a distance."""
        c = self.config
        loss = self._indoor_loss(distance_m) + self._fade(rng)
        incident = (
            c.reader_tx_power_dbm
            + c.reader_antenna_gain_dbi
            + c.tag_antenna_gain_dbi
            - c.polarization_loss_db
            - loss
        )
        if incident < c.tag_sensitivity_dbm:
            return False
        # Uplink: almost never binding when the tag is powered (paper §2),
        # but checked for completeness.
        uplink = (
            incident
            - c.tag_backscatter_loss_db
            - self._indoor_loss(distance_m)
            - self._fade(rng)
            + c.reader_antenna_gain_dbi
        )
        return uplink - c.noise_floor_dbm >= c.decode_snr_db

    # -- with relay ---------------------------------------------------------------

    def relay_read(
        self,
        reader_relay_distance_m: float,
        rng: Optional[np.random.Generator] = None,
        line_of_sight: bool = True,
        relay_tag_distance_m: Optional[float] = None,
    ) -> bool:
        """One trial of a reader->relay->tag read.

        The relay's VGAs auto-tune toward full PA output, subject to the
        stability cap (gain below intra-link isolation, §6.1).
        """
        c = self.config
        d_tag = relay_tag_distance_m or c.relay_tag_distance_m
        wall = 0.0 if line_of_sight else c.nlos_wall_loss_db

        # Leg 1: reader -> relay.
        leg1_fade = self._fade(rng)
        leg1_loss = self._indoor_loss(reader_relay_distance_m) + wall + leg1_fade
        at_relay = (
            c.reader_tx_power_dbm
            + c.reader_antenna_gain_dbi
            + c.relay_antenna_gain_dbi
            - leg1_loss
        )
        # Oscillation criterion (Eq. 3): the loss between the relay and
        # reader (including the wall and this trial's fade) must stay
        # below the isolation, else the arriving signal drowns in the
        # relay's own leakage and the loop rings.
        stability_loss = (
            free_space_path_loss_db(reader_relay_distance_m, c.frequency_hz)
            + wall
            + leg1_fade
        )
        if stability_loss > c.relay_isolation_db:
            return False
        # Downlink amplification toward the PA ceiling.
        relay_out = min(
            at_relay + c.relay_max_downlink_gain_db, c.relay_pa_output_dbm
        )
        # Leg 2: relay -> tag.
        leg2_loss = self._indoor_loss(d_tag) + self._fade(rng)
        incident = (
            relay_out
            + c.relay_antenna_gain_dbi
            + c.tag_antenna_gain_dbi
            - c.polarization_loss_db
            - leg2_loss
        )
        if incident < c.tag_sensitivity_dbm:
            return False
        # Uplink: tag -> relay -> reader.
        back_at_relay = (
            incident
            - c.tag_backscatter_loss_db
            - self._indoor_loss(d_tag)
            - self._fade(rng)
            + c.relay_antenna_gain_dbi
        )
        at_reader = (
            back_at_relay
            + c.relay_max_uplink_gain_db
            + c.relay_antenna_gain_dbi
            + c.reader_antenna_gain_dbi
            - leg1_loss
        )
        return at_reader - c.noise_floor_dbm >= c.decode_snr_db

    # -- rates -------------------------------------------------------------------

    def read_rate(
        self,
        distance_m: float,
        mode: str,
        rng: np.random.Generator,
        trials: int = 200,
    ) -> float:
        """Fraction of successful reads at a distance.

        ``mode`` is one of ``"no_relay"``, ``"relay_los"``,
        ``"relay_nlos"`` — the three curves of Fig. 11.
        """
        if trials <= 0:
            raise ConfigurationError("trials must be positive")
        if mode == "no_relay":
            trial = lambda: self.no_relay_read(distance_m, rng)
        elif mode == "relay_los":
            trial = lambda: self.relay_read(distance_m, rng, line_of_sight=True)
        elif mode == "relay_nlos":
            trial = lambda: self.relay_read(distance_m, rng, line_of_sight=False)
        else:
            raise ConfigurationError(f"unknown mode {mode!r}")
        with tracing.span("sim.read_rate", mode=mode, trials=trials):
            metrics.count("sim.readrate.trials", trials)
            return sum(trial() for _ in range(trials)) / trials

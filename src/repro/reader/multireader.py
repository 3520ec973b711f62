"""Multi-reader interference management (paper §4.3).

Warehouses already host an infrastructure of RFID readers. RFly's relay
copes without protocol changes: the frequency-discovery sweep locks onto
the reader with the strongest received signal (Eq. 5), and the relay's
baseband filters then suppress every other reader — their carriers land
outside the LPF passband after downconversion. This module provides the
selection rule and quantifies the residual interference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.channel.environment import Environment
from repro.dsp.filters import Filter
from repro.dsp.units import linear_to_db
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ReaderSite:
    """A deployed reader: position, carrier, transmit power."""

    position: tuple
    frequency_hz: float
    tx_power_dbm: float = 30.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError("reader frequency must be positive")


def received_power_dbm(
    site: ReaderSite, relay_position, environment: Optional[Environment] = None
) -> float:
    """Power of a reader's signal at the relay's position."""
    env = environment or Environment.free_space()
    h = env.channel(site.position, relay_position, site.frequency_hz)
    power = abs(h) ** 2
    if power == 0.0:
        return float("-inf")
    return float(site.tx_power_dbm + linear_to_db(power))


def strongest_reader(
    sites: Sequence[ReaderSite],
    relay_position,
    environment: Optional[Environment] = None,
) -> ReaderSite:
    """The reader the relay locks onto: strongest received signal (Eq. 5)."""
    if not sites:
        raise ConfigurationError("no readers in the environment")
    return max(
        sites, key=lambda s: received_power_dbm(s, relay_position, environment)
    )


def residual_interference_db(
    locked: ReaderSite,
    other: ReaderSite,
    baseband_filter: Filter,
) -> float:
    """Suppression of a non-locked reader by the relay's baseband filter.

    After downconversion at the locked carrier, the other reader sits at
    the inter-carrier offset; the filter's attenuation there is the
    interference suppression. Same-channel readers get no filtering
    protection — the case the paper defers to multi-reader collision
    recovery [25].
    """
    offset = other.frequency_hz - locked.frequency_hz
    if offset == 0.0:
        return 0.0
    nyquist = baseband_filter.sample_rate / 2.0
    if abs(offset) >= nyquist:
        # Beyond the representable band the IIR response is undefined;
        # physically the anti-alias front end has already removed it.
        return float("inf")
    return float(baseband_filter.attenuation_db(offset))

"""Daisy-chained relays (paper §4.3 and §9: the swarm extension).

"In practice, RFly's design can extend to multiple relays, which may be
daisy chained." Each hop is an ordinary mirrored relay whose "reader"
is the previous relay's output: hop i listens at f_i and transmits at
f_{i+1} = f_i + shift. Because every hop is individually mirrored, the
end-to-end round trip still cancels all oscillator terms, so phase-
based localization keeps working through the whole chain — the
measured channel is the product of all hop half-links, and dividing by
the *last* drone's reference RFID isolates the final relay-tag link
exactly as in the single-relay case.

This module provides the frequency planning, the stability/range
analysis per hop, and a phasor-level measurement model for chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.channel.environment import Environment
from repro.channel.pathloss import free_space_path_loss_db
from repro.constants import UHF_CENTER_FREQUENCY
from repro.dsp.units import db_to_linear
from repro.errors import ConfigurationError, RelayInstabilityError
from repro.localization.measurement import ThroughRelayMeasurement


@dataclass(frozen=True)
class ChainPlan:
    """The frequency plan of an N-hop relay chain."""

    reader_frequency_hz: float
    shift_hz: float
    n_relays: int

    def __post_init__(self) -> None:
        if self.n_relays < 1:
            raise ConfigurationError("a chain needs at least one relay")
        if self.shift_hz <= 0:
            raise ConfigurationError("frequency shift must be positive")

    def hop_frequency_hz(self, hop: int) -> float:
        """Frequency on the link *into* relay ``hop`` (0 = reader link)."""
        if not 0 <= hop <= self.n_relays:
            raise ConfigurationError(
                f"hop must be 0..{self.n_relays}, got {hop}"
            )
        return self.reader_frequency_hz + hop * self.shift_hz

    @property
    def tag_frequency_hz(self) -> float:
        """The frequency the last relay illuminates the tags at."""
        return self.hop_frequency_hz(self.n_relays)


def check_chain_stability(
    hop_distances_m: Sequence[float],
    isolation_db: float,
    frequency_hz: float = UHF_CENTER_FREQUENCY,
    margin_db: float = 3.0,
) -> None:
    """Every hop must satisfy the Eq. 3 criterion independently.

    Raises
    ------
    RelayInstabilityError
        Naming the first hop whose path loss falls below the isolation.
    """
    if margin_db < 0:
        raise ConfigurationError("margin must be >= 0 dB")
    for i, distance in enumerate(hop_distances_m):
        if distance <= 0:
            raise ConfigurationError("hop distances must be positive")
        loss = free_space_path_loss_db(distance, frequency_hz)
        if loss + margin_db > isolation_db:
            raise RelayInstabilityError(
                f"hop {i}: path loss {loss:.1f} dB (+{margin_db:.0f} margin) "
                f"exceeds isolation {isolation_db:.1f} dB"
            )


def max_chain_range_m(
    n_relays: int,
    isolation_db: float,
    frequency_hz: float = UHF_CENTER_FREQUENCY,
    tag_reach_m: float = 3.0,
) -> float:
    """End-to-end reach: N stable hops plus the final power-up radius."""
    from repro.channel.pathloss import free_space_range_for_loss

    if n_relays < 1:
        raise ConfigurationError("a chain needs at least one relay")
    per_hop = free_space_range_for_loss(isolation_db, frequency_hz)
    return n_relays * per_hop + tag_reach_m


class DaisyChainMeasurementModel:
    """Phasor measurements through an N-relay chain.

    The reader's channel for a tag is the product of every hop's
    round-trip half-link (at that hop's frequency) times the final
    relay-tag round trip; the last relay's reference RFID measures the
    same product without the tag link, so Eq. 10 still disentangles.
    """

    def __init__(
        self,
        reader_position,
        plan: ChainPlan,
        environment: Optional[Environment] = None,
        reference_gain: complex = 0.05 * np.exp(1j * 0.7),
        relay_gain_db_per_hop: float = 40.0,
    ) -> None:
        if reference_gain == 0:
            raise ConfigurationError("reference gain must be nonzero")
        self.reader_position = np.asarray(reader_position, dtype=float)
        self.plan = plan
        self.environment = environment or Environment.free_space()
        self.reference_gain = complex(reference_gain)
        self.hop_gain = float(np.sqrt(db_to_linear(relay_gain_db_per_hop)))

    def _round_trip(self, a, b, frequency_hz: float) -> complex:
        one_way = self.environment.channel(a, b, frequency_hz)
        return complex(one_way * one_way)

    def measure(
        self,
        relay_positions: Sequence,
        tag_position,
        rng: Optional[np.random.Generator] = None,
        snr_db: float = 30.0,
        time: float = 0.0,
    ) -> ThroughRelayMeasurement:
        """One observation through the chain.

        ``relay_positions`` orders the drones from the reader outward;
        the ThroughRelayMeasurement's position is the LAST drone's (the
        one whose motion forms the synthetic aperture for the tag).
        """
        relay_positions = [np.asarray(p, dtype=float) for p in relay_positions]
        if len(relay_positions) != self.plan.n_relays:
            raise ConfigurationError(
                f"plan expects {self.plan.n_relays} relays, got "
                f"{len(relay_positions)}"
            )
        upstream = 1.0 + 0.0j
        previous = self.reader_position
        for hop, position in enumerate(relay_positions):
            upstream *= self._round_trip(
                previous, position, self.plan.hop_frequency_hz(hop)
            )
            upstream *= self.hop_gain
            previous = position
        tag_link = self._round_trip(
            previous, np.asarray(tag_position, dtype=float),
            self.plan.tag_frequency_hz,
        )
        h_target = upstream * tag_link
        h_reference = upstream * self.reference_gain / self.hop_gain
        if rng is not None and np.isfinite(snr_db):
            scale = np.sqrt(db_to_linear(-snr_db) / 2.0)
            h_target += (
                abs(h_target) * scale
                * (rng.standard_normal() + 1j * rng.standard_normal())
            )
            h_reference += (
                abs(h_reference) * scale
                * (rng.standard_normal() + 1j * rng.standard_normal())
            )
        return ThroughRelayMeasurement(
            position=relay_positions[-1],
            h_target=complex(h_target),
            h_reference=complex(h_reference),
            snr_db=float(snr_db),
            time=float(time),
        )

"""Self-interference accounting and stability (paper §4.1, Fig. 3).

Four leakage paths couple the relay's transmit antennas back into its
receive antennas: two *inter-link* paths (between the uplink and
downlink) and two *intra-link* paths (within each direction). The
amount of isolation achieved against them directly bounds the usable
reader-relay range through the oscillation criterion of Eq. 3-4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.channel.pathloss import free_space_range_for_loss
from repro.errors import ConfigurationError, RelayInstabilityError
from repro.obs import metrics


class LeakagePath(enum.Enum):
    """The four self-interference paths of Fig. 3."""

    INTER_DOWNLINK = "inter_downlink"  # uplink output -> downlink path
    INTER_UPLINK = "inter_uplink"  # downlink output -> uplink path
    INTRA_DOWNLINK = "intra_downlink"  # downlink output -> downlink input
    INTRA_UPLINK = "intra_uplink"  # uplink output -> uplink input


@dataclass(frozen=True)
class AntennaCoupling:
    """Over-the-air isolation between the relay's antennas, in dB.

    The PCB places the antennas ~10 cm apart with orthogonal
    polarizations; the defaults model the resulting ~24 dB of coupling
    isolation per leakage path, the figure the paper's §7.1 counts
    "toward the total isolation".
    """

    inter_downlink_db: float = 24.0
    inter_uplink_db: float = 24.0
    intra_downlink_db: float = 24.0
    intra_uplink_db: float = 24.0

    def __post_init__(self) -> None:
        for name in (
            "inter_downlink_db",
            "inter_uplink_db",
            "intra_downlink_db",
            "intra_uplink_db",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0 dB")

    def of(self, path: LeakagePath) -> float:
        """Coupling isolation of one leakage path."""
        return float(getattr(self, f"{path.value}_db"))

    @staticmethod
    def random(
        rng: np.random.Generator, mean_db: float = 24.0, std_db: float = 3.0
    ) -> "AntennaCoupling":
        """Per-build coupling draw (component/placement tolerance)."""
        draw = lambda: float(max(rng.normal(mean_db, std_db), 0.0))
        return AntennaCoupling(draw(), draw(), draw(), draw())


def loop_gain_db(path_gain_db: float, isolation_db: float) -> float:
    """Open-loop gain of a feedback loop: gain minus isolation.

    A positive value means the leaked, re-amplified signal exceeds the
    original — the relay rings (paper §4.1, citing control theory).
    """
    return float(path_gain_db - isolation_db)


def is_stable(
    path_gain_db: float, isolation_db: float, margin_db: float = 3.0
) -> bool:
    """True when the loop gain stays below unity with a safety margin."""
    if margin_db < 0:
        raise ConfigurationError("stability margin must be >= 0 dB")
    metrics.count("relay.stability_checks")
    return loop_gain_db(path_gain_db, isolation_db) < -margin_db


def require_stable(
    path_gain_db: float, isolation_db: float, margin_db: float = 3.0
) -> None:
    """Raise :class:`RelayInstabilityError` when the loop would ring."""
    if not is_stable(path_gain_db, isolation_db, margin_db):
        raise RelayInstabilityError(
            f"loop gain {loop_gain_db(path_gain_db, isolation_db):+.1f} dB "
            f"(gain {path_gain_db:.1f} dB vs isolation {isolation_db:.1f} dB, "
            f"margin {margin_db:.1f} dB): the relay would oscillate"
        )


def max_stable_range_m(isolation_db: float, frequency_hz: float) -> float:
    """Maximum reader-relay range the isolation supports (paper Eq. 4).

    ``R = (lambda / 4 pi) * 10^(I/20)``: 30 dB of isolation buys under a
    meter; 80 dB buys hundreds of meters.
    """
    if isolation_db < 0:
        raise ConfigurationError("isolation must be >= 0 dB")
    return free_space_range_for_loss(isolation_db, frequency_hz)

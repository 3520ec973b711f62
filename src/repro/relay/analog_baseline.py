"""The traditional analog relay baseline of paper §7.1 (Fig. 9).

An amplify-and-forward relay: no frequency conversion, no filtering.
Its only defenses against self-interference are antenna separation and
polarization — which, at the 10 cm spacing a drone-mountable form factor
allows, buys only a couple of tens of dB. Since input and output share
one frequency, every leakage path recirculates at full gain, so the
usable gain (and with it the range, via Eq. 4) is tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp.signal import Signal
from repro.dsp.units import db_to_linear
from repro.errors import ConfigurationError
from repro.relay.isolation import IsolationReport
from repro.relay.self_interference import require_stable


@dataclass(frozen=True)
class AnalogCoupling:
    """Isolation purely from antenna placement/polarization, in dB.

    The inter paths see cross-polarized antennas (more isolation); the
    intra paths are limited by the near-field coupling of the closely
    spaced same-band antennas.
    """

    inter_db: float = 25.0
    intra_db: float = 12.0

    def __post_init__(self) -> None:
        if self.inter_db < 0 or self.intra_db < 0:
            raise ConfigurationError("coupling isolation must be >= 0 dB")

    @staticmethod
    def random(
        rng: np.random.Generator,
        inter_mean_db: float = 25.0,
        intra_mean_db: float = 12.0,
        std_db: float = 4.0,
        floor_db: float = 3.0,
    ) -> "AnalogCoupling":
        """A build-tolerance draw, floored at a small physical minimum
        (even touching antennas provide a few dB of mismatch loss)."""
        return AnalogCoupling(
            inter_db=float(max(rng.normal(inter_mean_db, std_db), floor_db)),
            intra_db=float(max(rng.normal(intra_mean_db, std_db), floor_db)),
        )


class AnalogRelay:
    """Amplify-and-forward at a single frequency.

    ``forward`` simply scales the signal; isolation measurements return
    the antenna coupling alone since nothing in the signal path
    discriminates the leakage from the desired signal.
    """

    def __init__(
        self,
        gain_db: float = 5.0,
        coupling: Optional[AnalogCoupling] = None,
        margin_db: float = 3.0,
    ) -> None:
        self.coupling = coupling or AnalogCoupling()
        self.gain_db = float(gain_db)
        # An analog relay rings unless its gain stays below the worst
        # coupling isolation — the reason these designs cannot amplify
        # much (paper §8, [18, 39]).
        require_stable(self.gain_db, self.coupling.intra_db, margin_db)

    def forward(self, sig: Signal) -> Signal:
        """Amplify-and-forward (same frequency, both directions)."""
        return sig.scaled(np.sqrt(db_to_linear(self.gain_db)))

    # The downlink and uplink are the same circuit in this design.
    forward_downlink = forward
    forward_uplink = forward

    def isolation_report(self) -> IsolationReport:
        """Isolation per leakage path: antenna coupling only."""
        return IsolationReport(
            inter_downlink_db=self.coupling.inter_db,
            inter_uplink_db=self.coupling.inter_db,
            intra_downlink_db=self.coupling.intra_db,
            intra_uplink_db=self.coupling.intra_db,
        )

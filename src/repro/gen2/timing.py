"""Gen2 link timing and inventory throughput.

The paper's motivation (§1) is inventory speed: manual warehouse scans
take up to a month, and a drone that continuously reads tags while
flying can cut that dramatically. This module computes the protocol's
airtime budget — command durations, the T1-T3 turnaround gaps, singulation
time per tag — and from it the achievable read rate and area scan time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.constants import (
    GEN2_EPC_BITS,
    GEN2_PC_BITS,
    GEN2_CRC16_BITS,
    GEN2_RN16_BITS,
)
from repro.errors import ConfigurationError
from repro.gen2.backscatter import PILOT_ZEROS, PREAMBLE_BITS, TagParams
from repro.gen2.commands import Ack, Query, QueryRep
from repro.gen2.pie import DELIMITER_SECONDS, ReaderParams


@dataclass(frozen=True)
class LinkTiming:
    """Airtime calculator for one reader/tag parameter set."""

    reader: ReaderParams
    tag: TagParams

    # -- reader-side durations -------------------------------------------------

    def command_seconds(self, bits, preamble: bool) -> float:
        """Airtime of a PIE-encoded command."""
        p = self.reader
        ones = sum(bits)
        zeros = len(bits) - ones
        total = DELIMITER_SECONDS + p.data0 + p.rtcal
        if preamble:
            total += p.trcal
        return total + ones * p.data1 + zeros * p.data0

    @property
    def query_seconds(self) -> float:
        """Airtime of a full Query command."""
        q = Query()
        return self.command_seconds(q.to_bits(), preamble=True)

    @property
    def query_rep_seconds(self) -> float:
        """Airtime of a QueryRep command."""
        return self.command_seconds(QueryRep().to_bits(), preamble=False)

    @property
    def ack_seconds(self) -> float:
        """Airtime of an ACK command."""
        return self.command_seconds(Ack(rn16=0).to_bits(), preamble=False)

    # -- tag-side durations -----------------------------------------------------

    def reply_seconds(self, n_bits: int) -> float:
        """Airtime of a tag reply of ``n_bits`` payload bits."""
        pilot = (PILOT_ZEROS if self.tag.trext else 0)
        if self.tag.miller_m == 1:
            symbols = pilot + PREAMBLE_BITS + n_bits + 1
            return symbols / self.tag.blf
        framed = (16 if self.tag.trext else 4) + 6 + n_bits + 1
        return framed * self.tag.miller_m / self.tag.blf

    @property
    def rn16_seconds(self) -> float:
        """Airtime of an RN16 reply."""
        return self.reply_seconds(GEN2_RN16_BITS)

    @property
    def epc_reply_seconds(self) -> float:
        """Airtime of a {PC, EPC, CRC-16} reply."""
        return self.reply_seconds(GEN2_PC_BITS + GEN2_EPC_BITS + GEN2_CRC16_BITS)

    # -- turnaround gaps (Gen2 Table 6.16, for DR = 64/3) ----------------------------

    @property
    def t1_seconds(self) -> float:
        """Reader-command end to tag-reply start: max(RTcal, 10/BLF)."""
        return max(self.reader.rtcal, 10.0 / self.tag.blf)

    @property
    def t2_seconds(self) -> float:
        """Tag-reply end to next reader command: ~10 BLF periods."""
        return 10.0 / self.tag.blf

    # -- throughput -------------------------------------------------------------

    @property
    def singulation_seconds(self) -> float:
        """One successful slot: QueryRep + RN16 + ACK + EPC + gaps."""
        return (
            self.query_rep_seconds
            + self.t1_seconds
            + self.rn16_seconds
            + self.t2_seconds
            + self.ack_seconds
            + self.t1_seconds
            + self.epc_reply_seconds
            + self.t2_seconds
        )

    def reads_per_second(self, slot_efficiency: float = 0.35) -> float:
        """Sustained tag reads per second.

        ``slot_efficiency`` is the fraction of airtime spent in
        successful slots; slotted ALOHA with an adapted Q peaks near
        1/e ~ 0.37 of slots being singulations.
        """
        if not 0.0 < slot_efficiency <= 1.0:
            raise ConfigurationError("slot efficiency must be in (0, 1]")
        effective = self.singulation_seconds / slot_efficiency
        return 1.0 / effective

    def scan_seconds(
        self,
        n_tags: int,
        passes: float = 1.5,
        reads_per_second: Optional[float] = None,
    ) -> float:
        """Time to read ``n_tags`` (with re-read margin)."""
        if n_tags < 0:
            raise ConfigurationError("tag count must be >= 0")
        if passes < 1.0:
            raise ConfigurationError("passes must be >= 1")
        rate = reads_per_second or self.reads_per_second()
        return n_tags * passes / rate

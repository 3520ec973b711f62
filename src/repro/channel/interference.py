"""Inter-relay co-channel interference (fleet scenarios).

When several relay drones fly the same warehouse, each retransmits the
reader's carrier on its own shifted frequency (paper §3.1: the shift
clears the reader's self-interference). Two relays whose *tag-side*
carriers land within a guard band of each other are co-channel: their
downlink carriers superpose at the tag (corrupting the energizing /
backscatter signal) and their uplink retransmissions superpose at the
reader. Azari et al. ("Key Technologies and System Trade-Offs for
Detection and Localization of Amateur Drones") quantify exactly this
air-to-ground co-channel regime: LoS-dominated links, so free-space
path loss is the right scale law.

The model here is deliberately deterministic — an SINR fold-in, not a
phasor draw — so fleet workload generation stays bit-reproducible from
the task seed: the serving relay's SNR is reduced by

    penalty_db = 10 log10(1 + sum_j I_j / S)

evaluated independently at the tag and at the reader and summed. With
no co-channel interferer the penalty is *exactly* ``0.0`` (not a
rounded float), so a relay without co-channel neighbors — the lone
relay of a plain scenario among them — measures at exactly the
scenario's SNR.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.channel.pathloss import free_space_path_loss_db
from repro.dsp.units import db_to_linear, linear_to_db

#: Distances below this clip to it — a relay hovering on top of a tag
#: would otherwise send the Friis term to -inf.
MIN_INTERFERENCE_DISTANCE_M = 0.1


def co_channel(
    frequency_a_hz: float, frequency_b_hz: float, guard_hz: float
) -> bool:
    """Whether two tag-side carriers interfere under the guard band."""
    return abs(float(frequency_a_hz) - float(frequency_b_hz)) <= float(
        guard_hz
    )


def co_channel_groups(
    frequencies_hz: Sequence[float], guard_hz: float
) -> List[List[int]]:
    """Indices grouped into transitive co-channel clusters.

    Pairwise proximity is chained (a ~ b and b ~ c puts a, c in one
    group even when they sit ``2 * guard_hz`` apart) — conservative,
    and it makes the grouping order-insensitive.
    """
    n = len(frequencies_hz)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if co_channel(frequencies_hz[i], frequencies_hz[j], guard_hz):
                parent[find(j)] = find(i)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


def _received_power_db(
    source_xy: Tuple[float, float],
    sink_xy: Tuple[float, float],
    gain_db: float,
    frequency_hz: float,
) -> float:
    distance = float(
        np.hypot(
            source_xy[0] - sink_xy[0],
            source_xy[1] - sink_xy[1],
        )
    )
    distance = max(distance, MIN_INTERFERENCE_DISTANCE_M)
    return float(gain_db) - free_space_path_loss_db(distance, frequency_hz)


def co_channel_penalty_db(
    serving_index: int,
    relay_positions_m: Sequence[Tuple[float, float]],
    frequencies_hz: Sequence[float],
    gains_db: Sequence[float],
    tag_position_m: Tuple[float, float],
    reader_position_m: Tuple[float, float],
    guard_hz: float,
) -> float:
    """SNR penalty (dB, >= 0) the serving relay's link takes.

    ``relay_positions_m`` are every relay's positions at the current
    instant; interferers are the *other* relays whose tag-side carrier
    is within ``guard_hz`` of the serving relay's. Returns exactly
    ``0.0`` when no interferer is co-channel.
    """
    serving_frequency = frequencies_hz[serving_index]
    interferers = [
        j
        for j in range(len(relay_positions_m))
        if j != serving_index
        and co_channel(frequencies_hz[j], serving_frequency, guard_hz)
    ]
    if not interferers:
        return 0.0
    penalty = 0.0
    for sink in (tag_position_m, reader_position_m):
        signal_db = _received_power_db(
            relay_positions_m[serving_index],
            sink,
            gains_db[serving_index],
            serving_frequency,
        )
        interference_linear = 0.0
        for j in interferers:
            interferer_db = _received_power_db(
                relay_positions_m[j], sink, gains_db[j], frequencies_hz[j]
            )
            interference_linear += db_to_linear(interferer_db - signal_db)
        penalty += float(linear_to_db(1.0 + interference_linear))
    return penalty

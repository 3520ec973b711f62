"""Reader application layer.

The sample-level Gen2 reader (query synthesis, coherent reception,
FM0 decoding, complex channel estimation) and the multi-reader
interference management of paper §4.3.
"""

from __future__ import annotations

from repro.reader.channel_estimation import (
    ChannelEstimate,
    estimate_channel,
    project_to_real,
)
from repro.reader.reader import Reader, TagRead
from repro.reader.multireader import (
    ReaderSite,
    residual_interference_db,
    strongest_reader,
)

__all__ = [
    "ChannelEstimate",
    "estimate_channel",
    "project_to_real",
    "Reader",
    "TagRead",
    "ReaderSite",
    "strongest_reader",
    "residual_interference_db",
]

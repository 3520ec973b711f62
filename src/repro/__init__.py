"""RFly reproduction: drone relays for battery-free (RFID) networks.

This package reproduces the system of *Drone Relays for Battery-Free
Networks* (Ma, Selby & Adib, SIGCOMM 2017): a phase-preserving,
bidirectionally full-duplex relay for passive UHF RFID, and a synthetic-
aperture localization algorithm that operates through the mobile relay.

Top-level layout
----------------
``repro.dsp``
    Sample-level DSP substrate (signals, mixers, filters, amplifiers).
``repro.gen2``
    EPC Gen2 protocol stack (PIE, FM0/Miller, CRC, commands, inventory).
``repro.channel``
    RF propagation: path loss, geometric multipath, environments.
``repro.hardware``
    Tag, reader front end, and synthesizer models.
``repro.relay``
    The paper's relay: mirrored architecture, self-interference,
    isolation, frequency discovery, and baseline relays.
``repro.reader``
    Reader application layer: inventory plus channel estimation.
``repro.mobility``
    Drone/robot trajectories and ground truth.
``repro.localization``
    Through-relay phase disentanglement and the SAR solver.
``repro.sim``
    End-to-end world simulation, scan events, and result statistics.
``repro.scenarios``
    Declarative scenario specs, the world compiler, and the per-trial
    builders the figure experiments consume.
``repro.experiments``
    Runners that regenerate every figure of the paper's evaluation.
"""

from __future__ import annotations

__version__ = "1.0.0"

__all__ = ["__version__"]

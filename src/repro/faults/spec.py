"""Declarative fault plans: what to break, where, when, and how hard.

A :class:`FaultPlan` is a tuple of :class:`FaultSpec`\\ s. Each spec
names an *injection site* (a hook compiled into the production code,
e.g. ``"channel.link"``), an *action* the site knows how to perform
(``"drop"``, ``"corrupt_bits"``, ...), a :class:`Trigger` deciding
*when* the site fires (every call, the nth call, a call-index window, a
pose-index window, or a virtual-clock window), a Bernoulli ``rate``
applied on top of the trigger, an action ``magnitude`` (bits to flip,
radians, Hz, dB, seconds — the site's unit), and an optional cap on
total injections.

Plans are plain scalar dataclasses: picklable, hashable, and losslessly
JSON-round-trippable (property-tested), so a plan can ride inside a
:class:`~repro.runtime.SweepTask`'s parameters and reach process-pool
workers unchanged — the engine's serial/parallel bit-identity rests on
that plus the seeding discipline of :mod:`repro.faults.engine`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import codec
from repro.errors import ConfigurationError

#: Every injection site compiled into the package, with the actions its
#: hook understands. Adding a site means adding its hook call in the
#: production code *and* registering it here.
SITE_ACTIONS: Mapping[str, Tuple[str, ...]] = {
    "hardware.synthesizer": ("cfo_step", "phase_jump"),
    "relay.forward": ("drop", "gain_collapse", "reboot"),
    "relay.isolation": ("gain_collapse",),
    "channel.link": ("drop",),
    "mobility.pose": ("pose_loss", "jitter"),
    "gen2.frame": ("corrupt_bits",),
    "serve.ingest": ("drop", "stall"),
    "serve.session": ("reboot",),
    "serve.shard": ("reboot",),
    "relay.handoff": ("drop", "stall"),
}

#: Trigger kinds and which optional fields each one requires.
TRIGGER_KINDS: Tuple[str, ...] = (
    "always",
    "nth_call",
    "call_window",
    "pose_index",
    "clock_window",
)


@dataclass(frozen=True)
class Trigger:
    """When a spec is eligible to fire.

    ``always``
        Every invocation of the site's hook.
    ``nth_call``
        Exactly the ``n``-th invocation (0-based, per site+action).
    ``call_window``
        Invocations with ``start <= call_index < stop``.
    ``pose_index``
        Hook calls carrying a pose index in ``[start, stop)`` (sites
        that iterate poses pass their loop index through).
    ``clock_window``
        Hook calls carrying a virtual timestamp in ``[start, stop)``
        seconds (the serve sites pass the virtual clock through).
    """

    kind: str = "always"
    n: Optional[int] = None
    start: Optional[float] = None
    stop: Optional[float] = None

    def __post_init__(self) -> None:
        codec.coerce(self)
        if self.kind not in TRIGGER_KINDS:
            raise ConfigurationError(
                f"unknown trigger kind {self.kind!r}; "
                f"choices: {', '.join(TRIGGER_KINDS)}"
            )
        if self.kind == "nth_call":
            if self.n is None or self.n < 0:
                raise ConfigurationError(
                    "nth_call trigger needs a call index n >= 0"
                )
        elif self.kind in ("call_window", "pose_index", "clock_window"):
            if self.start is None or self.stop is None:
                raise ConfigurationError(
                    f"{self.kind} trigger needs both start and stop"
                )
            if self.stop <= self.start:
                raise ConfigurationError(
                    f"{self.kind} trigger window is empty "
                    f"({self.start} .. {self.stop})"
                )

    def matches(
        self,
        call_index: int,
        index: Optional[int] = None,
        now_s: Optional[float] = None,
    ) -> bool:
        """Is the trigger satisfied for this hook invocation?"""
        if self.kind == "always":
            return True
        if self.kind == "nth_call":
            return call_index == self.n
        if self.kind == "call_window":
            assert self.start is not None and self.stop is not None
            return self.start <= call_index < self.stop
        if self.kind == "pose_index":
            assert self.start is not None and self.stop is not None
            return index is not None and self.start <= index < self.stop
        assert self.start is not None and self.stop is not None
        return now_s is not None and self.start <= now_s < self.stop


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: site, action, trigger, rate, magnitude.

    ``magnitude`` is interpreted by the action: bits to flip
    (``corrupt_bits``), radians (``phase_jump``), Hz (``cfo_step``),
    dB removed (``gain_collapse``), seconds (``stall``), meters of
    position noise (``jitter``); the drop/reboot/pose-loss actions
    ignore it. ``rate`` is a per-eligible-call Bernoulli probability
    drawn from the spec's own deterministic stream.
    """

    site: str
    action: str
    trigger: Trigger = Trigger()
    rate: float = 1.0
    magnitude: float = 0.0
    max_injections: Optional[int] = None

    def __post_init__(self) -> None:
        codec.coerce(self)
        actions = SITE_ACTIONS.get(self.site)
        if actions is None:
            known = ", ".join(sorted(SITE_ACTIONS))
            raise ConfigurationError(
                f"unknown injection site {self.site!r}; choices: {known}"
            )
        if self.action not in actions:
            raise ConfigurationError(
                f"site {self.site!r} does not support action "
                f"{self.action!r}; choices: {', '.join(actions)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"fault rate must be a probability, got {self.rate}"
            )
        if self.max_injections is not None and self.max_injections < 0:
            raise ConfigurationError("max_injections must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of fault specs."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        codec.coerce(self)

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return len(self.specs) > 0

    @property
    def sites(self) -> Tuple[str, ...]:
        """Distinct sites the plan targets, in first-appearance order."""
        seen: Dict[str, None] = {}
        for spec in self.specs:
            seen.setdefault(spec.site, None)
        return tuple(seen)

    @staticmethod
    def single(
        site: str,
        action: str,
        trigger: Trigger = Trigger(),
        rate: float = 1.0,
        magnitude: float = 0.0,
        max_injections: Optional[int] = None,
    ) -> "FaultPlan":
        """A one-spec plan (the common case in tests and sweeps)."""
        return FaultPlan(
            (
                FaultSpec(
                    site=site,
                    action=action,
                    trigger=trigger,
                    rate=rate,
                    magnitude=magnitude,
                    max_injections=max_injections,
                ),
            )
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (``None`` fields omitted)."""
        return codec.to_dict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild from :meth:`to_dict` output under the one decode
        policy of :mod:`repro.codec`."""
        return codec.from_dict(FaultPlan, data, "fault_plan")

    def to_json(self) -> str:
        """Compact, key-sorted JSON — canonical for task parameters."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json` (lossless, property-tested)."""
        try:
            data = json.loads(text)
        except (TypeError, ValueError, RecursionError) as error:
            raise ConfigurationError(
                f"fault plan is not valid JSON: {error}"
            ) from error
        return FaultPlan.from_dict(data)

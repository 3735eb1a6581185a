"""Pluggable security control layers for the simulation.

Three layers, each switched by its own config block:

* S9  -- access control: a credential check gates every device command;
  sessions add latency to the command's outgoing message and land in the
  audit trail.
* S10 -- cryptography: payloads travel inside a key-gated envelope.
  Encryption is modeled, not computed: the wire carries the sender's key
  id, an opaque marker and sizes, never the payload.
* S17 -- continuity: failed devices are detected and stood in for by
  spare devices after a detection window.

Layer application order is fixed: S9 at command ingress, S10 at send,
S17 at delivery.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import TYPE_CHECKING, Collection, Mapping

from .errors import AuthDenied, InvalidScenario, MissingKey, UnknownLink, UnknownUser

if TYPE_CHECKING:  # pragma: no cover
    from .world import World


@dataclass(frozen=True)
class S9Config:
    enabled: bool = False
    per_session_latency_ms: int = 20
    credential_store: Mapping[str, str] = field(default_factory=dict)
    review_period_days: int = 30


@dataclass(frozen=True)
class S10Config:
    enabled: bool = False
    per_message_latency_ms: int = 5
    overhead_bytes: int = 64
    # node id -> key id; empty means "derive one key per node at build".
    key_ids: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class S17Config:
    enabled: bool = False
    backups_per_site: int = 1
    detection_window_s: int = 60


@dataclass(frozen=True)
class ControlLayerConfig:
    s9: S9Config = S9Config()
    s10: S10Config = S10Config()
    s17: S17Config = S17Config()

    def __post_init__(self) -> None:
        checks = (
            ("s9.per_session_latency_ms", self.s9.per_session_latency_ms),
            ("s9.review_period_days", self.s9.review_period_days),
            ("s10.per_message_latency_ms", self.s10.per_message_latency_ms),
            ("s10.overhead_bytes", self.s10.overhead_bytes),
            ("s17.backups_per_site", self.s17.backups_per_site),
            ("s17.detection_window_s", self.s17.detection_window_s),
        )
        for name, value in checks:
            if value < 0:
                raise InvalidScenario(f"{name} must be non-negative, got {value}")

    def with_enabled(self, sections: Collection[str]) -> "ControlLayerConfig":
        """Copy of this config with exactly the given layers switched on."""
        return ControlLayerConfig(
            s9=replace(self.s9, enabled="S9" in sections),
            s10=replace(self.s10, enabled="S10" in sections),
            s17=replace(self.s17, enabled="S17" in sections),
        )

    @property
    def enabled_sections(self) -> frozenset[str]:
        out = set()
        if self.s9.enabled:
            out.add("S9")
        if self.s10.enabled:
            out.add("S10")
        if self.s17.enabled:
            out.add("S17")
        return frozenset(out)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ControlLayerConfig":
        return updated_from_dict(cls(), data)


def updated_from_dict(default, data: Mapping):
    """Copy of the dataclass `default` with the fields `data` names.

    Each given value is coerced to the type of the default it replaces
    (nested dataclasses recurse), so missing keys keep the dataclass
    defaults and nothing repeats them. A `data` that is not a mapping is a
    TypeError.
    """
    if not isinstance(data, Mapping):
        raise TypeError(f"expected an object, got {data!r}")
    changes = {}
    for f in fields(default):
        if f.name in data:
            old = getattr(default, f.name)
            new = data[f.name]
            changes[f.name] = (
                updated_from_dict(old, new) if is_dataclass(old) else type(old)(new)
            )
    return replace(default, **changes)


@dataclass(frozen=True)
class TapObservation:
    msg_id: int
    time: int
    visibility: str  # "Plaintext" or "Opaque"
    observed_bytes: int


def authenticate(
    user: str, credential: str, device: str, config: ControlLayerConfig
) -> None:
    """Check a credential against the store; only called with S9 enabled."""
    if not config.s9.enabled:
        raise InvalidScenario("authenticate() requires the S9 layer to be enabled")
    store = config.s9.credential_store
    if user not in store:
        raise UnknownUser(f"no credentials on file for user {user!r}")
    if store[user] != credential:
        raise AuthDenied(f"credential mismatch for user {user!r} at {device!r}")


def wrap(
    payload: bytes, key_id: str | None, config: ControlLayerConfig, msg_id: int = 0
) -> dict:
    """Seal a payload under the sender's key id.

    Returns the envelope's wire fields: the key id, an opaque marker and
    the payload size. The payload itself never leaves the sender.
    """
    if not config.s10.enabled:
        raise InvalidScenario("wrap() requires the S10 layer to be enabled")
    if not key_id:
        raise MissingKey("sender holds no key id")
    return {"key_id": key_id, "marker": f"ct:{key_id}:{msg_id}", "inner_size": len(payload)}


def tap(link_id: str, world: "World") -> list[TapObservation]:
    """What a wiretap on one link sees: every message whose path crosses it.

    Unwrapped traffic is Plaintext (payload readable); enveloped traffic is
    Opaque (marker and sizes only).
    """
    if link_id not in world.links:
        raise UnknownLink(f"unknown link {link_id!r}")
    observations = []
    for record in world.trace.records:
        if record["kind"] != "sent" or link_id not in record["path"]:
            continue
        observations.append(
            TapObservation(
                msg_id=record["msg_id"],
                time=record["time"],
                visibility="Opaque" if record["wrapped"] else "Plaintext",
                observed_bytes=record["wire_bytes"],
            )
        )
    return observations

"""Pluggable security control layers for the simulation.

Three layers. The scenario holds their parameters; the caller of a run
(the improvement plan, or `simulate --controls`) is the only one that
switches them on:

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

from types import MappingProxyType
from typing import Collection, Mapping, NamedTuple

from .errors import AuthDenied, NonNegative, Record, UnknownUser

# The sections with a layer, in `Layers` order; a layer's field is the
# lower-case id.
SECTIONS = ("S9", "S10", "S17")


class S9Config(NonNegative):
    per_session_latency_ms: int = 20
    credential_store: Mapping[str, str] = MappingProxyType({})
    review_period_days: int = 30


class S10Config(NonNegative):
    per_message_latency_ms: int = 5
    overhead_bytes: int = 64
    # node id -> key id for every declared node; empty means each node's
    # key id is `k-<node id>`. S17 spares never send, so they get no key.
    key_ids: Mapping[str, str] = MappingProxyType({})


class S17Config(NonNegative):
    backups_per_site: int = 1
    detection_window_s: int = 60


class ControlLayerConfig(Record):
    s9: S9Config = S9Config()
    s10: S10Config = S10Config()
    s17: S17Config = S17Config()

    def with_enabled(self, sections: Collection[str]) -> "Layers":
        """The layers of a run that switches on exactly the given sections."""
        return Layers(*(
            getattr(self, section.lower()) if section in sections else None
            for section in SECTIONS
        ))


class Layers(NamedTuple):
    """The control layers one run applies; a layer that is off is None."""

    s9: S9Config | None
    s10: S10Config | None
    s17: S17Config | None

    @property
    def enabled_sections(self) -> frozenset[str]:
        return frozenset(
            section for section, layer in zip(SECTIONS, self) if layer is not None
        )


def authenticate(user: str, credential: str, device: str, config: Layers) -> None:
    """Check a credential against the store; only called with S9 enabled."""
    store = config.s9.credential_store
    if user not in store:
        raise UnknownUser(f"no credentials on file for user {user!r}")
    if store[user] != credential:
        raise AuthDenied(f"credential mismatch for user {user!r} at {device!r}")


def wrap(payload: bytes, key_id: str, msg_id: int = 0) -> dict:
    """Seal a payload under the sender's key id; only called with S10 enabled.

    Returns the envelope's wire fields: the key id, an opaque marker and
    the payload size. The payload itself never leaves the sender.
    """
    return {"key_id": key_id, "marker": f"ct:{key_id}:{msg_id}", "inner_size": len(payload)}


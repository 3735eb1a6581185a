"""Exception hierarchy, and the file reading and JSON decoding every
input parser shares.

Two branches matter for the CLI: ConfigError maps to exit code 2
(bad input/config), SimulationError maps to exit code 3 (runtime
failure inside a run).
"""

from __future__ import annotations

import json
from pathlib import Path


class SmartBizError(Exception):
    """Base class for all package errors."""


class ConfigError(SmartBizError):
    """Invalid input document, reference, or configuration."""


class SimulationError(SmartBizError):
    """Failure raised while executing a simulation or pipeline step."""


# -- risk model ------------------------------------------------------------

class ParseError(ConfigError):
    pass


class DuplicateRiskId(ConfigError):
    pass


class UnknownLevelLabel(ConfigError):
    pass


class EmptyCatalog(ConfigError):
    pass


class KOutOfRange(ConfigError):
    pass


# -- control catalog -------------------------------------------------------

class UnknownRiskId(ConfigError):
    pass


class UnknownSectionId(ConfigError):
    pass


class MissingActionsForControl(ConfigError):
    pass


# -- simulation world ------------------------------------------------------

class InvalidScenario(ConfigError):
    pass


class UnknownNode(SimulationError):
    pass


class NoRoute(SimulationError):
    pass


class CloudUnavailable(SimulationError):
    pass


class NoSlotAvailable(SimulationError):
    pass


class UnknownAttendee(SimulationError):
    pass


class UnknownLink(SimulationError):
    pass


# -- security middleware ---------------------------------------------------

class AuthDenied(SimulationError):
    pass


class UnknownUser(SimulationError):
    pass


class MissingKey(SimulationError):
    pass


# -- metering / pipeline ---------------------------------------------------

class IncompleteTrace(SimulationError):
    pass


class DmaicStepError(SmartBizError):
    """Wraps a failure from one of the five pipeline steps.

    The CLI picks the exit code from the wrapped cause, so the original
    error class is preserved on `cause`.
    """

    def __init__(self, step: str, cause: Exception):
        super().__init__(f"[{step}] {cause}")
        self.step = step
        self.cause = cause


# -- input documents -------------------------------------------------------

def read_document(path, what: str) -> str:
    """Read a UTF-8 input file; an OS error becomes a ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def parse_json(document: str, what: str):
    """Decode a JSON document; a syntax error becomes a ParseError naming it."""
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc

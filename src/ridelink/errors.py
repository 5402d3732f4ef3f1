"""Typed command-line failures with machine-readable payloads.

Every fatal error surfaces on stderr as one JSON object and maps to a stable
exit code: 2 for bad or missing input data, 3 for bad configuration, 4 for an
internal invariant breach (any exception that is not one of these types).
"""

from __future__ import annotations

import sys


def finite_number(value) -> bool:
    """The one test of a number read from JSON or passed to a checked constructor:
    an int or float (no bool) that a double holds (RFC 8259 section 6)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


class CliError(Exception):
    """Base class for anticipated command failures."""

    exit_code = 4
    kind = "internal"

    def payload(self) -> dict:
        return {"kind": self.kind, "error": str(self)}


class InputError(CliError):
    """Input data is missing, malformed, or too small to process."""

    exit_code = 2
    kind = "input"


class ConfigError(CliError):
    """The configuration (file, flags, or environment) is invalid."""

    exit_code = 3
    kind = "config"


class MissingArtifactError(InputError):
    """An upstream pipeline artifact has not been produced yet."""

    def __init__(self, artifact: str, producer: str):
        super().__init__(
            f"missing artifact '{artifact}'; run the '{producer}' subcommand "
            f"to produce it first")
        self.artifact = artifact
        self.producer = producer

    def payload(self) -> dict:
        doc = super().payload()
        doc["artifact"] = self.artifact
        doc["producer"] = self.producer
        return doc


__all__ = ["CliError", "InputError", "ConfigError", "MissingArtifactError", "finite_number"]

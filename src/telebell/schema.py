"""Versioned JSON schemas for the CLI payloads."""

from __future__ import annotations

import json
from importlib import resources

SCHEMA_VERSION = 1

_COMMANDS = ("probs", "bell_test", "swap", "noise_threshold", "teleport_fidelity")

__all__ = ["SCHEMA_VERSION", "load_schema"]


def load_schema(command: str) -> dict:
    """Load the shipped JSON schema for one JSON-emitting subcommand."""
    if command not in _COMMANDS:
        raise ValueError(f"no schema for command {command!r}")
    path = resources.files(__package__) / "schemas" / f"{command}.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))

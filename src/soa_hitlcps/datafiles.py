"""Access to the data files shipped inside the package."""

from __future__ import annotations

from importlib import resources


def base_kb_text() -> str:
    """The serialized base ontology."""
    return (resources.files(__package__) / "data" / "base.kb").read_text(encoding="utf-8")

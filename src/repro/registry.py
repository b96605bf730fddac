"""One name table for everything plugged in by name.

Schemes (:data:`repro.core.ccfit.SCHEMES`), routing policies
(:data:`repro.network.routing.ROUTING_POLICIES`), buffer models
(:data:`repro.network.buffers.BUFFER_MODELS`) and experiments
(:data:`repro.experiments.registry.REGISTRY`) are each a
:class:`Registry`: a plain ``dict`` of name -> spec in registration
order, so a lookup costs what a dict lookup costs, plus the one
unknown-name error every layer reports a typo with.  This module
imports nothing on load.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, TypeVar

__all__ = ["Registry", "CellError", "unknown_name"]

T = TypeVar("T")


class CellError(ValueError):
    """A cell that cannot be declared: an unknown name, a knob its case
    does not take, a value out of range.  The message is for whoever
    asked -- the CLI prints it and exits 2, ``POST /experiments``
    answers 400 with it."""


def unknown_name(kind: str, name: Any, choices: Iterable[str]) -> str:
    """``unknown <kind> 'nmae' — did you mean name? (choose from ...)``,
    matching case-insensitively so ``"ccfti"`` still suggests CCFIT."""
    import difflib

    names = sorted(choices)
    folded = {n.casefold(): n for n in names}
    close = difflib.get_close_matches(str(name).casefold(), list(folded), n=3, cutoff=0.4)
    hint = f" — did you mean {' or '.join(folded[c] for c in close)}?" if close else ""
    return f"unknown {kind} {name!r}{hint} (choose from {', '.join(names)})"


class Registry(Dict[str, T]):
    """Name -> spec for one ``kind`` of thing ("scheme", "routing
    policy", ...).  Every spec has a ``name``; whatever registers one
    makes it reachable from the CLI, the sweep engine and the service
    at once.  ``reg[name]`` on a miss raises ``KeyError`` with the
    :func:`unknown_name` text; a study that shadows an entry assigns
    it and restores it."""

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind

    def register(self, spec: T) -> T:
        """Add ``spec`` under its name and return it, so a module can
        register at import time: ``RCM = SCHEMES.register(SchemeSpec(...))``."""
        name = spec.name  # type: ignore[attr-defined]
        if not name:
            raise ValueError(f"{self.kind} name must be non-empty")
        if name in self:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self[name] = spec
        return spec

    def __missing__(self, name: Any) -> T:
        raise KeyError(unknown_name(self.kind, name, self))

    def parse(self, raw: Any) -> str:
        """The registered name ``raw`` spells: itself, else the one it
        matches case-insensitively (``"ccfit"`` is ``CCFIT``), else
        :class:`CellError`."""
        if isinstance(raw, str):
            if raw in self:
                return raw
            folded = raw.casefold()
            for name in self:
                if name.casefold() == folded:
                    return name
        raise CellError(unknown_name(self.kind, raw, self))

"""MPI Info objects: string key/value hints.

The paper's progress-engine optimization flags (§VI-B) and this
library's own extensions are Boolean info keys attached to an RMA window
at creation.  The canonical spellings live in the dotted ``repro.``
namespace (``repro.semantics_check``, ``repro.A_A_A_R``, …); the
historical underscore and ``MPI_WIN_*`` spellings remain accepted and
are canonicalized at :class:`Info` construction with a single-shot
:class:`DeprecationWarning` per legacy key.  :data:`LEGACY_INFO_KEYS` is
the one table mapping old to new — interpretation of the values still
lives with the subsystems (:mod:`repro.rma.flags`,
:mod:`repro.rma.checker`).
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from typing import Iterator

__all__ = ["Info", "LEGACY_INFO_KEYS"]

#: Legacy spelling -> canonical dotted key.  The only place old
#: spellings are known; everything else uses the canonical constants.
LEGACY_INFO_KEYS: dict[str, str] = {
    "repro_semantics_check": "repro.semantics_check",
    "repro_semantics_check_mode": "repro.semantics_check_mode",
    "MPI_WIN_ACCESS_AFTER_ACCESS_REORDER": "repro.A_A_A_R",
    "MPI_WIN_ACCESS_AFTER_EXPOSURE_REORDER": "repro.A_A_E_R",
    "MPI_WIN_EXPOSURE_AFTER_EXPOSURE_REORDER": "repro.E_A_E_R",
    "MPI_WIN_EXPOSURE_AFTER_ACCESS_REORDER": "repro.E_A_A_R",
}

#: Legacy keys already warned about in this process (warn once each).
_warned_legacy: set[str] = set()


def _canonical(key: str) -> str:
    """Canonical spelling of ``key`` (identity for non-legacy keys)."""
    return LEGACY_INFO_KEYS.get(key, key)


class Info(Mapping[str, str]):
    """An immutable-ish string-to-string hint dictionary.

    Accepts a plain dict (values are coerced to ``str``); truthy flag
    values are the strings ``"1"`` or ``"true"`` (case-insensitive).
    Legacy key spellings (see :data:`LEGACY_INFO_KEYS`) are stored under
    their canonical dotted name, warning once per process per legacy
    key; lookups by either spelling succeed silently.
    """

    def __init__(self, items: Mapping[str, object] | None = None):
        data: dict[str, str] = {}
        for k, v in (items or {}).items():
            key = str(k)
            canon = LEGACY_INFO_KEYS.get(key)
            if canon is not None:
                if key not in _warned_legacy:
                    _warned_legacy.add(key)
                    warnings.warn(
                        f"info key {key!r} is deprecated; use {canon!r}",
                        DeprecationWarning,
                        stacklevel=2,
                    )
                key = canon
            data[key] = str(v)
        self._data = data

    def __getitem__(self, key: str) -> str:
        return self._data[_canonical(key)]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and _canonical(key) in self._data

    def get_bool(self, key: str, default: bool = False) -> bool:
        """Interpret a key as a Boolean flag."""
        raw = self._data.get(_canonical(key))
        if raw is None:
            return default
        return raw.strip().lower() in ("1", "true", "yes", "on")

    def __repr__(self) -> str:
        return f"Info({self._data!r})"

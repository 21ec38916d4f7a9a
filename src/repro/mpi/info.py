"""MPI Info objects: string key/value hints.

The paper's progress-engine optimization flags (§VI-B) and this
library's own extensions are Boolean info keys attached to an RMA window
at creation, spelled in the dotted ``repro.`` namespace
(``repro.semantics_check``, ``repro.A_A_A_R``, …).  As in MPI, a key
nobody interprets is ignored.  Interpretation of the values lives with
the subsystems (:mod:`repro.rma.flags`, :mod:`repro.rma.checker`).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator

__all__ = ["Info"]


class Info(Mapping[str, str]):
    """An immutable-ish string-to-string hint dictionary.

    Accepts a plain dict (values are coerced to ``str``); truthy flag
    values are the strings ``"1"`` or ``"true"`` (case-insensitive).
    """

    def __init__(self, items: Mapping[str, object] | None = None):
        self._data: dict[str, str] = {str(k): str(v) for k, v in (items or {}).items()}

    def __getitem__(self, key: str) -> str:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def get_bool(self, key: str, default: bool = False) -> bool:
        """Interpret a key as a Boolean flag."""
        raw = self._data.get(key)
        if raw is None:
            return default
        return raw.strip().lower() in ("1", "true", "yes", "on")

    def __repr__(self) -> str:
        return f"Info({self._data!r})"

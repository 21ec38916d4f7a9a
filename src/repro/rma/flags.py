"""Progress-engine optimization flags (§VI-B).

Four window-level Boolean info keys let the progress engine activate and
advance an epoch while an immediately preceding epoch of a given side is
still active:

================================================  ===========================
Info key                                          Meaning (value ``1``)
================================================  ===========================
``repro.A_A_A_R``                                 origin epoch may progress
                                                  past an active origin epoch
``repro.A_A_E_R``                                 origin epoch may progress
                                                  past an active exposure
``repro.E_A_E_R``                                 exposure past exposure
``repro.E_A_A_R``                                 exposure past origin epoch
================================================  ===========================

The paper's long ``MPI_WIN_ACCESS_AFTER_ACCESS_REORDER``-style spellings
were removed in 2.0; like any unknown info key they are ignored.

All default to off (correctness by default).  Per §VI-B the flags never
apply to any adjacent pair where at least one epoch is a fence or a
``lock_all`` epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mpi.info import Info

__all__ = [
    "ReorderFlags",
    "A_A_A_R",
    "A_A_E_R",
    "E_A_E_R",
    "E_A_A_R",
]

A_A_A_R = "repro.A_A_A_R"
A_A_E_R = "repro.A_A_E_R"
E_A_E_R = "repro.E_A_E_R"
E_A_A_R = "repro.E_A_A_R"


@dataclass(frozen=True)
class ReorderFlags:
    """Decoded flag set for one window."""

    access_after_access: bool = False
    access_after_exposure: bool = False
    exposure_after_exposure: bool = False
    exposure_after_access: bool = False

    @classmethod
    def from_info(cls, info: Info | None) -> "ReorderFlags":
        """Decode the four info keys (missing keys are off)."""
        if info is None:
            return cls()
        return cls(
            access_after_access=info.get_bool(A_A_A_R),
            access_after_exposure=info.get_bool(A_A_E_R),
            exposure_after_exposure=info.get_bool(E_A_E_R),
            exposure_after_access=info.get_bool(E_A_A_R),
        )

    def allows(self, new_is_access: bool, active_is_access: bool) -> bool:
        """Whether an epoch of side ``new_is_access`` may activate while
        an epoch of side ``active_is_access`` is still active.

        Side-pair applicability only; the fence/lock_all exclusions are
        enforced by the activation predicate, which knows epoch kinds.
        """
        if new_is_access and active_is_access:
            return self.access_after_access
        if new_is_access and not active_is_access:
            return self.access_after_exposure
        if not new_is_access and not active_is_access:
            return self.exposure_after_exposure
        return self.exposure_after_access

"""Run state and results of Algorithm 1, and the Manual baseline.

The loop itself is :class:`~repro.api.service.VerificationService`; this
package holds what it records — the session's pending and verified claims
and the verification report — plus the Manual baseline and the Table 3
system profiles.

Layering contract: layer 9 of the enforced import DAG (peer of ``synth``) —
may import ``crowd``, ``pipeline``/``planning`` and everything below; never
``api``, ``runtime``, ``serving`` or ``gateway``. Enforced by reprolint;
see ``docs/architecture.md``.
"""

from repro.core.baselines import ManualBaseline, SYSTEM_PROFILES, SystemProfile
from repro.core.report import ClaimVerification, VerificationReport, seconds_to_weeks
from repro.core.session import VerificationSession

__all__ = [
    "ClaimVerification",
    "ManualBaseline",
    "SYSTEM_PROFILES",
    "SystemProfile",
    "VerificationReport",
    "VerificationSession",
    "seconds_to_weeks",
]

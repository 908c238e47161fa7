"""The Scrutinizer system itself (Algorithm 1) and its baselines.

Layering contract: layer 9 of the enforced import DAG (peer of ``synth``) —
may import ``crowd``, ``pipeline``/``planning`` and everything below; never
``api``, ``runtime``, ``serving`` or ``gateway``. Enforced by reprolint;
see ``docs/architecture.md``.
"""

from repro.core.baselines import ManualBaseline, SYSTEM_PROFILES, SystemProfile
from repro.core.report import ClaimVerification, VerificationReport, seconds_to_weeks
from repro.core.scrutinizer import Scrutinizer
from repro.core.session import VerificationSession

__all__ = [
    "ClaimVerification",
    "ManualBaseline",
    "SYSTEM_PROFILES",
    "Scrutinizer",
    "SystemProfile",
    "VerificationReport",
    "VerificationSession",
    "seconds_to_weeks",
]

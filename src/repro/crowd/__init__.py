"""Simulated crowd of domain experts.

The paper's crowd is a team of professional IEA fact checkers; Section 6.2
of the paper itself replaces them with a simulator calibrated on the user
study.  We do the same: a ground-truth oracle answers question screens, a
timing model converts screen interactions and manual checks into seconds,
and simulated checkers add skip/error behaviour plus majority voting.

Layering contract: layer 8 of the enforced import DAG — may import
``pipeline``/``planning``, ``translation``, ``claims`` and
everything below; never ``core``/``synth``, ``api`` or anything above.
Enforced by reprolint; see ``docs/architecture.md``.
"""

from repro.crowd.oracle import GroundTruthOracle, ScreenAnswer
from repro.crowd.timing import TimingModel, TimingModelConfig
from repro.crowd.voting import majority_vote
from repro.crowd.worker import CheckerResponse, SimulatedChecker

__all__ = [
    "CheckerResponse",
    "GroundTruthOracle",
    "ScreenAnswer",
    "SimulatedChecker",
    "TimingModel",
    "TimingModelConfig",
    "majority_vote",
]

"""Question planning and claim ordering (Section 5 of the paper).

Two optimisation problems live here:

* *Single-claim verification* — choose how many screens to show, which
  query properties they ask about, how many answer options to display and
  in which order (Theorems 1–6).
* *Claim ordering* — repeatedly select batches of claims to verify next,
  balancing expected verification cost against the claims' value as
  training samples for the classifiers, via an ILP (Definitions 7–9,
  Theorems 7–8).

Layering contract: layer 7 of the enforced import DAG — may import
``translation``, ``pipeline``, ``claims`` and everything below; never
``crowd``, ``api``, ``runtime``, ``serving`` or ``gateway``. Enforced by
reprolint; see ``docs/architecture.md``.
"""

from repro.planning.batching import BatchCandidate, ClaimSelection, select_claim_batch
from repro.planning.costmodel import VerificationCostModel
from repro.planning.engine import EngineStats, PlannerEngine
from repro.planning.ilp import IlpSolution, solve_claim_selection_ilp
from repro.planning.options import AnswerOption, expected_option_cost, order_options
from repro.planning.planner import QuestionPlanner
from repro.planning.pruning import PruningPowerCalculator
from repro.planning.screens import QuestionPlan, QueryOption, Screen
from repro.planning.utility import claim_training_utility, expected_claim_cost

__all__ = [
    "AnswerOption",
    "BatchCandidate",
    "ClaimSelection",
    "EngineStats",
    "IlpSolution",
    "PlannerEngine",
    "PruningPowerCalculator",
    "QueryOption",
    "QuestionPlan",
    "QuestionPlanner",
    "Screen",
    "VerificationCostModel",
    "claim_training_utility",
    "expected_claim_cost",
    "expected_option_cost",
    "order_options",
    "select_claim_batch",
    "solve_claim_selection_ilp",
]

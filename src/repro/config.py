"""Top-level configuration objects for the Scrutinizer reproduction.

The constants mirror the quantities named in the paper:

* ``vp`` / ``vf`` — per-option cost of verifying a *property* answer option
  versus a *full query* option (Section 5.1).
* ``sp`` / ``sf`` — cost of *suggesting* a property answer versus suggesting
  a full query when no displayed option is correct.
* Corollary 1 fixes ``nop = sf / vf`` and ``nsc = sf / (vp + sp)`` which
  bounds the relative verification overhead by a factor of three.

Costs are expressed in seconds so that simulation outputs can be converted
into the person-weeks reported in Table 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CostModelConfig:
    """Constants of the question-planning cost model (Section 5.1)."""

    #: Cost of verifying one answer option about a query property.
    property_verify_cost: float = 2.0
    #: Cost of verifying one full candidate query on the final screen.
    query_verify_cost: float = 6.0
    #: Cost of suggesting a property answer when no option is correct.
    property_suggest_cost: float = 10.0
    #: Cost of suggesting the full query (i.e. manual verification).
    query_suggest_cost: float = 120.0

    def __post_init__(self) -> None:
        values = (
            self.property_verify_cost,
            self.query_verify_cost,
            self.property_suggest_cost,
            self.query_suggest_cost,
        )
        if any(value <= 0 for value in values):
            raise ConfigurationError("all cost-model constants must be positive")
        if self.property_verify_cost > self.query_verify_cost:
            raise ConfigurationError(
                "the paper assumes vp << vf: property options are shorter to "
                "read than full queries"
            )
        if self.property_suggest_cost > self.query_suggest_cost:
            raise ConfigurationError(
                "the paper assumes sp << sf: suggesting a property is cheaper "
                "than writing the full query"
            )

    @property
    def default_option_count(self) -> int:
        """Number of answer options per screen, ``nop = sf / vf`` (Corollary 1)."""
        return max(1, round(self.query_suggest_cost / self.query_verify_cost))

    @property
    def default_screen_count(self) -> int:
        """Number of screens, ``nsc = sf / (vp + sp)`` (Corollary 1)."""
        denominator = self.property_verify_cost + self.property_suggest_cost
        return max(1, round(self.query_suggest_cost / denominator))

    def worst_case_overhead_factor(self, option_count: int, screen_count: int) -> float:
        """Relative verification overhead bound of Theorem 1."""
        numerator = (
            option_count * self.query_verify_cost
            + screen_count * (self.property_verify_cost + self.property_suggest_cost)
        )
        return numerator / self.query_suggest_cost


@dataclass(frozen=True)
class BatchingConfig:
    """Parameters of claim-batch selection (Definition 9)."""

    #: Lower bound on the batch size, ``bl``.
    min_batch_size: int = 1
    #: Upper bound on the batch size, ``bu``; the paper uses batches of 100.
    max_batch_size: int = 100
    #: Total cost threshold ``tm`` in seconds.  ``None`` disables the
    #: constraint and pins the batch size to ``max_batch_size`` instead, as
    #: in the paper's simulation which retrains after every 100 claims.
    #: Any float, ``0.0`` included, is a genuine budget (see
    #: :func:`repro.planning.ilp.solve_claim_selection_ilp`).
    cost_threshold: float | None = None
    #: Weight ``wu`` of training utility in the combined objective.  Training
    #: utilities (summed prediction entropies) are an order of magnitude
    #: smaller than verification costs in seconds, so a weight above one makes
    #: the active-learning term matter early in the run.
    utility_weight: float = 5.0
    #: Cost of skimming one section, ``r(s)``, in seconds.
    section_read_cost: float = 30.0

    def __post_init__(self) -> None:
        if self.min_batch_size < 0:
            raise ConfigurationError("min_batch_size must be non-negative")
        if self.max_batch_size < max(1, self.min_batch_size):
            raise ConfigurationError(
                "max_batch_size must be at least max(1, min_batch_size)"
            )
        if self.cost_threshold is not None and self.cost_threshold < 0:
            raise ConfigurationError("cost_threshold must be non-negative (or None)")
        if self.utility_weight < 0:
            raise ConfigurationError("utility_weight must be non-negative")
        if self.section_read_cost < 0:
            raise ConfigurationError("section_read_cost must be non-negative")


@dataclass(frozen=True)
class TranslationConfig:
    """Parameters of the claim-to-query translation component (Section 4)."""

    #: How many candidates each property classifier proposes.
    top_k_relations: int = 3
    top_k_keys: int = 5
    top_k_attributes: int = 5
    top_k_formulas: int = 5
    #: Admissible relative error rate ``e`` for explicit claims (Definition 2).
    admissible_error: float = 0.05
    #: Hard cap on variable-assignment permutations tried per formula.
    max_permutations: int = 5000

    def __post_init__(self) -> None:
        for name in ("top_k_relations", "top_k_keys", "top_k_attributes", "top_k_formulas"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if not 0 < self.admissible_error < 1:
            raise ConfigurationError("admissible_error must be in (0, 1)")
        if self.max_permutations < 1:
            raise ConfigurationError("max_permutations must be at least 1")


@dataclass(frozen=True)
class ScrutinizerConfig:
    """Aggregate configuration for the full system (Algorithm 1)."""

    cost_model: CostModelConfig = field(default_factory=CostModelConfig)
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    translation: TranslationConfig = field(default_factory=TranslationConfig)
    #: Number of simulated fact checkers working in parallel (IEA uses 3).
    checker_count: int = 3
    #: Majority-voting quorum for accepting a verification result.
    votes_per_claim: int = 1
    #: Number of answer options shown per property screen; ``None`` uses
    #: the Corollary 1 setting derived from the cost model.
    options_per_property: int | None = 10
    #: Whether claim ordering (Section 5.2) is enabled; disabling it yields
    #: the "Sequential" baseline of the evaluation.
    claim_ordering: bool = True
    #: Random seed used by every stochastic component.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.checker_count < 1:
            raise ConfigurationError("checker_count must be at least 1")
        if self.votes_per_claim < 1:
            raise ConfigurationError("votes_per_claim must be at least 1")
        if self.votes_per_claim > self.checker_count:
            raise ConfigurationError("votes_per_claim cannot exceed checker_count")
        if self.options_per_property is not None and self.options_per_property < 1:
            raise ConfigurationError("options_per_property must be at least 1")

    def resolved_option_count(self) -> int:
        """Answer options per property screen after applying Corollary 1."""
        if self.options_per_property is not None:
            return self.options_per_property
        return self.cost_model.default_option_count

    def resolved_screen_count(self) -> int:
        """Number of property screens after applying Corollary 1."""
        return self.cost_model.default_screen_count

    def as_sequential(self) -> "ScrutinizerConfig":
        """Return a copy configured as the *Sequential* baseline."""
        return ScrutinizerConfig(
            cost_model=self.cost_model,
            batching=self.batching,
            translation=self.translation,
            checker_count=self.checker_count,
            votes_per_claim=self.votes_per_claim,
            options_per_property=self.options_per_property,
            claim_ordering=False,
            seed=self.seed,
        )

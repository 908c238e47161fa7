"""Inspect the cost-based question planner on a single claim.

The script shows the artefacts of Section 5.1: the screens chosen by the
greedy pruning-power selection, the ranked answer options on each screen,
the final screen with candidate queries and tentative results, and the
expected verification cost compared with the Theorem 1 bound.

Run with::

    python examples/question_planning_demo.py
"""

from __future__ import annotations

from repro.claims.model import ClaimProperty
from repro.config import ScrutinizerConfig
from repro.crowd.oracle import GroundTruthOracle
from repro.planning.planner import QuestionPlanner
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus
from repro.translation.translator import ClaimTranslator


def main() -> None:
    corpus = generate_corpus(
        SyntheticCorpusConfig(
            claim_count=120,
            section_count=10,
            data=EnergyDataConfig(relation_count=16, rows_per_relation=12, seed=8),
            seed=9,
        )
    )
    config = ScrutinizerConfig(options_per_property=5)
    planner = QuestionPlanner(config)
    oracle = GroundTruthOracle(corpus)

    translator = ClaimTranslator(corpus.database, config=config.translation)
    claims = [annotated.claim for annotated in corpus]
    truths = [annotated.ground_truth for annotated in corpus]
    translator.bootstrap(claims[:100], truths[:100])

    claim = claims[110]
    print(f"Claim under verification:\n  {claim.text}\n")

    predictions = translator.predict(claim)
    print("Classifier predictions (top 3 per property):")
    for claim_property, prediction in predictions.items():
        top = ", ".join(f"{label} ({probability:.2f})" for label, probability in prediction.top_k(3))
        print(f"  {claim_property.value:<10} {top}")

    context_plan = planner.plan_questions(claim, predictions)
    print(f"\nContext screens selected: {[s.claim_property.value for s in context_plan.screens]}")
    validated = {}
    for screen in context_plan.screens:
        if screen.claim_property is ClaimProperty.FORMULA:
            continue
        answer = oracle.answer_screen(claim.claim_id, screen)
        validated[screen.claim_property] = answer.selected_labels
        status = "picked from options" if answer.displayed_hit else "suggested by the checker"
        print(f"  {screen.claim_property.value:<10} -> {answer.selected_labels} ({status})")

    translation = translator.translate(claim, predictions, validated)
    plan = planner.plan_questions(claim, predictions, translation.generation)
    print(f"\nFinal screen: {len(plan.query_options)} candidate queries "
          f"(pruning power {plan.pruning_power:.1f}, expected cost {plan.expected_cost:.0f}s)")
    for option in plan.query_options[:3]:
        value = "n/a" if option.value is None else f"{option.value:.4f}"
        print(f"  value={value}  match={option.matches_parameter}")
        for line in option.sql.splitlines():
            print(f"    {line}")

    budget = planner.cost_model.corollary_budget()
    bound = planner.cost_model.worst_case_overhead(budget.option_count, budget.screen_count)
    print(f"\nCorollary 1 budget: {budget.option_count} options, {budget.screen_count} screens "
          f"(Theorem 1 overhead bound {bound:.1f} + 1 fallback <= 3)")
    truth = corpus.ground_truth(claim.claim_id)
    print(f"Ground truth: formula {truth.formula_label}, expected value {truth.expected_value:.4f}")


if __name__ == "__main__":
    main()

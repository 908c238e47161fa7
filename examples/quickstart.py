"""Quickstart: verify the paper's running example through the service API.

This script builds the Figure 1 table by hand, wraps the two example claims
in a tiny annotated corpus, and drives the verification loop through the
package's front door — :class:`repro.ScrutinizerBuilder` and the streaming
:class:`repro.VerificationService`:

* the true claim "In 2017, global electricity demand grew by 3%", and
* the false variant stating 2.5% growth, for which Scrutinizer proposes the
  correct value as an update.

The finished report round-trips through JSON, as it would when the loop
runs in a worker process and ships results to a collector.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import ScrutinizerBuilder, VerificationReport
from repro.claims.corpus import AnnotatedClaim, ClaimCorpus
from repro.claims.document import Section, Sentence, build_document
from repro.claims.model import Claim, ClaimGroundTruth
from repro.config import ScrutinizerConfig
from repro.dataset.database import Database
from repro.dataset.relation import Relation
from repro.sqlengine.executor import QueryExecutor
from repro.translation.translator import ClaimTranslator

GROWTH_FORMULA = "(POWER((a / b), (1 / (A1 - A2))) - 1)"
FOLD_FORMULA = "(a / b)"


def build_database() -> Database:
    """The Global Energy Demand fragment of Figure 1."""
    ged = Relation(
        name="GED",
        key_attribute="Index",
        attributes=["2000", "2016", "2017", "2030", "2040"],
        description="Global energy demand, history and estimates",
    )
    ged.insert({"Index": "PGElecDemand", "2000": 15000, "2016": 21567, "2017": 22209,
                "2030": 29349, "2040": 35526})
    ged.insert({"Index": "PGINCoal", "2000": 2100, "2016": 2380, "2017": 2390,
                "2030": 2341, "2040": 2353})
    ged.insert({"Index": "TFCelec", "2000": 14000, "2016": 21465, "2017": 22040,
                "2030": 28566, "2040": 34790})
    ged.insert({"Index": "CapAddTotal_Wind", "2000": 20, "2016": 160, "2017": 180,
                "2030": 400, "2040": 520})
    return Database([ged], name="quickstart")


def training_claims() -> tuple[list[Claim], list[ClaimGroundTruth]]:
    """A handful of previously checked claims used to bootstrap the classifiers."""
    claims: list[Claim] = []
    truths: list[ClaimGroundTruth] = []
    samples = [
        ("electricity demand grew by 3% in 2017", "PGElecDemand", ("2017", "2016"), GROWTH_FORMULA),
        ("electricity demand expanded in 2017 compared with 2016", "PGElecDemand", ("2017", "2016"), GROWTH_FORMULA),
        ("final electricity consumption grew in 2017", "TFCelec", ("2017", "2016"), GROWTH_FORMULA),
        ("coal demand grew slightly in 2017", "PGINCoal", ("2017", "2016"), GROWTH_FORMULA),
        ("wind capacity additions increased nine-fold from 2000 to 2017", "CapAddTotal_Wind", ("2017", "2000"), FOLD_FORMULA),
        ("the wind market expanded strongly between 2000 and 2017", "CapAddTotal_Wind", ("2017", "2000"), FOLD_FORMULA),
        # Samples whose primary attribute is 2016 so the attribute
        # classifier also proposes the comparison year as an answer option.
        ("electricity demand grew steadily up to 2016", "PGElecDemand", ("2016", "2000"), GROWTH_FORMULA),
        ("final electricity consumption expanded through 2016", "TFCelec", ("2016", "2000"), GROWTH_FORMULA),
    ]
    for index, (text, key, attributes, formula) in enumerate(samples):
        claim_id = f"train{index}"
        claims.append(
            Claim(
                claim_id=claim_id,
                text=text,
                sentence_text=text + ".",
                section_id="sec1",
                is_explicit=False,
            )
        )
        truths.append(
            ClaimGroundTruth(
                claim_id=claim_id,
                relations=("GED",),
                keys=(key,),
                attributes=attributes,
                formula_label=formula,
            )
        )
    return claims, truths


def build_corpus(database: Database) -> ClaimCorpus:
    """The two example claims of Figure 1 as a one-section corpus."""
    demand_2016 = float(database.relation("GED").value("PGElecDemand", "2016"))
    demand_2017 = float(database.relation("GED").value("PGElecDemand", "2017"))
    actual_growth = demand_2017 / demand_2016 - 1.0

    true_claim = Claim(
        claim_id="q1",
        text="In 2017, global electricity demand grew by 3%",
        sentence_text="In 2017, global electricity demand grew by 3%, reaching 22 200 TWh.",
        section_id="sec1",
        is_explicit=True,
        parameter=0.03,
    )
    false_claim = Claim(
        claim_id="q2",
        text="In 2017, global electricity demand grew by 2.5%",
        sentence_text="In 2017, global electricity demand grew by 2.5%.",
        section_id="sec1",
        is_explicit=True,
        parameter=0.025,
    )

    def truth(claim_id: str, is_correct: bool) -> ClaimGroundTruth:
        return ClaimGroundTruth(
            claim_id=claim_id,
            relations=("GED",),
            keys=("PGElecDemand",),
            attributes=("2017", "2016"),
            formula_label=GROWTH_FORMULA,
            expected_value=actual_growth,
            is_correct=is_correct,
            correct_value=None if is_correct else actual_growth,
        )

    document = build_document(
        "Quickstart report",
        [
            Section(
                section_id="sec1",
                title="Electricity demand",
                sentences=(
                    Sentence(text=true_claim.sentence_text, claim_ids=("q1",)),
                    Sentence(text=false_claim.sentence_text, claim_ids=("q2",)),
                ),
            )
        ],
    )
    return ClaimCorpus(
        document=document,
        database=database,
        annotated_claims=[
            AnnotatedClaim(claim=true_claim, ground_truth=truth("q1", True)),
            AnnotatedClaim(claim=false_claim, ground_truth=truth("q2", False)),
        ],
        name="quickstart",
    )


def main() -> None:
    database = build_database()
    corpus = build_corpus(database)

    # Warm-start a translation backend on previously checked claims, as the
    # IEA deployment does with past report editions.
    translator = ClaimTranslator(database)
    claims, truths = training_claims()
    translator.bootstrap(claims, truths)

    # The front door: assemble the service, submit claims, stream results.
    service = (
        ScrutinizerBuilder(corpus)
        .with_config(ScrutinizerConfig(checker_count=1, votes_per_claim=1, seed=7))
        .with_translator(translator)
        .on_batch_complete(
            lambda batch: print(
                f"[batch {batch.batch_index}] verified {batch.batch_size} claims "
                f"in {batch.seconds_spent:.0f}s of checker time"
            )
        )
        .build_service()
    )
    service.submit(["q1", "q2"])

    for verification in service.iter_results():
        claim = corpus.claim(verification.claim_id)
        verdict = "validated" if verification.verdict else "contradicted"
        print(f"\nClaim: {claim.text}")
        print(f"  verdict: {verdict}")
        if verification.verified_sql:
            print("  verifying query:")
            for line in verification.verified_sql.splitlines():
                print(f"    {line}")

    # Corrections for contradicted claims come from the system's own output:
    # the checker's suggested value when no displayed candidate matched, or
    # the value of the accepted verifying query otherwise.
    report = service.report
    executor = QueryExecutor(database)
    for verification in report.incorrect_claims():
        if verification.suggested_value is not None:
            correction = verification.suggested_value
        elif verification.verified_sql:
            correction = executor.execute(verification.verified_sql).scalar
        else:
            continue
        print(f"\nSuggested correction for {verification.claim_id}: {correction:.3f}")

    # Reports serialize to JSON, so a worker process can ship them onward.
    # Only run-independent fields are printed: the payload also holds the
    # wall-clock computation time.
    restored = VerificationReport.from_json(report.to_json())
    print(
        f"\nJSON round-trip: {restored.claim_count} claims, verdicts intact: "
        f"{[v.verdict for v in restored.verifications]}"
    )


if __name__ == "__main__":
    main()

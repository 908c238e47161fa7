"""Figure 10 — top-k accuracy of the property classifiers.

The paper evaluates the classifiers trained on the full corpus and plots
top-k accuracy as a function of k (1–15): most classifiers reach most of
their potential within the first 10 entries.
"""

from __future__ import annotations

from repro.claims.corpus import ClaimCorpus
from repro.claims.model import ClaimProperty
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus
from repro.text.features import FeaturizerConfig
from repro.translation.preprocess import ClaimPreprocessor
from repro.translation.translator import ClaimTranslator


def run(
    corpus: ClaimCorpus | None = None,
    corpus_config: SyntheticCorpusConfig | None = None,
    max_k: int = 15,
    train_fraction: float = 0.7,
    seed: int = 3,
    featurizer_config: FeaturizerConfig | None = None,
) -> dict[str, object]:
    """Train on part of the corpus and measure top-k accuracy on the rest."""
    if corpus is None:
        corpus = generate_corpus(corpus_config)
    train_ids, test_ids = corpus.split(train_fraction, seed=seed)
    if not test_ids:
        train_ids, test_ids = train_ids[:-1], train_ids[-1:]
    featurizer_config = featurizer_config if featurizer_config is not None else FeaturizerConfig(
        word_max_features=600, char_max_features=600
    )
    translator = ClaimTranslator(
        corpus.database,
        preprocessor=ClaimPreprocessor(featurizer_config),
    )
    translator.bootstrap(
        [corpus.claim(claim_id) for claim_id in train_ids],
        [corpus.ground_truth(claim_id) for claim_id in train_ids],
    )
    test_claims = [corpus.claim(claim_id) for claim_id in test_ids]
    test_truths = [corpus.ground_truth(claim_id) for claim_id in test_ids]
    series: dict[str, list[float]] = {claim_property.value: [] for claim_property in ClaimProperty.ordered()}
    series["average"] = []
    for k in range(1, max_k + 1):
        per_property = translator.suite.evaluate_accuracy(test_claims, test_truths, top_k=k)
        for claim_property, score in per_property.items():
            series[claim_property.value].append(round(score, 3))
        series["average"].append(
            round(sum(per_property.values()) / len(per_property), 3)
        )
    return {"series": series, "k_values": list(range(1, max_k + 1)), "translator": translator}


def saturation_k(outcome: dict[str, object], threshold: float = 0.95) -> dict[str, int]:
    """The k at which each series reaches ``threshold`` of its final value."""
    result: dict[str, int] = {}
    for name, values in outcome["series"].items():
        if not values:
            result[name] = 0
            continue
        final = values[-1]
        target = final * threshold
        result[name] = next(
            (k for k, value in zip(outcome["k_values"], values) if value >= target),
            outcome["k_values"][-1],
        )
    return result


def format_rows(outcome: dict[str, object]) -> str:
    lines = ["Figure 10 — top-k accuracy per classifier"]
    lines.append("k:          " + " ".join(f"{k:>5}" for k in outcome["k_values"]))
    for name, values in outcome["series"].items():
        lines.append(f"{name:<12}" + " ".join(f"{value:>5}" for value in values))
    return "\n".join(lines)

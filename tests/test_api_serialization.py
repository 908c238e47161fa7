"""Tests for JSON (de)serialization of reports and verifications."""

from __future__ import annotations

import pytest

from repro.core.report import (
    REPORT_FORMAT_VERSION,
    ClaimVerification,
    VerificationReport,
)
from repro.errors import SerializationError


def sample_report() -> VerificationReport:
    report = VerificationReport(system_name="Scrutinizer", checker_count=3)
    report.add(
        ClaimVerification(
            claim_id="c1",
            verdict=True,
            verified_sql="SELECT 1",
            elapsed_seconds=12.5,
            checker_votes=(True, True, False),
            batch_index=1,
        )
    )
    report.add(
        ClaimVerification(
            claim_id="c2",
            verdict=False,
            verified_sql=None,
            elapsed_seconds=40.0,
            checker_votes=(False,),
            suggested_value=0.03,
            batch_index=1,
        )
    )
    report.add(
        ClaimVerification(
            claim_id="c3",
            verdict=None,
            verified_sql=None,
            elapsed_seconds=5.0,
            skipped=True,
            batch_index=2,
        )
    )
    report.computation_seconds = 1.25
    report.accuracy_history = [
        {"relation": 0.4, "key": 0.2, "attribute": 0.5, "formula": 0.6, "average": 0.425},
        {"relation": 0.6, "key": 0.4, "attribute": 0.7, "formula": 0.8, "average": 0.625},
    ]
    return report


class TestReportRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        report = sample_report()
        restored = VerificationReport.from_json(report.to_json())
        assert restored.system_name == report.system_name
        assert restored.checker_count == report.checker_count
        assert restored.computation_seconds == report.computation_seconds
        assert restored.accuracy_history == report.accuracy_history
        assert restored.verifications == report.verifications

    def test_round_trip_preserves_derived_statistics(self):
        report = sample_report()
        restored = VerificationReport.from_json(report.to_json())
        assert restored.total_seconds == pytest.approx(report.total_seconds)
        assert restored.decided_count == report.decided_count
        assert restored.average_classifier_accuracy() == pytest.approx(
            report.average_classifier_accuracy()
        )
        assert restored.max_classifier_accuracy() == pytest.approx(
            report.max_classifier_accuracy()
        )
        assert [v.claim_id for v in restored.incorrect_claims()] == ["c2"]

    def test_round_trip_is_stable(self):
        report = sample_report()
        once = report.to_json()
        twice = VerificationReport.from_json(once).to_json()
        assert once == twice

    def test_empty_report_round_trips(self):
        report = VerificationReport(system_name="Manual")
        restored = VerificationReport.from_json(report.to_json())
        assert restored.system_name == "Manual"
        assert restored.verifications == []
        assert restored.claim_count == 0


class TestVerificationRoundTrip:
    def test_dict_round_trip(self):
        verification = ClaimVerification(
            claim_id="c9",
            verdict=True,
            verified_sql="SELECT 2",
            elapsed_seconds=3.0,
            checker_votes=(True, False),
            suggested_value=1.5,
            batch_index=4,
        )
        assert ClaimVerification.from_dict(verification.to_dict()) == verification

    def test_defaults_fill_missing_optional_fields(self):
        restored = ClaimVerification.from_dict(
            {"claim_id": "c1", "verdict": None, "elapsed_seconds": 2.0}
        )
        assert restored.verified_sql is None
        assert restored.checker_votes == ()
        assert restored.skipped is False
        assert restored.batch_index == 0


class TestInvalidPayloads:
    def test_missing_required_field_raises(self):
        with pytest.raises(SerializationError):
            ClaimVerification.from_dict({"verdict": True})

    @pytest.mark.parametrize("verdict", ["false", 0, 1, "true"])
    def test_non_boolean_verdict_rejected(self, verdict):
        with pytest.raises(SerializationError):
            ClaimVerification.from_dict(
                {"claim_id": "c1", "verdict": verdict, "elapsed_seconds": 1.0}
            )

    def test_non_string_sql_rejected(self):
        with pytest.raises(SerializationError):
            ClaimVerification.from_dict(
                {"claim_id": "c1", "verdict": True, "verified_sql": 5,
                 "elapsed_seconds": 1.0}
            )

    def test_wrong_format_version_raises(self):
        payload = sample_report().to_dict()
        payload["format_version"] = REPORT_FORMAT_VERSION + 1
        with pytest.raises(SerializationError):
            VerificationReport.from_dict(payload)

    def test_invalid_json_raises(self):
        with pytest.raises(SerializationError):
            VerificationReport.from_json("{not json")

    def test_non_object_json_raises(self):
        with pytest.raises(SerializationError):
            VerificationReport.from_json("[1, 2, 3]")

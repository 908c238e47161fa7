"""Versioned checkpoints of a running verification service.

A :class:`ServiceSnapshot` captures everything a
:class:`~repro.api.service.VerificationService` needs to continue a run
after a crash or restart, as plain JSON:

* the system configuration (so a resume cannot silently run under
  different costs or batching),
* the session's pending claim order and the report accumulated so far
  (every per-claim verification, and the machine-time accounting of the
  planner and retrainer),
* the translation backend via its ``to_state()`` hook — fitted featurizer
  corpus, classifier weights and training examples,
* every random stream: the service's accuracy-sampling generator, the
  shared timing model and each simulated checker's behavioural RNG.

Fitted model arrays travel as base64 of their little-endian bytes, in
the format only :mod:`repro.ml.state` knows; the rest of a snapshot is
plain JSON.  Because those bytes round-trip float64 exactly and the RNG
streams are restored bit for bit, a resumed run selects the same batches
and produces the same predictions and verdicts as the uninterrupted run —
asserted by the snapshot tests.

Schema versioning: ``schema_version`` is stamped into every payload and
checked on load; loading a payload from a different schema, or one
carrying a field this version cannot restore, raises
:class:`~repro.errors.SerializationError` instead of guessing.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.config import (
    BatchingConfig,
    CostModelConfig,
    ScrutinizerConfig,
    TranslationConfig,
)
from repro.core.report import VerificationReport
from repro.core.session import VerificationSession
from repro.errors import SerializationError

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle at runtime)
    from repro.api.service import VerificationService

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "ServiceSnapshot",
    "SnapshotStore",
    "scrutinizer_config_from_dict",
    "scrutinizer_config_to_dict",
]

#: Version stamp of the snapshot JSON layout; bump on breaking changes.
SNAPSHOT_SCHEMA_VERSION = 6


class _SchemaVersionError(SerializationError):
    """A snapshot payload stamped with a schema version other than ours,
    or carrying a field this version can no longer restore."""


# ---------------------------------------------------------------------- #
# configuration (de)serialization
# ---------------------------------------------------------------------- #
def scrutinizer_config_to_dict(config: ScrutinizerConfig) -> dict[str, object]:
    """JSON-compatible form of a :class:`~repro.config.ScrutinizerConfig`."""
    from dataclasses import asdict

    return asdict(config)


def scrutinizer_config_from_dict(payload: Mapping[str, object]) -> ScrutinizerConfig:
    """Rebuild a :class:`~repro.config.ScrutinizerConfig` from its dict form."""
    try:
        return ScrutinizerConfig(
            cost_model=CostModelConfig(**payload["cost_model"]),  # type: ignore[arg-type]
            batching=BatchingConfig(**payload["batching"]),  # type: ignore[arg-type]
            translation=TranslationConfig(**payload["translation"]),  # type: ignore[arg-type]
            checker_count=int(payload["checker_count"]),  # type: ignore[arg-type]
            votes_per_claim=int(payload["votes_per_claim"]),  # type: ignore[arg-type]
            options_per_property=(
                None
                if payload.get("options_per_property") is None
                else int(payload["options_per_property"])  # type: ignore[arg-type]
            ),
            claim_ordering=bool(payload["claim_ordering"]),
            seed=int(payload["seed"]),  # type: ignore[arg-type]
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"invalid config payload: {error}") from error


# ---------------------------------------------------------------------- #
# the snapshot
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServiceSnapshot:
    """One checkpoint of a verification service, as JSON-compatible data."""

    config: dict[str, object]
    system_name: str
    batch_index: int
    accuracy_sample_size: int
    #: ``numpy`` bit-generator state of the accuracy-sampling stream.
    rng_state: dict | None
    #: Bit-generator state of the shared :class:`~repro.crowd.timing.TimingModel`.
    timing_rng_state: dict | None
    #: Per-checker behavioural state (``None`` for checkers without hooks).
    checkers: tuple[dict | None, ...]
    #: ``{"pending": [...]}`` or ``None`` when nothing was ever submitted;
    #: the verified claims are the report's verifications.
    session: dict[str, object] | None
    report: dict[str, object] | None
    translator: dict[str, object] | None
    schema_version: int = SNAPSHOT_SCHEMA_VERSION
    #: Free-form caller annotations (the CLI stores its workload recipe
    #: here so ``resume`` can regenerate the corpus deterministically).
    metadata: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # capture
    # ------------------------------------------------------------------ #
    @classmethod
    def capture(
        cls, service: "VerificationService", metadata: Mapping[str, object] | None = None
    ) -> "ServiceSnapshot":
        """Snapshot the current state of ``service``.

        The capture is read-only: no RNG is advanced, no model retrained.
        Components without state hooks (custom checkers or translation
        backends) are recorded as ``None`` and come back as freshly built
        instances on restore.
        """
        session_state: dict[str, object] | None = None
        if service.session is not None:
            session_state = {"pending": list(service.session.pending_claim_ids)}
        translator_to_state = getattr(service.translator, "to_state", None)
        checker_states: list[dict | None] = []
        for checker in service.checkers:
            checker_to_state = getattr(checker, "to_state", None)
            checker_states.append(checker_to_state() if checker_to_state else None)
        return cls(
            config=scrutinizer_config_to_dict(service.config),
            system_name=service.system_name,
            batch_index=service.batches_run,
            accuracy_sample_size=service.accuracy_sample_size,
            rng_state=service.get_rng_state(),
            timing_rng_state=service.timing.get_rng_state(),
            checkers=tuple(checker_states),
            session=session_state,
            report=service.report.to_dict(),
            translator=translator_to_state() if translator_to_state else None,
            metadata=dict(metadata) if metadata is not None else {},
        )

    # ------------------------------------------------------------------ #
    # restore
    # ------------------------------------------------------------------ #
    def restore_into(self, service: "VerificationService") -> "VerificationService":
        """Apply this snapshot's run state onto a freshly built service.

        The service must have been built against the same corpus and an
        equivalent configuration, with its translation backend already
        rebuilt from :attr:`translator` —
        :meth:`ScrutinizerBuilder.from_snapshot
        <repro.api.builder.ScrutinizerBuilder.from_snapshot>` arranges all
        three.
        """
        session = None
        if self.session is not None:
            session = VerificationSession.from_state(
                pending=[str(claim_id) for claim_id in self.session["pending"]],
                verified=self.verdicts,
            )
        report = (
            VerificationReport.from_dict(self.report) if self.report is not None else None
        )
        service.restore_run_state(
            system_name=self.system_name,
            batch_index=self.batch_index,
            session=session,
            report=report,
            rng_state=self.rng_state,
            timing_rng_state=self.timing_rng_state,
            checker_states=self.checkers,
        )
        return service

    # ------------------------------------------------------------------ #
    # convenience views
    # ------------------------------------------------------------------ #
    @property
    def pending_count(self) -> int:
        return len(self.session["pending"]) if self.session is not None else 0

    @property
    def verified_count(self) -> int:
        return len(self.verdicts)

    @property
    def is_complete(self) -> bool:
        return self.pending_count == 0

    @property
    def verdicts(self) -> dict[str, bool | None]:
        """``{claim_id: verdict}`` for every verification in the report.

        The gateway's offline ``replay``/``status`` verbs use this to
        build verdict maps from passivated tenants without rehydrating a
        full service.
        """
        entries = self.report["verifications"] if self.report is not None else ()
        return {
            str(entry["claim_id"]): entry.get("verdict")  # type: ignore[union-attr]
            for entry in entries  # type: ignore[union-attr]
        }

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "system_name": self.system_name,
            "batch_index": self.batch_index,
            "accuracy_sample_size": self.accuracy_sample_size,
            "rng_state": self.rng_state,
            "timing_rng_state": self.timing_rng_state,
            "checkers": list(self.checkers),
            "session": self.session,
            "report": self.report,
            "translator": self.translator,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ServiceSnapshot":
        version = payload.get("schema_version")
        if version is None:
            raise SerializationError("snapshot payload has no schema_version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise _SchemaVersionError(
                f"unsupported snapshot schema version {version!r} "
                f"(expected {SNAPSHOT_SCHEMA_VERSION})"
            )
        if "store_manifest" in payload:
            # Feature rows of such a tenant lived in an out-of-core store
            # that no longer exists; dropping the key would resume it cold.
            raise _SchemaVersionError(
                "snapshot payload carries 'store_manifest', which this "
                "version cannot restore"
            )
        try:
            return cls(
                config=dict(payload["config"]),  # type: ignore[arg-type]
                system_name=str(payload["system_name"]),
                batch_index=int(payload["batch_index"]),  # type: ignore[arg-type]
                accuracy_sample_size=int(payload["accuracy_sample_size"]),  # type: ignore[arg-type]
                rng_state=payload.get("rng_state"),  # type: ignore[arg-type]
                timing_rng_state=payload.get("timing_rng_state"),  # type: ignore[arg-type]
                checkers=tuple(payload.get("checkers", ())),  # type: ignore[arg-type]
                session=payload.get("session"),  # type: ignore[arg-type]
                report=payload.get("report"),  # type: ignore[arg-type]
                translator=payload.get("translator"),  # type: ignore[arg-type]
                metadata=dict(payload.get("metadata", {})),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(f"invalid snapshot payload: {error}") from error

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ServiceSnapshot":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(f"snapshot is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise SerializationError("snapshot JSON must be an object")
        return cls.from_dict(payload)

    def save(self, path: str | Path) -> Path:
        """Write the snapshot to ``path`` atomically (write + rename).

        A checkpoint interrupted mid-write must not destroy the previous
        checkpoint — the whole point is surviving crashes.
        """
        target = Path(path)
        scratch = target.with_name(target.name + ".tmp")
        scratch.write_text(self.to_json(indent=2) + "\n", encoding="utf-8")
        scratch.replace(target)
        return target

    @classmethod
    def load(cls, path: str | Path) -> "ServiceSnapshot":
        source = Path(path)
        try:
            text = source.read_text(encoding="utf-8")
        except OSError as error:
            raise SerializationError(
                f"cannot read snapshot from {source}: {error}"
            ) from error
        return cls.from_json(text)


# ---------------------------------------------------------------------- #
# keyed snapshot storage
# ---------------------------------------------------------------------- #
class SnapshotStore:
    """A directory of snapshots keyed by name (one JSON file per key).

    The serving layer passivates idle tenant sessions through a store —
    ``save`` on eviction or checkpoint, ``load`` on the next request — and
    the serving and gateway CLIs inspect stores read-only.  Keys are mangled into safe file names
    (anything outside ``[A-Za-z0-9._-]`` becomes ``_`` plus a stable CRC-32
    suffix), so arbitrary tenant ids never escape the directory.
    """

    _SUFFIX = ".json"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def _file_name(self, key: str) -> str:
        if not key:
            raise SerializationError("snapshot keys must be non-empty")
        safe = "".join(
            char if char.isalnum() or char in "._-" else "_" for char in key
        )
        if safe != key:
            safe = f"{safe}-{zlib.crc32(key.encode('utf-8')):08x}"
        return safe + self._SUFFIX

    def path(self, key: str) -> Path:
        """Where the snapshot for ``key`` lives (whether or not it exists)."""
        return self.directory / self._file_name(key)

    def exists(self, key: str) -> bool:
        return self.path(key).exists()

    def items(self) -> tuple[tuple[str, ServiceSnapshot], ...]:
        """Every stored ``(key, snapshot)`` pair, sorted by file name.

        Each snapshot is loaded exactly once — callers that need both the
        keys and the contents (restart adoption, status surfaces) should
        use this instead of :meth:`keys` followed by per-key loads.  Keys
        come from each file's recorded metadata, falling back to the file
        stem for snapshots that predate key stamping; unreadable files are
        skipped.  A snapshot stamped with another schema version, or
        carrying a field this version cannot restore, raises
        :class:`~repro.errors.SerializationError` naming the file: skipping
        it would let a restart replay the journal into cold sessions and
        overwrite the file at the next passivation.
        """
        if not self.directory.is_dir():
            return ()
        pairs = []
        for entry in sorted(self.directory.glob(f"*{self._SUFFIX}")):
            try:
                snapshot = ServiceSnapshot.load(entry)
            except _SchemaVersionError as error:
                raise SerializationError(f"snapshot {entry}: {error}") from error
            except SerializationError:
                continue
            pairs.append((str(snapshot.metadata.get("store_key", entry.stem)), snapshot))
        return tuple(pairs)

    def keys(self) -> tuple[str, ...]:
        """Stored keys (see :meth:`items` for key recovery rules)."""
        return tuple(key for key, _ in self.items())

    def save(self, key: str, snapshot: ServiceSnapshot) -> Path:
        """Persist ``snapshot`` under ``key`` (atomic write-then-rename)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        stamped = replace(
            snapshot, metadata={**snapshot.metadata, "store_key": key}
        )
        return stamped.save(self.path(key))

    def load(self, key: str) -> ServiceSnapshot:
        """Load the snapshot stored under ``key``.

        Raises :class:`~repro.errors.SerializationError` when the key has
        never been saved (or its file is unreadable), matching
        :meth:`ServiceSnapshot.load`.
        """
        return ServiceSnapshot.load(self.path(key))

    def delete(self, key: str) -> bool:
        """Remove the snapshot for ``key``; ``True`` when one existed."""
        target = self.path(key)
        if not target.exists():
            return False
        target.unlink()
        return True

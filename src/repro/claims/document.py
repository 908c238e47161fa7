"""Document structure: sections, sentences and their claims.

The claim-ordering cost model (Definition 8) charges a reading cost per
*section* touched by a claim batch, so the document keeps the mapping from
claims to sections explicit.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ClaimError


@dataclass(frozen=True)
class Sentence:
    """One sentence of the report and the claim ids it contains."""

    text: str
    claim_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class Section:
    """A titled section of the report."""

    section_id: str
    title: str
    sentences: tuple[Sentence, ...] = ()
    #: Cost of skimming the section, ``r(s)`` in Definition 8 (seconds).
    read_cost: float = 30.0

    @property
    def claim_ids(self) -> tuple[str, ...]:
        ids: list[str] = []
        for sentence in self.sentences:
            ids.extend(sentence.claim_ids)
        return tuple(ids)

    @property
    def sentence_count(self) -> int:
        return len(self.sentences)


@dataclass
class Document:
    """The text document ``T`` to verify."""

    title: str
    sections: list[Section] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._claim_to_section: dict[str, str] = {}
        self._rebuild_index()

    def _rebuild_index(self) -> None:
        self._claim_to_section = {}
        for section in self.sections:
            for claim_id in section.claim_ids:
                if claim_id in self._claim_to_section:
                    raise ClaimError(f"claim {claim_id!r} appears in two sections")
                self._claim_to_section[claim_id] = section.section_id

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def add_section(self, section: Section) -> None:
        if any(existing.section_id == section.section_id for existing in self.sections):
            raise ClaimError(f"duplicate section id {section.section_id!r}")
        self.sections.append(section)
        for claim_id in section.claim_ids:
            if claim_id in self._claim_to_section:
                raise ClaimError(f"claim {claim_id!r} appears in two sections")
            self._claim_to_section[claim_id] = section.section_id

    def section(self, section_id: str) -> Section:
        for candidate in self.sections:
            if candidate.section_id == section_id:
                return candidate
        raise ClaimError(f"unknown section {section_id!r}")

    def section_of(self, claim_id: str) -> str:
        """Section id containing ``claim_id`` (``s(c)`` in Definition 8)."""
        try:
            return self._claim_to_section[claim_id]
        except KeyError:
            raise ClaimError(f"claim {claim_id!r} is not part of the document") from None

    def section_read_cost(self, section_id: str) -> float:
        return self.section(section_id).read_cost

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def section_count(self) -> int:
        return len(self.sections)

    @property
    def sentence_count(self) -> int:
        return sum(section.sentence_count for section in self.sections)

    @property
    def claim_ids(self) -> tuple[str, ...]:
        ids: list[str] = []
        for section in self.sections:
            ids.extend(section.claim_ids)
        return tuple(ids)

    @property
    def claim_count(self) -> int:
        return len(self._claim_to_section)


def build_document(title: str, sections: Iterable[Section]) -> Document:
    """Convenience constructor validating the claim → section mapping."""
    document = Document(title=title, sections=[])
    for section in sections:
        document.add_section(section)
    return document

"""Exception hierarchy shared by every subsystem of the reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class DatasetError(ReproError):
    """Problems with relations or the database corpus."""


class UnknownRelationError(DatasetError):
    """A query referenced a relation that is not in the database."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownKeyError(DatasetError):
    """A look-up referenced a primary-key value missing from a relation."""

    def __init__(self, relation: str, key: str) -> None:
        super().__init__(f"relation {relation!r} has no key {key!r}")
        self.relation = relation
        self.key = key


class UnknownAttributeError(DatasetError):
    """A look-up referenced an attribute missing from a relation."""

    def __init__(self, relation: str, attribute: str) -> None:
        super().__init__(f"relation {relation!r} has no attribute {attribute!r}")
        self.relation = relation
        self.attribute = attribute


class SchemaError(DatasetError):
    """A relation was constructed with an inconsistent schema."""


class SQLError(ReproError):
    """Problems in the statistical-check SQL fragment engine."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SQLExecutionError(SQLError):
    """The query parsed but could not be evaluated on the database."""


class UnknownFunctionError(SQLError):
    """The SELECT clause used a function that is not in the library ``F``."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown SQL function: {name!r}")
        self.name = name


class FormulaError(ReproError):
    """Problems with formula parsing, extraction or instantiation."""


class FormulaSyntaxError(FormulaError):
    """The formula text could not be parsed."""


class FormulaBindingError(FormulaError):
    """A formula was instantiated with an incomplete variable binding."""


class ClaimError(ReproError):
    """Problems with claims, documents or annotations."""


class TranslationError(ReproError):
    """The claim-to-query translation pipeline failed."""


class NotFittedError(ReproError):
    """A model was used before being trained."""


class PlanningError(ReproError):
    """Question planning or claim selection failed."""


class InfeasibleSelectionError(PlanningError):
    """No claim batch satisfies the selection constraints (Definition 9).

    ``constraint`` names the violated constraint when known (``"pool"``,
    ``"min_batch_size"``, ``"batch_bounds"`` or ``"cost_threshold"``), so
    callers of :meth:`~repro.planning.engine.PlannerEngine.plan` can see
    *which* bound made the instance infeasible instead of guessing from
    the message text.
    """

    def __init__(self, message: str, *, constraint: str | None = None) -> None:
        super().__init__(message)
        self.constraint = constraint


class CrowdError(ReproError):
    """Problems in the simulated crowd of domain experts."""


class SimulationError(ReproError):
    """Problems in the report-level verification simulator."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class SerializationError(ReproError):
    """A report or verification payload could not be (de)serialized."""


class ServingError(ReproError):
    """Problems in the multi-tenant serving layer."""


class UnknownTenantError(ServingError):
    """A request referenced a tenant the server has never admitted."""

    def __init__(self, tenant_id: str) -> None:
        super().__init__(f"unknown tenant: {tenant_id!r}")
        self.tenant_id = tenant_id


class AdmissionError(ServingError):
    """The admission policy rejected a request (registry or quota bound)."""


class BackpressureError(AdmissionError):
    """The submission queue is full; the caller should retry later."""


class GatewayError(ReproError):
    """Problems in the network gateway in front of the serving layer."""


class ProtocolError(GatewayError):
    """A wire frame could not be encoded or decoded."""


class JournalError(GatewayError):
    """Problems writing or reading the write-ahead submission journal."""


class JournalCorruptionError(JournalError):
    """A journal segment is damaged beyond the recoverable cases.

    The scanner tolerates truncated tails and CRC-mismatched records by
    skipping and counting them; this error is reserved for callers that
    ask for strict reads (``scan_journal(..., strict=True)``).
    """

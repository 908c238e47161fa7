"""Variable naming conventions and bindings for formulas."""

from __future__ import annotations

import string
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, FormulaBindingError

#: Names used for value variables, in allocation order (``a``, ``b``, …).
VALUE_VARIABLE_NAMES = tuple(string.ascii_lowercase)


def value_variable_name(index: int) -> str:
    """The ``index``-th value-variable name (``0 -> a``, ``25 -> z``, ``26 -> a1``)."""
    if index < 0:
        raise ConfigurationError("variable index must be non-negative")
    letters = len(VALUE_VARIABLE_NAMES)
    if index < letters:
        return VALUE_VARIABLE_NAMES[index]
    return f"{VALUE_VARIABLE_NAMES[index % letters]}{index // letters}"


def attribute_variable_name(index: int) -> str:
    """The ``index``-th attribute-variable name (``0 -> A1``)."""
    if index < 0:
        raise ConfigurationError("variable index must be non-negative")
    return f"A{index + 1}"


@dataclass(frozen=True)
class VariableBinding:
    """A concrete assignment of formula variables.

    ``values`` maps value-variable names to floats (the looked-up data
    values) and ``attributes`` maps attribute-variable names to attribute
    labels (kept as strings; numeric labels such as years are converted on
    demand when the formula uses them arithmetically).
    """

    values: Mapping[str, float] = field(default_factory=dict)
    attributes: Mapping[str, str] = field(default_factory=dict)

    def value(self, name: str) -> float:
        try:
            return float(self.values[name])
        except KeyError:
            raise FormulaBindingError(f"value variable {name!r} is unbound") from None

    def attribute(self, name: str) -> str:
        try:
            return self.attributes[name]
        except KeyError:
            raise FormulaBindingError(f"attribute variable {name!r} is unbound") from None

    def attribute_numeric(self, name: str) -> float:
        """The attribute label as a number (years are used arithmetically)."""
        label = self.attribute(name)
        try:
            return float(label)
        except ValueError:
            raise FormulaBindingError(
                f"attribute variable {name!r} is bound to non-numeric label {label!r}"
            ) from None

    def with_values(self, **values: float) -> "VariableBinding":
        merged = dict(self.values)
        merged.update(values)
        return VariableBinding(values=merged, attributes=dict(self.attributes))

"""Pass/fail containers returned by the verification operations, and the
immutable record base they share with `Polynomial` and both forms."""

from __future__ import annotations

import decimal


def _literal(value: object) -> str:
    """repr(value), but through decimal for every int in it, in tuples too: no digit limit."""
    if isinstance(value, tuple):
        items = [_literal(v) for v in value]
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
    if isinstance(value, int) and not isinstance(value, bool):
        return str(decimal.Decimal(value))
    return repr(value)


class Record:
    """Immutable value object whose fields are its class's `__slots__`.

    Two records are equal only if they have the same class and equal fields,
    in slot order; the hash, the refusal to assign or delete and the repr, a
    constructor call exact at any length, all follow from the same slots. A
    subclass's `__init__` takes the slots by name and sets each one with
    `object.__setattr__`.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:  # copy and pickle rebuild it through the checking constructor
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_literal(getattr(self, name))}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class CheckLine(Record):
    """One named check with its outcome."""

    __slots__ = ("label", "passed")

    def __init__(self, label: str, passed: bool) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "passed", passed)


class VerificationReport(Record):
    """An ordered list of checks; passes only if every line does."""

    __slots__ = ("name", "lines")

    def __init__(self, name: str, lines: tuple[CheckLine, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lines", lines)

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    @property
    def first_failure(self) -> CheckLine | None:
        for line in self.lines:
            if not line.passed:
                return line
        return None

    def summary(self) -> str:
        failed = sum(1 for line in self.lines if not line.passed)
        checks = f"{len(self.lines)} check{'' if len(self.lines) == 1 else 's'}"
        if failed:
            return f"{self.name}: FAIL ({checks}, {failed} failed)"
        return f"{self.name}: PASS ({checks})"

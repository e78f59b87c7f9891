"""Pass/fail containers returned by the verification operations, and the
immutable record base they share with the triangular and shifted forms."""

from __future__ import annotations


class Record:
    """Immutable value object whose fields are its class's `__slots__`.

    Two records are equal only if they have the same class and equal fields,
    in slot order; the hash, the `Name(field=value, ...)` repr and the refusal
    to assign all follow from the same slots. Subclasses set their fields with
    `object.__setattr__` in an explicit `__init__`.
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

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
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
        if failed:
            return f"{self.name}: FAIL ({len(self.lines)} checks, {failed} failed)"
        return f"{self.name}: PASS ({len(self.lines)} checks)"

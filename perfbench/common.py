"""Paths, digests and the canonical text of results, shared by the benchmark
and the generator of its expected results."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def outcome(returncode: int, data: bytes) -> str:
    """One expected or observed outcome: exit code plus stdout (or value) digest."""
    return f"{returncode}:{digest(data)}"


def canonical(tag: str, header: Iterable[object], values: Iterable[Fraction | int]) -> bytes:
    """Exact text of a library result.

    Rationals are written in hexadecimal, which has no digit limit, so values
    of any size get a digest without touching int-to-decimal conversion.
    """
    parts = []
    for v in values:
        q = Fraction(v)
        parts.append(f"{q.numerator:x}/{q.denominator:x}")
    head = "|".join(str(h) for h in header)
    return f"{tag}|{head}|{','.join(parts)}".encode()


@dataclass(frozen=True)
class Expected:
    """Expected outcome per request key, and the keys that fail by a known defect."""

    outcomes: dict[str, str]
    known_defects: frozenset[str]


def load_expected() -> Expected:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    return Expected(data["outcomes"], frozenset(data["known_defects"]))

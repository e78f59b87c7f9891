"""Deterministic plain-text, LaTeX, and JSON rendering for the CLI.

Identical inputs produce byte-identical strings: term order is fixed
(descending powers), rationals are always reduced `p/q` text, and JSON key
order is hard-coded. Plain and LaTeX omit zero terms and differ only in
`_FORMATS`; JSON keeps full coefficient lists so it round-trips.

The CLI writes every number with `rational_text` and reads every integer with
`read_integer`: through `decimal`, both are exact past the digit limit at
which str() and int() refuse (4300 by default), and leave that limit alone.
"""

from __future__ import annotations

import decimal
import re
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

from .forms import BY_PARITY, FaulhaberForm, ShiftedForm
from .polynomial import Polynomial


def rational_text(value: int | Fraction, fraction: str = "%s/%s") -> str:
    """`p`, or `fraction` % (p, q) unless q is 1, for value = p/q in lowest terms."""
    p = decimal.Decimal(value.numerator)
    return str(p) if value.denominator == 1 else fraction % (p, decimal.Decimal(value.denominator))


def read_integer(text: str) -> int:
    """int(text) without its digit limit, for exactly the texts int() accepts."""
    # int()'s whitespace is what str.isspace() accepts, less \x1c-\x1f
    if re.fullmatch(r"[^\S\x1c-\x1f]*[+-]?\d+(?:_\d+)*[^\S\x1c-\x1f]*", text) is None:
        raise ValueError(text)
    return int(decimal.Decimal(text))


#: The only text in which plain and LaTeX differ. Per format: a fraction p/q, a
#: variable {v} to a power {k}, the product of a coefficient and its variable, the
#: sign before a later positive / negative term, u = S1, a triangular form from its
#: terms in u {0} and its multiplier's plain {1} or LaTeX {2} text, a shifted form
#: around the terms of an even / odd power, and the text after a shifted form.
_FORMATS = {
    "plain": SimpleNamespace(
        fraction="%s/%s", power="{v}^{k}", product="*", signs=(" + ", " - "), u="S1",
        triangular="({0}) * {1}", shifted=("N*({})", "{}"), where="  where N = n + 1/2"),
    "latex": SimpleNamespace(
        fraction=r"\frac{%s}{%s}", power="{v}^{{{k}}}", product="", signs=("+", "-"), u="S_{1}",
        triangular=r"\left[{0}\right]{2}", shifted=(r"N\left({}\right)", "{}"), where=""),
}


def _terms(poly: Polynomial, variable: str, fmt: str) -> str:
    """The non-zero terms of `poly`, read off its integers, highest power first."""
    tokens = _FORMATS[fmt]
    parts: list[str] = []
    for k in range(poly.degree, -1, -1):
        num = poly.numerators[k]
        if not num:
            continue
        body = rational_text(Fraction(abs(num), poly.denominator), tokens.fraction)
        if k:
            var = variable if k == 1 else tokens.power.format(v=variable, k=k)
            body = var if abs(num) == poly.denominator else body + tokens.product + var
        if parts:
            parts.append(tokens.signs[num < 0])
        elif num < 0:
            parts.append("-")
        parts.append(body)
    return "".join(parts) or "0"


def _json(power: int, basis: str, multiplier: str | None, coefficients: Sequence[Fraction | int],
          ordering: str) -> str:
    """One result as JSON, keys in a fixed order."""
    import json  # only JSON output pays for the import

    return json.dumps(dict(power=power, basis=basis, multiplier=multiplier,
                           coefficients=[rational_text(c) for c in coefficients], ordering=ordering))


def render_monomial(power: int, poly: Polynomial, fmt: str) -> str:
    if fmt == "json":
        return _json(power, "monomial", None, poly.coeffs or (0,), "degree-ascending")
    return _terms(poly, "n", fmt)


def render_triangular(form: FaulhaberForm | None, fmt: str) -> str:
    """Render a triangular form; None means the power 1 special case, bare S1."""
    if form is None:
        if fmt == "json":
            return _json(1, "triangular", None, (1, 0), "paper-descending")
        return _FORMATS[fmt].u
    if fmt == "json":
        return _json(form.power, "triangular", form.multiplier.value, form.coefficients,
                     "paper-descending")
    tokens = _FORMATS[fmt]
    return tokens.triangular.format(_terms(form.polynomial, tokens.u, fmt),
                                    form.multiplier.value, BY_PARITY[form.power % 2][2])


def render_shifted(form: ShiftedForm, fmt: str) -> str:
    if fmt == "json":
        return _json(form.power, "shifted", None, form.coefficients, "paper-descending")
    poly, odd = form.polynomial, form.power % 2
    if not odd:
        # an even power gives an odd polynomial in N: its N^0 slot is zero, and
        # dropping it leaves the sum divided by N, the part inside N*(...)
        poly = Polynomial(poly.numerators[1:], poly.denominator)
    tokens = _FORMATS[fmt]
    return tokens.shifted[odd].format(_terms(poly, "N", fmt)) + tokens.where


def render_polynomial_in_x(poly: Polynomial) -> str:
    return _terms(poly, "x", "plain")

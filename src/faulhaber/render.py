"""Deterministic plain-text, LaTeX, and JSON rendering for the CLI.

Identical inputs produce byte-identical strings: term order is fixed
(descending powers), rationals are always reduced `p/q` text, and JSON key
order is hard-coded. Zero terms are omitted from plain and LaTeX output;
JSON keeps full coefficient lists so it round-trips.

The CLI writes every number with `rational_text` and reads every integer with
`read_integer`: through `decimal`, both are exact past the digit limit at
which str() and int() refuse (4300 by default), and leave that limit alone.
"""

from __future__ import annotations

import decimal
import re
from collections.abc import Sequence
from fractions import Fraction

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


#: The only text in which plain and LaTeX terms differ. Per format: a fraction
#: p/q, a variable {v} to a power {k}, the product of a coefficient and its
#: variable, and the sign before a later positive / negative term.
_FORMATS = {
    "plain": ("%s/%s", "{v}^{k}", "*", (" + ", " - ")),
    "latex": (r"\frac{%s}{%s}", "{v}^{{{k}}}", "", ("+", "-")),
}

#: the triangular variable u = S1 in each text format
_S1 = {"plain": "S1", "latex": "S_{1}"}


def _terms(coeffs: Sequence[Fraction | int], variable: str, fmt: str) -> str:
    """The non-zero terms of the low-to-high `coeffs`, highest power first, in a text format."""
    fraction, power, product, signs = _FORMATS[fmt]
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        coeff = coeffs[k]
        if coeff == 0:
            continue
        magnitude = abs(coeff)
        if k == 0:
            body = rational_text(magnitude, fraction)
        else:
            var = variable if k == 1 else power.format(v=variable, k=k)
            body = var if magnitude == 1 else rational_text(magnitude, fraction) + product + var
        if parts:
            parts.append(signs[coeff < 0])
        elif coeff < 0:
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
    return _terms(poly.coeffs, "n", fmt)


def render_triangular(form: FaulhaberForm | None, fmt: str) -> str:
    """Render a triangular form; None means the power 1 special case, bare S1."""
    if fmt == "json":
        if form is None:
            return _json(1, "triangular", None, (1, 0), "paper-descending")
        return _json(form.power, "triangular", form.multiplier.value, form.coefficients,
                     "paper-descending")
    if form is None:
        return _S1[fmt]
    inner = _terms(form.polynomial.coeffs, _S1[fmt], fmt)
    if fmt == "plain":
        return f"({inner}) * {form.multiplier.value}"
    return rf"\left[{inner}\right]" + BY_PARITY[form.power % 2][2]


def render_shifted(form: ShiftedForm, fmt: str) -> str:
    if fmt == "json":
        return _json(form.power, "shifted", None, form.coefficients, "paper-descending")
    coeffs = form.polynomial.coeffs
    even = form.parity == "even"
    if even:
        # an even power gives an odd polynomial in N: its N^0 slot is zero, and
        # dropping it leaves the part inside N*(...)
        coeffs = coeffs[1:]
    inner = _terms(coeffs, "N", fmt)
    if fmt == "latex":
        return rf"N\left({inner}\right)" if even else inner
    return (f"N*({inner})" if even else inner) + "  where N = n + 1/2"


def render_polynomial_in_x(poly: Polynomial) -> str:
    return _terms(poly.coeffs, "x", "plain")

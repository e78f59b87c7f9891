"""Deterministic plain-text, LaTeX, and JSON rendering for the CLI.

Identical inputs produce byte-identical strings: term order is fixed
(descending powers), rationals are always reduced `p/q` text, and JSON key
order is hard-coded. Zero terms are omitted from plain and LaTeX output;
JSON keeps full coefficient lists so it round-trips.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .polynomial import Polynomial
from .shifted import ShiftedForm
from .triangular import FaulhaberForm, Multiplier


def _latex_rational(q: Fraction) -> str:
    return str(q) if q.denominator == 1 else rf"\frac{{{q.numerator}}}{{{q.denominator}}}"


#: The only text in which plain and LaTeX terms differ. Per format: the
#: rational, a variable {v} to a power {k}, the product of a coefficient and its
#: variable, and the sign before a later positive / negative term.
_FORMATS = {
    "plain": (str, "{v}^{k}", "*", (" + ", " - ")),
    "latex": (_latex_rational, "{v}^{{{k}}}", "", ("+", "-")),
}

#: the triangular variable u = S1 in each text format
_S1 = {"plain": "S1", "latex": "S_{1}"}

_LATEX_MULTIPLIER = {
    Multiplier.SUM_OF_SQUARES: r"\cdot\sum k^{2}",
    Multiplier.SQUARE_OF_SUM: r"\cdot\left(\sum k\right)^{2}",
}


def _terms(poly: Polynomial, variable: str, fmt: str) -> str:
    """poly's non-zero terms, highest power first, in a text format."""
    rational, power, product, signs = _FORMATS[fmt]
    parts: list[str] = []
    for k in range(poly.degree, -1, -1):
        coeff = poly.coeffs[k]
        if coeff == 0:
            continue
        magnitude = abs(coeff)
        if k == 0:
            body = rational(magnitude)
        else:
            var = variable if k == 1 else power.format(v=variable, k=k)
            body = var if magnitude == 1 else rational(magnitude) + product + var
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
                           coefficients=[str(c) for c in coefficients], ordering=ordering))


def render_monomial(power: int, poly: Polynomial, fmt: str) -> str:
    if fmt == "json":
        return _json(power, "monomial", None, poly.coeffs or (0,), "degree-ascending")
    return _terms(poly, "n", fmt)


def render_triangular(form: FaulhaberForm | None, fmt: str) -> str:
    """Render a triangular form; None means the power 1 special case, bare S1."""
    if fmt == "json":
        if form is None:
            return _json(1, "triangular", None, (1, 0), "paper-descending")
        return _json(form.power, "triangular", form.multiplier.value, form.coefficients,
                     "paper-descending")
    if form is None:
        return _S1[fmt]
    inner = _terms(form.u_polynomial(), _S1[fmt], fmt)
    if fmt == "plain":
        return f"({inner}) * {form.multiplier.value}"
    return rf"\left[{inner}\right]" + _LATEX_MULTIPLIER[form.multiplier]


def render_shifted(form: ShiftedForm, fmt: str) -> str:
    if fmt == "json":
        return _json(form.power, "shifted", None, form.coefficients, "paper-descending")
    poly = form.shift_polynomial()
    even = form.parity == "even"
    if even:
        # an even power gives an odd polynomial in N: its N^0 slot is zero, and
        # dropping it leaves the part inside N*(...)
        poly = Polynomial(poly.coeffs[1:])
    inner = _terms(poly, "N", fmt)
    if fmt == "latex":
        return rf"N\left({inner}\right)" if even else inner
    return (f"N*({inner})" if even else inner) + "  where N = n + 1/2"


def render_polynomial_in_x(poly: Polynomial) -> str:
    return _terms(poly, "x", "plain")

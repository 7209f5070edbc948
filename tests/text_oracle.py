"""The straightforward canonical-text renderer, kept as a test oracle.

`canonical_text(p)` reads the terms through the public `terms()` and orders
them by `VarId` order alone, with nothing of the key layout: it sorts the
rows with one Python list key each (total y-degree, then the negated
exponents in VarId order) and renders every factor with its own format
call, y before x.  `display(e)` cancels the common monomial of an expansion's
numerator and crossing monomial by multiplying both by its inverse, then
renders both with `canonical_text`.  `LaurentPoly.canonical_text` and
`Expansion.display` must produce the same bytes.
"""

from surfcluster.expand import Expansion
from surfcluster.poly import LaurentPoly, lowest_exponents


def canonical_text(p: LaurentPoly) -> str:
    rows = [(dict(ev), c) for ev, c in p.terms()]
    if not rows:
        return "0"
    lex = sorted({v for exps, _ in rows for v in exps})
    shown = sorted(lex, key=lambda v: (v.kind != "y", v))
    rows.sort(key=lambda row: (
        sum(e for v, e in row[0].items() if v.kind == "y"),
        [-row[0].get(v, 0) for v in lex]))
    parts = []
    for exps, c in rows:
        mono = "*".join([v.text() if exps[v] == 1 else
                         f"{v.text()}^{exps[v]}" for v in shown if v in exps])
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        parts.append((" - " if c < 0 else " + ") + body)
    text = "".join(parts)
    return "-" + text[3:] if text[1] == "-" else text[3:]


def display(e: Expansion) -> str:
    num, den = e.numerator, e.cross
    common = lowest_exponents(num, den)
    if common:
        shift = LaurentPoly.monomial(1, {v: -x for v, x in common.items()})
        num, den = num.mul(shift), den.mul(shift)
    if den.is_one():
        return canonical_text(num)
    return f"({canonical_text(num)}) / ({canonical_text(den)})"

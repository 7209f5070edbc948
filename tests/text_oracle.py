"""The straightforward canonical-text renderer, kept as a test oracle.

`canonical_text(p)` decodes every term into a row of exponents, sorts the
rows with one Python list key each (total y-degree, then the negated
exponents in VarId order) and renders every factor with its own format
call.  `display(e)` cancels the common monomial of an expansion's
numerator and crossing monomial by multiplying both by its inverse, then
renders both with `canonical_text`.  `LaurentPoly.canonical_text` and
`Expansion.display` must produce the same bytes.
"""

from surfcluster.expand import Expansion
from surfcluster.poly import (
    LaurentPoly,
    _VARS,
    _flat,
    _orders,
    _window,
    lowest_exponents,
)


def canonical_text(p: LaurentPoly) -> str:
    terms = p._terms
    if not terms:
        return "0"
    lo, m = _window(terms)
    flat = _flat(terms, lo, m)
    rows = list(zip((flat[i:i + m] for i in range(0, len(flat), m)),
                    terms.values()))
    used = [lo + j for j in range(m) if any(row[j] for row, _ in rows)]
    # indices above the base, as the decoded rows give them
    rank, shown, names = (r[p._lo:] for r in (*_orders(), _VARS))
    # positions in a row, in VarId order / display order / y only
    lex = [i - lo for i in sorted(used, key=rank.__getitem__)]
    order = [(i - lo, names[i].text())
             for i in sorted(used, key=shown.__getitem__)]
    ys = [i - lo for i in used if names[i].kind == "y"]
    rows.sort(key=lambda row: (sum([row[0][j] for j in ys]),
                               [-row[0][j] for j in lex]))
    parts = []
    for f, c in rows:
        mono = "*".join([t if f[j] == 1 else f"{t}^{f[j]}"
                         for j, t in order if f[j]])
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

"""Reference sparse multiply for differential tests.

This is ``toruschar.sparse.mul`` as it was before its accumulate step was
inlined: every term pair goes through its own ``add_term`` call.  It is
slow but plain, and ``test_sparse.py`` checks that the library multiply
gives the same dict, in the same insertion order, for int and ``GaussRat``
coefficients.  It is not part of the package.
"""


def add_term(terms: dict, key, coeff) -> None:
    """Add ``coeff`` to ``terms[key]`` in place, dropping the key if the
    sum is zero."""
    acc = terms.get(key)
    if acc is None:
        if coeff:
            terms[key] = coeff
        return
    acc = acc + coeff
    if acc:
        terms[key] = acc
    else:
        del terms[key]


def mul(a: dict, b: dict, combine, out: dict | None = None) -> dict:
    if out is None:
        out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            add_term(out, combine(k1, k2), c1 * c2)
    return out

"""Reference oracle path for differential tests.

These are the library's former bodies of ``TorusPoint.monomial_value``,
``LaurentPoly.evaluate``, ``lie.log_gradient``, ``CartanMetric.dual_pair``
and ``CartanMetric.pair`` (the record that once held the Cartan metric),
``lie.numeric_bracket``, ``lie.omega_prime``, ``TauPoly.evaluate`` and
``lie.random_eigenvalues``.  Every call computes each monomial with its
own ``monomial_value``, re-derives the exact partials with
``LaurentPoly.partial``, evaluates them afresh, rebuilds ``float(c *
multiplier)`` and keeps its tau values in a dict that lives for one call;
the sampler works on GaussRat values throughout.  It is slow but
obviously the formula, and ``test_oracle_reference.py`` checks that the
library path, with one table per point kind (exact or float) in each
``LaurentPoly`` and memoised values at each point, gives bit-identical
results.  It is not part of the package.
"""

from __future__ import annotations

from fractions import Fraction

from toruschar.generators import tau_image
from toruschar.lie import cartan_metric, cartan_projection, random_rational
from toruschar.scalars import GaussRat, ONE, ZERO


def monomial_value(point, m):
    """The monomial ``m`` at the point: the point's one times its
    coordinate powers in row-major order."""
    total = ONE if point.exact else (1 + 0j)
    for i, row in enumerate(m, start=1):
        for j, e in enumerate(row, start=1):
            if e:
                total = total * point.coordinate_power(i, j, e)
    return total


def evaluate(poly, point):
    total = None
    for m, c in sorted(poly.terms.items()):
        v = monomial_value(point, m)
        term = c * v if isinstance(v, GaussRat) else complex(c) * v
        total = term if total is None else total + term
    if total is None:
        return point.zero_value()
    return total


def log_gradient(f, point, j: int) -> list:
    return [evaluate(f.partial(i, j), point) for i in range(1, f.group.rank + 1)]


def dual_pair(group, m, xi, eta):
    """The dot product of the projections of xi and eta divided by the
    metric ``m = c * multiplier``, a Fraction."""
    pu, pv = cartan_projection(group, xi), cartan_projection(group, eta)
    if isinstance(pu[0], GaussRat):
        acc = ZERO
        for x, y in zip(pu, pv):
            acc = acc + x * y
        return acc * GaussRat(Fraction(1, 1) / m)
    return sum(x * y for x, y in zip(pu, pv)) / float(m)


def numeric_bracket(f, h, point, c=Fraction(1)):
    m = cartan_metric(f.group, Fraction(c))
    gf1, gf2 = log_gradient(f, point, 1), log_gradient(f, point, 2)
    gh1, gh2 = log_gradient(h, point, 1), log_gradient(h, point, 2)
    return dual_pair(f.group, m, gf1, gh2) - dual_pair(f.group, m, gf2, gh1)


# The trace form on the Cartan in eigenvalue coordinates is this multiple
# of the dot product (test_lie pins it against ``cartan_metric``).
MULTIPLIER = {"GL": 1, "SL": 1, "Sp": 2, "SOodd": 2, "SOeven": 2}


def metric_pair(group, c, u, v):
    """c * multiplier times the dot product of the projected vectors, in
    the scalar of the vectors: the Fraction for a GaussRat dot product,
    its float for any other."""
    scale = Fraction(c) * MULTIPLIER[group.family]
    dot = sum(x * y for x, y in zip(cartan_projection(group, u), cartan_projection(group, v)))
    return dot * (scale if isinstance(dot, GaussRat) else float(scale))


def omega_prime(group, c, pair1, pair2):
    (v1, w1), (v2, w2) = pair1, pair2
    return metric_pair(group, c, list(v1), list(w2)) - metric_pair(group, c, list(v2), list(w1))


def tau_evaluate(p, point):
    cache = {}

    def value(a):
        v = cache.get(a)
        if v is None:
            v = evaluate(tau_image(p.group, a), point)
            cache[a] = v
        return v

    total = None
    for key, coeff in p.sorted_terms():
        term = coeff if point.exact else complex(coeff)
        for a in key:
            term = term * value(a)
        total = term if total is None else total + term
    if total is None:
        return point.zero_value()
    return total


def random_eigenvalues(group, rng, exact: bool = True) -> list:
    """The sampler through GaussRat: draws, SL product and float
    conversion all on GaussRat values."""
    n = group.rank
    hi = n if group.factors == 1 and n > 10 else 5
    vals = [GaussRat(random_rational(rng, -hi, hi)) for _ in range(n)]
    if group.family == "SL":
        prod = ONE
        for v in vals[:-1]:
            prod = prod * v
        vals[-1] = ONE / prod
    if exact:
        return vals
    return [complex(v) for v in vals]

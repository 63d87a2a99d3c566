"""``LaurentPoly.from_json`` and ``GeneratorPoly.from_json`` against the
readers in ``reference_jsonio``, which build every path in advance and
parse every coefficient where it stands: the same terms in the same
insertion order, or the same exception type and message.

Documents mix well-formed entries, with repeated coefficient texts,
repeated keys and terms that cancel, with malformed ones: bool, float and
string exponents, rows and keys of the wrong shape, a missing, non-string
or unparsable ``coeff``, extra keys, wrong container types, ``q`` factors,
two-key and unknown factor dicts, and missing or empty ``factors``.
"""

from hypothesis import given, settings, strategies as st

import reference_jsonio as ref
from toruschar.generators import GeneratorPoly
from toruschar.groups import FAMILIES, GroupSpec
from toruschar.laurent import LaurentPoly

# Few texts, so they repeat within a document.
GOOD_COEFFS = st.sampled_from(("1", "-2", "3/4", "1/2+3i", "i", "-1/3i", "0", " 2 ", "0.5"))
BAD_COEFFS = st.sampled_from(("1/0", "abc", "", "1e1000000000", "2+", 1, None, 0.5, ["1"], True))
BAD_EXPONENTS = st.sampled_from((True, False, 0.25, 1e400, float("nan"), "1/3", "x", "1/0", None, [1], {}))
ODD_JSON = (5, "x", None, [], {}, True)


def outcome(read, *args):
    try:
        out = read(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return type(out), out._ring(), list(out.terms.items())


def either(draw, good, bad, malformed):
    """``good``, or ``bad`` one time in eight when ``malformed``, so the
    first error falls anywhere in the document."""
    return draw(bad) if malformed and draw(st.integers(0, 7)) == 0 else draw(good)


def with_keys(draw, fields, malformed):
    """The entry dict of ``fields``; when ``malformed``, maybe a field
    dropped or an extra key added."""
    entry = dict(fields)
    if malformed and draw(st.booleans()):
        if draw(st.booleans()):
            entry.pop(draw(st.sampled_from(sorted(entry))), None)
        else:
            entry[draw(st.sampled_from(("extra", "exps", "factors", "coeff")))] = 1
    return entry


@st.composite
def groups(draw):
    return GroupSpec(draw(st.sampled_from(FAMILIES)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))


@st.composite
def laurent_docs(draw):
    group = draw(groups())
    malformed = draw(st.booleans())
    n, N = group.rank, group.factors
    # Few distinct exponents, so keys repeat and terms cancel; halves are
    # well-formed for even SO only.
    entry = st.one_of(st.integers(-1, 1), st.integers(-1, 1), st.sampled_from((2.0, "4")))
    bad = BAD_EXPONENTS
    halves = st.sampled_from((0.5, -1.5, "1/2", "-3/2"))
    if group.allows_half_weights:
        entry = st.one_of(entry, halves)
    else:
        bad = st.one_of(bad, halves)
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        rows = []
        for _ in range(n + (draw(st.sampled_from((-1, 0, 0, 0, 1))) if malformed else 0)):
            row = [either(draw, entry, bad, malformed) for _ in range(N)]
            if malformed and draw(st.integers(0, 5)) == 0:
                row = draw(st.sampled_from((row[:-1], row + [0], 5, "row")))
            rows.append(row)
        exps = either(draw, st.just(rows), st.sampled_from(ODD_JSON), malformed)
        coeff = either(draw, GOOD_COEFFS, BAD_COEFFS, malformed)
        fields = with_keys(draw, {"coeff": coeff, "exps": exps}, malformed)
        terms.append(either(draw, st.just(fields), st.sampled_from(ODD_JSON), malformed))
    doc = {"group": group.to_json(), "terms": terms}
    if malformed and draw(st.integers(0, 7)) == 0:
        doc = draw(st.sampled_from(({"terms": terms}, {**doc, "terms": "x"}, [doc], {"group": group.to_json()})))
    return doc


@st.composite
def generator_docs(draw):
    group = draw(groups())
    malformed = draw(st.booleans())
    n, N = group.rank, group.factors
    vector = st.lists(st.integers(-2, 2), min_size=N, max_size=N)
    bad_vector = st.one_of(
        st.lists(st.integers(-2, 2), max_size=N + 1), st.sampled_from(ODD_JSON),
        st.lists(BAD_EXPONENTS, min_size=1, max_size=N),
    )
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        factors = []
        for _ in range(draw(st.integers(0, 3))):
            tau = either(draw, vector, bad_vector, malformed)
            q = [either(draw, vector, bad_vector, malformed) for _ in range(n)]
            if malformed and draw(st.integers(0, 5)) == 0:
                q = draw(st.sampled_from((q[:-1], q + q[:1], 5)))
            # Q is well-formed for even SO only.
            q_odds = 4 if group.family == "SOeven" else 16 if malformed else 0
            factor = {"q": q} if q_odds and draw(st.integers(1, q_odds)) == 1 else {"tau": tau}
            if malformed:
                factor = draw(st.sampled_from((factor, factor, {"q": q, "tau": tau}, {"bogus": 1}, {**factor, "x": 0}, 5)))
            factors.append(factor)
        coeff = either(draw, GOOD_COEFFS, BAD_COEFFS, malformed)
        fields = {"coeff": coeff, "factors": factors}
        if malformed and draw(st.integers(0, 4)) == 0:
            fields["factors"] = draw(st.sampled_from(("tau", None, {}, [])))
        fields = with_keys(draw, fields, malformed)
        terms.append(either(draw, st.just(fields), st.sampled_from(ODD_JSON), malformed))
    doc = {"terms": terms}
    if malformed and draw(st.integers(0, 7)) == 0:
        doc = draw(st.sampled_from(({}, {"terms": "x"}, [doc], "terms")))
    return group, doc


@settings(max_examples=400)
@given(laurent_docs())
def test_laurent_reader_matches_reference(doc):
    assert outcome(LaurentPoly.from_json, doc) == outcome(ref.laurent_from_json, doc)


@settings(max_examples=400)
@given(generator_docs())
def test_generator_reader_matches_reference(case):
    group, doc = case
    assert outcome(GeneratorPoly.from_json, doc, group) == outcome(ref.generator_from_json, doc, group)

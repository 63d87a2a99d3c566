"""Hypothesis settings shared by every test module."""

from hypothesis import settings

# print_blob: a failing property prints a one-line ``@reproduce_failure``
# blob that replays it.  deadline=None: the 200 ms default is a timing
# check, not a correctness one; a shared host and the large-exponent
# inputs of the reference tests trip it on correct code.
settings.register_profile("toruschar", print_blob=True, deadline=None)
settings.load_profile("toruschar")

"""Spans around the library's public functions, recorded from outside.

``Tracer.install()`` replaces every binding of each traced function with a
wrapper that records a span (name, start, end, parent) and a few counts:
the definition site, every ``toruschar`` module that imported the name
(for example ``toruschar.generators.orbit_sum``) and class aliases such as
``LaurentPoly.__rmul__``.  The library source is not modified.  Only calls
made inside a benchmark op (``Tracer.op``) are recorded.  Spans stay in
memory until ``write`` dumps them at the end of the run.

``GaussRat`` arithmetic is far too fine-grained to wrap; the scalar layer
is measured by the microkernel in ``worker.py`` instead.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array

# (module, attribute) of every traced function.  None of them calls itself,
# so a span's inclusive time is never counted twice under one name.
TRACED = (
    ("laurent", "LaurentPoly.__mul__"),
    ("laurent", "LaurentPoly.partial"),
    ("laurent", "LaurentPoly.evaluate"),
    ("laurent", "LaurentPoly.from_json"),
    ("laurent", "LaurentPoly.to_json"),
    ("weyl", "orbit_sum"),
    ("weyl", "pattern_sum"),
    ("weyl", "invariance_violation"),
    ("generators", "decompose"),
    ("generators", "expand"),
    ("generators", "tau_image"),
    ("poisson", "bracket_poly"),
    ("poisson", "jacobi_defect"),
    ("poisson", "TauPoly.evaluate"),
    ("lie", "numeric_bracket"),
    ("lie", "random_torus_point"),
    ("lie", "ad_operator"),
    ("lie", "cohomology_dims"),
    ("lie", "variation"),
    ("linalg", "exact_rank"),
    ("linalg", "mat_inv"),
    ("linalg", "mat_mul"),
)

ROOT = "op"


def _pattern_order(group) -> int:
    # weyl.pattern_sum walks S_n for GL/SL and the full signed group otherwise.
    n = group.rank
    return math.factorial(n) << n if group.signed else math.factorial(n)


def _count_args(name: str, args, counts: dict) -> None:
    if name == "laurent.LaurentPoly.__mul__":
        a, b = args
        pairs = len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
        counts["laurent.mul_term_pairs"] += pairs
    elif name == "weyl.orbit_sum":
        counts["weyl.images"] += args[1].weyl_order
    elif name == "weyl.pattern_sum":
        counts["weyl.images"] += _pattern_order(args[1])
    elif name == "linalg.exact_rank":
        counts["linalg.exact_rank_rows"] += len(args[0])


def _count_result(name: str, result, counts: dict) -> None:
    if name in ("weyl.orbit_sum", "weyl.pattern_sum"):
        counts["weyl.orbit_terms"] += len(result)


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self, now=time.perf_counter):
        self.now = now  # the clock spans are timed with
        self.names: list[str] = [ROOT]
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts = {
            "laurent.mul_term_pairs": 0,
            "weyl.images": 0,
            "weyl.orbit_terms": 0,
            "linalg.exact_rank_rows": 0,
        }

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.now())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.now()
        self.stack.pop()

    def op(self, fn, *args):
        """Run one benchmark op as a root span."""
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counts = self.counts
        open_, close = self._open, self._close

        stack = self.stack

        def traced(*args, **kwargs):
            if stack[-1] < 0:  # outside any op: an untimed check, not recorded
                return fn(*args, **kwargs)
            _count_args(name, args, counts)
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            _count_result(name, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "toruschar" or k.startswith("toruschar.")]
        classes = {id(v): v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("toruschar")}
        for mod_name, attr in TRACED:
            module = sys.modules[f"toruschar.{mod_name}"]
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                raw = vars(getattr(module, owner_name))[member]
            else:
                raw = vars(module)[member]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            name = f"{mod_name}.{attr}"
            wrapper = self._wrap(name, fn)
            bound = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        bound += 1
            for cls in classes.values():
                for key, value in list(vars(cls).items()):
                    if value is fn:
                        setattr(cls, key, wrapper)
                        bound += 1
                    elif isinstance(value, staticmethod) and value.__func__ is fn:
                        setattr(cls, key, staticmethod(wrapper))
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {name} was patched")

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump every span as TSV: index, parent, name, start_s, end_s."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i, (nid, parent, t0, t1) in enumerate(
                zip(self.name_ids, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i}\t{parent}\t{names[nid]}\t{t0:.9f}\t{t1:.9f}\n")

    def summary(self) -> dict:
        """Per-name call count, inclusive time and self time; inclusive
        time of `generators.expand` split by whether `decompose` is its
        parent; plus the counts."""
        n = len(self.starts)
        child_time = [0.0] * n
        durs = [e - s for s, e in zip(self.starts, self.ends)]
        parents = self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += durs[i]
        names = self.names
        calls = {k: 0 for k in names}
        incl = {k: 0.0 for k in names}
        self_t = {k: 0.0 for k in names}
        decompose_id = names.index("generators.decompose")
        expand_id = names.index("generators.expand")
        verify_expand = 0.0
        name_ids = self.name_ids
        for i in range(n):
            name = names[name_ids[i]]
            calls[name] += 1
            incl[name] += durs[i]
            self_t[name] += durs[i] - child_time[i]
            if name_ids[i] == expand_id and parents[i] >= 0 and name_ids[parents[i]] == decompose_id:
                verify_expand += durs[i]
        return {"calls": calls, "incl": incl, "self": self_t,
                "verify_expand_s": verify_expand, "counts": dict(self.counts),
                "spans": n}

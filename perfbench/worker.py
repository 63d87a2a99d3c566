"""One benchmark process: set-up, a closed loop of verified ops, a summary.

``run.py`` starts this file in a fresh interpreter for every measurement,
so the library's caches start empty, as they do for a command-line user:

    python3 perfbench/worker.py WORKLOAD --seed N --setup-only STARTED
    python3 perfbench/worker.py WORKLOAD --seed N --seconds S
    python3 perfbench/worker.py WORKLOAD --seed N --ops K [--trace FILE] [--scalars]

One client issues each op after the previous one completes.  Op inputs
come from ``inputs.make_op`` and are turned into library objects outside
the op timer.  Every op is verified; an exception, a mismatch or a
tolerance miss counts as a failed op.  Times are read from a
``hostspeed.Clock``, in reference seconds; the raw wall latencies ride
along.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import inputs  # noqa: E402

ORACLE_TOL = 1e-9  # pinned, as in tests/test_acceptance.py
ORACLE_WINDOW = 2
HARD_STOP = 3.0  # a time-bounded run stops mid-cycle after this many --seconds
RSS_CYCLES = 2  # peak RSS is read after this many cycles: a fixed amount of work


class Mismatch(Exception):
    """An op's output failed its correctness check."""


# ---------------------------------------------------------------------------
# workloads: parse (untimed), run (timed), check (untimed), digest text
# ---------------------------------------------------------------------------

class Workload:
    """Defaults: the input needs no parsing, the op checks its own output,
    and the output is already text."""

    def __init__(self, tc):
        self.tc = tc

    def parse(self, inp):
        return inp

    def check(self, prepared, out):
        pass

    def digest_text(self, out):
        return out


class Roundtrip(Workload):
    """The decompose -> expand command-line pipeline, in process."""

    def run(self, inp):
        tc = self.tc
        f = tc.LaurentPoly.from_json(inp)
        group = f.group
        gen = tc.decompose(f, group)
        text = json.dumps(gen.to_json(), indent=2, sort_keys=True)
        back = tc.expand(tc.GeneratorPoly.from_json(json.loads(text), group), group)
        if back != f:
            raise Mismatch("expand(decompose(f)) != f")
        return text


class Ladder(Workload):
    """orbit_sum plus decompose of one large monomial; re-checked exactly
    outside the timer."""

    def parse(self, inp):
        tc = self.tc
        group = tc.GroupSpec.from_json(inp["group"])
        return group, tc.exponents(inp["exps"]), inp["orbit"]

    def run(self, prepared):
        tc = self.tc
        group, m, _ = prepared
        f = tc.orbit_sum(m, group)
        return f, tc.decompose(f, group)

    def check(self, prepared, out):
        tc = self.tc
        group, _, orbit_json = prepared
        f, gen = out
        if f != tc.LaurentPoly.from_json(orbit_json):
            raise Mismatch("orbit_sum differs from the enumerated orbit")
        if tc.expand(gen, group) != f:
            raise Mismatch("expand(decompose(f)) != f")

    def digest_text(self, out):
        return json.dumps(out[1].to_json(), sort_keys=True)


class Oracle(Workload):
    """One float sample point against every symbol pair of one group."""

    def __init__(self, tc):
        from toruschar.poisson import symbol_window
        from toruschar.verify import BRACKET_GROUPS

        super().__init__(tc)
        if sorted(set(inputs.ORACLE_SCHEDULE)) != list(range(len(BRACKET_GROUPS))):
            raise RuntimeError("inputs.ORACLE_SCHEDULE does not cover BRACKET_GROUPS")
        self.cases = []
        c = Fraction(1)
        for group in BRACKET_GROUPS:
            syms = symbol_window(group, ORACLE_WINDOW)
            images = {a: tc.tau_image(group, a) for a in syms}
            checks = [
                (images[a], images[b], tc.bracket_symbols(a, b, group, c))
                for i, a in enumerate(syms) for b in syms[i:]
            ]
            self.cases.append((group, checks))

    def parse(self, inp):
        group, checks = self.cases[inp["group_index"]]
        return group, checks, inp["point_seed"]

    def run(self, prepared):
        tc = self.tc
        group, checks, point_seed = prepared
        pt = tc.random_torus_point(group, random.Random(point_seed), exact=False)
        values = []
        for f, h, br in checks:
            num = tc.numeric_bracket(f, h, pt)
            sym = br.evaluate(pt)
            if not abs(sym - num) / (1 + abs(num)) < ORACLE_TOL:
                raise Mismatch(f"bracket oracle missed {ORACLE_TOL} at {group}")
            values.append(num)
        return values

    def digest_text(self, out):
        return ";".join(f"{v:.6e}" for v in out)


class ExactAlgebra(Workload):
    """Poisson axioms, Jacobi, cohomology dimensions, variation contracts."""

    def __init__(self, tc):
        from toruschar import lie, linalg

        super().__init__(tc)
        self.lie, self.linalg = lie, linalg

    def parse(self, inp):
        tc = self.tc
        cases = []
        for case in inp["cases"]:
            check = case["check"]
            group = tc.GroupSpec.from_json(case["group"])
            if check == "axioms":
                args = [tc.TauPoly.from_json({"group": case["group"], "c": case["c"], "terms": t})
                        for t in case["polys"]]
            elif check == "jacobi":
                args = (case["symbols"], Fraction(case["c"]))
            elif check == "variation":
                args = (Fraction(case["c"]), case["conjugate"], case["element_seed"])
            else:
                args = case["point_seed"]
            cases.append((getattr(self, "_" + check), group, args))
        return cases

    def run(self, cases):
        return "\n".join(check(group, args) for check, group, args in cases)

    def _axioms(self, group, polys):
        bracket = self.tc.bracket_poly
        f, g, h = polys
        fg = bracket(f, g)
        if fg + bracket(g, f):
            raise Mismatch("bracket is not antisymmetric")
        if bracket(f, g * h) != bracket(f, g) * h + g * bracket(f, h):
            raise Mismatch("bracket violates Leibniz")
        return json.dumps(fg.to_json(), sort_keys=True)

    def _jacobi(self, group, args):
        (a, b, c3), c = args
        defect = self.tc.jacobi_defect(tuple(a), tuple(b), tuple(c3), group, c)
        if defect:
            raise Mismatch("Jacobi defect does not vanish identically")
        return "0"

    def _cohomology(self, group, point_seed):
        tc = self.tc
        pt = tc.random_torus_point(group, random.Random(point_seed), exact=True)
        gens = [tc.torus_matrix(group, pt.column(j)) for j in range(1, group.factors + 1)]
        dims = tuple(tc.cohomology_dims(group, gens))
        d, r, n = group.lie_dim, group.lie_rank, group.factors
        if dims != (n * r + d - r, d - r, n * r):
            raise Mismatch(f"cohomology dims {dims} at {group}")
        return str(dims)

    def _variation(self, group, args):
        tc, lie, linalg = self.tc, self.lie, self.linalg
        c, conjugate, seed = args
        a = tc.random_group_element(group, random.Random(seed), conjugate=conjugate)
        f = tc.variation(group, a, c)
        if not lie.in_lie_algebra(group, f):
            raise Mismatch("variation is outside the Lie algebra")
        inv_c = tc.GaussRat(1 / c)
        for v in tc.lie_basis(group):
            if linalg.trace(linalg.mat_mul(f, v)) != linalg.trace(linalg.mat_mul(a, v)) * inv_c:
                raise Mismatch("variation fails trace duality")
        if not linalg.mat_eq(linalg.mat_mul(a, f), linalg.mat_mul(f, a)):
            raise Mismatch("variation does not commute with its element")
        return " ".join(str(x) for row in f for x in row)


WORKLOADS = {
    "roundtrip": Roundtrip,
    "ladder": Ladder,
    "oracle": Oracle,
    "exact_algebra": ExactAlgebra,
}


# ---------------------------------------------------------------------------
# the scalar microkernel
# ---------------------------------------------------------------------------

def scalar_kernel(tc, seed: int, now, repeats: int = 7) -> dict:
    """ns per GaussRat add, mul, div and parse over an operand pool made of
    the coefficients of this seed's first roundtrip inputs; each figure is
    the median of `repeats` passes timed with the clock `now`."""
    texts = []
    seen = set()
    index = 0
    while len(texts) < 256:
        for term in inputs.make_op("roundtrip", seed, index)["terms"]:
            if term["coeff"] not in seen:
                seen.add(term["coeff"])
                texts.append(term["coeff"])
        index += 1
    texts = texts[:256]
    parse = tc.GaussRat.parse
    vals = [parse(t) for t in texts]
    pairs = list(zip(vals, vals[1:] + vals[:1])) * 8
    kernels = {
        "add": lambda: [x + y for x, y in pairs],
        "mul": lambda: [x * y for x, y in pairs],
        "div": lambda: [x / y for x, y in pairs],
        "parse": lambda: [parse(t) for t in texts * 8],
    }
    out = {}
    for name, kernel in kernels.items():
        n = len(texts) * 8
        times = []
        for _ in range(repeats):
            t0 = now()
            kernel()
            times.append(now() - t0)
        out[name] = statistics.median(times) / n * 1e9
    return out


# ---------------------------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(workload, wl, seed, clock, seconds=None, ops=None, tracer=None) -> dict:
    """Run ops in order.  With `ops`, exactly that many; with `seconds`,
    whole cycles of the workload's schedule until `seconds` have passed."""
    cycle = inputs.cycle_length(workload)
    latencies, tops, failed = [], [], 0
    errors = []
    digest = hashlib.sha256()
    run = wl.run if tracer is None else (lambda p: tracer.op(wl.run, p))
    scaled = []
    start = time.perf_counter()
    i = 0
    while True:
        if ops is not None:
            if i >= ops:
                break
        else:
            elapsed = time.perf_counter() - start
            if (i % cycle == 0 and elapsed >= seconds) or elapsed >= HARD_STOP * seconds:
                break
        prepared = wl.parse(inputs.make_op(workload, seed, i))
        out = None
        t0, c0 = time.perf_counter(), clock.now()
        try:
            out = run(prepared)
        except Exception as exc:  # an op that raises is a failed op; keep going
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        latency, c1 = time.perf_counter() - t0, clock.now()
        if out is not None:
            try:
                wl.check(prepared, out)
            except Exception as exc:
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
                out = None
        if out is None:
            failed += 1
        elif i < cycle:
            digest.update(wl.digest_text(out).encode())
        latencies.append(latency)
        scaled.append(c1 - c0)
        tops.append(inputs.is_top_rung(workload, i))
        i += 1
        if i == RSS_CYCLES * cycle:
            rss_mb = _peak_rss_mb()
    if i < RSS_CYCLES * cycle:
        rss_mb = _peak_rss_mb()
    return {
        "attempted": i,
        "peak_rss_mb": rss_mb,
        "failed": failed,
        "errors": errors[:5],
        "wall_latencies": latencies,
        "latencies": scaled,
        "kernel_s": clock.median_sample(),
        "top": tops,
        "output_digest": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", type=float, metavar="STARTED",
                      help="time.perf_counter() in the parent just before it launched this process")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--ops", type=int)
    ap.add_argument("--trace", metavar="FILE")
    ap.add_argument("--scalars", action="store_true")
    args = ap.parse_args(argv)

    clock = hostspeed.Clock()
    clock.start()
    import toruschar as tc

    wl = WORKLOADS[args.workload](tc)
    if args.setup_only is not None:
        clock.stop()
        print(json.dumps({"setup_s": clock.since(args.setup_only)}), flush=True)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tau_image = tc.generators.tau_image
        tau_before = tau_image.cache_info()
        tracer = Tracer(now=clock.now)
        tracer.install()

    result = closed_loop(args.workload, wl, args.seed, clock, args.seconds, args.ops, tracer)
    if tracer is not None:
        info = tau_image.cache_info()
        hits, misses = info.hits - tau_before.hits, info.misses - tau_before.misses
        result["trace"] = tracer.summary()
        result["trace"]["tau_image_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        tracer.write(args.trace)
    if args.scalars:
        result["scalars"] = scalar_kernel(tc, args.seed, clock.now)
    clock.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

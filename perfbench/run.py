"""Benchmark entry point for the toruschar library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``.
Every measurement runs ``worker.py`` in a fresh interpreter, so caches
start cold and peak memory belongs to that one process.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
several fresh interpreters), throughput, op latency and peak memory of
one closed-loop run of ``--seconds`` seconds.

``--trace 1`` prints the per-layer metrics.  It runs the same fixed number
of ops twice, each in a fresh process: once untraced (which also times the
scalar microkernel) and once with spans around the library's public
functions.  A fixed op count makes the traced counts repeat exactly for a
seed; the ratio of the two runs' op time is the tracing overhead.  Spans
are written to ``perfbench/out/``.

Every time is in reference seconds (``hostspeed.py``): wall time scaled by
a calibration kernel sampled every few milliseconds, so that the shared
host's changes of speed cancel out.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Set-up, a failed op or a wrong output never go unnoticed: a
worker that cannot run ends this script with a nonzero code and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402

SETUP_REPEATS = 15
DEADLINE_S = 170.0  # the whole run, children included, must end before this
# Cycles of each workload's schedule in a traced run, per --seconds; each is
# sized so the untraced and traced passes together take about half of
# --seconds at the seed commit.
TRACE_CYCLES_PER_S = {
    "roundtrip": 0.15,
    "ladder": 0.05,
    "oracle": 0.45,
    "exact_algebra": 0.1,
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # identical dict and set orders in every run
    return env


def _remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise SystemExit("benchmark ran out of time")
    return left


def _worker(args: list[str], start: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=_remaining(start),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(workload: str, seed: int, start: float) -> float:
    """Median over fresh interpreters of the time from process launch to
    the worker reporting its first op ready (imports and first-use set-up;
    input generation excluded), at the reference host speed.  The worker
    measures it: time.perf_counter() is one clock for all processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), workload, "--seed", str(seed),
             "--setup-only", repr(time.perf_counter())],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            _, err = proc.communicate(timeout=_remaining(start))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            sys.stderr.write(err)
            raise SystemExit(f"set-up of {workload} failed")
        times.append(json.loads(line)["setup_s"])
    return statistics.median(times)


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def input_digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for i in range(inputs.cycle_length(workload)):
        h.update(json.dumps(inputs.make_op(workload, seed, i), sort_keys=True).encode())
    return h.hexdigest()[:16]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: dict, setup_s: float) -> dict:
    lat = run["latencies"]
    top = [t for t, is_top in zip(lat, run["top"]) if is_top]
    verified = run["attempted"] - run["failed"]
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(verified / sum(lat), "1/s"),
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": metric(p90(lat) * 1e3, "ms"),
        "top_rung_s": metric(statistics.median(top) if top else 0.0, "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }


def per_layer(ref: dict, traced: dict) -> dict:
    t = traced["trace"]
    calls, incl, self_t, counts = t["calls"], t["incl"], t["self"], t["counts"]
    sc = ref["scalars"]
    pairs = counts["laurent.mul_term_pairs"]
    mul_s = incl["laurent.LaurentPoly.__mul__"]
    images = counts["weyl.images"]
    out = {
        "scalars.add_ns": metric(sc["add"], "ns"),
        "scalars.mul_ns": metric(sc["mul"], "ns"),
        "scalars.div_ns": metric(sc["div"], "ns"),
        "scalars.parse_ns": metric(sc["parse"], "ns"),
        "laurent.mul_calls": metric(calls["laurent.LaurentPoly.__mul__"], "count"),
        "laurent.mul_term_pairs": metric(pairs, "count"),
        "laurent.mul_s": metric(mul_s, "s"),
        "laurent.mul_ns_per_pair": metric(mul_s / pairs * 1e9 if pairs else 0.0, "ns"),
        "laurent.partial_calls": metric(calls["laurent.LaurentPoly.partial"], "count"),
        "laurent.partial_s": metric(incl["laurent.LaurentPoly.partial"], "s"),
        "laurent.evaluate_calls": metric(calls["laurent.LaurentPoly.evaluate"], "count"),
        "laurent.evaluate_s": metric(incl["laurent.LaurentPoly.evaluate"], "s"),
        "laurent.json_s": metric(
            incl["laurent.LaurentPoly.from_json"] + incl["laurent.LaurentPoly.to_json"], "s"),
        "weyl.orbit_sum_calls": metric(calls["weyl.orbit_sum"], "count"),
        "weyl.orbit_sum_s": metric(incl["weyl.orbit_sum"], "s"),
        "weyl.pattern_sum_calls": metric(calls["weyl.pattern_sum"], "count"),
        "weyl.pattern_sum_s": metric(incl["weyl.pattern_sum"], "s"),
        "weyl.invariance_s": metric(incl["weyl.invariance_violation"], "s"),
        "weyl.images": metric(images, "count"),
        "weyl.orbit_terms": metric(counts["weyl.orbit_terms"], "count"),
        "weyl.useful_ratio": metric(
            counts["weyl.orbit_terms"] / images if images else 0.0, "ratio"),
        "generators.decompose_calls": metric(calls["generators.decompose"], "count"),
        "generators.decompose_self_s": metric(self_t["generators.decompose"], "s"),
        "generators.verify_expand_s": metric(t["verify_expand_s"], "s"),
        "generators.expand_s": metric(incl["generators.expand"] - t["verify_expand_s"], "s"),
        "generators.tau_image_hit_ratio": metric(t["tau_image_hit_ratio"], "ratio"),
        "poisson.bracket_poly_calls": metric(calls["poisson.bracket_poly"], "count"),
        "poisson.bracket_poly_s": metric(incl["poisson.bracket_poly"], "s"),
        "poisson.jacobi_defect_s": metric(incl["poisson.jacobi_defect"], "s"),
        "poisson.evaluate_calls": metric(calls["poisson.TauPoly.evaluate"], "count"),
        "poisson.evaluate_s": metric(incl["poisson.TauPoly.evaluate"], "s"),
        "lie.numeric_bracket_calls": metric(calls["lie.numeric_bracket"], "count"),
        "lie.numeric_bracket_s": metric(incl["lie.numeric_bracket"], "s"),
        "lie.sample_point_s": metric(incl["lie.random_torus_point"], "s"),
        "lie.ad_operator_calls": metric(calls["lie.ad_operator"], "count"),
        "lie.ad_operator_s": metric(incl["lie.ad_operator"], "s"),
        "lie.cohomology_s": metric(incl["lie.cohomology_dims"], "s"),
        "lie.variation_s": metric(incl["lie.variation"], "s"),
        "linalg.exact_rank_calls": metric(calls["linalg.exact_rank"], "count"),
        "linalg.exact_rank_rows": metric(counts["linalg.exact_rank_rows"], "count"),
        "linalg.exact_rank_s": metric(incl["linalg.exact_rank"], "s"),
        "linalg.mat_inv_s": metric(incl["linalg.mat_inv"], "s"),
        "linalg.mat_mul_s": metric(incl["linalg.mat_mul"], "s"),
        "root.self_s": metric(self_t["op"], "s"),
        "trace_overhead_frac": metric(
            sum(traced["latencies"]) / sum(ref["latencies"]) - 1.0, "ratio"),
    }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="toruschar benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(inputs.MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (ROOT / "src" / "toruschar" / "__init__.py").is_file():
        sys.stderr.write(f"no toruschar sources under {ROOT / 'src'}\n")
        return 2

    w, seed = args.workload, str(args.seed)
    print(f"workload {w}, seed {seed}: input digest {input_digest(w, args.seed)}")
    if args.trace:
        cycles = max(1, round(args.seconds * TRACE_CYCLES_PER_S[w]))
        n_ops = str(cycles * inputs.cycle_length(w))
        ref = _worker([w, "--seed", seed, "--ops", n_ops, "--scalars"], start)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{w}-seed{seed}.tsv.gz"
        traced = _worker([w, "--seed", seed, "--ops", n_ops, "--trace", str(spans)], start)
        metrics = per_layer(ref, traced)
        runs = (ref, traced)
        print(f"traced {n_ops} ops, {traced['trace']['spans']} spans written to {spans}")
        print("weyl.images is computed as calls x group order, not counted in the library")
    else:
        setup_s = setup_seconds(w, args.seed, start)
        run = _worker([w, "--seed", seed, "--seconds", str(args.seconds)], start)
        metrics = end_to_end(run, setup_s)
        runs = (run,)
        wall = sum(run["wall_latencies"])
        print(f"{run['attempted']} ops in {wall:.3f} s of wall time; host kernel median "
              f"{run['kernel_s'] * 1e3:.3f} ms against {hostspeed.REFERENCE_S * 1e3:.3f} ms "
              "reference, so times are reported at the reference speed")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        print(f"output digest (first cycle): {r['output_digest']}")
        for err in r["errors"]:
            print(f"FAILED {err}")
    print(f"ops attempted {attempted}, failed {failed}, fail_frac {failed / attempted:.6f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

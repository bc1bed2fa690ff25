#!/usr/bin/env python3
"""Benchmark of toricbundles: verdict timings end to end, and a per-module
split traced from outside the package.

    python3 bench/run.py --workload {scaling,desk,sweep} --seed N \\
        --seconds S --trace {0,1}

Run it from a checkout holding ``src/`` and ``fixtures/``; nothing is
installed or built. Each workload runs in this single-threaded process as a
closed loop with one caller: the next operation starts when the previous
one has returned. The timed phase repeats whole cycles of the workload's
operation list for about ``--seconds`` (it stops after the cycle that ends
nearest to that time), so every run measures the same mix. Every output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the run starts three child processes of this script, one
after another, each running one cycle of the same seed: one untraced and two
with every public function of every module wrapped (see ``tracer.py``). It
reports the per-layer split and the tracing overhead, and requires every
count to be equal in the two traced children.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE_DIR = ROOT / "fixtures"
SCRATCH = ROOT / ".bench_tmp"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 5
# Times are reported at the machine speed where W.CALIBRATION_MATRICES take
# this long (about what they took on the machine the bounds were set on).
CALIBRATION_REFERENCE_S = 0.040
CALIBRATION_EVERY_S = 1.0
TRACED_RUN_LIMIT_S = 170  # all three child passes together

sys.path.insert(0, str(BENCH))
import workloads as W  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

COMMANDS = ("validate", "check", "flats", "parliament", "restrict", "reconstruct", "weights")


class Op(NamedTuple):
    case: str  # what the per-case summary groups by
    key: str  # names the operation; one key must always give one output
    run: Callable[[], object]  # the timed call
    check: Callable[[object], tuple[object, str | None]]  # -> (fingerprint, error)


def _pkg(name):
    """A package module looked up at call time, so traced runs reach the
    wrappers the tracer installs after set-up."""
    return sys.modules[f"toricbundles.{name}"]


# ---------------------------------------------------------------------------
# scaling: one check_stability call per member of a closed-form family


def _relabel(rng, rays, cones, weights):
    """The same fan and weights with the rays in a seeded order."""
    perm = list(range(len(rays)))
    rng.shuffle(perm)
    new_index = {old: new for new, old in enumerate(perm)}
    return ([rays[i] for i in perm], [[new_index[i] for i in c] for c in cones],
            [weights[i] for i in perm])


def _tangent_power(rays, cones, copies, weights):
    fan = _pkg("fan").Fan(len(rays[0]), rays, cones)
    tangent = _pkg("bundle").tangent_bundle(fan)
    total = tangent
    for _ in range(copies - 1):
        total = _pkg("bundle").direct_sum(total, tangent)
    return total, _pkg("stability").validate_polarization(fan, weights)


def _report_error(report, steps_per_ray, weights, rank):
    """Why a StabilityReport disagrees with the flag data, or None: mu and
    every flat slope are recomputed here by exact rank counts, and the
    verdicts must follow from those slopes."""
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    mu = W.subsheaf_slope(steps_per_ray, weights, identity)
    if report.mu != mu:
        return f"mu {report.mu}, expected {mu}"
    for fs in report.flat_slopes:
        want = W.subsheaf_slope(steps_per_ray, weights, fs.flat.subspace.rows)
        if fs.slope != want:
            return f"flat {list(fs.flat.indices)}: slope {fs.slope}, expected {want}"
    slopes = [fs.slope for fs in report.flat_slopes]
    if report.stable != all(x < report.mu for x in slopes):
        return "stable verdict disagrees with the flat slopes"
    if report.semistable != all(x <= report.mu for x in slopes):
        return "semistable verdict disagrees with the flat slopes"
    return None


def _report_check(steps_per_ray, weights, rank, expected=None):
    """Check of a check_stability result; the flag recomputation runs once
    per distinct output, as later cycles must repeat the first."""
    verified = {}

    def check(report):
        got = (report.mu, report.stable, report.semistable)
        fingerprint = repr((got, [(fs.flat.indices, fs.slope) for fs in report.flat_slopes]))
        if fingerprint not in verified:
            error = None
            if expected is not None and got != expected:
                error = f"(mu, stable, semistable) = {got}, expected {expected}"
            verified[fingerprint] = error or _report_error(report, steps_per_ray, weights, rank)
        return fingerprint, verified[fingerprint]

    return check


def setup_scaling(seed, scratch):
    rng = random.Random(seed)
    ops = []
    for name, rays, cones, copies, weights, calls, expected in W.scaling_members():
        rays_p, cones_p, weights_p = _relabel(rng, rays, cones, weights)
        bundle, pol = _tangent_power(rays_p, cones_p, copies, weights_p)
        op = Op(name, name, lambda b=bundle, p=pol: _pkg("stability").check_stability(b, p),
                _report_check(W.tangent_steps(rays_p, copies), weights_p,
                              len(rays[0]) * copies, expected))
        ops += [op] * calls
    rng.shuffle(ops)
    for _, (rays, cones), copies in W.WARMUP_MEMBERS:
        bundle, pol = _tangent_power(rays, cones, copies, (1,) * len(rays))
        _pkg("stability").check_stability(bundle, pol)
    return ops


# ---------------------------------------------------------------------------
# desk: every CLI subcommand on the fixtures and on seeded twists of them


def _wall_count(doc):
    d = doc["fan"]["dim"]
    return len({tau for cone in doc["fan"]["max_cones"]
                for tau in combinations(sorted(cone), d - 1)})


def desk_documents(seed, scratch):
    """(name, path, document, twist divisor, weights divisor, weights scale)
    for every fixture and one seeded twist of each, written to scratch."""
    rng = random.Random(seed)
    docs = []
    for name in W.FIXTURES:
        path = FIXTURE_DIR / f"{name}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        rays, d = doc["fan"]["rays"], doc["fan"]["dim"]
        docs.append((name, path, doc, None, [1] * len(rays), 1))
        twist = [rng.randint(-2, 2) for _ in rays]
        # c times the all-ones divisor, moved by a character: its polytope is
        # c times a full-dimensional one, translated
        c = rng.randint(1, 3)
        u = [rng.randint(-2, 2) for _ in range(d)]
        divisor = [c + sum(a * b for a, b in zip(u, v)) for v in rays]
        twisted = scratch / f"twist_{name}.json"
        twisted.write_text(json.dumps(W.twist_document(doc, twist)), encoding="utf-8")
        docs.append((f"twist_{name}", twisted, doc, twist, divisor, c ** (d - 1)))
    return docs


def _desk_argvs(name, path, doc, divisor, scratch):
    """(label, argv) of every operation on one document."""
    p = str(path)
    yield "validate", ["validate", p]
    yield "check", ["check", p]
    yield "flats", ["flats", p]
    svg = ["--svg", str(scratch / f"{name}.svg")] if doc["fan"]["dim"] == 2 else []
    yield "parliament", ["parliament", p] + svg
    for k in range(_wall_count(doc)):
        yield f"restrict --wall {k}", ["restrict", p, "--wall", str(k)]
    yield "reconstruct", ["reconstruct", p]
    # the = form, because a leading minus sign would read as an option
    yield "weights", ["weights", p, "--divisor=" + ",".join(str(a) for a in divisor)]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _pkg("cli").main(argv + ["--format", "json"])
    return code, out.getvalue()


def desk_digest(code, stdout, svg_path):
    data = stdout.encode()
    if svg_path is not None:
        data += svg_path.read_bytes()
    return [code, hashlib.sha256(data).hexdigest()]


def _twist_error(label, got, base, code, twist, scale, gg):
    """Why a twisted document's output breaks an invariant of twisting, or
    None. Twisting by a divisor shifts every slope and mu by one constant,
    every restriction degree by one constant and every parliament bound on
    ray i by twist[i]; it keeps the lattice, ground set and flats."""
    command = label.split()[0]
    if command == "reconstruct":
        # only a bundle that is not globally generated may fail to round-trip
        if code == 1:
            return None if not gg else "globally generated, but reconstruct failed"
        if got["match"] != all(got["per_ray_match"]) or (gg and not got["match"]):
            return "globally generated, but the round trip does not match"
        return None
    if code != 0 or base is None:
        return f"exit code {code}"
    if command == "validate":
        ok = got["fan"] == base["fan"] and got["compatible"]
    elif command == "check":
        keys = ("stable", "semistable")
        ok = (all(got[k] == base[k] for k in keys)
              and [f["relation"] for f in got["flats"]] == [f["relation"] for f in base["flats"]]
              and (got["witness"] or {}).get("indices") == (base["witness"] or {}).get("indices"))
    elif command == "flats":
        ok = got["flats"] == base["flats"] and got["ground_set"] == base["ground_set"]
    elif command == "parliament":
        ok = len(got["entries"]) == len(base["entries"]) and all(
            g["vector"] == b["vector"]
            and [Fraction(x) for x in g["bounds"]]
            == [Fraction(x) + a for x, a in zip(b["bounds"], twist)]
            for g, b in zip(got["entries"], base["entries"]))
    elif command == "restrict":
        shifts = {x - y for x, y in zip(got["degrees"], base["degrees"])}
        ok = (got["semistable"] == base["semistable"] and len(shifts) == 1
              and len(got["degrees"]) == len(base["degrees"]))
    else:  # weights of c*D + div(u) are c^(d-1) times those of D
        ok = [Fraction(x) for x in got["weights"]] == [scale * Fraction(x) for x in base["weights"]]
    return None if ok else "output breaks an invariant of twisting"


def desk_operations(docs, scratch, reference):
    """The desk operation list; `reference` maps operation keys to the
    [exit code, sha256] recorded for them (empty when recording)."""
    outputs = {}
    ops = []
    for name, path, doc, twist, divisor, scale in docs:
        fixture = name.removeprefix("twist_")
        for label, argv in _desk_argvs(name, path, doc, divisor, scratch):
            key = f"{name} {label}"
            svg_path = Path(argv[argv.index("--svg") + 1]) if "--svg" in argv else None

            def check(result, key=key, label=label, svg_path=svg_path, twist=twist,
                      scale=scale, fixture=fixture):
                code, stdout = result
                digest = desk_digest(code, stdout, svg_path)
                payload = json.loads(stdout) if stdout else None
                outputs[key] = payload
                expected = reference.get(key)
                if expected is not None and digest != expected:
                    return digest, f"[exit, sha256] {digest}, expected {expected}"
                if twist is None:
                    if expected is None and reference:
                        return digest, "no reference digest"
                    return digest, None
                gg = (outputs.get(f"{key.split()[0]} parliament") or {}).get("globally_generated")
                return digest, _twist_error(label, payload, outputs.get(f"{fixture} {label}"),
                                            code, twist, scale, gg)

            ops.append(Op(argv[0], key, lambda argv=argv: _run_cli(argv), check))
    return ops


def _load_reference(seed):
    """Recorded digests that apply at this seed: the fixtures' always, the
    twists' only at the seed they were recorded with."""
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {key: value for key, value in recorded["operations"].items()
            if seed == recorded["seed"] or not key.startswith("twist_")}


def setup_desk(seed, scratch):
    docs = desk_documents(seed, scratch)
    for _, path, *_ in docs:
        _pkg("io").load_document(path)
    ops = desk_operations(docs, scratch, _load_reference(seed))
    for op in ops[:2]:
        op.run()
    return ops


# ---------------------------------------------------------------------------
# sweep: a few random bundles, each under many polarizations


def _sweep_call(bundle, pol):
    return pol.weights, _pkg("stability").check_stability(bundle, pol)


def _sweep_check(steps_per_ray, weights, rank):
    report_check = _report_check(steps_per_ray, weights, rank)

    def check(result):
        got_weights, report = result
        fingerprint, error = report_check(report)
        if list(got_weights) != weights:
            error = f"weights {got_weights}, expected {weights}"
        return fingerprint, error

    return check


def setup_sweep(seed, scratch):
    rng = random.Random(seed)
    per_bundle = []
    for index, (fan_name, rank, dims) in enumerate(W.SWEEP_TYPES):
        rays, cones = W.hexagon() if fan_name == "hexagon" else W.hirzebruch(rng.randint(0, 3))
        steps = [W.random_flag(rng, rank, d) for d in dims]
        doc = _pkg("io").parse_document(json.dumps({
            "schema_version": 1,
            "fan": {"dim": 2, "rays": [list(v) for v in rays], "max_cones": cones},
            "bundle": {"rank": rank, "filtrations": [{"steps": s} for s in steps]},
        }))
        ops = []
        for k in range(W.POLARIZATIONS_PER_BUNDLE):
            t = W.balanced_weights(rng, rays)
            if k % 2 == 0:
                a = W.divisor_with_weights(rng, rays, t)
                run = lambda f=doc.fan, b=doc.bundle, a=a: _sweep_call(
                    b, _pkg("stability").weights_from_divisor(f, a))
            else:
                run = lambda f=doc.fan, b=doc.bundle, t=t: _sweep_call(
                    b, _pkg("stability").validate_polarization(f, t))
            ops.append(Op(f"bundle{index}", f"bundle{index} polarization{k}", run,
                          _sweep_check(steps, t, rank)))
        per_bundle.append(ops)
        ops[0].run()
    # interleaved, so that no bundle's calls run back to back
    return [ops[k] for k in range(W.POLARIZATIONS_PER_BUNDLE) for ops in per_bundle]


SETUPS = {"scaling": setup_scaling, "desk": setup_desk, "sweep": setup_sweep}


# ---------------------------------------------------------------------------
# harness


def import_package():
    """Import every module of the package; returns the seconds it took."""
    start = time.perf_counter()
    import toricbundles  # noqa: F401
    import toricbundles.cli  # noqa: F401
    return time.perf_counter() - start


def calibrate():
    """Seconds the fixed reference task takes now. The collector is off so
    that the program's heap does not slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        for matrix in W.CALIBRATION_MATRICES:
            W.rank_of(matrix)
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_cycles(ops, seconds, max_cycles=None):
    """Run whole cycles of `ops` for about `seconds` of operation time (at
    least one cycle), checking every output outside the timings. Another
    cycle starts only if it would end closer to `seconds` than stopping now.

    The reference task runs after about every CALIBRATION_EVERY_S of
    operation time; each latency is scaled by CALIBRATION_REFERENCE_S over
    the mean of the two reference times around it. Returns (scaled
    latencies by case, attempted, errors, scale factors)."""
    latencies: dict[str, list[float]] = {}
    fingerprints: dict[str, object] = {}
    errors = []
    factors = []
    segment = []  # (case, seconds) since the last reference time
    attempted = cycles = 0
    busy = segment_busy = 0.0
    clock = time.perf_counter
    before = calibrate()

    def close_segment():
        nonlocal before
        after = calibrate()
        factor = CALIBRATION_REFERENCE_S / ((before + after) / 2)
        factors.append(factor)
        for case, elapsed in segment:
            latencies.setdefault(case, []).append(elapsed * factor)
        segment.clear()
        before = after

    while cycles == 0 or (cycles != max_cycles and busy * (1 + 0.5 / cycles) < seconds):
        for op in ops:
            attempted += 1
            try:
                t0 = clock()
                result = op.run()
                elapsed = clock() - t0
                busy += elapsed
                fingerprint, error = op.check(result)
            except Exception as exc:  # a failed operation is counted, not fatal
                errors.append(f"{op.key}: {exc!r}")
                continue
            if error is None and fingerprints.setdefault(op.key, fingerprint) != fingerprint:
                error = "output differs from the first cycle"
            if error is not None:
                errors.append(f"{op.key}: {error}")
                continue
            segment.append((op.case, elapsed))
            segment_busy += elapsed
            if segment_busy >= CALIBRATION_EVERY_S:
                close_segment()
                segment_busy = 0.0
        cycles += 1
    if segment:
        close_segment()
    return latencies, attempted, errors, factors


def _report_errors(errors):
    for line in errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)


def _emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def timed_run(workload, seed, seconds, scratch):
    before = calibrate()
    import_s = import_package()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = SETUPS[workload](seed, scratch)
        setups.append(time.perf_counter() - start)
    setup_factor = CALIBRATION_REFERENCE_S / ((before + calibrate()) / 2)
    latencies, attempted, errors, factors = run_cycles(ops, seconds)
    every = [t for ts in latencies.values() for t in ts]
    _report_errors(errors)
    if len(every) < 2:
        sys.exit(f"{len(errors)} of {attempted} operations failed; no timings to report")
    print(f"speed scale factors: median {statistics.median(factors):.4f}, "
          f"range {min(factors):.4f}..{max(factors):.4f} over {len(factors)} segments; "
          f"set-up {setup_factor:.4f}")
    for case, ts in latencies.items():
        print(f"case {case}: {len(ts)} ops, median {statistics.median(ts):.4f} s")
    metrics = {
        "setup_s": ((import_s + statistics.median(setups)) * setup_factor, "s"),
        "ops_per_s": (len(every) / sum(every), "1/s"),
        "op_ms.p50": (1000 * statistics.median(every), "ms"),
        "op_ms.p90": (1000 * statistics.quantiles(every, n=10)[8], "ms"),
        "ok_ratio": ((attempted - len(errors)) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    _emit(not errors, attempted, len(errors), metrics)


def traced_pass(workload, seed, traced, scratch):
    """One cycle in this process, with or without the tracer; prints its
    aggregates as one JSON line."""
    import_package()
    ops = SETUPS[workload](seed, scratch)
    tracer = Tracer()
    if traced:
        tracer.install()
    latencies, attempted, errors, _ = run_cycles(ops, 0, max_cycles=1)
    _report_errors(errors)
    print(json.dumps({
        "wall": sum(t for ts in latencies.values() for t in ts),
        "attempted": attempted,
        "failed": len(errors),
        "calls": tracer.calls,
        "found": tracer.found,
        "inclusive": tracer.inclusive,
        "self": {module: tracer.module_self(module) for module in MODULES},
        "commands": tracer.commands,
    }))


def _child(workload, seed, traced, deadline):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1",
            "--traced-pass", "1" if traced else "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, timeout=deadline - time.monotonic(),
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"traced pass exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def layer_metrics(first, second, base):
    """Per-layer metrics from the untraced pass and the two traced ones:
    times are the mean of the traced passes, counts those of the first."""
    def mean(section, name):
        return (first[section].get(name, 0) + second[section].get(name, 0)) / 2

    calls = first["calls"]
    found = first["found"]
    inclusive = {
        "matroid.flats_s": "matroid.enumerate_flats",
        "stability.slope_s": "stability.slope",
        "bundle.compat_s": "bundle.check_compatibility",
        "matroid.compatible_flat_s": "matroid.is_compatible_flat",
        "matroid.lattice_s": "matroid.build_lattice",
        "matroid.ground_set_s": "matroid.ground_set",
        "stability.weights_s": "stability.weights_from_divisor",
        "polytopes.vertices_s": "polytopes.HPolytope.vertices",
        "io.parse_s": "io.parse_document",
        "fan.validate_s": "fan.validate_fan",
        "parliament.build_s": "parliament.parliament",
        "parliament.gg_s": "parliament.is_globally_generated",
        "parliament.reconstruct_s": "parliament.reconstruct_filtrations",
        "polytopes.lattice_points_s": "polytopes.HPolytope.lattice_points",
        "stability.restrict_s": "stability.restrict_to_curve",
        "svg.render_s": "svg.render_svg",
    }
    counted = {
        "matroid.closure_calls": "matroid.closure",
        "linalg.intersect_calls": "linalg.intersect",
        "linalg.span_calls": "linalg.span",
        "linalg.subspace_sum_calls": "linalg.subspace_sum",
        "linalg.contains_calls": "linalg.Subspace.contains",
        "linalg.rank_calls": "linalg.matrix_rank",
        "stability.slope_calls": "stability.slope",
        "bundle.compat_calls": "bundle.check_compatibility",
        "matroid.compatible_flat_calls": "matroid.is_compatible_flat",
        "matroid.ground_set_calls": "matroid.ground_set",
    }
    metrics = {f"{module}.self_s": (mean("self", module), "s") for module in MODULES}
    metrics.update({name: (mean("inclusive", fn), "s") for name, fn in inclusive.items()})
    metrics.update({name: (calls[fn], "count") for name, fn in counted.items()})
    metrics["matroid.flats_found"] = (found["matroid.flats_found"], "count")
    metrics["polytopes.lattice_points_found"] = (found["polytopes.lattice_points_found"], "count")
    closures = calls["matroid.closure"]
    metrics["matroid.closure_yield"] = (
        found["matroid.flats_found"] / closures if closures else 0.0, "ratio")
    for command in COMMANDS:
        durations = first["commands"].get(command, []) + second["commands"].get(command, [])
        metrics[f"cli.{command}_ms"] = (
            1000 * statistics.median(durations) if durations else 0.0, "ms")
    metrics["trace.overhead_ratio"] = ((first["wall"] + second["wall"]) / 2 / base["wall"], "ratio")
    return metrics


def traced_run(workload, seed):
    deadline = time.monotonic() + TRACED_RUN_LIMIT_S
    base, first, second = (_child(workload, seed, traced, deadline)
                           for traced in (False, True, True))
    repeat = first["calls"] == second["calls"] and first["found"] == second["found"]
    if not repeat:
        for name in sorted(set(first["calls"]) | set(second["calls"])):
            a, b = first["calls"].get(name), second["calls"].get(name)
            if a != b:
                print(f"count of {name} differs between traced passes: {a} != {b}",
                      file=sys.stderr)
    attempted = sum(p["attempted"] for p in (base, first, second))
    failed = sum(p["failed"] for p in (base, first, second))
    _emit(repeat and not failed, attempted, failed, layer_metrics(first, second, base))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SETUPS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-pass", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "toricbundles").is_dir() or not FIXTURE_DIR.is_dir():
        print(f"no package sources under {SRC} or no {FIXTURE_DIR}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace and args.traced_pass is None:
        traced_run(args.workload, args.seed)
        return 0
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.traced_pass is None:
            timed_run(args.workload, args.seed, args.seconds, scratch)
        else:
            traced_pass(args.workload, args.seed, bool(args.traced_pass), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

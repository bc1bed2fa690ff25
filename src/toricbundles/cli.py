"""Command-line interface.

Subcommands: check, parliament, flats, restrict, weights, reconstruct,
validate. Exit codes: 0 computed, 1 invalid input, 2 incompatible bundle,
3 internal verification failure. Results go to stdout, diagnostics to
stderr; json output is byte-deterministic for fixed input and flags.
"""
from __future__ import annotations

import argparse
import sys

from .bundle import IncompatibleBundleError, check_compatibility
from .fan import FanError, validate_fan, walls
from .io import (
    SCHEMA_VERSION,
    SchemaError,
    dumps_report,
    format_rational,
    load_document,
    parse_rational,
)
from .matroid import (
    build_lattice,
    bundle_ground_set,
    enumerate_flats,
    is_compatible_flat,
)
from .parliament import (
    NotGloballyGeneratedError,
    is_globally_generated,
    parliament,
    reconstruct_filtrations,
)
from .stability import (
    PolarizationError,
    VerificationError,
    check_stability,
    restrict_to_curve,
    weights_from_divisor,
)
from .svg import SvgOptions, render_svg

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCOMPATIBLE = 2
EXIT_VERIFICATION = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toricbundles",
        description="Slope stability of toric vector bundles from Klyachko "
        "filtration data, in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, polarized=False):
        p.add_argument("document", help="bundle document (JSON)")
        p.add_argument("--seed", type=int, default=0,
                       help="echoed as \"seed\" in json output; no result "
                            "depends on it (default 0)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--trace", action="store_true",
                       help="dump the subspace lattice, ground-set trace and "
                            "character sheets to stderr")

    p = sub.add_parser("check", help="stability report")
    common(p)
    p.add_argument("--semistable-only", action="store_true",
                   help="report only the semistability verdict")

    p = sub.add_parser("parliament", help="polytopes, vertices, lattice points")
    common(p)
    p.add_argument("--svg", metavar="PATH", help="write an SVG rendering (d = 2)")
    p.add_argument("--wall", type=int, default=None,
                   help="overlay the restriction segments of this wall in the SVG")

    p = sub.add_parser("flats", help="flat lattice with compatibility marks")
    common(p)

    p = sub.add_parser("restrict", help="splitting degrees on an invariant curve")
    common(p)
    p.add_argument("--wall", type=int, required=True, help="wall index")

    p = sub.add_parser("weights", help="polarization weights of a divisor")
    common(p)
    p.add_argument("--divisor", required=True,
                   help="comma-separated divisor coefficients, one per ray")

    p = sub.add_parser("reconstruct", help="filtration reconstruction round-trip")
    common(p)

    p = sub.add_parser("validate", help="fan validation and compatibility only")
    common(p)
    return parser


def _trace(doc):
    out = sys.stderr
    print("subspace lattice:", file=out)
    for w in build_lattice(doc.bundle).elements:
        print(f"  dim {w.dim}: {w!r}", file=out)
    gs = bundle_ground_set(doc.bundle)
    print("ground-set trace:", file=out)
    for i, (v, step) in enumerate(zip(gs.vectors, gs.steps)):
        print(f"  e{i} = {tuple(str(x) for x in v)} appended at {step!r}", file=out)
    sheet = check_compatibility(doc.bundle)
    print("character sheets:", file=out)
    for ci, rows in enumerate(sheet.rows):
        cone = doc.fan.max_cones[ci]
        print(f"  cone {cone}:", file=out)
        for row in rows:
            print(
                f"    u = {row.character}, profile {row.profile}, "
                f"line {tuple(str(x) for x in row.vector)}",
                file=out,
            )


def _require_polarization(doc):
    pol = doc.polarization()
    if pol is None:
        raise PolarizationError(
            "this command needs a polarization block (weights or divisor)"
        )
    return pol


def _flat_payload(fs):
    return {
        "indices": list(fs.flat.indices),
        "rank": fs.flat.rank,
        "slope": format_rational(fs.slope),
        "relation": fs.relation.value,
    }


def _cmd_check(args, doc, out):
    pol = _require_polarization(doc)
    report = check_stability(doc.bundle, pol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "seed": args.seed,
        "mu": format_rational(report.mu),
        "semistable": report.semistable,
    }
    if not args.semistable_only:
        payload["stable"] = report.stable
        payload["flats"] = [_flat_payload(fs) for fs in report.flat_slopes]
        payload["witness"] = (
            None
            if report.witness is None
            else {
                "indices": list(report.witness.indices),
                "rank": report.witness.rank,
                "slope": format_rational(report.witness_slope),
            }
        )
    if args.format == "json":
        out.write(dumps_report(payload))
        return
    if args.semistable_only:
        verdict = "SEMISTABLE" if report.semistable else "NOT SEMISTABLE"
    else:
        verdict = (
            "STABLE"
            if report.stable
            else ("SEMISTABLE (not stable)" if report.semistable else "UNSTABLE")
        )
    line = f"{verdict}, mu(E) = {format_rational(report.mu)}"
    if report.witness is not None and not args.semistable_only:
        line += (
            f", max flat slope {format_rational(report.witness_slope)}"
            f" at flat {list(report.witness.indices)}"
        )
    out.write(line + "\n")
    if not args.semistable_only:
        for fs in report.flat_slopes:
            out.write(
                f"  flat {list(fs.flat.indices)} (rank {fs.flat.rank}): "
                f"slope {format_rational(fs.slope)} {fs.relation.value} mu\n"
            )


def _cmd_parliament(args, doc, out):
    parl = parliament(doc.bundle)
    gg = is_globally_generated(doc.bundle)
    spans = doc.bundle.summand_spans
    entries = []
    for e in parl.entries:
        summand = None
        if spans:
            for si, sp in enumerate(spans):
                if sp.contains(e.vector):
                    summand = si
                    break
        entries.append(
            {
                "index": e.index,
                "vector": [format_rational(x) for x in e.vector],
                "bounds": [format_rational(c) for c in e.polytope.bounds],
                "vertices": [
                    [format_rational(x) for x in v] for v in e.polytope.vertices()
                ],
                "lattice_points": [list(p) for p in e.polytope.lattice_points()],
                "summand": summand,
            }
        )
    marks = [
        {
            "cone": list(doc.fan.max_cones[m.cone_index]),
            "character": list(m.character),
            "entry": m.entry,
            "flat": None if m.flat_indices is None else list(m.flat_indices),
        }
        for m in parl.marks
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "parliament",
        "seed": args.seed,
        "entries": entries,
        "characters": marks,
        "globally_generated": gg,
    }
    if args.svg:
        segments = ()
        if args.wall is not None:
            ws = walls(doc.fan)
            if not 0 <= args.wall < len(ws):
                raise SchemaError([("--wall", f"wall index out of range 0..{len(ws) - 1}")])
            segments = restrict_to_curve(doc.bundle, ws[args.wall]).segments
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(parl, SvgOptions(wall_segments=segments)))
    if args.format == "json":
        out.write(dumps_report(payload))
        return
    for e in entries:
        out.write(
            f"e{e['index']}: bounds ({', '.join(str(c) for c in e['bounds'])})"
            + (f" [summand {e['summand']}]" if e["summand"] is not None else "")
            + "\n"
        )
        out.write(f"  vertices: {e['vertices']}\n")
        out.write(f"  lattice points: {e['lattice_points']}\n")
    for m in marks:
        label = f"e{m['entry']}" if m["entry"] is not None else f"flat {m['flat']}"
        out.write(f"cone {m['cone']}: character {m['character']} -> {label}\n")
    out.write(f"globally generated: {'yes' if gg else 'no'}\n")


def _cmd_flats(args, doc, out):
    gs = bundle_ground_set(doc.bundle)
    flats = enumerate_flats(gs)
    full_rank = doc.bundle.rank
    payload_flats = []
    for flat in flats:
        trivial = flat.rank == 0 or flat.rank == full_rank
        compatible, _ = is_compatible_flat(doc.bundle, flat)
        payload_flats.append(
            {
                "indices": list(flat.indices),
                "rank": flat.rank,
                "compatible": compatible,
                "trivial": trivial,
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "flats",
        "seed": args.seed,
        "ground_set": [
            [format_rational(x) for x in v] for v in gs.vectors
        ],
        "flats": payload_flats,
    }
    if args.format == "json":
        out.write(dumps_report(payload))
        return
    out.write(f"ground set: {len(gs.vectors)} elements\n")
    for f in payload_flats:
        mark = "compatible" if f["compatible"] else "not compatible"
        extra = " (trivial)" if f["trivial"] else ""
        out.write(f"flat {f['indices']} rank {f['rank']}: {mark}{extra}\n")


def _cmd_restrict(args, doc, out):
    ws = walls(doc.fan)
    if not 0 <= args.wall < len(ws):
        raise SchemaError([("--wall", f"wall index out of range 0..{len(ws) - 1}")])
    wall = ws[args.wall]
    report = restrict_to_curve(doc.bundle, wall)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "restrict",
        "seed": args.seed,
        "wall": {
            "index": args.wall,
            "tau": list(wall.tau),
            "cones": [list(doc.fan.max_cones[wall.sigma]),
                      list(doc.fan.max_cones[wall.sigma_prime])],
        },
        "degrees": list(report.degrees),
        "semistable": report.semistable,
        "segments": [
            {
                "from": list(s.character_sigma),
                "to": list(s.character_sigma_prime),
                "degree": s.degree,
                "entry": s.entry_sigma,
            }
            for s in report.segments
        ],
    }
    if args.format == "json":
        out.write(dumps_report(payload))
        return
    verdict = "semistable" if report.semistable else "NOT semistable"
    out.write(f"degrees: {list(report.degrees)}; restriction {verdict}\n")
    for s in payload["segments"]:
        out.write(
            f"  {s['from']} -> {s['to']}: degree {s['degree']}"
            + (f" (e{s['entry']})" if s["entry"] is not None else "")
            + "\n"
        )


def _cmd_weights(args, doc, out):
    errors = []
    coeffs = []
    for i, part in enumerate(args.divisor.split(",")):
        v = parse_rational(part.strip(), f"--divisor[{i}]", errors)
        if v is not None:
            coeffs.append(v)
    if errors:
        raise SchemaError(errors)
    if len(coeffs) != len(doc.fan.rays):
        raise SchemaError(
            [("--divisor", f"expected {len(doc.fan.rays)} coefficients, got {len(coeffs)}")]
        )
    pol = weights_from_divisor(doc.fan, coeffs)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "weights",
        "divisor": [format_rational(c) for c in coeffs],
        "weights": [format_rational(t) for t in pol.weights],
    }
    if args.format == "json":
        out.write(dumps_report(payload))
        return
    out.write("(" + ", ".join(str(format_rational(t)) for t in pol.weights) + ")\n")


def _cmd_reconstruct(args, doc, out):
    parl = parliament(doc.bundle)
    recovered = reconstruct_filtrations(parl, doc.fan, doc.bundle.rank)
    matches = [rec == orig for rec, orig in zip(recovered, doc.bundle.filtrations)]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "reconstruct",
        "seed": args.seed,
        "per_ray_match": matches,
        "match": all(matches),
    }
    if args.format == "json":
        out.write(dumps_report(payload))
        return
    for i, ok in enumerate(matches):
        out.write(f"ray {i}: {'recovered' if ok else 'MISMATCH'}\n")
    out.write("round-trip: " + ("exact" if all(matches) else "FAILED") + "\n")


def _cmd_validate(args, doc, out):
    report = validate_fan(doc.fan)
    sheet = check_compatibility(doc.bundle)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "validate",
        "fan": {
            "passed": report.passed,
            "smooth": report.smooth,
            "walls_paired": report.walls_paired,
            "positively_spanning": report.positively_spanning,
            "dual_graph_connected": report.dual_graph_connected,
        },
        "compatible": True,
        "characters": {
            str(list(doc.fan.max_cones[ci])): [list(c) for c in sheet.characters(ci)]
            for ci in range(len(doc.fan.max_cones))
        },
    }
    if args.format == "json":
        out.write(dumps_report(payload))
        return
    out.write(report.summary() + "\n")
    out.write("compatibility: OK\n")
    for ci in range(len(doc.fan.max_cones)):
        out.write(
            f"u({list(doc.fan.max_cones[ci])}) = "
            f"{[list(c) for c in sheet.characters(ci)]}\n"
        )


_COMMANDS = {
    "check": _cmd_check,
    "parliament": _cmd_parliament,
    "flats": _cmd_flats,
    "restrict": _cmd_restrict,
    "weights": _cmd_weights,
    "reconstruct": _cmd_reconstruct,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        doc = load_document(args.document)
    except OSError as exc:
        print(f"cannot read {args.document}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SchemaError as exc:
        for path, message in exc.errors:
            print(f"{path}: {message}", file=sys.stderr)
        return EXIT_INVALID
    try:
        if args.trace:
            _trace(doc)
        _COMMANDS[args.command](args, doc, sys.stdout)
    except SchemaError as exc:
        for path, message in exc.errors:
            print(f"{path}: {message}", file=sys.stderr)
        return EXIT_INVALID
    except (PolarizationError, FanError, NotGloballyGeneratedError, ValueError) as exc:
        if isinstance(exc, IncompatibleBundleError):
            print(f"incompatible bundle: {exc}", file=sys.stderr)
            return EXIT_INCOMPATIBLE
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except VerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

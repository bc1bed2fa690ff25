"""Command-line interface.

Subcommands: check, parliament, flats, restrict, weights, reconstruct,
validate. Each `_cmd_*` returns its JSON payload, without the
schema_version and command keys, and its text lines, read from that payload.
`main` alone writes stdout: the payload with the two keys, or the lines. It
alone maps exceptions to exit codes: 0 computed, 1 invalid input (an
unreadable or malformed document, or any other ValueError), 2 incompatible
bundle, 3 internal verification failure. Diagnostics go to stderr; json
output is byte-deterministic for fixed input and flags.
"""
from __future__ import annotations

import argparse
import sys

from .bundle import IncompatibleBundleError, check_compatibility
from .fan import validate_fan, walls
from .linalg import rational_row
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
from .parliament import is_globally_generated, parliament, reconstruct_filtrations
from .stability import (
    PolarizationError,
    VerificationError,
    check_stability,
    restrict_to_curve,
    weights_from_divisor,
)
from .svg import render_svg

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

    def common(p):
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


_PARSER = _build_parser()


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
                f"line {tuple(str(x) for x in rational_row(row.row))}",
                file=out,
            )


def _require_polarization(doc):
    pol = doc.polarization()
    if pol is None:
        raise PolarizationError(
            "this command needs a polarization block (weights or divisor)"
        )
    return pol


def _wall(fan, index):
    """The wall with the given --wall index, or a SchemaError."""
    ws = walls(fan)
    if not 0 <= index < len(ws):
        raise SchemaError([("--wall", f"wall index out of range 0..{len(ws) - 1}")])
    return ws[index]


def _cmd_check(args, doc):
    report = check_stability(doc.bundle, _require_polarization(doc))
    mu = format_rational(report.mu)
    payload = {"seed": args.seed, "mu": mu, "semistable": report.semistable}
    if args.semistable_only:
        verdict = "SEMISTABLE" if report.semistable else "NOT SEMISTABLE"
        return payload, [f"{verdict}, mu(E) = {mu}"]
    flats = [
        {
            "indices": list(fs.flat.indices),
            "rank": fs.flat.rank,
            "slope": format_rational(fs.slope),
            "relation": fs.relation.value,
        }
        for fs in report.flat_slopes
    ]
    witness = None if report.witness is None else {
        "indices": list(report.witness.indices),
        "rank": report.witness.rank,
        "slope": format_rational(report.witness_slope),
    }
    payload.update(stable=report.stable, flats=flats, witness=witness)
    verdict = (
        "STABLE"
        if report.stable
        else ("SEMISTABLE (not stable)" if report.semistable else "UNSTABLE")
    )
    line = f"{verdict}, mu(E) = {mu}"
    if witness is not None:
        line += f", max flat slope {witness['slope']} at flat {witness['indices']}"
    return payload, [line] + [
        f"  flat {f['indices']} (rank {f['rank']}): slope {f['slope']} {f['relation']} mu"
        for f in flats
    ]


def _cmd_parliament(args, doc):
    wall = None if args.wall is None else _wall(doc.fan, args.wall)
    parl = parliament(doc.bundle)
    gg = is_globally_generated(doc.bundle)
    entries = [
        {
            "index": e.index,
            "vector": [format_rational(x) for x in e.vector],
            "bounds": [format_rational(c) for c in e.polytope.bounds],
            "vertices": [
                [format_rational(x) for x in v] for v in e.polytope.vertices()
            ],
            "lattice_points": [list(p) for p in e.polytope.lattice_points()],
            "summand": None,  # schema v1 keeps the field; nothing fills it
        }
        for e in parl.entries
    ]
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
        "seed": args.seed,
        "entries": entries,
        "characters": marks,
        "globally_generated": gg,
    }
    if args.svg:
        segments = ()
        if wall is not None:
            segments = restrict_to_curve(doc.bundle, wall).segments
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_svg(parl, segments))
        except OSError as exc:
            raise SchemaError(
                [("--svg", f"cannot write {args.svg}: {exc.strerror}")]
            ) from exc
    lines = []
    for e in entries:
        lines += [
            f"e{e['index']}: bounds ({', '.join(str(c) for c in e['bounds'])})",
            f"  vertices: {e['vertices']}",
            f"  lattice points: {e['lattice_points']}",
        ]
    for m in marks:
        label = f"e{m['entry']}" if m["entry"] is not None else f"flat {m['flat']}"
        lines.append(f"cone {m['cone']}: character {m['character']} -> {label}")
    lines.append(f"globally generated: {'yes' if gg else 'no'}")
    return payload, lines


def _cmd_flats(args, doc):
    gs = bundle_ground_set(doc.bundle)
    flats = []
    for flat in enumerate_flats(gs):
        flats.append(
            {
                "indices": list(flat.indices),
                "rank": flat.rank,
                "compatible": is_compatible_flat(doc.bundle, flat),
                "trivial": flat.rank in (0, doc.bundle.rank),
            }
        )
    payload = {
        "seed": args.seed,
        "ground_set": [[format_rational(x) for x in v] for v in gs.vectors],
        "flats": flats,
    }
    return payload, [f"ground set: {len(gs)} elements"] + [
        f"flat {f['indices']} rank {f['rank']}: "
        f"{'compatible' if f['compatible'] else 'not compatible'}"
        f"{' (trivial)' if f['trivial'] else ''}"
        for f in flats
    ]


def _cmd_restrict(args, doc):
    wall = _wall(doc.fan, args.wall)
    report = restrict_to_curve(doc.bundle, wall)
    segments = [
        {
            "from": list(s.character_sigma),
            "to": list(s.character_sigma_prime),
            "degree": s.degree,
            "entry": s.entry_sigma,
        }
        for s in report.segments
    ]
    payload = {
        "seed": args.seed,
        "wall": {
            "index": args.wall,
            "tau": list(wall.tau),
            "cones": [list(doc.fan.max_cones[wall.sigma]),
                      list(doc.fan.max_cones[wall.sigma_prime])],
        },
        "degrees": list(report.degrees),
        "semistable": report.semistable,
        "segments": segments,
    }
    verdict = "semistable" if report.semistable else "NOT semistable"
    return payload, [f"degrees: {payload['degrees']}; restriction {verdict}"] + [
        f"  {s['from']} -> {s['to']}: degree {s['degree']}"
        + (f" (e{s['entry']})" if s["entry"] is not None else "")
        for s in segments
    ]


def _cmd_weights(args, doc):
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
    weights = [format_rational(t) for t in weights_from_divisor(doc.fan, coeffs).weights]
    payload = {"divisor": [format_rational(c) for c in coeffs], "weights": weights}
    return payload, ["(" + ", ".join(str(t) for t in weights) + ")"]


def _cmd_reconstruct(args, doc):
    parl = parliament(doc.bundle)
    recovered = reconstruct_filtrations(parl, doc.fan, doc.bundle.rank)
    matches = [rec == orig for rec, orig in zip(recovered, doc.bundle.filtrations)]
    payload = {"seed": args.seed, "per_ray_match": matches, "match": all(matches)}
    return payload, [
        f"ray {i}: {'recovered' if ok else 'MISMATCH'}" for i, ok in enumerate(matches)
    ] + ["round-trip: " + ("exact" if all(matches) else "FAILED")]


def _cmd_validate(args, doc):
    report = validate_fan(doc.fan)
    sheet = check_compatibility(doc.bundle)
    characters = {
        str(list(cone)): [list(c) for c in sheet.characters(ci)]
        for ci, cone in enumerate(doc.fan.max_cones)
    }
    payload = {
        "fan": {
            "passed": report.passed,
            "smooth": report.smooth,
            "walls_paired": report.walls_paired,
            "positively_spanning": report.positively_spanning,
            "dual_graph_connected": report.dual_graph_connected,
        },
        "compatible": True,
        "characters": characters,
    }
    return payload, [report.summary(), "compatibility: OK"] + [
        f"u({cone}) = {chars}" for cone, chars in characters.items()
    ]


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
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        doc = load_document(args.document)
        if args.trace:
            _trace(doc)
        payload, lines = _COMMANDS[args.command](args, doc)
    except OSError as exc:
        print(f"cannot read {args.document}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SchemaError as exc:
        for path, message in exc.errors:
            print(f"{path}: {message}", file=sys.stderr)
        return EXIT_INVALID
    except IncompatibleBundleError as exc:
        print(f"incompatible bundle: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except VerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    if args.format == "json":
        header = {"schema_version": SCHEMA_VERSION, "command": args.command}
        sys.stdout.write(dumps_report({**header, **payload}))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

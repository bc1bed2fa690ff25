"""JSON input documents and report serialization.

One input format: a JSON document with a fan block, a bundle block of
per-ray filtrations, and an optional polarization block. Rationals travel as
integers or "p/q" strings; floats are rejected everywhere. Parsing is total:
malformed input yields a SchemaError carrying (path, message) pairs, and a
file that is not UTF-8, JSON nested past the recursion limit or an integer
past Python's digit limit yields one at "$".
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .bundle import Filtration, ToricBundle
from .fan import Fan, FanError
from .linalg import Subspace, span
from .stability import Polarization, validate_polarization, weights_from_divisor

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        msg = "; ".join(f"{path}: {message}" for path, message in self.errors)
        super().__init__(msg or "invalid document")


@dataclass(frozen=True)
class BundleDocument:
    fan: Fan
    bundle: ToricBundle
    weights: tuple[Fraction, ...] | None
    divisor: tuple[Fraction, ...] | None

    def polarization(self) -> Polarization | None:
        if self.weights is not None:
            return validate_polarization(self.fan, self.weights)
        if self.divisor is not None:
            return weights_from_divisor(self.fan, self.divisor)
        return None


def parse_rational(value, path, errors) -> Fraction | None:
    if isinstance(value, bool):
        errors.append((path, "expected a rational, got a boolean"))
        return None
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        errors.append((path, "floating point numbers are not accepted; use \"p/q\""))
        return None
    if isinstance(value, str):
        parts = value.split("/")
        try:
            if len(parts) == 1:
                return Fraction(int(parts[0]))
            if len(parts) == 2:
                num, den = int(parts[0]), int(parts[1])
                if den == 0:
                    errors.append((path, "zero denominator"))
                    return None
                return Fraction(num, den)
        except ValueError:
            pass
        errors.append((path, f"cannot read {value!r} as a rational"))
        return None
    errors.append((path, f"expected a rational, got {type(value).__name__}"))
    return None


def format_rational(x) -> int | str:
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _expect_dict(value, path, errors, allowed):
    if not isinstance(value, dict):
        errors.append((path, f"expected an object, got {type(value).__name__}"))
        return None
    for key in value:
        if key not in allowed:
            errors.append((f"{path}.{key}", "unknown field"))
    return value


def _expect_list(value, path, errors):
    if not isinstance(value, list):
        errors.append((path, f"expected a list, got {type(value).__name__}"))
        return None
    return value


def _expect_int(value, path, errors) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append((path, f"expected an integer, got {type(value).__name__}"))
        return None
    return value


def _parse_vector(value, path, errors, parse, length=None):
    """A list of elements read by `parse` (`_expect_int` or `parse_rational`)."""
    lst = _expect_list(value, path, errors)
    if lst is None:
        return None
    out = []
    for i, x in enumerate(lst):
        v = parse(x, f"{path}[{i}]", errors)
        if v is None:
            return None
        out.append(v)
    if length is not None and len(out) != length:
        errors.append((path, f"expected length {length}, got {len(out)}"))
        return None
    return tuple(out)


def _parse_space(value, path, errors, rank) -> Subspace | None:
    if value == "full":
        return Subspace.full(rank)
    lst = _expect_list(value, path, errors)
    if lst is None:
        return None
    rows = []
    for i, row in enumerate(lst):
        v = _parse_vector(row, f"{path}[{i}]", errors, parse_rational, length=rank)
        if v is None:
            return None
        rows.append(v)
    return span(rows, rank)


def parse_document(text: str) -> BundleDocument:
    errors: list[tuple[str, str]] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([("$", f"not valid JSON: {exc.msg} (line {exc.lineno})")])
    except RecursionError:
        raise SchemaError([("$", "not valid JSON: nested too deeply")]) from None
    except ValueError:  # Python's limit on the digits of an int
        raise SchemaError([("$", "not valid JSON: an integer has too many digits")]) from None
    doc = _expect_dict(raw, "$", errors,
                       {"schema_version", "fan", "bundle", "polarization"})
    if doc is None:
        raise SchemaError(errors)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(("$.schema_version", f"expected {SCHEMA_VERSION}, got {version!r}"))

    fan = None
    fan_block = _expect_dict(doc.get("fan"), "$.fan", errors, {"dim", "rays", "max_cones"})
    if fan_block is not None:
        dim = _expect_int(fan_block.get("dim"), "$.fan.dim", errors)
        rays = []
        rays_raw = _expect_list(fan_block.get("rays"), "$.fan.rays", errors)
        if rays_raw is not None and dim is not None:
            for i, r in enumerate(rays_raw):
                v = _parse_vector(r, f"$.fan.rays[{i}]", errors, _expect_int, length=dim)
                if v is not None:
                    rays.append(v)
        cones = []
        cones_raw = _expect_list(fan_block.get("max_cones"), "$.fan.max_cones", errors)
        if cones_raw is not None and dim is not None:
            for i, c in enumerate(cones_raw):
                v = _parse_vector(c, f"$.fan.max_cones[{i}]", errors, _expect_int,
                                  length=dim)
                if v is not None:
                    cones.append(v)
        if not errors:
            try:
                fan = Fan(dim, rays, cones)
            except FanError as exc:
                errors.append(("$.fan", str(exc)))

    bundle = None
    bundle_block = _expect_dict(doc.get("bundle"), "$.bundle", errors, {"rank", "filtrations"})
    if bundle_block is not None and fan is not None:
        rank = _expect_int(bundle_block.get("rank"), "$.bundle.rank", errors)
        filts = []
        filts_raw = _expect_list(bundle_block.get("filtrations"), "$.bundle.filtrations", errors)
        if filts_raw is not None and rank is not None:
            if len(filts_raw) != len(fan.rays):
                errors.append((
                    "$.bundle.filtrations",
                    f"expected one filtration per ray ({len(fan.rays)}), got {len(filts_raw)}",
                ))
            for i, fblock in enumerate(filts_raw):
                fpath = f"$.bundle.filtrations[{i}]"
                fdict = _expect_dict(fblock, fpath, errors, {"steps"})
                if fdict is None:
                    continue
                steps_raw = _expect_list(fdict.get("steps"), f"{fpath}.steps", errors)
                if steps_raw is None:
                    continue
                steps = []
                broken = False
                for k, sblock in enumerate(steps_raw):
                    spath = f"{fpath}.steps[{k}]"
                    sdict = _expect_dict(sblock, spath, errors, {"max_j", "space"})
                    if sdict is None:
                        broken = True
                        continue
                    j = _expect_int(sdict.get("max_j"), f"{spath}.max_j", errors)
                    sp = _parse_space(sdict.get("space"), f"{spath}.space", errors, rank)
                    if j is None or sp is None:
                        broken = True
                        continue
                    steps.append((j, sp))
                if broken:
                    continue
                try:
                    filts.append(Filtration(rank, steps))
                except ValueError as exc:
                    errors.append((f"{fpath}.steps", str(exc)))
        if not errors:
            try:
                bundle = ToricBundle(fan, rank, filts)
            except (ValueError, FanError) as exc:
                errors.append(("$.bundle", str(exc)))

    weights = divisor = None
    if "polarization" in doc:
        pol_block = _expect_dict(doc.get("polarization"), "$.polarization", errors,
                                 {"weights", "divisor"})
        if pol_block is not None:
            if "weights" in pol_block and "divisor" in pol_block:
                errors.append(("$.polarization", "give either weights or divisor, not both"))
            elif "weights" in pol_block and fan is not None:
                weights = _parse_vector(
                    pol_block["weights"], "$.polarization.weights", errors,
                    parse_rational, length=len(fan.rays),
                )
            elif "divisor" in pol_block and fan is not None:
                divisor = _parse_vector(
                    pol_block["divisor"], "$.polarization.divisor", errors,
                    parse_rational, length=len(fan.rays),
                )
            elif fan is not None:
                errors.append(("$.polarization", "needs weights or divisor"))

    if errors:
        raise SchemaError(errors)
    assert fan is not None and bundle is not None
    return BundleDocument(fan=fan, bundle=bundle, weights=weights, divisor=divisor)


def load_document(path) -> BundleDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise SchemaError(
                [("$", f"not UTF-8 text (byte 0x{byte:02x}: {exc.reason})")]
            ) from None
    return parse_document(text)


def dumps_report(report: dict) -> str:
    """Deterministic JSON serialization for reports."""
    return json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1) + "\n"

import contextlib
import io
import json
from pathlib import Path

import pytest

from toricbundles.cli import main
from toricbundles.io import SchemaError, dumps_report, format_rational, parse_document

from conftest import FIXTURE_DIR, FIXTURE_NAMES, fixture_path


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def test_fixture_documents_parse(documents):
    for name, doc in documents.items():
        assert doc.bundle.rank >= 1
        assert len(doc.bundle.filtrations) == len(doc.fan.rays)


def test_parse_rejects_unknown_fields():
    text = fixture_path("p2_line_d0").read_text()
    raw = json.loads(text)
    raw["bundle"]["surprise"] = 1
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(raw))
    assert any("surprise" in path for path, _ in err.value.errors)


def test_parse_rejects_zero_denominator():
    raw = json.loads(fixture_path("p2_line_d0").read_text())
    raw["polarization"] = {"weights": ["1/0", 1, 1]}
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(raw))
    assert any("denominator" in msg for _, msg in err.value.errors)
    assert any("weights[0]" in path for path, _ in err.value.errors)


def test_parse_rejects_floats():
    raw = json.loads(fixture_path("p2_line_d0").read_text())
    raw["polarization"] = {"weights": [1.5, 1, 1]}
    with pytest.raises(SchemaError):
        parse_document(json.dumps(raw))


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(raw):
        for step in path:
            raw = raw[step]
        raw[key] = value
    return edit


@pytest.mark.parametrize("edit, errors", [
    (_set("fan", "rays", 1, [1, "0"]),
     [("$.fan.rays[1][1]", "expected an integer, got str")]),
    (_set("fan", "max_cones", 2, [1, True]),
     [("$.fan.max_cones[2][1]", "expected an integer, got bool")]),
    (_set("polarization", "weights", [1, 1.0, 1]),
     [("$.polarization.weights[1]", 'floating point numbers are not accepted; use "p/q"')]),
    (_set("fan", "rays", 0, [-1, -1, 0]),
     [("$.fan.rays[0]", "expected length 2, got 3")]),
    (_set("polarization", "weights", [1, 1]),
     [("$.polarization.weights", "expected length 3, got 2")]),
    (_set("bundle", "filtrations", 1, "steps", 1, "space", [[1, 0, 0]]),
     [("$.bundle.filtrations[1].steps[1].space[0]", "expected length 2, got 3")]),
], ids=["str-in-ray", "bool-in-cone", "float-in-weights", "ray-length", "weights-length",
        "space-row-length"])
def test_parse_vector_errors(edit, errors):
    raw = json.loads(fixture_path("p2_tangent").read_text())
    edit(raw)
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(raw))
    assert err.value.errors == errors


def test_parse_rejects_non_increasing_thresholds():
    raw = json.loads(fixture_path("p2_tangent").read_text())
    steps = raw["bundle"]["filtrations"][0]["steps"]
    steps[1]["max_j"] = steps[0]["max_j"]
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(raw))
    assert any("filtrations[0].steps" in path for path, _ in err.value.errors)


def test_parse_rejects_non_primitive_ray():
    raw = json.loads(fixture_path("p2_tangent").read_text())
    raw["fan"]["rays"][1] = [2, 0]
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(raw))
    assert any("primitive" in msg for _, msg in err.value.errors)


def test_parse_is_total_on_garbage():
    with pytest.raises(SchemaError):
        parse_document("not json at all {{{")
    with pytest.raises(SchemaError):
        parse_document(json.dumps([1, 2, 3]))


def test_cli_check_text(p2_tangent):
    code, out, err = run_cli(["check", fixture_path("p2_tangent")])
    assert code == 0
    assert "STABLE" in out and "3/2" in out and "max flat slope 1" in out


def test_cli_check_semistable_only():
    code, out, _ = run_cli(
        ["check", fixture_path("p2_sum_three"), "--semistable-only"]
    )
    assert code == 0
    assert out.startswith("SEMISTABLE")


CHECK_TEXT_GOLDEN = Path(__file__).resolve().parent / "check_text.golden"


def check_text_transcript():
    """Text-format `check` and `check --semistable-only` on every fixture,
    each output under a `$ ...` line naming its command."""
    blocks = []
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        for extra in ([], ["--semistable-only"]):
            args = ["check", f"fixtures/{path.name}", *extra]
            code, out, err = run_cli(["check", path, *extra])
            assert (code, err) == (0, ""), args
            blocks.append(f"$ toricbundles {' '.join(args)}\n{out}")
    return "".join(blocks)


def test_cli_check_text_matches_the_golden_transcript():
    assert check_text_transcript().encode() == CHECK_TEXT_GOLDEN.read_bytes()


def test_cli_check_json_round_trips():
    code, out, _ = run_cli(
        ["check", fixture_path("blp2_sum"), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["mu"] == 5
    assert payload["semistable"] is True and payload["stable"] is False


def test_cli_json_contains_no_floats():
    for name in FIXTURE_NAMES:
        code, out, _ = run_cli(["check", fixture_path(name), "--format", "json"])
        assert code == 0

        def walk(x):
            if isinstance(x, float):
                raise AssertionError(f"float {x} in report for {name}")
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            if isinstance(x, list):
                for v in x:
                    walk(v)

        walk(json.loads(out))


def test_cli_restrict(blp2_sum):
    code, out, _ = run_cli(["restrict", fixture_path("blp2_sum"), "--wall", "0"])
    assert code == 0
    assert "degrees: [1, 2]" in out
    assert "NOT semistable" in out


def test_cli_restrict_bad_wall_index():
    code, _, err = run_cli(["restrict", fixture_path("blp2_sum"), "--wall", "9"])
    assert code == 1
    assert "out of range" in err


def test_cli_weights():
    code, out, _ = run_cli(
        ["weights", fixture_path("p2_tangent"), "--divisor", "1,0,0"]
    )
    assert code == 0
    assert out.strip() == "(1, 1, 1)"
    code, out, _ = run_cli(
        ["weights", fixture_path("blp2_sum"), "--divisor", "0,2,0,-1"]
    )
    assert code == 0
    assert out.strip() == "(1, 2, 1, 1)"


def test_cli_weights_rejects_bad_divisor():
    code, _, err = run_cli(
        ["weights", fixture_path("p2_tangent"), "--divisor", "1,0"]
    )
    assert code == 1


def test_cli_parliament_and_svg(tmp_path):
    svg_path = tmp_path / "parl.svg"
    code, out, _ = run_cli(
        ["parliament", fixture_path("p2_tangent"), "--svg", svg_path]
    )
    assert code == 0
    assert "globally generated: yes" in out
    text = svg_path.read_text()
    assert text.startswith("<?xml")
    assert text.count("<polygon") >= 3

    # byte-identical rendering across runs
    svg2 = tmp_path / "parl2.svg"
    run_cli(["parliament", fixture_path("p2_tangent"), "--svg", svg2])
    assert svg2.read_text() == text


def test_cli_parliament_svg_with_wall_overlay(tmp_path):
    svg_path = tmp_path / "overlay.svg"
    code, _, _ = run_cli(
        ["parliament", fixture_path("blp2_sum"), "--svg", svg_path, "--wall", "0"]
    )
    assert code == 0
    assert 'class="seg"' in svg_path.read_text()


def test_cli_parliament_rejects_bad_wall_index_without_svg():
    # --wall is range-checked whether or not --svg asks for the overlay
    code, out, err = run_cli(
        ["parliament", fixture_path("p2_tangent"), "--wall", "99", "--format", "json"]
    )
    assert code == 1
    assert out == ""
    _, _, restrict_err = run_cli(["restrict", fixture_path("p2_tangent"), "--wall", "99"])
    assert "wall index out of range" in err
    assert err == restrict_err


def test_cli_parliament_svg_unwritable_path(tmp_path):
    svg_path = tmp_path / "missing" / "parl.svg"
    code, out, err = run_cli(
        ["parliament", fixture_path("p2_tangent"), "--svg", svg_path]
    )
    assert code == 1
    assert out == ""
    assert err == f"--svg: cannot write {svg_path}: No such file or directory\n"


def test_cli_p4_tangent_with_divisor_polarization():
    code, out, _ = run_cli(["check", fixture_path("p4_tangent")])
    assert code == 0
    assert out.startswith("STABLE, mu(E) = 5/4")
    code, out, _ = run_cli(
        ["weights", fixture_path("p4_tangent"), "--divisor=1,0,0,0,0"]
    )
    assert code == 0
    assert out == "(1, 1, 1, 1, 1)\n"


def _record_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends each call's arguments."""
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def _cone_walks(monkeypatch):
    from toricbundles import bundle

    return _record_calls(monkeypatch, bundle, "_profile_multiplicities")


def test_cli_flats(documents, monkeypatch):
    walks = _cone_walks(monkeypatch)
    code, out, _ = run_cli(["flats", fixture_path("p2_tangent")])
    assert code == 0
    assert out.count("not compatible") == 3
    # each cone is walked once per bundle, not once per flat
    assert len(walks) == len({tuple(filts) for (filts,) in walks}) == 3


def test_cli_flats_walks_each_cone_of_p3_once(monkeypatch):
    walks = _cone_walks(monkeypatch)
    code, _, _ = run_cli(["flats", fixture_path("p3_tangent")])
    assert code == 0
    assert len(walks) == 4


# Eliminations (`linalg._echelon`) that check_compatibility makes on a fresh
# p3_tangent bundle. Each of the 4 cones walks its intersections, splits by
# adjoining residuals and inverts its ray matrix once; eliminating afresh for
# every sum, intersection and character made 76.
P3_TANGENT_ELIMINATIONS = 30


def test_check_compatibility_on_p3_makes_few_eliminations(monkeypatch):
    import subspace_reference
    from toricbundles import check_compatibility, linalg, load_document

    bundle = load_document(fixture_path("p3_tangent")).bundle
    eliminations = []
    checking = []
    echelon, verify = linalg._echelon, subspace_reference.verify_cone_split

    def counted(*args):
        if not checking:
            eliminations.append(args)
        return echelon(*args)

    def verify_uncounted(*args):
        # the session's sum-condition check on each split still runs; its
        # own eliminations are not the package's
        checking.append(True)
        try:
            return verify(*args)
        finally:
            checking.pop()

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(subspace_reference, "verify_cone_split", verify_uncounted)
    check_compatibility(bundle)
    assert len(eliminations) <= P3_TANGENT_ELIMINATIONS


def test_cli_parliament_with_wall_reuses_the_bundle_analysis(tmp_path, monkeypatch):
    from toricbundles import matroid

    walks = _cone_walks(monkeypatch)
    lattices = _record_calls(monkeypatch, matroid, "build_lattice")
    code, _, _ = run_cli(["parliament", fixture_path("p2_tangent"),
                          "--svg", tmp_path / "p2.svg", "--wall", 0])
    assert code == 0
    # parliament, the global-generation check and the wall restriction
    # share one compatibility split and one ground set
    assert len(walks) == 3
    assert len(lattices) == 1


def test_cli_reconstruct():
    code, out, _ = run_cli(["reconstruct", fixture_path("p2_rank3")])
    assert code == 0
    assert "round-trip: exact" in out
    code, _, err = run_cli(["reconstruct", fixture_path("hirzebruch_h2_tangent")])
    assert code == 1


def test_cli_validate():
    code, out, _ = run_cli(["validate", fixture_path("p3_tangent")])
    assert code == 0
    assert "overall: PASS" in out and "compatibility: OK" in out


def test_cli_validate_reports_characters_json():
    code, out, _ = run_cli(
        ["validate", fixture_path("p2_tangent"), "--format", "json"]
    )
    payload = json.loads(out)
    assert payload["compatible"] is True
    assert payload["characters"]["[1, 2]"] == [[0, 1], [1, 0]]


def test_cli_exit_code_invalid_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, err = run_cli(["check", bad])
    assert code == 1
    assert err


def test_cli_exit_code_missing_file():
    code, _, err = run_cli(["check", "/no/such/file.json"])
    assert code == 1


def test_cli_exit_code_incompatible(tmp_path):
    doc = {
        "schema_version": 1,
        "fan": {
            "dim": 3,
            "rays": [[-1, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        },
        "bundle": {
            "rank": 2,
            "filtrations": [
                {"steps": [{"max_j": 0, "space": "full"}]},
                {"steps": [{"max_j": 0, "space": "full"}, {"max_j": 1, "space": [[1, 0]]}]},
                {"steps": [{"max_j": 0, "space": "full"}, {"max_j": 1, "space": [[0, 1]]}]},
                {"steps": [{"max_j": 0, "space": "full"}, {"max_j": 1, "space": [[1, 1]]}]},
            ],
        },
        "polarization": {"weights": [1, 1, 1, 1]},
    }
    path = tmp_path / "incompatible.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["check", path])
    assert code == 2
    assert "incompatible" in err.lower()


def test_cli_exit_code_verification_failure(monkeypatch):
    import toricbundles.cli as cli
    from toricbundles.stability import VerificationError

    def boom(*args, **kwargs):
        raise VerificationError("forced pairing failure")

    monkeypatch.setattr(cli, "restrict_to_curve", boom)
    code, _, err = run_cli(["restrict", fixture_path("blp2_sum"), "--wall", "0"])
    assert code == 3
    assert "internal verification failure" in err


def test_cli_trace_goes_to_stderr():
    code, out, err = run_cli(["validate", fixture_path("p2_tangent"), "--trace"])
    assert code == 0
    assert "ground-set trace" in err
    assert "ground-set trace" not in out


def test_check_deterministic_across_runs():
    for name in FIXTURE_NAMES:
        runs = [
            run_cli(["check", fixture_path(name), "--format", "json", "--seed", "7"])
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


def test_format_rational():
    from fractions import Fraction

    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == 2
    assert format_rational(Fraction(-5, 3)) == "-5/3"


def test_dumps_report_sorted_and_stable():
    a = dumps_report({"b": 1, "a": [1, 2]})
    b = dumps_report({"a": [1, 2], "b": 1})
    assert a == b

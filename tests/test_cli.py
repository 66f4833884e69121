import json
from pathlib import Path

import pytest

import coarsehom.cli as cli_module
import coarsehom.homology as homology_module
from coarsehom.cli import main
from coarsehom.linalg import InvariantError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_space(tmp_path, doc, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def z2_doc():
    return {
        "points": ["e", "r"],
        "entourage_generators": [["e", "r"]],
        "group": {"elements": ["e", "r"], "table": [[0, 1], [1, 0]]},
        "action": [[0, 1], [1, 0]],
    }


def test_describe_builtin_point(capsys):
    code, out, err = run_cli(capsys, "describe", "@point")
    assert code == 0
    assert "1 points" in out and "group order 1" in out


def test_run_default_theory_is_hochschild(capsys):
    code, out, err = run_cli(capsys, "run", "@point", "--max-degree", "3")
    assert code == 0
    assert "XHH_0: 1" in out
    assert "XHH_1: 0" in out


def test_run_ordinary_with_integer_coefficients(capsys):
    code, out, err = run_cli(capsys, "run", "@gcanmin:z2", "--theory", "ordinary",
                             "--coeff", "Z", "--max-degree", "2")
    assert code == 0
    assert "XH_0: betti 1 torsion ()" in out
    assert "XH_1: betti 0 torsion (2,)" in out


def test_no_invariant_computes_xh_of_the_underlying_space(capsys):
    # with the group forgotten z2 is one coarse component: no Z/2 in degree 1
    code, out, err = run_cli(capsys, "run", "@gcanmin:z2", "--theory", "ordinary", "--coeff", "Z",
                             "--no-invariant", "--max-degree", "3")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("XH_")] == [
        "XH_0: betti 1 torsion ()", "XH_1: betti 0 torsion ()", "XH_2: betti 0 torsion ()",
    ]
    code, out, err = run_cli(capsys, "run", "@gcanmin:z2", "--theory", "all", "--no-invariant",
                             "--max-degree", "2")
    assert code == 0
    assert "XH_1: betti 0 torsion ()" in out
    assert "XHH_0: 2" in out  # the nerve theories keep the group


@pytest.mark.parametrize("theory", ["ordinary", "hochschild", "trace"])
def test_negative_max_degree_is_bad_input(capsys, theory):
    code, out, err = run_cli(capsys, "run", "@gcanmin:z2", "--theory", theory,
                             "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error at --max-degree: ")


@pytest.mark.parametrize("coeff", ["Q", "Fp:5"])
def test_trace_on_the_empty_space(tmp_path, capsys, coeff):
    doc = {"points": [], "entourage_generators": [],
           "group": {"elements": ["e"], "table": [[0]]}, "action": [[]]}
    code, out, err = run_cli(capsys, "run", write_space(tmp_path, doc), "--theory", "trace",
                             "--coeff", coeff, "--max-degree", "2")
    assert code == 0, err
    assert "result: ok" in out


def test_integer_coefficients_limited_to_ordinary(capsys):
    code, out, err = run_cli(capsys, "run", "@point", "--theory", "cyclic", "--coeff", "Z")
    assert code == 2
    assert "--coeff" in err


def test_run_all_on_the_point(capsys):
    code, out, err = run_cli(capsys, "run", "@point", "--theory", "all", "--max-degree", "2")
    assert code == 0
    for needle in ("XH_0", "XHH_0: 1", "XHC_0: 1", "phi chain map: pass",
                   "section over the point: pass", "result: ok"):
        assert needle in out, out


def test_run_json_output_is_byte_identical(tmp_path, capsys):
    path = write_space(tmp_path, z2_doc())
    code1, out1, _ = run_cli(capsys, "run", path, "--theory", "cyclic", "--format", "json",
                             "--max-degree", "3")
    code2, out2, _ = run_cli(capsys, "run", path, "--theory", "cyclic", "--format", "json",
                             "--max-degree", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["results"]["cyclic"][0] == {"degree": 0, "betti": 2}
    assert doc["results"]["cyclic"][2] == {"degree": 2, "betti": 2}
    assert doc["ok"] is True


def test_out_flag_writes_the_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    path = write_space(tmp_path, z2_doc())
    code, out, err = run_cli(capsys, "run", path, "--theory", "hochschild",
                             "--format", "json", "--out", str(target), "--max-degree", "2")
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["hochschild"][0]["betti"] == 2


def test_unknown_field_is_rejected_with_its_path(tmp_path, capsys):
    doc = z2_doc()
    doc["extra"] = 1
    path = write_space(tmp_path, doc)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 2
    assert "extra" in err


def test_bad_table_entry_reports_the_cell(tmp_path, capsys):
    doc = z2_doc()
    doc["group"]["table"][1][0] = "x"
    path = write_space(tmp_path, doc)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 2
    assert "group.table[1][0]" in err


def test_missing_group_reported(tmp_path, capsys):
    doc = z2_doc()
    del doc["group"]
    path = write_space(tmp_path, doc)
    code, out, err = run_cli(capsys, "describe", path)
    assert code == 2
    assert "group" in err


def test_action_shape_validated(tmp_path, capsys):
    doc = z2_doc()
    doc["action"] = [[0, 1]]
    path = write_space(tmp_path, doc)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 2
    assert "action" in err


def _trivial_doc(points, gens):
    return {"points": points, "entourage_generators": gens,
            "group": {"elements": ["e"], "table": [[0]]}, "action": [list(range(len(points)))]}


def test_generator_entries_are_labels_not_indices(tmp_path, capsys):
    # label 2 is point 0 and label 0 is point 1: the pair relates those two
    path = write_space(tmp_path, _trivial_doc([2, 0, 1], [[2, 0]]))
    code, out, err = run_cli(capsys, "describe", path)
    assert code == 0 and err == ""
    assert "entourage generators: [['2', '0']]" in out


def test_integer_labels_past_the_point_count_resolve(tmp_path, capsys):
    doc = _trivial_doc([5, 7], [[5, 7]])
    doc["bornology_generators"] = [[5, 7]]
    code, out, err = run_cli(capsys, "describe", write_space(tmp_path, doc))
    assert code == 0 and err == ""
    assert "entourage generators: [['5', '7']]" in out


@pytest.mark.parametrize("field, gens, where", [
    ("entourage_generators", [["e", "r"], ["e", ["r"]]], "entourage_generators[1][1]"),
    ("entourage_generators", [[{"x": 0}, "r"]], "entourage_generators[0][0]"),
    ("entourage_generators", [["e", "s"]], "entourage_generators[0][1]"),
    ("bornology_generators", [["e", "r"], [["e"]]], "bornology_generators[1][0]"),
    ("bornology_generators", [["e", 0]], "bornology_generators[0][1]"),
], ids=["list", "object", "unknown", "borno-list", "borno-index"])
def test_a_bad_generator_entry_is_bad_input_with_its_path(tmp_path, capsys, field, gens, where):
    doc = z2_doc()
    doc[field] = gens
    code, out, err = run_cli(capsys, "describe", write_space(tmp_path, doc))
    assert code == 2
    assert where in err and "point label" in err


def test_nonfree_space_rejected_for_nerve_theories(capsys):
    code, out, err = run_cli(capsys, "run", "@gmodh:s3/z3", "--theory", "hochschild")
    assert code == 2
    assert "stabilizer" in err


def test_modular_characteristic_rejected(capsys):
    code, out, err = run_cli(capsys, "run", "@gcanmin:z2", "--theory", "hochschild",
                             "--coeff", "Fp:2")
    assert code == 2
    assert "characteristic" in err


def test_trace_theory_reports_b_image(capsys):
    code, out, err = run_cli(capsys, "run", "@point", "--theory", "trace", "--max-degree", "2")
    assert code == 0
    assert "phi B intertwine: pass" in out
    assert "phi image of B vanishes by degree: [False, True]" in out


def test_axioms_theory_runs_green(capsys):
    code, out, err = run_cli(capsys, "run", "@gcanmin:z3", "--theory", "axioms",
                             "--budget", "1", "--max-degree", "2")
    assert code == 0, out
    assert "u_continuity: pass" in out
    assert "result: ok" in out


def test_internal_identity_failure_is_not_bad_input(monkeypatch, capsys,
                                                   sign_flipped_normalized):
    # z3, not z2: on z2's normalized nerve bB and Bb vanish one by one, so
    # the flipped sign is still a mixed complex there
    monkeypatch.setattr(homology_module, "normalized_mixed_complex", sign_flipped_normalized)
    code, out, err = run_cli(capsys, "run", "@gcanmin:z3", "--max-degree", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and "sign-convention" in err


def test_internal_failure_of_the_dennis_trace_is_not_a_failed_check(monkeypatch, capsys):
    def broken(ctx, m):
        raise InvariantError("phi of the identity class = the dimension chain", 0)

    monkeypatch.setattr(cli_module, "dennis_trace_k0", broken)
    code, out, err = run_cli(capsys, "run", "@point", "--theory", "trace", "--max-degree", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and "dimension chain" in err


def test_unknown_builtin(capsys):
    code, out, err = run_cli(capsys, "run", "@nope")
    assert code == 2
    assert "builtin" in err


def test_missing_file(capsys):
    code, out, err = run_cli(capsys, "run", "does-not-exist.json")
    assert code == 2
    assert "cannot read" in err


GOLDEN = Path(__file__).parent / "data" / "cli"
REPO = Path(__file__).parent.parent
GOLDEN_RUNS = {
    "s3-all-d3": "@gcanmin:s3 --theory all --max-degree 3",
    "z3-cyclic-fp5-d4": "@gcanmin:z3 --theory cyclic --coeff Fp:5 --max-degree 4",
    "point-trace-d3": "@point --theory trace --max-degree 3",
    "s3-trace-d4": "@gcanmin:s3 --theory trace --max-degree 4",
    "s3-trace-fp5-d4": "@gcanmin:s3 --theory trace --coeff Fp:5 --max-degree 4",
    "z2-axioms-b6-seed3-d3": "@gcanmin:z2 --theory axioms --budget 6 --seed 3 --max-degree 3",
    "s3-axioms-b10-seed0-d3": "@gcanmin:s3 --theory axioms --budget 10 --seed 0 --max-degree 3",
    "z4-ordinary-z-d6": "@gcanmin:z4 --theory ordinary --coeff Z --max-degree 6",
    "s3-ordinary-z-d5": "@gcanmin:s3 --theory ordinary --coeff Z --max-degree 5",
    # two orbits: the one golden run whose nerve has more than one object
    "z3-two-orbits-all-d4": "tests/data/spaces/z3-two-orbits.json --theory all --max-degree 4",
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_json_report_matches_its_golden_file(monkeypatch, capsys, name):
    monkeypatch.chdir(REPO)  # the report records a file space by the path it was given
    code, out, err = run_cli(capsys, "run", *GOLDEN_RUNS[name].split(), "--format", "json")
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()

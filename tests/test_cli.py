import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import causalcoh
import causalcoh.cli as cli_module
import causalcoh.verify as verify_module
from causalcoh.calabi import CalabiIndexingError
from causalcoh.cli import main
from causalcoh.complexes import ComplexError, ExactnessError


def run_cli(*args):
    out = io.StringIO()
    code = main(list(args), stdout=out)
    return code, out.getvalue()


def run_json(*args):
    code, text = run_cli(*args)
    return code, json.loads(text)


def test_derham_preset_sphere():
    code, rep = run_json("derham", "--preset", "sphere", "--m", "3", "--n", "4")
    assert code == 0
    assert rep["schema"] == "causalcoh.report/v1"
    table = rep["results"]["table"]
    assert table["sc"] == [1, 0, 0, 1, 0]
    assert table["tc"] == [0, 1, 0, 0, 1]
    assert table["wave_sc"] == [1, 1, 0, 1, 1]
    assert rep["results"]["pairing_audit"]["ok"]
    assert rep["results"]["route_consistency"]["ok"]


def test_derham_entry_triples():
    code, rep = run_json("derham", "--preset", "sphere", "--m", "3", "--n", "4")
    entries = rep["results"]["entries"]
    assert {"support": "sc", "degree": 3, "dim": 1} in entries
    assert {"support": "pc", "degree": 2, "dim": 0} in entries
    assert all(set(e) == {"support", "degree", "dim"} for e in entries)
    assert all(0 <= e["degree"] <= 4 for e in entries)
    assert len(entries) == 8 * 5
    solutions = rep["results"]["solution_entries"]
    assert {"support": "sc", "degree": 0, "dim": 1} in solutions
    assert len(solutions) == 2 * 5


def test_derham_markdown():
    code, text = run_cli("derham", "--preset", "euclidean", "--m", "3", "--n", "4",
                         "--format", "md")
    assert code == 0
    assert "| support |" in text
    assert "| sc | 0 | 0 | 0 | 1 | 0 |" in text


def test_derham_triangulation_file(tmp_path):
    from causalcoh.simplicial import simplex_boundary_facets
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(
        {"vertices": 5, "facets": [list(f) for f in simplex_boundary_facets(4)]}))
    code, rep = run_json("derham", "--triangulation", str(path), "--n", "4")
    assert code == 0
    assert rep["results"]["slice"]["h"] == [1, 0, 0, 1]
    assert rep["results"]["table"]["sc"] == [1, 0, 0, 1, 0]


# SHA-256 of the derham --triangulation stdout for the boundary of the
# 4-simplex and the staircase 3-torus, as the cohomology engine printed it
# before dimensions were computed by ranks: any later change to the
# cohomology path must leave these reports byte-identical.
DERHAM_TRIANGULATION_DIGESTS = {
    ("s3", "json"): "3f4eb2dd62fb2895b6f26242785da3e28c7d6032a4168132ed84cdce13f67d52",
    ("s3", "md"): "4fdd28ca5bebe443f16178860a03418a0b68d7f9556b1c8f8512a450d6a1e175",
    ("t3", "json"): "f6ae049f976cebe933dd53038eee7bf3eb1dfd24fbbdb8e8132475593174bec3",
    ("t3", "md"): "f0d691f512cd42ef4e1ba1c937188d6d10aa0e99868e8beb61a657ef1b0e7207",
}


@pytest.mark.parametrize("name,fmt", sorted(DERHAM_TRIANGULATION_DIGESTS))
def test_derham_triangulation_reports_are_byte_identical(tmp_path, name, fmt):
    from causalcoh.simplicial import simplex_boundary_facets
    from test_cohomology_engine import staircase_torus
    vertices, facets = {"s3": (5, simplex_boundary_facets(4)),
                        "t3": (27, staircase_torus(3, 3))}[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"vertices": vertices, "facets": [list(f) for f in facets]}))
    code, text = run_cli("derham", "--triangulation", str(path), "--n", "4", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == DERHAM_TRIANGULATION_DIGESTS[name, fmt]


def test_derham_input_errors_exit_2():
    code, rep = run_json("derham", "--preset", "sphere", "--m", "7", "--n", "4")
    assert code == 2 and "error" in rep
    code, rep = run_json("derham", "--n", "4")
    assert code == 2 and "error" in rep


def test_derham_rejects_bad_triangulation_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, rep = run_json("derham", "--triangulation", str(path), "--n", "4")
    assert code == 2 and "error" in rep


def test_calabi_backgrounds():
    code, rep = run_json("calabi", "--background", "minkowski4")
    assert code == 0
    assert rep["results"]["table"]["sc"] == [0, 0, 0, 10, 0]
    assert rep["results"]["reference_deviations"] == []
    code, rep = run_json("calabi", "--background", "deSitter4")
    assert code == 0
    assert rep["results"]["table"]["sc"] == [10, 0, 0, 10, 0]
    assert len(rep["results"]["reference_deviations"]) == 2


# SHA-256 of stdout for the calabi tables and the young suite, recorded
# before calabi_table was rebuilt on full_table: the reports must stay
# byte-identical.
REPORT_DIGESTS = {
    ("calabi", "--background", "minkowski4", "--format", "json"):
        "a6de8478e334454610d6ee9d0a57fb4be9d7322f25236131adf8817a2417fd21",
    ("calabi", "--background", "minkowski4", "--format", "md"):
        "ccbc08eefe224a6d771b1b5bd3cad1f267a9bf1a2a46e91ed00c06d36eb66459",
    ("calabi", "--background", "deSitter4", "--format", "json"):
        "b399a3569cd6615423dbc84bafcd0a2c160462f738b22a41ff5d32570b8d0eb2",
    ("calabi", "--background", "deSitter4", "--format", "md"):
        "051e2495bdab21d2f53598f4982fd7e67089d7c0d4da798052ae28036a2b3069",
    ("verify", "--suite", "young"):
        "d6279dceb54ef576a141e827f6f1592f2e26eafe2b84dfb4dec1ca7f0a399036",
    # the calabi-dS4 benchmark job's own commands
    ("verify", "--suite", "calabi", "--background", "deSitter4", "--cases", "2", "--seed", "1"):
        "6cc620e74d70d509b7155c21dab6b4cdd6c8d413979eaab0999e5d4516ba7f63",
    ("killing", "--background", "deSitter4", "--operator", "killing", "--degree", "3"):
        "02322539c56a2925fffd880fa177c9c813bd8cdb46cb4018499640b03aff4a0c",
    ("killing", "--background", "deSitter4", "--operator", "killingYano", "--degree", "4"):
        "f9be0a4ec40df9fa0a6aa9cae9b55f34e5e475d702b4a6b3ad98b0469906c82b",
    # the long exact sequences, induced maps and exactness audits, recorded
    # before the elimination became fraction-free
    ("verify", "--suite", "homology"):
        "c97c5545ce376d7f828637e9779c13aac1ea915e0a193ff102c5b42db5b88303",
    ("verify", "--suite", "homology", "--seed", "7", "--cases", "200"):
        "f52268d27596e8f035f671d55e44cbad9b44f5fade23569c0dcbd62b7d185173",
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
def test_reports_are_byte_identical_to_their_pinned_digests(argv):
    code, text = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[argv]


def test_calabi_table_gate_names_the_degree_and_exits_1(monkeypatch):
    import causalcoh.calabi as calabi_module
    from causalcoh.causal import SpacetimeModel
    from causalcoh.simplicial import CohomologyProfile

    def skewed(background):
        # h_c = (0, 0, 1, 0) is not the dual (0, 0, 0, 1) of h = (1, 0, 0, 0)
        sigma = CohomologyProfile(m=3, h=(1, 0, 0, 0), h_c=(0, 0, 1, 0))
        return SpacetimeModel(n=4, sigma=sigma, label=background)

    monkeypatch.setattr(calabi_module, "_background_model", skewed)
    with pytest.raises(CalabiIndexingError) as exc:
        calabi_module.calabi_table("minkowski4")
    assert "sc/tc pairing fails at p=2: 10 != 0" in str(exc.value)
    assert "sc/tc pairing fails at p=3: 0 != 10" in str(exc.value)
    code, rep = run_json("calabi", "--background", "minkowski4")
    assert code == 1
    assert rep["error_type"] == "CalabiIndexingError"
    assert rep["error"] == str(exc.value)


def test_hook_command():
    code, rep = run_json("hook", "--diagram", "2,2,1", "--n", "4")
    assert code == 0
    assert rep["results"]["rank"] == 20
    code, rep = run_json("hook", "--diagram", "2,2,1,1", "--n", "4")
    assert rep["results"]["rank"] == 6


def test_hook_invalid_diagram():
    code, rep = run_json("hook", "--diagram", "1,2", "--n", "4")
    assert code == 2 and "error" in rep


def test_killing_command():
    code, rep = run_json("killing", "--background", "minkowski4",
                         "--operator", "killing", "--degree", "1")
    assert code == 0 and rep["results"]["dim"] == 10
    code, rep = run_json("killing", "--background", "deSitter4",
                         "--operator", "killing", "--degree", "1")
    assert code == 0
    assert rep["results"]["below_sufficient_degree"] is True


def test_verify_command_young():
    code, rep = run_json("verify", "--suite", "young")
    assert code == 0
    assert rep["results"]["all_passed"] is True


def test_verify_command_homology():
    code, rep = run_json("verify", "--suite", "homology", "--seed", "3", "--cases", "10")
    assert code == 0
    assert rep["results"]["all_passed"] is True
    assert rep["seed"] == 3


def test_verify_command_calabi_small():
    code, rep = run_json("verify", "--suite", "calabi", "--background", "minkowski4",
                         "--seed", "42", "--degree", "2", "--cases", "1")
    assert code == 0
    assert rep["results"]["all_passed"] is True


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_usage_error_leaves_the_parser_reusable():
    argv = ("derham", "--preset", "torus", "--m", "3", "--n", "4", "--format", "md")
    before = run_cli(*argv)
    with pytest.raises(SystemExit) as exc:
        main(["derham", "--n", "four"])
    assert exc.value.code == 2
    assert run_cli(*argv) == run_cli(*argv) == before


def test_verify_failure_exits_1(monkeypatch):
    import causalcoh.cli as cli_mod
    from causalcoh.verify import CheckItem, SuiteReport

    def fake_suite(suite, **kwargs):
        return SuiteReport(suite, 0, {}, (CheckItem("synthetic failure", False),))

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    code, rep = run_json("verify", "--suite", "young")
    assert code == 1
    assert rep["results"]["failures"] == ["synthetic failure"]


def _raise(exc):
    def engine(*args, **kwargs):
        raise exc
    return engine


@pytest.mark.parametrize("module, name, exc, argv", [
    (cli_module, "calabi_table", CalabiIndexingError, ("calabi", "--background", "deSitter4")),
    (verify_module, "long_exact_sequence", ExactnessError,
     ("verify", "--suite", "homology", "--cases", "1")),
    (verify_module, "random_short_exact_seq", ComplexError,
     ("verify", "--suite", "homology", "--cases", "1")),
    (verify_module, "contractibility_check", AssertionError,
     ("verify", "--suite", "homology", "--cases", "4")),
])
def test_internal_invariant_failure_exits_1(monkeypatch, capsys, module, name, exc, argv):
    # a failed engine invariant is the program's fault, not the input's
    monkeypatch.setattr(module, name, _raise(exc("synthetic")))
    code, rep = run_json(*argv)
    assert code == 1
    assert rep == {"schema": "causalcoh.report/v1", "error": "synthetic",
                   "error_type": exc.__name__}
    assert "Traceback" not in capsys.readouterr().err


def test_byte_identical_reports():
    invocations = [
        ("derham", "--preset", "sphere", "--m", "3", "--n", "4"),
        ("derham", "--preset", "torus", "--m", "2", "--n", "3", "--format", "md"),
        ("calabi", "--background", "deSitter4"),
        ("hook", "--diagram", "2,2", "--n", "4"),
        ("killing", "--background", "minkowski4", "--operator", "killingYano",
         "--degree", "1"),
        ("verify", "--suite", "young"),
        ("verify", "--suite", "homology", "--cases", "5"),
    ]
    for args in invocations:
        code1, text1 = run_cli(*args)
        code2, text2 = run_cli(*args)
        assert code1 == code2
        assert text1.encode() == text2.encode(), args


@pytest.mark.parametrize("content", [
    "[1, 2]",
    '{"vertices": 3}',
    '{"facets": "0 1 2"}',
    '{"facets": [0, 1, 2]}',
    '{"facets": [[0, 1], [1, "2"]]}',
    '{"facets": [[0, 1], [1, 2.0]]}',
    '{"facets": [[0, true]]}',
    '{"facets": [[0, 1], [1, 2], [0, 2]], "vertices": 3.5}',
    '{"facets": [[0, 1], [1, 2], [0, 2]], "vertices": -1}',
    '{"facets": [[0, 1], [1, 2], [0, 2]], "vertices": "3"}',
])
def test_derham_rejects_malformed_triangulation(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, rep = run_json("derham", "--triangulation", str(path), "--n", "3")
    assert code == 2
    assert rep["error_type"] == "TriangulationError"


# A disk has a boundary, and the 6-vertex real projective plane is closed
# but not orientable: neither has h_c = h.
@pytest.mark.parametrize("facets, needle", [
    ([[0, 1, 2]], "1-face (0, 1) lies in 1 2-faces: the slice is not a closed manifold"),
    ([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
      [1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5]], "the slice is not oriented"),
], ids=["disk", "rp2"])
def test_derham_refuses_a_slice_that_is_not_closed_and_oriented(tmp_path, facets, needle):
    path = tmp_path / "slice.json"
    path.write_text(json.dumps({"facets": facets}))
    code, rep = run_json("derham", "--triangulation", str(path), "--n", "3")
    assert code == 2
    assert rep["error_type"] == "TriangulationError"
    assert needle in rep["error"]


def test_derham_unreadable_triangulation_exits_2(tmp_path):
    code, rep = run_json("derham", "--triangulation", str(tmp_path / "missing.json"),
                         "--n", "4")
    assert code == 2
    assert rep["error_type"] == "TriangulationError"
    code, rep = run_json("derham", "--triangulation", str(tmp_path), "--n", "4")
    assert code == 2
    assert rep["error_type"] == "TriangulationError"


@pytest.mark.parametrize("suite", ["homology", "forms", "calabi"])
@pytest.mark.parametrize("cases", ["0", "-2"])
def test_verify_without_checks_exits_2(suite, cases):
    code, rep = run_json("verify", "--suite", suite, "--cases", cases)
    assert code == 2
    assert "cases" in rep["error"]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_hook_rejects_nonpositive_n(n):
    code, rep = run_json("hook", "--diagram", "2,2", "--n", n)
    assert code == 2 and "error" in rep


@pytest.mark.parametrize("argv", [
    ("hook", "--diagram", "2,2", "--n", "4"),        # report
    ("hook", "--diagram", "1,2", "--n", "4"),        # input-error diagnostic
])
def test_closed_stdout_ends_without_traceback(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(causalcoh.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the program writes
    try:
        proc = subprocess.run([sys.executable, "-m", "causalcoh", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode()
    assert proc.returncode != 0
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


@pytest.mark.parametrize("argv, needle", [
    (("killing", "--background", "minkowski4", "--operator", "killing", "--degree", "-1"),
     "degree bound"),
    (("killing", "--background", "deSitter4", "--operator", "killingYano", "--degree", "-2"),
     "degree bound"),
    (("verify", "--suite", "forms", "--degree", "-1"), "degree"),
])
def test_negative_degree_exits_2_naming_the_argument(argv, needle):
    code, rep = run_json(*argv)
    assert code == 2
    assert needle in rep["error"] and "randrange" not in rep["error"]


@pytest.mark.parametrize("argv, argument", [
    (("verify", "--suite", "young", "--cases", "3"), "--cases"),
    (("verify", "--suite", "young", "--cases", "0"), "--cases"),
    (("verify", "--suite", "young", "--degree", "2"), "--degree"),
    (("verify", "--suite", "homology", "--degree", "-5"), "--degree"),
    (("verify", "--suite", "homology", "--cases", "1", "--degree", "2"), "--degree"),
])
def test_verify_rejects_an_argument_the_suite_does_not_use(argv, argument):
    code, rep = run_json(*argv)
    assert code == 2
    assert rep["error"] == f"verify --suite {argv[2]} does not use {argument}"


@pytest.mark.parametrize("suite, cases, degree", [
    ("young", 0, 2), ("homology", 100, 2), ("forms", 20, 2), ("calabi", 3, 2),
])
def test_verify_default_arguments_echoed_per_suite(monkeypatch, suite, cases, degree):
    from causalcoh.verify import SuiteReport

    seen = {}

    def fake_suite(name, **kwargs):
        seen.update(kwargs)
        return SuiteReport(name, 0, {}, ())

    monkeypatch.setattr(cli_module, "run_suite", fake_suite)
    _, rep = run_json("verify", "--suite", suite)
    assert rep["inputs"]["cases"] == cases and rep["inputs"]["degree"] == degree
    assert seen["cases"] == cases and seen["degree"] == degree


@pytest.mark.parametrize("suite", ["young", "homology", "forms"])
@pytest.mark.parametrize("background", ["deSitter4", "minkowski4"])
def test_verify_rejects_a_background_outside_the_calabi_suite(suite, background):
    code, rep = run_json("verify", "--suite", suite, "--background", background)
    assert code == 2
    assert rep["error"] == f"verify --suite {suite} does not use --background"


@pytest.mark.parametrize("suite", ["young", "homology", "forms", "calabi"])
def test_verify_background_default_reaches_only_the_calabi_suite(monkeypatch, suite):
    from causalcoh.verify import SuiteReport

    seen = {}

    def fake_suite(name, **kwargs):
        seen.update(kwargs)
        return SuiteReport(name, 0, {}, ())

    monkeypatch.setattr(cli_module, "run_suite", fake_suite)
    _, rep = run_json("verify", "--suite", suite)
    if suite == "calabi":
        assert rep["inputs"]["background"] == seen["background"] == "minkowski4"
    else:
        assert "background" not in rep["inputs"] and "background" not in seen


def test_failed_calabi_check_reports_its_detail(monkeypatch):
    import causalcoh.calabi as calabi_module

    _, passing = run_json("verify", "--suite", "calabi", "--cases", "1", "--seed", "3")
    assert all("detail" not in c for c in passing["results"]["checks"])
    wave = calabi_module.calabi_wave
    monkeypatch.setattr(calabi_module, "calabi_wave",
                        lambda f: calabi_module.CalabiField(f.level, wave(f).field.scale(2)))
    code, rep = run_json("verify", "--suite", "calabi", "--cases", "1", "--seed", "3")
    assert code == 1
    checks = rep["results"]["checks"]
    failed = [c for c in checks if not c["passed"]]
    assert failed and all(c["detail"].startswith("first differing component (") for c in failed)
    assert all("detail" not in c for c in checks if c["passed"])

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import fields
from fractions import Fraction

import pytest

import dirspec
from dirspec import cli
from dirspec import fourier as FT
from dirspec import measure as M
from dirspec.cli import main
from dirspec.fourier import EstimatorConfig
from dirspec.measure import SymbolicMeasure
from dirspec.scalar import QQ, FieldSpec, decode_scalar

F2 = FieldSpec((2,))
# the child process imports the dirspec under test, installed or not
SRC = str(pathlib.Path(dirspec.__file__).resolve().parents[1])


def _load_module(name, path):
    # perfbench/gen.py would shadow tests/gen.py as ``gen``: load it by path
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(*args, **env):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "dirspec.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path})
    return proc


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestReports:
    def test_classify_fixture(self, fixtures_dir):
        rep = run_json("classify",
                       "--measure", str(fixtures_dir / "product_bernoulli.json"),
                       "--directions", str(fixtures_dir / "axes_and_diagonal.json"))
        assert rep["tool"] == "dirspec" and rep["command"] == "classify"
        verdicts = rep["result"]["verdicts"]
        assert len(verdicts) == 3
        by_basis = {json.dumps(v["direction"]["basis"]): v for v in verdicts}
        diag = by_basis['[["1", "1"]]']
        assert diag["ergodic"] and diag["weak_mixing"] and diag["strong_mixing"]
        ax = by_basis['[["1", "0"]]']
        assert not ax["ergodic"] and ax["witnesses"]

    def test_directions_report(self, fixtures_dir):
        rep = run_json("directions",
                       "--measure", str(fixtures_dir / "product_bernoulli.json"))
        ne = rep["result"]["nonergodic"]
        assert len(ne["subspaces"]) == 2
        assert ne["parametric_families"] == []

    def test_realize_round_trip(self, fixtures_dir, tmp_path):
        out = tmp_path / "realized.json"
        rep = run_json("realize",
                       "--directions", str(fixtures_dir / "two_subspaces_r3.json"),
                       "--measure-out", str(out))
        assert rep["result"]["verified"] is True
        doc = json.loads(out.read_text())
        measure = SymbolicMeasure.decode(doc)
        assert measure.encode() == doc

    def test_lint_warning(self, fixtures_dir):
        rep = run_json("lint", "--measure", str(fixtures_dir / "lonely_atom.json"))
        codes = [w["code"] for w in rep["result"]["warnings"]]
        assert codes == ["atom_closure"]

    def test_oracle_report(self, fixtures_dir):
        rep = run_json("oracle", "--model", str(fixtures_dir / "product_model.json"),
                       "--bound", "5")
        assert rep["result"]["crosscheck"]["passed"] is True

    def test_decompose_and_exp(self, fixtures_dir, tmp_path):
        rep = run_json("decompose",
                       "--measure", str(fixtures_dir / "product_bernoulli.json"))
        parts = rep["result"]["parts"]
        assert len(parts) == 3  # dimensions 0, 1, 2
        assert parts[0]["zero"] is True

        # exp of a single diagonal line measure: delta_0 + the line
        line_doc = {"space": "euclidean", "dim": 2, "field_roots": [],
                    "components": [{"kind": "box", "basis": [["1", "1"]]}]}
        path = tmp_path / "line.json"
        path.write_text(json.dumps(line_doc))
        rep = run_json("exp", "--measure", str(path))
        assert len(rep["result"]["measure"]["components"]) == 2

    def test_restrict(self, fixtures_dir):
        rep = run_json("restrict",
                       "--measure", str(fixtures_dir / "product_bernoulli.json"),
                       "--subgroup", "[[1, 1]]")
        assert rep["result"]["identification"] == [[1, 1]]
        out = rep["result"]["measure"]
        assert out["dim"] == 1

    def test_suspend_round_trip(self, fixtures_dir, tmp_path):
        rep = run_json("suspend",
                       "--measure", str(fixtures_dir / "product_bernoulli.json"))
        assert rep["result"]["measure"]["periodized"] is True
        path = tmp_path / "suspended.json"
        path.write_text(json.dumps(rep["result"]["measure"]))
        back = run_json("suspend", "--measure", str(path))
        assert back["result"]["measure"]["periodized"] is False

    def test_fourier_check(self, fixtures_dir):
        rep = run_json("fourier-check",
                       "--samples", "2048",
                       "--measure", str(fixtures_dir / "product_bernoulli.json"),
                       "--directions", str(fixtures_dir / "axes_and_diagonal.json"))
        assert rep["result"]["passed"] is True
        for check in rep["result"]["wall_checks"]:
            assert check["ok"]
            assert check["decay"]["radii"]

    def test_fourier_check_builds_each_group_representative_once(self, fixtures_dir,
                                                                  monkeypatch, capsys):
        # chair is one atom group; 3 directions with 4 radii ask for its
        # representative in 18 transforms and wall masses
        builds = []

        def counted(comp, space, truncation):
            builds.append((comp, space, truncation))
            return group_representative(comp, space, truncation)

        group_representative = FT.group_representative
        monkeypatch.setattr(FT, "group_representative", counted)
        chair = fixtures_dir / "chair.json"
        assert main(["fourier-check", "--measure", str(chair),
                     "--directions", str(fixtures_dir / "axes_and_diagonal.json"),
                     "--group-truncation", "2", "--samples", "64",
                     "--radii", "10", "100", "1000", "10000"]) == 0
        checks = json.loads(capsys.readouterr().out)["result"]["wall_checks"]
        assert len(checks) == 3 and all(len(c["decay"]["radii"]) == 4 for c in checks)
        group, = SymbolicMeasure.decode(json.loads(chair.read_text())).components
        assert builds == [(group, "torus", 2)]

    def test_text_mode(self, fixtures_dir):
        proc = run_cli("lint", "--text",
                       "--measure", str(fixtures_dir / "lonely_atom.json"))
        assert proc.returncode == 0
        assert proc.stdout.startswith("dirspec lint")

    def test_output_file(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("lint", "--output", str(out),
                       "--measure", str(fixtures_dir / "lonely_atom.json"))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["command"] == "lint"

    def test_config_env_var(self, fixtures_dir, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 512, "seed": 99}))
        monkeypatch.setenv("DIRSPEC_CONFIG", str(cfg))
        code = main(["lint", "--measure", str(fixtures_dir / "chair.json")])
        assert code == 0

    def test_config_env_var_echoed(self, fixtures_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 512, "seed": 99}))
        proc = run_cli("lint", "--measure", str(fixtures_dir / "chair.json"),
                       DIRSPEC_CONFIG=str(cfg))
        rep = json.loads(proc.stdout)
        assert rep["config"]["samples"] == 512
        assert rep["config"]["seed"] == 99

    def test_report_deterministic(self, fixtures_dir):
        a = run_cli("classify",
                    "--measure", str(fixtures_dir / "product_bernoulli.json"),
                    "--directions", str(fixtures_dir / "axes_and_diagonal.json"))
        b = run_cli("classify",
                    "--measure", str(fixtures_dir / "product_bernoulli.json"),
                    "--directions", str(fixtures_dir / "axes_and_diagonal.json"))
        assert a.stdout == b.stdout


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"space\": \"nowhere\"}")
        proc = run_cli("lint", "--measure", str(bad))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert "error" in err

    def test_missing_file_is_2(self):
        proc = run_cli("lint", "--measure", "/nonexistent/m.json")
        assert proc.returncode == 2

    def test_unsupported_convolution_is_4(self, fixtures_dir, tmp_path):
        chair = fixtures_dir / "chair.json"
        box_doc = {"space": "torus", "dim": 2, "field_roots": [],
                   "components": [{"kind": "box", "basis": [["1", "0"]]}]}
        path = tmp_path / "box.json"
        path.write_text(json.dumps(box_doc))
        proc = run_cli("convolve", "--measure", str(chair), "--other", str(path))
        assert proc.returncode == 4

    def test_failed_realize_is_3(self, tmp_path):
        # the full plane cannot be realized
        doc = {"dim": 2, "field_roots": [],
               "directions": [{"basis": [["1", "0"], ["0", "1"]]}]}
        path = tmp_path / "full.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("realize", "--directions", str(path))
        assert proc.returncode == 2  # rejected as invalid input

    @pytest.mark.parametrize("doc,kind", [
        ({"space": "torus", "dim": 1,
          "components": [{"kind": "atom", "point": ["1/0"]}]}, "ValidationError"),
        ({"space": "torus", "dim": 2, "components": "abc"}, "ValidationError"),
        ({"space": "torus", "dim": 2, "components": [5]}, "ValidationError"),
        ({"space": "torus", "dim": 0, "components": []}, "ValidationError"),
        ({"space": "torus", "dim": 1,
          "components": [{"kind": "atom", "point": ["1/3"], "weight": "1/0"}]},
         "ValidationError"),
        ({"space": "euclidean", "dim": 2,
          "components": [{"kind": "atom_group", "generators": [["1/2", "1", "1"]],
                          "ring": "Z"}]}, "DimensionMismatchError"),
        ({"space": "torus", "dim": 2,
          "components": [{"kind": "atom_group", "generators": [["1/2"]], "ring": "Z"}]},
         "DimensionMismatchError"),
        # JSON true used to be read as the integer 1
        ({"space": "torus", "dim": 1, "components": [{"kind": "atom", "point": [True]}]},
         "ValidationError"),
        # a labelled coefficient used to be read by a bare Fraction(...)
        ({"space": "torus", "dim": 1,
          "components": [{"kind": "atom", "point": [{"1": True}]}]}, "ValidationError"),
        ({"space": "torus", "dim": 1,
          "components": [{"kind": "atom", "point": [{"1": 0.1}]}]}, "ValidationError"),
        # dim used to be read by int(): 2.5 as 2, infinity an OverflowError
        ({"space": "torus", "dim": 2.5, "components": []}, "ValidationError"),
        ({"space": "torus", "dim": float("inf"), "components": []}, "ValidationError"),
        ({"space": "torus", "dim": True, "components": []}, "ValidationError"),
        # and the weight by Fraction(): true as 1, infinity an OverflowError
        ({"space": "torus", "dim": 1, "components": [
            {"kind": "atom", "point": ["1/3"], "weight": float("inf")}]}, "ValidationError"),
        ({"space": "torus", "dim": 1, "components": [
            {"kind": "atom", "point": ["1/3"], "weight": True}]}, "ValidationError"),
        ({"space": "torus", "dim": 1, "components": [
            {"kind": "atom", "point": ["1/3"], "weight": 0.1}]}, "ValidationError"),
        # periodized used to be read by bool(): "false" as a periodized measure
        ({"space": "euclidean", "dim": 1, "periodized": "false", "components": []},
         "ValidationError"),
        ({"space": "euclidean", "dim": 1, "periodized": 0, "components": []},
         "ValidationError"),
        # a box centre of the wrong length used to end in zip()'s own message
        ({"space": "torus", "dim": 2, "components": [
            {"kind": "box", "basis": [["1", "0"]], "center": ["1/3"]}]},
         "DimensionMismatchError"),
        ({"space": "euclidean", "dim": 2, "components": [
            {"kind": "box", "basis": [["1", "0"]], "center": ["1/3", "0", "1"]}]},
         "DimensionMismatchError"),
    ], ids=["zero-denominator", "components-string", "component-number", "dim-zero",
            "weight-zero-denominator", "group-generator-too-long",
            "group-generator-too-short", "boolean-scalar", "labelled-boolean",
            "labelled-float", "dim-fraction", "dim-infinite", "dim-boolean",
            "weight-infinite", "weight-boolean", "weight-float", "periodized-string",
            "periodized-number", "box-center-short", "box-center-long"])
    def test_malformed_measure_is_2(self, doc, kind, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["lint", "--measure", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == kind

    @pytest.mark.parametrize("subgroup", ["[[0.5, 1]]", "[[1.9, 1]]", "[[1, \"1\"]]",
                                          "[" * 100000 + "]" * 100000, "[[true, 1]]"],
                             ids=["half", "one-point-nine", "string", "deeply-nested",
                                  "boolean"])
    def test_bad_subgroup_is_2(self, fixtures_dir, subgroup, capsys):
        # int() used to truncate the first two to [[0, 1]] and [[1, 1]], and
        # to read true as 1, with exit 0
        code = main(["restrict", "--measure", str(fixtures_dir / "product_bernoulli.json"),
                     "--subgroup", subgroup])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ValidationError"

    def test_integral_float_subgroup_is_accepted(self, fixtures_dir, capsys):
        code = main(["restrict", "--measure", str(fixtures_dir / "product_bernoulli.json"),
                     "--subgroup", "[[1.0, 1]]"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["inputs"]["subgroup"] == {"generators": [[1, 1]]}

    @pytest.mark.parametrize("doc", [[], "rotation", 5])
    def test_non_object_model_is_2(self, doc, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", "--model", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ValidationError"

    @pytest.mark.parametrize("argv", [["lint", "--measure", "{doc}"],
                                      ["oracle", "--model", "{doc}"],
                                      ["realize", "--directions", "{doc}"]])
    def test_deeply_nested_document_is_2(self, argv, tmp_path):
        # deeper than the recursion limit: the JSON decoder gives up
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        proc = run_cli(*[a.format(doc=path) for a in argv])
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"]["kind"] == "ValidationError"

    @pytest.mark.parametrize("model,bound", [
        ("bw8_model.json", "100000"),
        ({"kind": "odometer", "q": 10, "level": 4, "dim": 3}, "10"),
    ], ids=["crosscheck-grid", "odometer-atoms"])
    def test_oracle_enumeration_budget_is_4(self, fixtures_dir, model, bound, tmp_path,
                                            capsys):
        # 200001^2 grid points resp. 10^12 atoms: refused before allocating
        path = fixtures_dir / model if isinstance(model, str) else tmp_path / "model.json"
        if not isinstance(model, str):
            path.write_text(json.dumps(model))
        start = time.perf_counter()
        code = main(["oracle", "--model", str(path), "--bound", bound])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ClosureBoundError"

    def test_member_enumeration_budget_is_4(self, fixtures_dir, capsys):
        # chair.json at bound 50: 3,095^2 group atoms x 101^2 shifts, refused
        start = time.perf_counter()
        code = main(["directions", "--measure", str(fixtures_dir / "chair.json"),
                     "--enumeration-bound", "50"])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ClosureBoundError"

    @pytest.mark.parametrize("name,flag,value", [
        ("chair.json", "--group-truncation", "100"),
        ("suspended", "--periodization-truncation", "100000"),
    ], ids=["group-atoms", "periodization-lattice"])
    def test_fourier_truncation_budget_is_4(self, fixtures_dir, tmp_path, capsys,
                                            name, flag, value):
        # chair at 100: about 12,000^2 coefficient combinations; the suspended
        # product measure at 100000: 200,001^2 lattice points; both refused
        # before any point is drawn
        path = fixtures_dir / name
        if name == "suspended":
            path = tmp_path / "suspended.json"
            bernoulli = fixtures_dir / "product_bernoulli.json"
            path.write_text(json.dumps(M.suspend(SymbolicMeasure.decode(
                json.loads(bernoulli.read_text()))).encode()))
        start = time.perf_counter()
        code = main(["fourier-check", "--measure", str(path), "--directions",
                     str(fixtures_dir / "axes_and_diagonal.json"),
                     flag, value])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ClosureBoundError"

    def test_sobol_budget_is_4(self, fixtures_dir, tmp_path, capsys):
        # past the 2**30 points of the Sobol sequence (4 * samples of them)
        # and past the 32 tabulated dimensions, refused before a point is drawn
        bernoulli = str(fixtures_dir / "product_bernoulli.json")
        axes = str(fixtures_dir / "axes_and_diagonal.json")
        dim = 33
        measure, directions = tmp_path / "m.json", tmp_path / "d.json"
        measure.write_text(json.dumps({"space": "euclidean", "dim": dim, "components": [
            {"kind": "atom", "point": ["0"] * dim}]}))
        directions.write_text(json.dumps({"dim": dim, "directions": [{"basis": [
            ["1" if i == j else "0" for i in range(dim)] for j in range(dim)]}]}))
        for argv, message in [
                (["--measure", bernoulli, "--directions", axes, "--samples", "268435457"],
                 "2**30 points"),
                (["--measure", str(measure), "--directions", str(directions)],
                 "32 dimensions")]:
            start = time.perf_counter()
            assert main(["fourier-check", *argv]) == 4
            assert time.perf_counter() - start < 1.0
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["kind"] == "ClosureBoundError" and message in err["message"]

    def test_sample_budget_is_4_before_drawing(self, fixtures_dir, capsys, monkeypatch):
        # 2**20 + 1 samples on a line: a first chunk of 2**22 + 4 points,
        # past ``SAMPLE_BUDGET``, refused before any point is drawn
        import dirspec.fourier as FT

        def no_draw(*args):
            raise AssertionError("no Sobol point may be drawn")

        monkeypatch.setattr(FT, "_sobol_chunks", no_draw)
        assert main(["fourier-check", "--measure", str(fixtures_dir / "product_bernoulli.json"),
                     "--directions", str(fixtures_dir / "axes_and_diagonal.json"),
                     "--samples", str(2 ** 20 + 1)]) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "ClosureBoundError" and "enumeration budget" in err["message"]

    def test_high_dimensional_ball_is_4_before_drawing(self, tmp_path, capsys, monkeypatch):
        # 4096 points in the 20-ball need about 2**37 Sobol points: refused before
        # any point is drawn, where the report used to hold a NaN estimate
        dim = 20
        measure, directions = tmp_path / "m.json", tmp_path / "d.json"
        measure.write_text(json.dumps({"space": "torus", "dim": dim, "components": [
            {"kind": "atom", "point": ["1/3"] + ["0"] * (dim - 1)}]}))
        directions.write_text(json.dumps({"dim": dim, "directions": [{"basis": [
            ["1" if i == j else "0" for i in range(dim)] for j in range(dim)]}]}))

        def no_draw(*args):
            raise AssertionError("no Sobol point may be drawn")

        monkeypatch.setattr(FT, "_sobol_chunks", no_draw)
        assert main(["fourier-check", "--measure", str(measure),
                     "--directions", str(directions)]) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "ClosureBoundError" and "20-dimensional ball" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["oracle", "--model", "{fx}/rotation_model.json", "--crosscheck-tolerance", "nan"],
        ["oracle", "--model", "{fx}/rotation_model.json", "--crosscheck-tolerance", "inf"],
        ["oracle", "--model", "{fx}/rotation_model.json", "--bound", "-1"],
        ["oracle", "--model", "{fx}/rotation_model.json", "--crosscheck-tolerance", "-1"],
        ["fourier-check", "--measure", "{fx}/product_bernoulli.json",
         "--directions", "{fx}/axes_and_diagonal.json", "--radii", "10", "nan"],
        ["fourier-check", "--measure", "{fx}/product_bernoulli.json",
         "--directions", "{fx}/axes_and_diagonal.json", "--radii", "inf"],
        ["exp", "--measure", "{fx}/product_bernoulli.json", "--closure-cap", "-1"],
        ["realize", "--directions", "{fx}/axes_and_diagonal.json", "--closure-cap", "-1"],
    ], ids=["tolerance-nan", "tolerance-inf", "bound-negative", "tolerance-negative",
            "radius-nan", "radius-inf", "exp-cap-negative", "realize-cap-negative"])
    def test_non_finite_or_negative_command_flag_is_2(self, argv, fixtures_dir, capsys):
        # each used to exit 0 or 3 with NaN in the report ("passed": true for
        # a NaN tolerance, every grid point a failure for a tolerance of -1),
        # to blame the evaluation points for a bound of -1, or to exit 4 as if
        # a closure had outgrown a cap of -1
        assert main([a.format(fx=fixtures_dir) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "ValidationError"
        assert ("finite" if "nan" in argv or "inf" in argv
                else "cap must be >= 0, got -1" if "--closure-cap" in argv
                else "bound >= 0") in err["message"]
        assert "tolerance" in err["message"] or "--crosscheck-tolerance" not in argv

    def test_zero_dimensional_direction_is_2(self, fixtures_dir, tmp_path, capsys):
        # used to exit 2 with numpy's "Array must be at least two-dimensional"
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"dim": 2, "field_roots": [],
                                    "directions": [{"basis": []}]}))
        assert main(["fourier-check", "--measure", str(fixtures_dir / "product_bernoulli.json"),
                     "--directions", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "ValidationError",
                       "message": "directions must have dimension >= 1"}

    def test_direction_from_another_space_is_2(self, fixtures_dir, tmp_path, capsys):
        # used to exit 2 with "zip() argument 2 is shorter than argument 1"
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"dim": 3, "field_roots": [],
                                    "directions": [{"basis": [[1, 0, 0]]}]}))
        assert main(["fourier-check", "--measure", str(fixtures_dir / "chair.json"),
                     "--group-truncation", "2", "--directions", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "ValidationError",
                       "message": "direction incompatible with the measure"}

    def test_fourier_check_refuses_periodized_before_sampling(self, fixtures_dir, tmp_path,
                                                              capsys, monkeypatch):
        # representative masses are defined for plain measures only: the
        # suspended measure exits 2 before the Wiener estimate is drawn
        path = tmp_path / "suspended.json"
        bernoulli = fixtures_dir / "product_bernoulli.json"
        path.write_text(json.dumps(M.suspend(SymbolicMeasure.decode(
            json.loads(bernoulli.read_text()))).encode()))
        calls = []
        monkeypatch.setattr(cli, "wiener_mass", lambda *args: calls.append(args))
        code = main(["fourier-check", "--measure", str(path), "--directions",
                     str(fixtures_dir / "axes_and_diagonal.json")])
        assert code == 2 and calls == []
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ValidationError"

    def test_unshifted_members_ignore_the_bound(self, fixtures_dir, capsys):
        # bw8.json has no family to shift: no shift list is built at any bound
        argv = ["directions", "--measure", str(fixtures_dir / "bw8.json"),
                "--enumeration-bound"]
        assert main(argv + ["2"]) == 0
        small = capsys.readouterr().out
        start = time.perf_counter()
        assert main(argv + ["100000"]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == small

    @pytest.mark.parametrize("argv,doc", [
        (["lint", "--measure"],
         {"space": "torus", "dim": 1, "components": [{"kind": "atom", "point": ["1/3"]}]}),
        (["realize", "--directions"], {"dim": 2, "directions": [{"basis": [["1", "0"]]}]}),
        (["oracle", "--model"], {"kind": "rotation", "alphas": ["1/3"]}),
    ], ids=["measure", "directions", "model"])
    def test_square_free_budget_is_4(self, argv, doc, tmp_path, capsys):
        # trial division up to sqrt(10^18) is refused before the loop
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**doc, "field_roots": [1000000000000000009]}))
        start = time.perf_counter()
        assert main(argv + [str(path)]) == 4
        assert time.perf_counter() - start < 1.0
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ClosureBoundError"

    def test_huge_integers_are_valid(self, tmp_path, capsys):
        # a 5,000-digit denominator passes Python's int/str digit limit, which
        # used to turn this valid document into exit 2; the limit is restored
        big = "7" * 5000
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"space": "torus", "dim": 2, "components": [
            {"kind": "atom", "point": [f"1/{big}", "0"]}]}))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert main(["decompose", "--measure", str(path)]) == 0, capsys.readouterr().err
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        parts = json.loads(capsys.readouterr().out)["result"]["parts"]
        assert parts[0]["components"][0]["point"] == [f"1/{big}", "0"]

    def test_huge_scalar_encodes_as_the_cli_prints(self, tmp_path, capsys):
        # encode and decode do not depend on Python's int/str digit limit:
        # under the default limit a library caller gets the text the CLI
        # prints, and reads it back
        text = "1" + "0" * 4999 + "1/3"
        value = QQ.from_rational(Fraction(10 ** 5000 + 1, 3))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"space": "euclidean", "dim": 1, "components": [
            {"kind": "atom", "point": [text]}]}))
        assert main(["decompose", "--measure", str(path)]) == 0, capsys.readouterr().err
        printed = json.loads(capsys.readouterr().out)["result"]["parts"][0]
        if hasattr(sys, "get_int_max_str_digits"):
            assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
        assert value.encode() == printed["components"][0]["point"][0] == text
        assert decode_scalar(QQ, text) == value
        mixed = F2.from_coeffs([-value.as_rational(), 1])
        assert mixed.encode() == {"1": "-" + text, "sqrt2": "1"}
        assert decode_scalar(F2, mixed.encode()) == mixed

    @pytest.mark.parametrize("argv,doc", [
        # a fraction used to be truncated, a non-finite number raised
        # OverflowError, q = 0 ZeroDivisionError and the rest IndexError
        (["realize", "--directions"], {"dim": 2.5, "directions": [{"basis": [["1", "0"]]}]}),
        (["realize", "--directions"],
         {"dim": float("inf"), "directions": [{"basis": [["1", "0"]]}]}),
        (["oracle", "--model"], {"kind": "odometer", "q": float("inf"), "level": 1, "dim": 1}),
        (["oracle", "--model"], {"kind": "odometer", "q": False, "level": 1, "dim": 1}),
        (["oracle", "--model"], {"kind": "odometer", "q": 2, "level": -1, "dim": 1}),
        (["oracle", "--model"], {"kind": "odometer", "q": 2, "level": 1, "dim": 0}),
        (["oracle", "--model"], {"kind": "bergelson_ward", "vectors": [[1, float("inf")]]}),
        (["oracle", "--model"], {"kind": "bergelson_ward", "vectors": [[1, 0], {"1": True}]}),
        (["oracle", "--model"], {"kind": "bergelson_ward", "vectors": [[1, 0], [1, 1, 1]]}),
        (["oracle", "--model"], {"kind": "bergelson_ward", "vectors": []}),
        (["oracle", "--model"], {"kind": "rotation", "alphas": ""}),
        (["oracle", "--model"], {"kind": "rotation", "alphas": {}}),
    ], ids=["direction-dim-fraction", "direction-dim-infinite", "odometer-q-infinite",
            "odometer-q-false", "odometer-negative-level", "odometer-dim-zero",
            "vector-entry-infinite", "vector-labelled-boolean", "vectors-unequal-length",
            "no-vectors", "alphas-empty-string", "alphas-empty-object"])
    def test_integer_fields_and_model_invariants_are_2(self, argv, doc, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(argv + [str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ValidationError"

    @pytest.mark.parametrize("command", ["classify", "exp", "suspend"])
    def test_huge_dim_is_4_before_allocating(self, command, fixtures_dir, tmp_path,
                                             capsys):
        # the offset default used to be built for every component: past 5 s
        doc = json.loads((fixtures_dir / "chair.json").read_text())
        path = tmp_path / "chair.json"
        path.write_text(json.dumps({**doc, "dim": 10 ** 30}))
        argv = [command, "--measure", str(path)]
        if command == "classify":
            argv += ["--directions", str(fixtures_dir / "axes_and_diagonal.json")]
        start = time.perf_counter()
        assert main(argv) == 4
        assert time.perf_counter() - start < 1.0
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ClosureBoundError"

    def test_estimator_flags_are_the_config_fields(self, fixtures_dir, tmp_path,
                                                   monkeypatch, capsys):
        # one flag and one DIRSPEC_CONFIG key per EstimatorConfig field; the
        # flag wins over the key
        values = {f.name: f.default + 1 for f in fields(EstimatorConfig)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: v + 1 for name, v in values.items()}))
        monkeypatch.setenv("DIRSPEC_CONFIG", str(cfg))
        flags = [x for name, v in values.items()
                 for x in ("--" + name.replace("_", "-"), str(v))]
        assert main(["lint", "--measure", str(fixtures_dir / "chair.json"), *flags]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == values
        assert main(["lint", "--measure", str(fixtures_dir / "chair.json")]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == {
            name: v + 1 for name, v in values.items()}

    @pytest.mark.parametrize("key,value", [
        ("samples", True), ("samples", 2.5), ("samples", "512"), ("samples", None),
        ("radius", False), ("radius", float("inf")), ("radius", 10 ** 400), ("radius", "200"),
        ("seed", "x"), ("seed", 7.25), ("seed", []),
        ("tolerance", []), ("tolerance", float("nan")), ("tolerance", {}),
        ("periodization_truncation", True), ("periodization_truncation", "8"),
        ("group_truncation", 1.5), ("group_truncation", None),
        ("seed", -1), ("tolerance", -1), ("periodization_truncation", -1),
        ("group_truncation", -1),
    ])
    def test_config_values_are_typed(self, key, value, fixtures_dir, tmp_path,
                                     monkeypatch, capsys):
        # {"samples": true} used to run with one sample, {"seed": "x"} and
        # {"tolerance": []} to be echoed in a report with exit 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        monkeypatch.setenv("DIRSPEC_CONFIG", str(cfg))
        assert main(["lint", "--measure", str(fixtures_dir / "chair.json")]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "ValidationError" and key in err["message"]

    def test_config_numbers_take_the_field_type(self, fixtures_dir, tmp_path,
                                                monkeypatch, capsys):
        # an integral float is read as the integer, an integer radius as a float
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 512.0, "radius": 100, "tolerance": 1}))
        monkeypatch.setenv("DIRSPEC_CONFIG", str(cfg))
        assert main(["lint", "--measure", str(fixtures_dir / "chair.json")]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert [config[k] for k in ("samples", "radius", "tolerance")] == [512, 100.0, 1.0]
        assert [type(config[k]) for k in ("samples", "radius", "tolerance")] == [
            int, float, float]

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_flag_is_2(self, value, fixtures_dir, capsys):
        assert main(["lint", "--measure", str(fixtures_dir / "chair.json"),
                     "--radius", value]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "ValidationError"

    def test_negative_enumeration_bound_is_2(self, fixtures_dir, capsys):
        code = main(["directions", "--measure", str(fixtures_dir / "chair.json"),
                     "--enumeration-bound", "-1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ValidationError"

    def test_negative_tolerance_is_2(self, fixtures_dir, capsys):
        # fourier-check used to fail every wall check against it and exit 3
        code = main(["fourier-check", "--measure", str(fixtures_dir / "product_bernoulli.json"),
                     "--directions", str(fixtures_dir / "axes_and_diagonal.json"),
                     "--tolerance", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "ValidationError" and "tolerance" in err["message"]

    def test_in_process_main(self, fixtures_dir, capsys):
        code = main(["lint", "--measure", str(fixtures_dir / "chair.json")])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"]["warnings"] == []


class TestGoldenReports:
    """Byte-stable reports for exact-arithmetic commands.

    Regenerate with the CLI after an intentional schema or version change:
    the goldens pin both.
    """

    CASES = [
        ("classify_product.json",
         ["classify", "--measure", "{fx}/product_bernoulli.json",
          "--directions", "{fx}/axes_and_diagonal.json"]),
        ("directions_bw8.json",
         ["directions", "--measure", "{fx}/bw8.json", "--enumeration-bound", "1"]),
        # non-empty parametric families: an atom's and a shifted box's
        ("directions_broken_symmetry.json",
         ["directions", "--measure", "{fx}/broken_symmetry.json"]),
        ("directions_ergodic_not_wm.json",
         ["directions", "--measure", "{fx}/ergodic_not_wm.json"]),
        ("lint_broken_symmetry.json",
         ["lint", "--measure", "{fx}/broken_symmetry.json"]),
        # the periodized path: suspend's output and a periodized measure
        # classified and linted as a class mod Z^d
        ("suspend_chair.json",
         ["suspend", "--measure", "{fx}/chair.json"]),
        ("lint_broken_symmetry_periodized.json",
         ["lint", "--measure", "{fx}/broken_symmetry_periodized.json"]),
        ("classify_broken_symmetry_periodized.json",
         ["classify", "--measure", "{fx}/broken_symmetry_periodized.json",
          "--directions", "{fx}/axes_and_diagonal.json"]),
    ]

    @pytest.mark.parametrize("golden,argv", CASES,
                             ids=[c[0] for c in CASES])
    def test_matches_golden(self, fixtures_dir, golden, argv):
        import pathlib
        args = [a.format(fx=fixtures_dir) for a in argv]
        proc = run_cli(*args)
        assert proc.returncode == 0
        expected = (pathlib.Path(__file__).parent / "golden" / golden).read_text()
        assert proc.stdout == expected


class TestHashIndependence:
    """Reports must not depend on how irrational scalars hash: under a hash
    of their Fraction coefficients in place of (roots, nums, den), the
    goldens, Q(sqrt2) reports and a slice of both ``Directions`` benchmark
    pools (fields Q(sqrt2) and Q(sqrt2, sqrt3)) give the same bytes.
    Rational scalars hash like their Fraction under both, as equality with
    it requires."""

    POOL_SLICE = {"classify-mix": 60, "torus-walls": 20}  # measures of each pool

    @staticmethod
    def _patch_hash(monkeypatch):
        from dirspec.scalar import FieldScalar
        exact = FieldScalar.__hash__

        def fraction_tuple(self):
            if self.is_rational():
                return exact(self)
            return hash((self.field.roots, self.coeffs))

        root2 = F2.sqrt_root(2)
        before = hash(root2)
        monkeypatch.setattr(FieldScalar, "__hash__", fraction_tuple)
        assert hash(root2) != before
        assert hash(F2.from_rational(Fraction(1, 3))) == hash(Fraction(1, 3))

    @staticmethod
    def _pool_reports(workload, monkeypatch):
        """The report bytes of every benchmark operation on the slice, made
        by the benchmark's own generator and worker."""
        perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))  # the worker imports speed
        pool_gen, worker = (_load_module(f"perfbench_{name}", perfbench / f"{name}.py")
                            for name in ("gen", "worker"))
        measures = TestHashIndependence.POOL_SLICE[workload]
        wl = worker.Directions(pool_gen.generate(workload, 0)[:measures])
        objs = wl.decode()
        return {op: wl.finish(wl.run(objs, op))[0] for op in wl.ops()}

    @pytest.mark.parametrize("workload", sorted(POOL_SLICE))
    def test_pool_slice(self, workload, monkeypatch):
        exact = self._pool_reports(workload, monkeypatch)
        self._patch_hash(monkeypatch)
        assert self._pool_reports(workload, monkeypatch) == exact

    def test_goldens(self, fixtures_dir, monkeypatch, capsys):
        self._patch_hash(monkeypatch)
        for golden, argv in TestGoldenReports.CASES:
            assert main([a.format(fx=fixtures_dir) for a in argv]) == 0
            expected = (pathlib.Path(__file__).parent / "golden" / golden).read_text()
            assert capsys.readouterr().out == expected, golden

    def test_irrational_reports(self, fixtures_dir, tmp_path, monkeypatch, capsys):
        # every golden fixture is over Q: this measure puts Q(sqrt2) scalars
        # through the hashed paths (class keys, member lines, closure pools)
        from dirspec.linalg import AffineCarrier, Subspace
        from dirspec.oracle import decode_model, expected_measure
        r2 = F2.sqrt_root(2)
        model = fixtures_dir / "rotation_model.json"
        group = expected_measure(decode_model(json.loads(model.read_text())))
        line = Subspace.from_vectors(F2, 2, [[F2.one(), r2]])
        m = SymbolicMeasure.make(M.TORUS, 2, F2, list(group.components) + [
            M.Atom((F2.from_rational(Fraction(1, 2)), F2.zero())),
            M.BoxLebesgue(AffineCarrier.make(line, [Fraction(1, 3), 0]), line.basis)])
        assert {type(c) for c in m.components} == {M.Atom, M.AtomGroup, M.BoxLebesgue}
        measure, directions = tmp_path / "measure.json", tmp_path / "directions.json"
        measure.write_text(json.dumps(m.encode()))
        # an atom group times a box has no finite carrier, so exp takes the
        # points and the box apart (closures of 4 classes each)
        parts = []
        for dim in (0, 1):
            parts.append(tmp_path / f"dim{dim}.json")
            parts[-1].write_text(json.dumps(m.replace_components(
                [c for c in m.components if c.dim == dim]).encode()))
        directions.write_text(json.dumps({"dim": 2, "field_roots": [2], "directions": [
            {"basis": [["1", {"sqrt2": "1"}]]}, {"basis": [[{"sqrt2": "1"}, "1"]]},
            {"basis": [["1", "0"]]}]}))
        argvs = [["classify", "--measure", str(measure), "--directions", str(directions)],
                 ["directions", "--measure", str(measure), "--enumeration-bound", "2"],
                 *([cmd, "--measure", str(measure)] for cmd in ("lint", "decompose")),
                 *(["exp", "--measure", str(part)] for part in parts),
                 ["oracle", "--model", str(model), "--bound", "3"]]

        def reports():
            out = []
            for argv in argvs:
                assert main(argv) == 0, argv
                out.append(capsys.readouterr().out)
            return out

        exact = reports()
        self._patch_hash(monkeypatch)
        assert reports() == exact


class TestRoundTrip:
    def test_emitted_measures_reparse_canonically(self, fixtures_dir):
        for name in ("product_bernoulli.json", "chair.json", "bw8.json",
                     "lonely_atom.json", "broken_symmetry.json",
                     "ergodic_not_wm.json"):
            doc = json.loads((fixtures_dir / name).read_text())
            m = SymbolicMeasure.decode(doc)
            assert m.encode() == doc


class TestReadme:
    README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    SECTION = README.split("## Command line", 1)[1].split("\n## ", 1)[0]

    def test_command_block_names_every_command(self):
        block = self.SECTION.split("```sh", 1)[1].split("```", 1)[0]
        named = {line.split()[1] for line in block.splitlines()
                 if line.startswith("dirspec ")}
        assert named == set(cli.COMMANDS)

    def test_names_every_estimator_flag(self):
        for f in fields(EstimatorConfig):
            assert f"`--{f.name.replace('_', '-')}`" in self.SECTION, f.name

"""End-to-end command-line pipeline tests on a small duct case.

A module-scoped artifact directory is driven through mesh -> fom ->
snapshots -> build-rom once; the stage tests then read the artifacts back
and the failure tests run against stale or mismatched inputs.
"""

import csv
import json
import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from stmor import cases, cli, fom
from stmor.cli import (CliError, main, parse_mu, parse_sweep,
                       parse_train_grid)
from stmor.fom import read_snapshot
from stmor.io import read_artifact, write_artifact
from stmor.rom import read_rom, solve_rom

from test_analysis import duct_config
from test_fom import SNAPSHOT_WRONG_RANK
from test_rom import ROM_ARRAY_NAMES, WRONG_RANK


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Config file plus a fully populated artifact directory."""
    root = tmp_path_factory.mktemp("cli")
    cfg = duct_config()
    case = root / "duct.json"
    case.write_text(json.dumps(cfg.to_dict()))
    for argv in (["mesh"], ["fom", "--mu", "1.02"],
                 ["snapshots", "--train-grid", "3"],
                 ["build-rom"]):
        assert main(argv + ["--case", str(case), "--out-dir", str(root)]) == 0
    return root, case


class TestFlagParsing:
    def test_train_grid(self):
        assert parse_train_grid("4x4") == (4, 4)
        assert parse_train_grid("16") == (16,)
        with pytest.raises(CliError, match="train-grid"):
            parse_train_grid("4xbanana")
        with pytest.raises(CliError, match=">= 2"):
            parse_train_grid("4x1")

    def test_sweep(self):
        assert parse_sweep("Nu=2..6,Np=1..4") == {"n_u": [2, 3, 4, 5, 6],
                                                  "n_p": [1, 2, 3, 4]}
        assert parse_sweep("Nu=3,Np=2") == {"n_u": [3], "n_p": [2]}
        with pytest.raises(CliError, match="sweep"):
            parse_sweep("Nv=1..2")
        with pytest.raises(CliError, match="both"):
            parse_sweep("Nu=1..2")
        for text in ("Nu=6..2,Np=1..2", "Nu=2..6,Np=3..2"):
            with pytest.raises(CliError, match="empty"):
                parse_sweep(text)

    def test_mu(self):
        np.testing.assert_array_equal(parse_mu("1.2e-3,0.78"),
                                      [1.2e-3, 0.78])
        assert parse_mu(None) is None
        with pytest.raises(CliError, match="--mu"):
            parse_mu("a,b")


class TestStages:
    def test_mesh_writes_files_and_prints_counts(self, workdir, capsys,
                                                 tmp_path):
        _, case = workdir
        assert main(["mesh", "--case", str(case),
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "64 nodes" in out and "162 elements" in out
        assert (tmp_path / "mesh.vtk").exists()
        assert not (tmp_path / "mesh.stmesh").exists()

    def test_fom_prints_iterations_and_factorizations(self, workdir, capsys,
                                                      tmp_path):
        _, case = workdir
        assert main(["fom", "--case", str(case), "--mu", "1.02",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        found = re.search(r"(\d+) iterations, (\d+) factorizations", out)
        assert found, out
        assert 1 <= int(found.group(2)) <= int(found.group(1))

    def test_log_level_sends_library_lines_to_stderr_only(self, workdir, capsys,
                                                          tmp_path):
        _, case = workdir
        outs = []
        for flags in ([], ["--log-level", "info"]):
            assert main(flags + ["fom", "--case", str(case), "--mu", "1.02",
                                 "--out-dir", str(tmp_path)]) == 0
            outs.append(capsys.readouterr())
        assert "solve_fom" not in outs[0].err
        assert "INFO stmor.fom: solve_fom duct-study:" in outs[1].err
        # stdout differs only in the wall time of the solve
        plain, logged = (re.sub(r"\d+\.\d+ s$", "T s", o.out, flags=re.M) for o in outs)
        assert plain == logged and "solve_fom" not in logged
        assert not logging.getLogger("stmor").handlers

    def test_fom_snapshot_artifact_embeds_mu_and_flags(self, workdir):
        root, _ = workdir
        header, sol = read_snapshot(root / "fom_solution.stm")
        assert header["case_id"] == "duct-study"
        assert header["mu"] == [1.02]
        assert header["converged"] is True
        assert header["wall_time_s"] > 0
        assert sol.v.size > 0 and sol.p.size > 0

    def test_snapshot_sweep_writes_grid_files_with_manifest(self, workdir):
        root, _ = workdir
        snap_dir = root / "snapshots"
        files = sorted(snap_dir.glob("snap_*.stm"))
        assert len(files) == 3
        manifest = json.loads((snap_dir / "manifest.json").read_text())
        assert manifest["case_id"] == "duct-study"
        np.testing.assert_allclose(manifest["mus"],
                                   [[0.95], [1.0], [1.05]], atol=1e-15)
        for path, mu in zip(files, manifest["mus"]):
            header, _ = read_snapshot(path)
            assert header["mu"] == mu
            assert header["mesh_hash"] == manifest["mesh_hash"]

    def test_rom_package_has_upstream_digest(self, workdir):
        root, _ = workdir
        header, pkg = read_rom(root / "rom_package.stm")
        assert header["n_training"] == 3
        assert len(header["training_digest"]) == 64
        assert pkg.case_id == "duct-study"
        assert pkg.n_u >= pkg.n_lifts + 1

    def test_rom_info_prints_dimensions(self, workdir, capsys):
        root, _ = workdir
        assert main(["rom-info", "--out-dir", str(root)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["case_id"] == "duct-study"
        assert info["n_fom_dofs"] > info["n_u"] + info["n_p"]

    def test_eval_rom_writes_solution_artifact(self, workdir, capsys):
        root, case = workdir
        assert main(["eval-rom", "--case", str(case), "--out-dir", str(root),
                     "--mu", "0.97"]) == 0
        header, arrays = read_artifact(root / "rom_solution.stm",
                                       expect_kind="rom_solution")
        assert header["mu"] == [0.97]
        assert arrays["v_N"].size == header["n_u"]
        assert arrays["p_N"].size == header["n_p"]

    def test_start_gap_against_the_fit_error(self, workdir, capsys, tmp_path):
        """eval-rom reports the first step's update as start_gap, and
        rom-info the start's degree and leave-one-out error: three training
        points on one axis fit an affine start with a finite error."""
        root, case = workdir
        assert main(["rom-info", "--out-dir", str(root)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["start_degree"] == 1 and 0.0 < info["start_loo_error"] < 1e-2
        _, pkg = read_rom(root / "rom_package.stm")
        assert main(["eval-rom", "--case", str(case), "--out-dir", str(root),
                     "--mu", "0.97"]) == 0
        header, _ = read_artifact(root / "rom_solution.stm")
        want = solve_rom(pkg, mu=np.array([0.97])).iterations[0]["rel_update"]
        assert header["start_gap"] == want
        assert "start_gap %.3e" % want in capsys.readouterr().out
        # inside the box the gap stays near the fit's error; from the lifting
        # alone it is far above it
        assert want < 10.0 * info["start_loo_error"]
        zero = solve_rom(replace(pkg, start=np.zeros_like(pkg.start)), mu=np.array([0.97]))
        assert zero.iterations[0]["rel_update"] > 100.0 * info["start_loo_error"]

    def test_export_vtk_includes_solution_fields(self, workdir):
        root, case = workdir
        assert main(["export-vtk", "--case", str(case),
                     "--out-dir", str(root)]) == 0
        text = (root / "solution.vtk").read_text()
        assert "VECTORS velocity" in text
        assert "pressure" in text

    @pytest.mark.parametrize("edit", sorted(SNAPSHOT_WRONG_RANK))
    @pytest.mark.parametrize("name", ["v", "p"])
    def test_export_vtk_refuses_solution_of_wrong_rank(self, workdir, capsys, tmp_path,
                                                       name, edit):
        root, case = workdir
        header, arrays = read_artifact(root / "fom_solution.stm", expect_kind="snapshot")
        del header["schema_version"], header["kind"]
        arrays[name] = SNAPSHOT_WRONG_RANK[edit](arrays[name])
        write_artifact(tmp_path / "fom_solution.stm", "snapshot", header, arrays)
        capsys.readouterr()
        assert main(["export-vtk", "--case", str(case), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        payload = json.loads(captured.err)
        assert payload["error"] == "ArtifactError"
        assert "malformed snapshot (%s has shape %s" % (name, arrays[name].shape) \
            in payload["message"]
        assert not (tmp_path / "solution.vtk").exists()

    def test_export_vtk_without_solution_writes_mesh_only(self, workdir,
                                                          tmp_path):
        _, case = workdir
        assert main(["export-vtk", "--case", str(case),
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "mesh.vtk").exists()
        assert not (tmp_path / "solution.vtk").exists()


@pytest.fixture(scope="module")
def study_dir(workdir, tmp_path_factory):
    _, case = workdir
    out = tmp_path_factory.mktemp("study")
    assert main(["study", "--case", str(case), "--out-dir", str(out),
                 "--sweep", "Nu=3..5,Np=1..3"]) == 0
    return out, case


class TestStudyCommand:
    def test_report_and_csv_written(self, study_dir):
        out, _ = study_dir
        report = json.loads((out / "study_report.json").read_text())
        assert report["schema_version"] == 3
        assert len(report["cells"]) == 9
        with open(out / "study_report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4 * 9

    def test_training_time_covers_the_training_solves(self, study_dir):
        out, _ = study_dir
        report = json.loads((out / "study_report.json").read_text())
        assert report["offline_timings"]["training_s"] > 1e-3

    def test_rerun_reproduces_error_columns(self, study_dir,
                                            tmp_path_factory):
        out, case = study_dir
        again = tmp_path_factory.mktemp("study_again")
        assert main(["study", "--case", str(case), "--out-dir", str(again),
                     "--sweep", "Nu=3..5,Np=1..3"]) == 0

        def error_columns(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            head = rows[0]
            iu, ip = head.index("eps_u"), head.index("eps_p")
            return [(r[iu], r[ip]) for r in rows[1:]]

        assert (error_columns(out / "study_report.csv")
                == error_columns(again / "study_report.csv"))

    def test_serial_study_builds_one_system_pattern(self, workdir, tmp_path,
                                                    monkeypatch):
        # training, projection and the test solves share one assembler
        _, case = workdir
        built, real = [], fom.SystemPattern
        monkeypatch.setattr(fom, "SystemPattern",
                            lambda *a: built.append(a) or real(*a))
        assert main(["study", "--case", str(case), "--out-dir", str(tmp_path),
                     "--sweep", "Nu=3,Np=1"]) == 0
        assert len(built) == 1

    def test_summarize_prints_tables(self, study_dir, capsys):
        out, _ = study_dir
        assert main(["report", "summarize",
                     str(out / "study_report.json")]) == 0
        text = capsys.readouterr().out
        assert "n_u" in text and "max_eps_u" in text and "speedup" in text


class TestFailureModes:
    def error_of(self, capsys):
        err = capsys.readouterr().err.strip()
        return json.loads(err)

    def test_unknown_case_is_machine_readable(self, capsys, tmp_path):
        assert main(["mesh", "--case", "nosuchcase",
                     "--out-dir", str(tmp_path)]) == 1
        payload = self.error_of(capsys)
        assert payload["error"] == "CliError"
        assert "nosuchcase" in payload["message"]

    @pytest.mark.parametrize("rewrite, match", [
        (lambda magic: magic + 0.5, "'eta_magic' is stored as float64, stmor writes it as int64"),
        (lambda magic: -magic - 1, "eta magic must hold element ids")],
        ids=["fraction", "negative"])
    def test_rom_info_on_magic_that_are_not_element_ids(self, workdir, capsys, tmp_path,
                                                        rewrite, match):
        root, _ = workdir
        header, arrays = read_artifact(root / "rom_package.stm", expect_kind="rom")
        del header["schema_version"], header["kind"]
        arrays["eta_magic"] = rewrite(arrays["eta_magic"])
        path = tmp_path / "bad_magic.stm"
        write_artifact(path, "rom", header, arrays)
        capsys.readouterr()
        assert main(["rom-info", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        payload = json.loads(captured.err)
        assert payload["error"] == "ArtifactError" and match in payload["message"]

    def test_removed_wall_profile_is_refused(self, capsys, tmp_path):
        """A config from before wall_motion, whose gate names gate_slide and
        repeats the geometry's motion in its parameters."""
        cfg = cases.valve_analog_config().to_dict()
        (gate,) = [e for e in cfg["boundary"] if e["tag"] == "gate"]
        gate.update(profile="gate_slide", params={
            "x_gate_rest_m": 0.0495, "x_wall_m": 0.05, "speed_m_s": 0.0625,
            "schedule_s": [0.3, 0.7, 1.1, 1.5]})
        path = tmp_path / "old_valve.json"
        path.write_text(json.dumps(cfg))
        assert main(["fom", "--case", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "CaseError"
        assert "unknown boundary profile 'gate_slide'" in payload["message"]
        assert "wall_motion" in payload["message"]

    def test_rom_info_on_package_without_eim_history(self, workdir, capsys,
                                                      tmp_path):
        root, _ = workdir
        header, arrays = read_artifact(root / "rom_package.stm", expect_kind="rom")
        del header["schema_version"], header["kind"]
        arrays["eta_history"] = arrays["eta_history"][:0]
        path = tmp_path / "no_history.stm"
        write_artifact(path, "rom", header, arrays)
        assert main(["rom-info", str(path)]) == 1
        payload = self.error_of(capsys)
        assert payload["error"] == "ArtifactError"
        assert "history" in payload["message"]

    @pytest.mark.parametrize("edit", sorted(WRONG_RANK))
    @pytest.mark.parametrize("key", sorted(ROM_ARRAY_NAMES))
    def test_rom_info_on_array_of_wrong_rank(self, workdir, capsys, tmp_path, key, edit):
        root, _ = workdir
        header, arrays = read_artifact(root / "rom_package.stm", expect_kind="rom")
        del header["schema_version"], header["kind"]
        arrays[key] = WRONG_RANK[edit](arrays[key])
        path = tmp_path / "bad.stm"
        write_artifact(path, "rom", header, arrays)
        capsys.readouterr()
        assert main(["rom-info", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        payload = json.loads(captured.err)
        assert payload["error"] == "ArtifactError"
        assert "%s has " % ROM_ARRAY_NAMES[key] in payload["message"]

    def test_stale_snapshots_are_refused(self, workdir, capsys):
        root, case = workdir
        other = json.loads(case.read_text())
        other["geometry"]["x_breaks_m"] = [0.0, 0.3, 0.62, 1.0]
        other_path = root / "duct_refined.json"
        other_path.write_text(json.dumps(other))
        assert main(["build-rom", "--case", str(other_path),
                     "--out-dir", str(root)]) == 1
        payload = self.error_of(capsys)
        assert payload["error"] == "ArtifactError"
        assert "stale" in payload["message"]

    def test_rom_package_for_other_case_is_refused(self, workdir, capsys):
        root, case = workdir
        other = json.loads(case.read_text())
        other["case_id"] = "duct-variant"
        other_path = root / "duct_variant.json"
        other_path.write_text(json.dumps(other))
        assert main(["eval-rom", "--case", str(other_path),
                     "--out-dir", str(root)]) == 1
        payload = self.error_of(capsys)
        assert payload["error"] == "ArtifactError"
        assert "duct-variant" in payload["message"]

    def test_rom_package_from_other_mesh_is_refused(self, workdir, capsys,
                                                     tmp_path):
        _, case = workdir
        cfg = json.loads(case.read_text())
        paths = {}
        for name, levels in (("two", [0.0, 1.0]), ("three", [0.0, 0.5, 1.0])):
            cfg["geometry"]["time_levels_s"] = levels
            paths[name] = tmp_path / ("duct_%s.json" % name)
            paths[name].write_text(json.dumps(cfg))
        for argv in (["snapshots", "--train-grid", "3"], ["build-rom"]):
            assert main(argv + ["--case", str(paths["two"]),
                                "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["eval-rom", "--case", str(paths["three"]),
                     "--out-dir", str(tmp_path), "--mu", "1.0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "ArtifactError"
        assert "stale" in payload["message"]
        assert not (tmp_path / "rom_solution.stm").exists()

    def test_nan_tolerance_is_refused(self, workdir, capsys, tmp_path):
        root, case = workdir
        cfg = json.loads(case.read_text())
        cfg["solver"]["picard_tol"] = float("nan")
        path = tmp_path / "duct_nan.json"
        path.write_text(json.dumps(cfg))
        assert main(["eval-rom", "--case", str(path), "--out-dir", str(root),
                     "--mu", "1.0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "RomError"
        assert "picard_tol must lie in (0, 1), got nan" in payload["message"]

    @pytest.mark.parametrize("key, value", [("rho_kg_m3", True), ("lambda_s", float("nan"))])
    def test_bad_material_is_refused(self, workdir, capsys, tmp_path, key, value):
        root, case = workdir
        cfg = json.loads(case.read_text())
        cfg["material"][key] = value
        path = tmp_path / "duct_bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["eval-rom", "--case", str(path), "--out-dir", str(root),
                     "--mu", "1.0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "CaseError"
        assert re.search("at material.%s|need finite" % key, payload["message"])

    @pytest.mark.parametrize("bounds, message", [
        ({"lower": [0.95, 0.9], "upper": [1.05, 1.1]},
         "parameter box has 1 names, 2 lower and 2 upper bounds"),
        ({"upper": [1.05, 1.1]}, "parameter box has 1 names, 1 lower and 2 upper bounds"),
        ({"lower": [1.05], "upper": [0.95]}, "component u_in has bounds [1.05, 0.95]"),
        ({"lower": [float("nan")]}, "component u_in has bounds [nan, 1.05]")])
    def test_malformed_parameter_box_is_refused(self, workdir, capsys, tmp_path, bounds,
                                                message):
        """Bounds that do not pair up with the names, or a lower bound above
        (or not comparable to) its upper one, are a malformed case."""
        root, case = workdir
        cfg = json.loads(case.read_text())
        cfg["parameters"].update(bounds)
        path = tmp_path / "duct_box.json"
        path.write_text(json.dumps(cfg))
        assert main(["eval-rom", "--case", str(path), "--out-dir", str(root),
                     "--mu", "1.0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "CaseError"
        assert "malformed configuration (ParameterError: %s)" % message in payload["message"]

    def test_malformed_snapshot_is_refused(self, workdir, capsys, tmp_path):
        root, case = workdir
        (tmp_path / "snapshots").mkdir()
        header, arrays = read_artifact(root / "snapshots" / "snap_0000.stm")
        kind = header.pop("kind")
        del header["schema_version"]
        write_artifact(tmp_path / "snapshots" / "snap_0000.stm", kind, header,
                       {"p": arrays["p"]})
        assert main(["build-rom", "--case", str(case),
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "ArtifactError"
        assert "malformed snapshot" in payload["message"]

    @pytest.mark.parametrize("header_too, error, match", [
        (False, "ArtifactError", "malformed snapshot"),
        (True, "AnalysisError", "the DOF map")])
    def test_short_snapshot_is_one_json_line(self, workdir, capsys, tmp_path, header_too,
                                             error, match):
        """A snapshot whose v is one entry short ended in a ValueError of
        DofMap.expand; with its header's n_velocity cut too, it reads, and
        offline_build refuses it."""
        root, case = workdir
        (tmp_path / "snapshots").mkdir()
        for source in sorted((root / "snapshots").glob("snap_*.stm")):
            header, arrays = read_artifact(source, expect_kind="snapshot")
            del header["schema_version"], header["kind"]
            if source.name == "snap_0000.stm":
                arrays["v"] = arrays["v"][:-1]
                header["n_velocity"] -= header_too
            write_artifact(tmp_path / "snapshots" / source.name, "snapshot", header, arrays)
        assert main(["build-rom", "--case", str(case), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == error and match in payload["message"]

    @pytest.mark.parametrize("bad, match", [("shape", "x0 has shape"),
                                            ("nan", "non-finite"),
                                            ("factor", "one-item list")])
    def test_bad_continuation_input_is_one_json_line(self, workdir, capsys,
                                                    tmp_path, monkeypatch,
                                                    bad, match):
        # no flag hands solve_fom a start or a factor; a caller that passes
        # bad ones gets the typed error, which stmor prints as one line
        _, case = workdir

        def solve(mesh, problem, **kwargs):
            n = fom.build_dof_map(mesh, problem.dirichlet).n_total
            extra = {"shape": {"x0": np.zeros(n + 1)},
                     "nan": {"x0": np.full(n, np.nan)},
                     "factor": {"factor": (None,)}}[bad]
            return fom.solve_fom(mesh, problem, **kwargs, **extra)

        monkeypatch.setattr(cli, "solve_fom", solve)
        assert main(["fom", "--case", str(case), "--mu", "1.02",
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "SolverError"
        assert match in payload["message"]
        assert not (tmp_path / "fom_solution.stm").exists()

    def test_snapshots_without_parameter_space(self, capsys, tmp_path):
        assert main(["snapshots", "--case", "couette",
                     "--out-dir", str(tmp_path)]) == 1
        payload = self.error_of(capsys)
        assert "parameter space" in payload["message"]

    def test_mu_for_a_case_without_parameters(self, capsys, tmp_path):
        assert main(["fom", "--case", "couette", "--mu", "1",
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert "no parameters" in payload["message"]
        assert not (tmp_path / "fom_solution.stm").exists()

    def test_build_rom_without_snapshots(self, workdir, capsys, tmp_path):
        _, case = workdir
        assert main(["build-rom", "--case", str(case),
                     "--out-dir", str(tmp_path)]) == 1
        payload = self.error_of(capsys)
        assert payload["error"] == "ArtifactError"
        assert "snapshots" in payload["message"]

    def test_nan_eim_tolerance_is_one_json_line(self, workdir, capsys):
        root, case = workdir
        before = (root / "rom_package.stm").read_bytes()
        assert main(["build-rom", "--case", str(case), "--out-dir", str(root),
                     "--tol-eim-eta", "nan"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "EimError"
        assert "tolerance" in payload["message"]
        assert (root / "rom_package.stm").read_bytes() == before

    @pytest.mark.parametrize("broken", [
        {"geometry": 5},
        {"boundary": 5},
        {"amplitudes": [1]},
        {"solver": {"picard_tol": "abc"}},
        {"components": "ab"},
        {"geometry": {"kind": "rectangle"}},
    ], ids=["geometry", "boundary", "amplitudes", "solver", "components",
            "geometry-key"])
    def test_malformed_case_config(self, broken, capsys, tmp_path):
        cfg = cases.couette_config(n=2).to_dict()
        if "components" in broken:
            cfg["boundary"][0]["components"] = broken["components"]
        else:
            cfg.update(broken)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["fom", "--case", str(path),
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "CaseError"

    @pytest.mark.parametrize("case, argv, path, value, error, key", [
        ("duct", ["study"], ("plan", "n_test"), -3, "CaseError", "'n_test'"),
        ("duct", ["snapshots"], ("plan", "seed"), -5, "CaseError", "'seed'"),
        ("duct", ["study"], ("plan", "seed"), 1.7, "CaseError", "'seed'"),
        ("duct", ["snapshots", "--seed", "-5"], None, None, "CaseError", "'seed'"),
        ("duct", ["study", "--seed", "-5"], None, None, "CaseError", "'seed'"),
        ("duct", ["fom"], ("boundary", 0, "components"), [0, 5], "SolverError",
         "components [0, 5]"),
        ("duct", ["fom"], ("boundary", 0, "components"), [0, -1], "CaseError",
         "'components'"),
        ("duct", ["fom"], ("boundary", 0, "components"), [0.7, 1], "CaseError",
         "'components'"),
        ("duct", ["fom"], ("solver", "picard_max"), 7.9, "CaseError", "'picard_max'"),
        ("duct", ["fom"], ("solver", "picard_max"), True, "CaseError", "'picard_max'"),
        ("duct", ["fom"], ("amplitudes", "inflow"), float("nan"), "CaseError", "'inflow'"),
        ("artery", ["mesh"], ("geometry", "n_x"), 6.9, "CaseError", "'n_x'"),
        ("artery", ["mesh"], ("geometry", "halfwidth_m"), float("inf"), "CaseError",
         "'halfwidth_m'"),
        ("artery", ["mesh"], ("boundary", 0, "params", "r0_m"), float("nan"), "CaseError",
         "'r0_m'"),
        ("artery", ["mesh"], ("geometry", "narrow_center_m"), "x", "CaseError",
         "'narrow_center_m'"),
    ])
    def test_bad_config_value_is_one_json_line_naming_it(self, case, argv, path, value,
                                                         error, key, capsys, tmp_path):
        cfg = (duct_config() if case == "duct"
               else cases.artery_analog_config(n_x=6, n_y=3, n_levels=3)).to_dict()
        if path is not None:
            node = cfg
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(cfg))
        assert main(argv + ["--case", str(config), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == error
        assert key in payload["message"]
        assert not (tmp_path / "fom_solution.stm").exists()

    def test_number_beyond_the_float_range_is_one_json_line_naming_it(self, capsys,
                                                                     tmp_path):
        """A JSON integer that float() cannot hold raised OverflowError."""
        cfg = cases.couette_config(n=2).to_dict()
        cfg["material"]["rho_kg_m3"] = 10 ** 400
        config = tmp_path / "big.json"
        config.write_text(json.dumps(cfg))
        assert main(["mesh", "--case", str(config), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "CaseError" and "'rho_kg_m3'" in payload["message"]

    @pytest.mark.parametrize("text, match", [
        ("{not json", "not a JSON study report"),
        ("[]", "JSON list, not a study report object"),
        ('{"schema_version": 3}', "lacks case_id, basis, tests, cells, speedup"),
        ('{"schema_version": 3, "case_id": "c", "basis": {"n_u": "5", "n_p": 3},'
         ' "tests": [], "cells": [], "speedup": {"mean": null, "max": null}}',
         "wrong type at basis.n_u ("),
        ('{"schema_version": 3, "case_id": "c", "basis": {"n_u": 5, "n_p": 3},'
         ' "tests": [], "speedup": {"mean": 2.0, "max": null}, "cells": [{"n_u": 1,'
         ' "n_p": 1.0, "max_eps_u": "1e-3", "max_eps_p": null, "mean_speedup": 9,'
         ' "n_flagged": true}]}',
         "wrong type at speedup.max, cells[0].n_p, cells[0].max_eps_u, cells[0].n_flagged ("),
    ], ids=["not-json", "not-object", "no-keys", "string-count", "bad-cell-types"])
    def test_bad_report_is_one_json_line(self, text, match, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert main(["report", "summarize", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "AnalysisError"
        assert match in payload["message"]

    def test_unknown_report_action(self, workdir, capsys):
        root, _ = workdir
        assert main(["report", "plot", str(root / "nothing.json")]) == 1
        assert self.error_of(capsys)["error"] == "CliError"

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import steklab
from steklab import cli, spectral
from steklab.cli import main
from steklab.errors import SteklabError, UsageError
from steklab.families import FamilyDescriptor, generate_mesh
from steklab.intersection import concentration_audit, estimate_index
from steklab.mesh import EmbeddedMesh
from steklab.packing import ConstantsConfig, certify_sigma_k


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def annulus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshes") / "annulus.json"
    report = path.with_suffix(".report.json")
    code = run(
        [
            "mesh", "--family", "annulus", "--n", "2", "--eps", "1", "--delta", "2",
            "--h", "0.05", "--mesh-out", str(path), "--out", str(report),
        ]
    )
    assert code == 0
    return path, report


def test_mesh_subcommand_summary(annulus_file):
    _, report = annulus_file
    doc = read_json(report)
    assert doc["schema_version"] == 1
    assert doc["payload"]["summary"]["volume_m"] == pytest.approx(3 * math.pi, rel=5e-3)
    assert doc["payload"]["summary"]["volume_sigma"] == pytest.approx(2 * math.pi, rel=5e-3)
    # parameter echo includes defaults that were not passed
    assert "h_boundary" in doc["parameters"]


def test_mesh_revolution_reports_one_boundary_component(tmp_path):
    path = tmp_path / "rev.json"
    report = tmp_path / "rev.report.json"
    assert run(
        [
            "mesh", "--family", "revolution-closure", "--n", "2", "--eps", "0.5",
            "--delta", "2", "--h", "0.2", "--mesh-out", str(path), "--out", str(report),
        ]
    ) == 0
    assert read_json(report)["payload"]["boundary_components"] == 1


def test_spectrum_subcommand(annulus_file, tmp_path):
    mesh_path, _ = annulus_file
    out = tmp_path / "spec.json"
    traces = tmp_path / "traces.csv"
    code = run(
        [
            "spectrum", "--mesh", str(mesh_path), "--kind", "steklov-neumann",
            "--kmax", "1", "--out", str(out), "--traces", str(traces),
        ]
    )
    assert code == 0
    doc = read_json(out)
    assert doc["payload"]["eigenvalues"][1] == pytest.approx(0.6, rel=1e-2)
    with open(traces) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "boundary_vertex"
    assert len(rows) - 1 == doc["payload"]["dof_boundary"]


def test_spectrum_kmax_usage_error(annulus_file, tmp_path):
    mesh_path, _ = annulus_file
    code = run(
        ["spectrum", "--mesh", str(mesh_path), "--kind", "steklov-neumann",
         "--kmax", "100000", "--out", str(tmp_path / "x.json")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "name, exc",
    [
        ("eigsh", ArpackNoConvergence("ARPACK did not converge", np.zeros(0), np.zeros((0, 0)))),
        ("splu", RuntimeError("Factor is exactly singular")),
        ("splu", MemoryError()),
    ],
)
def test_spectrum_solver_failure_exits_3(annulus_file, tmp_path, monkeypatch, capsys, name, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(spectral, name, fail)
    mesh_path, _ = annulus_file
    code = run(
        ["spectrum", "--mesh", str(mesh_path), "--kind", "steklov-neumann",
         "--kmax", "1", "--out", str(tmp_path / "x.json")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err
    assert err.count("\n") == 1
    if isinstance(exc, MemoryError):
        assert err == "numerical failure: out of memory\n"


def test_spectrum_negative_leading_eigenvalue_exits_3(annulus_file, tmp_path, monkeypatch, capsys):
    true_eigsh = spectral.eigsh

    def negative_eigsh(*args, **kwargs):
        vals, vecs = true_eigsh(*args, **kwargs)
        return np.concatenate([[-1.0], vals[1:]]), vecs

    monkeypatch.setattr(spectral, "eigsh", negative_eigsh)
    mesh_path, _ = annulus_file
    out = tmp_path / "x.json"
    assert run(["spectrum", "--mesh", str(mesh_path), "--kmax", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "numerical failure: leading eigenvalue -1.0 is significantly negative\n"
    )
    assert captured.out == "" and not out.exists()


def test_uncategorised_steklab_error_exits_3(annulus_file, tmp_path, monkeypatch, capsys):
    def fail(problem):
        raise SteklabError("internal error: probe")

    monkeypatch.setattr(cli, "solve_steklov", fail)
    mesh_path, _ = annulus_file
    out = tmp_path / "x.json"
    assert run(["spectrum", "--mesh", str(mesh_path), "--kmax", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: internal error: probe\n"
    assert captured.out == "" and not out.exists()


def test_spectrum_kind_comes_from_the_face_tags(annulus_file, tmp_path, capsys):
    mesh_path, _ = annulus_file
    docs = []
    for kind in ([], ["--kind", "steklov-neumann"]):
        out = tmp_path / f"spec{len(docs)}.json"
        assert run(["spectrum", "--mesh", str(mesh_path), *kind, "--kmax", "1",
                    "--out", str(out)]) == 0
        docs.append(read_json(out))
    assert docs[0]["payload"] == docs[1]["payload"]
    assert docs[0]["payload"]["metadata"]["kind"] == "steklov-neumann"
    assert docs[0]["parameters"]["kind"] is None
    capsys.readouterr()
    assert run(["spectrum", "--mesh", str(mesh_path), "--kind", "steklov", "--kmax", "1"]) == 2
    assert capsys.readouterr().err == (
        "usage error: kind 'steklov' does not match the face tags, which pose 'steklov-neumann'\n"
    )


def test_spectrum_mixed_kind_on_an_all_steklov_mesh_exits_2(disk_mesh_coarse, tmp_path, capsys):
    mesh_path, out = tmp_path / "disk.json", tmp_path / "spec.json"
    disk_mesh_coarse.save(mesh_path)
    assert run(["spectrum", "--mesh", str(mesh_path), "--kind", "steklov-neumann", "--kmax", "3",
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "usage error: kind 'steklov-neumann' does not match the face tags, which pose 'steklov'\n"
    )
    assert captured.out == "" and not out.exists()


def test_oracle_values(tmp_path, capsys):
    assert run(["oracle", "annulus-sn", "--n", "2", "--eps", "1", "--delta", "2",
                "--mode", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["eigenvalue"] == pytest.approx(0.6)

    assert run(["oracle", "cylinder", "--L", "1", "--count", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    values = doc["payload"]["eigenvalues"]
    assert values[0] == 0.0
    assert values[1] == pytest.approx(0.462117, abs=1e-6)

    assert run(["oracle", "blowup-constant", "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["constant"] == 0.25


def test_index_subcommand(tmp_path, capsys):
    mesh_path = tmp_path / "circle.json"
    assert run(["mesh", "--family", "circle", "--n", "2", "--eps", "1",
                "--h", "0.05", "--mesh-out", str(mesh_path),
                "--out", str(tmp_path / "m.json")]) == 0
    assert run(["index", "--mesh", str(mesh_path), "--samples", "500",
                "--seed", "7", "--degrees", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["sampled_max"] == 2
    assert doc["payload"]["degree_upper_bound"] == 2
    assert doc["seed"] == 7


def test_index_rejects_non_finite_vertex(tmp_path, capsys):
    mesh_path = tmp_path / "circle.json"
    assert run(["mesh", "--family", "circle", "--n", "2", "--eps", "1", "--h", "0.1",
                "--mesh-out", str(mesh_path), "--out", str(tmp_path / "m.json")]) == 0
    doc = read_json(mesh_path)
    doc["vertices"][3][1] = float("nan")
    mesh_path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "index.json"
    code = run(["index", "--mesh", str(mesh_path), "--samples", "100", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 4
    assert "non-finite" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


def test_index_rejects_a_degree_that_is_not_a_number(tmp_path, capsys, disk_document):
    mesh_path = tmp_path / "disk.json"
    mesh_path.write_text(json.dumps(disk_document))
    assert run(["index", "--mesh", str(mesh_path), "--degrees", "2,x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: '2,x' is not a comma-separated list of numbers\n"


def test_index_union_degrees(tmp_path, capsys):
    mesh_path = tmp_path / "circle.json"
    run(["mesh", "--family", "circle", "--n", "2", "--eps", "1", "--h", "0.1",
         "--mesh-out", str(mesh_path), "--out", str(tmp_path / "m.json")])
    assert run(["index", "--mesh", str(mesh_path), "--samples", "100",
                "--degrees", "1,2", "--degrees", "1,2", "--degrees", "4,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["degree_upper_bound"] == 12


def test_index_determinism(tmp_path, capsys):
    mesh_path = tmp_path / "circle.json"
    run(["mesh", "--family", "circle", "--n", "2", "--eps", "1", "--h", "0.1",
         "--mesh-out", str(mesh_path), "--out", str(tmp_path / "m.json")])
    payloads = []
    for _ in range(2):
        assert run(["index", "--mesh", str(mesh_path), "--samples", "200",
                    "--seed", "3"]) == 0
        payloads.append(json.loads(capsys.readouterr().out)["payload"])
    assert payloads[0] == payloads[1]


def test_certify_subcommand(tmp_path, capsys):
    mesh_path = tmp_path / "disk.json"
    assert run(["mesh", "--family", "disk", "--n", "2", "--delta", "1",
                "--h", "0.2", "--h-boundary", str(0.9 / 144),
                "--mesh-out", str(mesh_path), "--out", str(tmp_path / "m.json")]) == 0
    assert run(["certify", "--mesh", str(mesh_path), "--k", "1",
                "--i-sigma", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["valid"] is True
    assert doc["payload"]["sigma_k_fem"] <= doc["payload"]["certified_bound"]


def test_certify_literal_constants_resolution_failure(tmp_path, capsys):
    mesh_path = tmp_path / "disk.json"
    run(["mesh", "--family", "disk", "--n", "2", "--delta", "1", "--h", "0.2",
         "--mesh-out", str(mesh_path), "--out", str(tmp_path / "m.json")])
    code = run(["certify", "--mesh", str(mesh_path), "--k", "1",
                "--i-sigma", "2", "--covering", "literal"])
    assert code == 4
    err = capsys.readouterr().err
    assert "below the boundary mesh spacing" in err
    assert "or use the empirical covering constant" in err
    assert err.count("\n") == 1


def test_certify_empirical_resolution_failure_gives_no_empirical_hint(tmp_path, capsys):
    mesh_path = tmp_path / "annulus.json"
    assert run(["mesh", "--family", "annulus", "--n", "2", "--eps", "1", "--delta", "2",
                "--h", "0.3", "--h-boundary", "0.0125",
                "--mesh-out", str(mesh_path), "--out", str(tmp_path / "m.json")]) == 0
    code = run(["certify", "--mesh", str(mesh_path), "--k", "1", "--i-sigma", "2",
                "--seed", "7"])
    assert code == 4
    err = capsys.readouterr().err
    assert "below the boundary mesh spacing" in err
    assert "empirical" not in err
    assert err.count("\n") == 1


def test_bounds_subcommand(capsys):
    assert run([
        "bounds", "--n", "2", "--m", "2", "--volume-m", str(math.pi),
        "--volume-sigma", str(2 * math.pi), "--i-m", "1", "--i-sigma", "2",
        "--k", "1", "--sigma-k", "1.0",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["satisfied"]["volume"] is True


def test_bounds_requires_r0_for_injectivity(capsys):
    argv = ["bounds", "--n", "2", "--m", "2", "--volume-m", "1", "--volume-sigma", "1",
            "--i-m", "1", "--i-sigma", "1"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["injectivity_bound_rhs"] is None and payload["k_threshold"] is None
    assert run(argv + ["--r0", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["injectivity_bound_rhs"] > 0
    # --r0 alone selects the injectivity bound; the identity check is criterion 11's
    for removed in (["--bound", "injectivity"], ["--check-identity"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + removed)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("covering, expected", [("literal", 1024.0), ("7", 7.0)])
def test_bounds_report_the_covering_constant_as_a_float(capsys, covering, expected):
    assert run(BOUNDS_ARGS + ["--covering", covering]) == 0
    value = json.loads(capsys.readouterr().out)["payload"]["constants"]["covering_constant"]
    assert value == expected and isinstance(value, float)


def test_every_family_name_is_listed_and_accepted(tmp_path, capsys, monkeypatch):
    from steklab.families import KINDS

    monkeypatch.setenv("COLUMNS", "1000")  # one line of help: no name split at a hyphen
    with pytest.raises(SystemExit):
        main(["mesh", "--help"])
    listed = capsys.readouterr().out
    names = ["ball", "disk", "annulus", "cylinder", "sphere", "circle", "torus", "product",
             *KINDS]
    assert all(name in listed for name in names)
    assert run(["mesh", "--family", "sphere-boundary", "--eps", "1", "--h", "0.5",
                "--mesh-out", str(tmp_path / "m.json"), "--out", str(tmp_path / "r.json")]) == 0
    code, err = run_clean(["mesh", "--family", "revolution", "--h", "0.5",
                           "--mesh-out", str(tmp_path / "x.json")], capsys)
    assert code == 2 and "unknown family 'revolution'" in err


def test_experiment_blowup_table(tmp_path, capsys):
    table = tmp_path / "blowup.csv"
    assert run([
        "experiment", "blowup", "--n", "3", "--eps", "0.4,0.2",
        "--max-degree", "4", "--max-circle-mode", "4", "--resolution", "256",
        "--out", str(tmp_path / "b.json"), "--table", str(table),
    ]) == 0
    with open(table) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["epsilon"] for r in rows] == ["0.4", "0.2"]
    assert all(r["satisfied"] == "True" for r in rows)
    assert rows[0]["k"] == ""  # fixed header, blank where not applicable


def test_experiment_obstruction(capsys, tmp_path):
    assert run([
        "experiment", "obstruction", "--n", "2", "--beta", "0",
        "--k-min", "10", "--k-max", "60", "--out", str(tmp_path / "o.json"),
    ]) == 0
    doc = read_json(tmp_path / "o.json")
    assert doc["payload"]["fitted_exponent"] == pytest.approx(1.0, abs=0.05)


def test_experiment_asymptotics(tmp_path):
    assert run([
        "experiment", "asymptotics", "--source", "disk", "--k-lo", "20",
        "--k-hi", "120", "--out", str(tmp_path / "a.json"),
        "--table", str(tmp_path / "a.csv"),
    ]) == 0
    doc = read_json(tmp_path / "a.json")
    assert doc["payload"]["fit"]["fitted_coefficient"] == pytest.approx(0.5, rel=0.1)


def test_usage_error_exit_code(tmp_path):
    code = run(["mesh", "--family", "nonsense", "--h", "0.1",
                "--mesh-out", str(tmp_path / "x.json")])
    assert code == 2


def test_bounds_both_with_r0(capsys):
    assert run([
        "bounds", "--n", "2", "--m", "3", "--volume-m", "6.28",
        "--volume-sigma", "12.57", "--i-m", "2", "--i-sigma", "4",
        "--k", "2", "--r0", "3.14159", "--sigma-k", "1.52",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["injectivity_bound_rhs"] is not None
    assert doc["payload"]["k_threshold"] > 0
    assert doc["payload"]["satisfied"] == {
        "volume": True, "isoperimetric": True, "injectivity": True,
    }


def test_certify_payload_deterministic(tmp_path, capsys):
    mesh_path = tmp_path / "disk.json"
    run(["mesh", "--family", "disk", "--n", "2", "--delta", "1", "--h", "0.2",
         "--h-boundary", str(0.9 / 144), "--mesh-out", str(mesh_path),
         "--out", str(tmp_path / "m.json")])
    payloads = []
    for _ in range(2):
        assert run(["certify", "--mesh", str(mesh_path), "--k", "1",
                    "--i-sigma", "2", "--seed", "5"]) == 0
        payloads.append(json.loads(capsys.readouterr().out)["payload"])
    assert payloads[0] == payloads[1]


# -- mesh documents that do not describe a valid mesh ---------------------------

MESH_COMMANDS = {
    "spectrum": ["--kmax", "1"],
    "index": ["--samples", "10"],
    "certify": ["--k", "1", "--i-sigma", "2"],
}


@pytest.fixture(scope="module")
def disk_document():
    from steklab.families import FamilyDescriptor, generate_mesh

    return generate_mesh(FamilyDescriptor("ball-flat", h=0.3, n=2, delta=1.0)).to_document()


def _corrupt(doc, case):
    """JSON text of a mesh document broken in one way."""
    doc = json.loads(json.dumps(doc))
    if case == "not-json":
        return "this is not JSON {"
    if case == "not-an-object":
        return json.dumps(doc["vertices"])
    if case == "missing-key":
        del doc["cells"]
    elif case == "flat-vertices":
        doc["vertices"] = [x for v in doc["vertices"] for x in v]
    elif case == "ragged-cells":
        doc["cells"][0] = doc["cells"][0][:2]
    elif case == "face-not-an-object":
        doc["boundary_faces"][0] = 5
    elif case == "repeated-face":
        doc["boundary_faces"].append(dict(doc["boundary_faces"][0]))
    elif case == "non-integral-cell":  # truncation would restore the valid cell
        doc["cells"][0][1] += 0.9
    elif case == "non-integral-face":
        doc["boundary_faces"][0]["indices"][0] += 0.5
    return json.dumps(doc)


@pytest.mark.parametrize("command", sorted(MESH_COMMANDS))
@pytest.mark.parametrize(
    "case",
    ["not-json", "not-an-object", "missing-key", "flat-vertices", "ragged-cells",
     "face-not-an-object", "repeated-face", "non-integral-cell", "non-integral-face"],
)
def test_malformed_mesh_document_exits_4(tmp_path, capsys, disk_document, command, case):
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(_corrupt(disk_document, case))
    out = tmp_path / "report.json"
    code = run([command, "--mesh", str(mesh_path), *MESH_COMMANDS[command], "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("precondition failure:")
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(MESH_COMMANDS))
def test_missing_mesh_file_exits_2(tmp_path, capsys, command):
    out = tmp_path / "report.json"
    code = run([command, "--mesh", str(tmp_path / "absent.json"), *MESH_COMMANDS[command],
                "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "absent.json" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


def test_certify_validates_its_mesh(tmp_path, capsys, disk_document):
    doc = json.loads(json.dumps(disk_document))
    doc["cells"][0][1] = doc["cells"][0][0]  # a repeated vertex in one cell
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(json.dumps(doc))
    code = run(["certify", "--mesh", str(mesh_path), "--k", "1", "--i-sigma", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert "facet" in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("command", ["certify", "spectrum"])
def test_non_integral_index_names_the_fault(tmp_path, capsys, disk_document, command):
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(_corrupt(disk_document, "non-integral-cell"))
    code = run([command, "--mesh", str(mesh_path), *MESH_COMMANDS[command]])
    captured = capsys.readouterr()
    assert code == 4
    assert "non-integral vertex index" in captured.err
    assert "Traceback" not in captured.err + captured.out


# -- parameters the library rejects ---------------------------------------------


def run_clean(args, capsys, out=None):
    """Exit code of one CLI run, checking that it printed no traceback."""
    code = run(args + (["--out", str(out)] if out else []))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    return code, captured.err


@pytest.mark.parametrize("command", ["certify", "index"])
def test_negative_seed_exits_2(tmp_path, capsys, disk_document, command):
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(json.dumps(disk_document))
    out = tmp_path / "report.json"
    code, err = run_clean(
        [command, "--mesh", str(mesh_path), *MESH_COMMANDS[command], "--seed", "-1"], capsys, out
    )
    assert code == 2
    assert "seed must be non-negative" in err
    assert not out.exists()


def test_library_rejects_negative_seed(disk_document):
    mesh = EmbeddedMesh.from_document(disk_document)
    calls = [
        lambda: certify_sigma_k(mesh, 1, ConstantsConfig(), i_sigma=2, seed=-1),
        lambda: estimate_index(mesh, samples=10, seed=-1),
        lambda: concentration_audit(mesh, 2, trials=10, seed=-1),
    ]
    for call in calls:
        with pytest.raises(UsageError, match="seed"):
            call()


BOUNDS_ARGS = ["bounds", "--n", "2", "--m", "2", "--volume-m", "3.14", "--volume-sigma", "6.28",
               "--i-m", "1", "--i-sigma", "2"]


@pytest.mark.parametrize(
    "args, needle",
    [
        (["--volume-m=nan"], "volume_m"),
        (["--volume-sigma=inf"], "volume_sigma"),
        (["--r0=nan"], "r_0"),
        (["--d-ball=inf"], "d_ball"),
        (["--sigma-k=nan"], "sigma_k"),
        (["--covering", str(10**400)], "c_cover"),
        (["--k", str(10**400)], "2^53"),
    ],
)
def test_bounds_non_finite_or_overflowing_parameter_exits_2(tmp_path, capsys, args, needle):
    out = tmp_path / "report.json"
    code, err = run_clean(BOUNDS_ARGS + args, capsys, out)
    assert code == 2
    assert needle in err
    assert not out.exists()


def test_certify_overflowing_covering_exits_2(tmp_path, capsys, disk_document):
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(json.dumps(disk_document))
    code, err = run_clean(["certify", "--mesh", str(mesh_path), "--k", "1", "--i-sigma", "2",
                           "--covering", str(10**400)], capsys)
    assert code == 2
    assert "c_cover" in err


@pytest.mark.parametrize(
    "args", [["--volume-sigma", "1e-200"], ["--volume-m", "1e308"], ["--m", "1000000"]]
)
def test_bounds_beyond_double_precision_exit_3(tmp_path, capsys, args):
    out = tmp_path / "report.json"
    code, err = run_clean(BOUNDS_ARGS + args, capsys, out)
    assert code == 3
    assert "numerical failure" in err
    assert not out.exists()


# each overflows a float ** or math call that no parameter check anticipates
@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "annulus-sn", "--n", "2", "--eps", "1e-300", "--delta", "1e300",
         "--mode", "5"],
        ["oracle", "blowup-constant", "--n", "2000"],
        ["experiment", "blowup", "--eps", "1e-300"],
    ],
)
def test_unanticipated_overflow_names_itself(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    code, err = run_clean(argv, capsys, out)
    assert code == 3
    assert err == "numerical failure: a value overflows double precision\n"
    assert "(34," not in err
    assert not out.exists()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in a report")

    return json.loads(text, parse_constant=reject)


# one or two parameters take an extreme value, the rest a valid one
_EXTREMES = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-200", "1e308", "1000000",
             str(2**53 + 1), str(10**400)]
_VALID = {
    "--volume-m": st.floats(1e-3, 1e3).map(repr),
    "--volume-sigma": st.floats(1e-3, 1e3).map(repr),
    "--i-m": st.integers(1, 12).map(str),
    "--i-sigma": st.integers(1, 12).map(str),
    "--k": st.integers(1, 50).map(str),
    "--r0": st.floats(1e-2, 10.0).map(repr),
    "--sigma-k": st.floats(0.0, 100.0).map(repr),
    "--d-ball": st.floats(1e-3, 10.0).map(repr),
    "--covering": st.one_of(st.just("literal"), st.integers(1, 64).map(str)),
}


@st.composite
def bounds_argv(draw):
    n = draw(st.integers(2, 4))
    options = {"--n": str(n), "--m": str(n + draw(st.integers(0, 2)))}
    for name, values in _VALID.items():
        if name in ("--r0", "--sigma-k", "--d-ball") and not draw(st.booleans()):
            continue
        options[name] = draw(values)
    broken = draw(st.lists(st.sampled_from(sorted(options)), max_size=2, unique=True))
    for name in broken:
        options[name] = draw(st.sampled_from(_EXTREMES))
    return ["bounds", *(f"{k}={v}" for k, v in options.items())]


@given(argv=bounds_argv())
def test_bounds_parameters_never_escape(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the text of an option
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    if code == 0:
        _strict_json(captured.out)


@pytest.mark.parametrize("option", ["--h", "--delta", "--h-boundary"])
def test_mesh_non_finite_size_exits_2(tmp_path, capsys, option):
    sizes = {"--h": "0.3", "--delta": "1", option: "nan"}
    mesh_out = tmp_path / "mesh.json"
    out = tmp_path / "report.json"
    argv = ["mesh", "--family", "disk", "--n", "2", "--mesh-out", str(mesh_out)]
    code, err = run_clean(argv + [f"{k}={v}" for k, v in sizes.items()], capsys, out)
    assert code == 2
    assert "finite" in err
    assert not out.exists() and not mesh_out.exists()


@pytest.mark.parametrize("delta", ["1e100", "1e150", "1e-150"])
def test_mesh_flat_qhull_simplex_exits_3(tmp_path, capsys, delta):
    # the 20-vertex disk meshes at 1e-20 and 1e20; at these scales Qhull
    # finds its initial simplex flat
    mesh_out = tmp_path / "mesh.json"
    out = tmp_path / "report.json"
    argv = ["mesh", "--family", "disk", "--n", "2", "--delta", delta,
            "--h", str(float(delta) / 2), "--mesh-out", str(mesh_out)]
    code, err = run_clean(argv, capsys, out)
    assert code == 3
    assert err.splitlines() == [
        "numerical failure: QH6154 Qhull precision error: Initial simplex is flat "
        "(facet 1 is coplanar with the interior point)"
    ]
    assert not out.exists() and not mesh_out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_spectrum_non_finite_tolerance_exits_2(tmp_path, capsys, disk_document, value):
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(json.dumps(disk_document))
    out = tmp_path / "report.json"
    code, err = run_clean(["spectrum", "--mesh", str(mesh_path), f"--tol={value}"], capsys, out)
    assert code == 2
    assert "tolerance must be positive and finite" in err
    assert not out.exists()


# -- every numeric parameter passes one check -------------------------------------


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["oracle", "disk", "--radius=nan"], 2),
        (["oracle", "cylinder", "--L=nan"], 2),
        (["oracle", "sphere-laplace", "--n", "2", "--radius=nan"], 2),
        (["experiment", "asymptotics", "--radius=nan"], 2),
        (["experiment", "obstruction", "--beta=nan"], 2),
        (["oracle", "annulus-sn", "--eps", "1", "--delta=inf"], 2),
        (["oracle", "separated-mode", "--n", "2", "--eps", "1", "--delta", "2",
          "--mu=nan", "--lam", "0"], 2),
        (["oracle", "separated-mode", "--n", "2", "--eps", "1", "--delta", "2",
          "--mu", "1", "--lam=inf"], 2),
        (["oracle", "blowup-constant", "--n", "100000"], 3),
        (["experiment", "blowup", "--eps", "0.4", "--max-degree=-5",
          "--max-circle-mode=-5"], 2),
        (["oracle", "cylinder", "--L", "1", "--lambdas", "0,nan,4"], 2),
        # bounds has no mesh to measure an empirical covering constant on
        ([*BOUNDS_ARGS, "--covering", "empirical"], 2),
        # 32^m is not a double from m = 205 on, so this fails at once
        ([*BOUNDS_ARGS, "--m", "10000000000"], 3),
        # one k fits no exponent
        (["experiment", "obstruction", "--k-min", "5", "--k-max", "5"], 2),
        # an empty list is not the sphere spectrum's stand-in: it has no 0
        (["oracle", "cylinder", "--L", "1", "--count", "4", "--lambdas="], 2),
    ],
)
def test_out_of_range_parameter_exit_code(tmp_path, capsys, argv, expected):
    out = tmp_path / "report.json"
    code, err = run_clean(argv, capsys, out)
    assert code == expected
    assert err.startswith("usage error:" if expected == 2 else "numerical failure:")
    assert not out.exists()


# each drives NumPy through an overflow or an invalid value before it fails
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["oracle", "separated-mode", "--n", "2", "--eps", "0.5", "--delta", "2",
          "--mu", "1e308", "--lam", "1"], 3),
        (["spectrum"], 4),
    ],
)
def test_floating_point_noise_stays_off_stderr(tmp_path, capsys, disk_document, argv, expected):
    if argv == ["spectrum"]:
        doc = json.loads(json.dumps(disk_document))
        doc["vertices"][20] = [1e308, 1e308]
        mesh_path = tmp_path / "mesh.json"
        mesh_path.write_text(json.dumps(doc))
        argv = ["spectrum", "--mesh", str(mesh_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_clean(argv, capsys)
    assert code == expected
    assert [str(w.message) for w in caught] == []
    assert err.count("\n") == 1  # the one failure line
    assert err.startswith("numerical failure:" if expected == 3 else "precondition failure:")


# vertex -> the coordinates set to 1e308.  Vertex 0 lies on the boundary
# circle, vertex 22 inside the disk: their cells measure inf, and `index` used
# to exit 0 after LAPACK printed "DLASCL parameter ... illegal value" lines
# straight to file descriptor 2.  At vertex 20 a Gram determinant comes out
# NaN, which used to read as a degenerate cell ("cell 33 has nonpositive volume")
OVERFLOWING = {0: (0,), 22: (0,), 20: (0, 1)}


@pytest.mark.parametrize("vertex", sorted(OVERFLOWING))
@pytest.mark.parametrize("command", sorted(MESH_COMMANDS))
def test_overflowing_mesh_measures_exit_4(tmp_path, capfd, disk_document, command, vertex):
    doc = json.loads(json.dumps(disk_document))
    for axis in OVERFLOWING[vertex]:
        doc["vertices"][vertex][axis] = 1e308
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = run([command, "--mesh", str(mesh_path), *MESH_COMMANDS[command], "--out", str(out)])
    captured = capfd.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "precondition failure: cell volumes or their total are not finite\n"
    assert not out.exists()


# each asks for more than SIZE_BUDGET vertices, values, grid nodes, modes or samples
@pytest.mark.parametrize(
    "argv",
    [
        ["mesh", "--family", "disk", "--delta", "1", "--h", "1e-300"],
        ["mesh", "--family", "disk", "--delta", "1", "--h", "0.3", "--h-boundary", "1e-9"],
        ["mesh", "--family", "ball", "--n", "3", "--delta", "1e200", "--h", "0.3"],
        ["mesh", "--family", "cylinder", "--radius", "1", "--L", "1e12", "--h", "0.3"],
        ["oracle", "disk", "--count", str(10**8)],
        ["oracle", "sphere-laplace", "--n", "2", "--max-degree", str(10**8)],
        ["oracle", "cylinder", "--L", "1", "--n", "30"],
        ["oracle", "separated-mode", "--n", "2", "--eps", "1", "--delta", "2", "--mu", "1",
         "--lam", "0", "--resolution", str(10**8)],
        ["experiment", "asymptotics", "--k-hi", str(10**8)],
        ["experiment", "asymptotics", "--source", "cylinder", "--k-hi", str(10**8)],
        ["experiment", "blowup", "--eps", "0.4", "--max-degree", "10000",
         "--max-circle-mode", "10000"],
        ["experiment", "obstruction", "--k-max", str(10**8)],
        ["experiment", "obstruction", "--k-max", str(10**400)],
        # each k passes on its own; their sphere spectra together do not
        ["experiment", "obstruction", "--k-max", str(10**6)],
        ["index", "--samples", str(10**8)],  # on the small disk below
    ],
)
def test_over_budget_size_exits_2_before_allocating(tmp_path, capsys, disk_document, argv):
    if argv[0] == "mesh":
        argv = argv + ["--mesh-out", str(tmp_path / "mesh.json")]
    elif argv[0] == "index":
        mesh_path = tmp_path / "disk.json"
        mesh_path.write_text(json.dumps(disk_document))
        argv = argv + ["--mesh", str(mesh_path)]
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        code, err = run_clean(argv, capsys, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert peak < 16 * 2**20
    assert not out.exists() and not (tmp_path / "mesh.json").exists()


# one or two numeric options of a command take an extreme value, the rest a
# valid one.  The extremes are invalid, or valid but cheap to run (a huge
# count or degree exceeds SIZE_BUDGET); run lengths (--samples) only take
# invalid ones, 10^8 among them since it exceeds SIZE_BUDGET too.
_REAL_EXTREMES = ["1e308", "5e-324", "1e-200", str(10**400), "nan", "inf", "-inf", "0", "-1"]
_INT_EXTREMES = [str(2**53), str(2**53 + 1), str(10**400), "0", "-1", "nan"]


def _real(lo, hi):
    return st.floats(lo, hi).map(repr), st.sampled_from(_REAL_EXTREMES)


def _int(lo, hi):
    return st.integers(lo, hi).map(str), st.sampled_from(_INT_EXTREMES)


def _listed(option):
    valid, extreme = option
    return (st.lists(valid, min_size=1, max_size=3).map(",".join),
            st.tuples(valid, extreme).map(",".join))


# (fixed words, numeric options with their valid and extreme values)
_COMMANDS = [
    ("mesh --family=disk", {"--n": _int(2, 3), "--delta": _real(0.5, 1.5),
                            "--h": _real(0.3, 0.6), "--h-boundary": _real(0.1, 1.0)}),
    ("mesh --family=annulus", {"--eps": _real(0.5, 1.0), "--delta": _real(1.5, 2.0),
                               "--h": _real(0.2, 0.4), "--h-boundary": _real(0.1, 1.0)}),
    ("mesh --family=cylinder", {"--radius": _real(0.5, 1.0), "--L": _real(0.5, 1.0),
                                "--h": _real(0.2, 0.5)}),
    ("mesh --family=circle", {"--n": _int(2, 3), "--eps": _real(0.5, 1.0),
                              "--h": _real(0.2, 0.5)}),
    ("mesh --family=torus", {"--major-radius": _real(2.0, 3.0),
                             "--minor-radius": _real(0.5, 1.0), "--h": _real(0.3, 0.5)}),
    ("mesh --family=revolution-closure", {"--eps": _real(0.5, 1.0),
                                          "--delta": _real(1.5, 2.0), "--h": _real(0.3, 0.5)}),
    ("mesh --family=product", {"--eps": _real(0.5, 0.8), "--delta": _real(1.5, 2.0),
                               "--R": _real(0.3, 0.5), "--h": _real(0.3, 0.5)}),
    ("spectrum", {"--kmax": _int(1, 6), "--tol": _real(1e-10, 1e-4)}),
    ("index", {"--samples": (st.integers(1, 50).map(str),
                             st.sampled_from(["0", "-1", str(2**53 + 1), str(10**8)])),
               "--seed": _int(0, 100),
               "--degrees": _listed(_int(1, 4))}),
    ("certify", {"--k": _int(1, 3), "--i-sigma": _int(1, 4),
                 "--covering": (st.sampled_from(["literal", "empirical", "2", "64"]),
                                st.sampled_from(_REAL_EXTREMES + _INT_EXTREMES)),
                 "--seed": _int(0, 100)}),
    ("oracle annulus-sn", {"--n": _int(2, 4), "--eps": _real(0.2, 1.0),
                           "--delta": _real(1.5, 3.0), "--mode": _int(0, 10)}),
    ("oracle cylinder", {"--L": _real(0.2, 2.0), "--count": _int(1, 20), "--n": _int(2, 4),
                         "--radius": _real(0.5, 2.0), "--max-degree": _int(8, 64)}),
    ("oracle cylinder", {"--L": _real(0.2, 2.0), "--count": _int(1, 8),
                         "--lambdas": _listed(_real(0.0, 20.0))}),
    ("oracle sphere-laplace", {"--n": _int(2, 6), "--radius": _real(0.5, 2.0),
                               "--max-degree": _int(0, 20)}),
    ("oracle disk", {"--radius": _real(0.5, 2.0), "--count": _int(1, 50)}),
    ("oracle separated-mode", {"--n": _int(2, 4), "--eps": _real(0.2, 1.0),
                               "--delta": _real(1.5, 3.0), "--mu": _real(0.0, 10.0),
                               "--lam": _real(0.0, 10.0), "--resolution": _int(16, 512)}),
    ("oracle blowup-constant", {"--n": _int(3, 12)}),
    ("experiment asymptotics --source=disk", {"--radius": _real(0.5, 2.0),
                                              "--k-lo": _int(5, 20), "--k-hi": _int(30, 120)}),
    ("experiment asymptotics --source=cylinder", {"--radius": _real(0.5, 2.0),
                                                  "--L": _real(0.5, 2.0), "--k-lo": _int(5, 20),
                                                  "--k-hi": _int(30, 120)}),
    ("experiment blowup", {"--n": _int(3, 4), "--eps": _listed(_real(0.1, 0.5)),
                           "--max-degree": _int(0, 3), "--max-circle-mode": _int(0, 3),
                           "--resolution": _int(16, 128)}),
    ("experiment obstruction", {"--n": _int(2, 3), "--beta": _real(0.0, 2.0),
                                "--k-min": _int(1, 10), "--k-max": _int(10, 40)}),
]


@pytest.fixture(scope="module")
def disk_file(tmp_path_factory, disk_document):
    path = tmp_path_factory.mktemp("fuzz") / "disk.json"
    path.write_text(json.dumps(disk_document))
    return path


@given(data=st.data())
def test_numeric_options_never_escape(tmp_path, capsys, disk_file, data):
    words, options = data.draw(st.sampled_from(_COMMANDS), label="command")
    values = {key: data.draw(valid) for key, (valid, _) in options.items()}
    for key in data.draw(st.lists(st.sampled_from(sorted(options)), min_size=1, max_size=2,
                                  unique=True), label="extreme options"):
        values[key] = data.draw(options[key][1], label=key)
    argv = words.split() + [f"{key}={value}" for key, value in values.items()]
    if argv[0] == "mesh":
        argv.append(f"--mesh-out={tmp_path / 'mesh.json'}")
    elif argv[0] in MESH_COMMANDS:
        argv.append(f"--mesh={disk_file}")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the text of an option
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    if code == 0:
        _strict_json(captured.out)
    else:
        assert captured.out == ""


# a small mesh document broken by dropped, duplicated or permuted rows, or by
# entries that are not finite, not numbers or not valid vertex indices
_BAD_ENTRIES = [math.nan, math.inf, -math.inf, 1e308, 1.5, -1, 10**6, 2**53 + 1, 10**400,
                "1", "x", True, None, [1, 2], {}]


@st.composite
def corrupted_documents(draw, doc):
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(["vertices", "cells", "boundary_faces"]))
        rows = doc[key]
        i = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(["drop", "duplicate", "permute", "entry", "row"]))
        if action == "drop":
            del rows[i]
        elif action == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), json.loads(json.dumps(rows[i])))
        elif action == "permute":
            rows[:] = draw(st.permutations(rows))
        elif action == "row":
            rows[i] = draw(st.sampled_from(_BAD_ENTRIES))
        else:  # one entry of a row that an earlier corruption left a list
            row = rows[i].get("indices") if isinstance(rows[i], dict) else rows[i]
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD_ENTRIES))
        if not rows:
            break
    return doc


@given(data=st.data())
def test_corrupted_mesh_documents_never_escape(tmp_path, capsys, disk_document, data):
    doc = data.draw(corrupted_documents(disk_document), label="document")
    command = data.draw(st.sampled_from(sorted(MESH_COMMANDS)), label="command")
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = main([command, "--mesh", str(mesh_path), *MESH_COMMANDS[command], "--out", str(out)])
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in captured.err + captured.out
    if code == 0:
        _strict_json(out.read_text())
    else:
        assert not out.exists()


# -- output options ---------------------------------------------------------------

# one successful run of every leaf subcommand; {dir} is a scratch directory and
# {mesh} a boundary-graded disk document
LEAF_COMMANDS = {
    "mesh": ["mesh", "--family", "disk", "--delta", "1", "--h", "0.3",
             "--mesh-out", "{dir}/m.json"],
    "spectrum": ["spectrum", "--mesh", "{mesh}", "--kmax", "2", "--traces", "{dir}/t.csv"],
    "index": ["index", "--mesh", "{mesh}", "--samples", "20"],
    "certify": ["certify", "--mesh", "{mesh}", "--k", "1", "--i-sigma", "2"],
    "bounds": BOUNDS_ARGS,
    "oracle annulus-sn": ["oracle", "annulus-sn", "--eps", "1", "--delta", "2"],
    "oracle cylinder": ["oracle", "cylinder", "--L", "1"],
    "oracle sphere-laplace": ["oracle", "sphere-laplace", "--n", "2"],
    "oracle disk": ["oracle", "disk"],
    "oracle separated-mode": ["oracle", "separated-mode", "--n", "2", "--eps", "1", "--delta",
                              "2", "--mu", "1", "--lam", "1", "--resolution", "256"],
    "oracle blowup-constant": ["oracle", "blowup-constant", "--n", "3"],
    "experiment asymptotics": ["experiment", "asymptotics", "--k-hi", "40",
                               "--table", "{dir}/a.csv"],
    "experiment blowup": ["experiment", "blowup", "--eps", "0.4", "--max-degree", "4",
                          "--max-circle-mode", "4", "--resolution", "256",
                          "--table", "{dir}/b.csv"],
    "experiment obstruction": ["experiment", "obstruction", "--k-max", "40",
                               "--table", "{dir}/o.csv"],
}
# (leaf subcommand, one of its output options)
OUTPUTS = [
    (command, option)
    for command, argv in sorted(LEAF_COMMANDS.items())
    for option in ("--out", "--mesh-out", "--traces", "--table")
    if option == "--out" or option in argv
]


@pytest.fixture(scope="module")
def graded_disk(tmp_path_factory):
    path = tmp_path_factory.mktemp("graded") / "disk.json"
    desc = FamilyDescriptor("ball-flat", h=0.3, n=2, delta=1.0, h_boundary=0.9 / 144)
    generate_mesh(desc).save(path)
    return path


def _leaf_argv(command, directory, mesh):
    return [arg.format(dir=directory, mesh=mesh) for arg in LEAF_COMMANDS[command]]


@pytest.mark.parametrize("command", sorted(LEAF_COMMANDS))
def test_out_receives_the_report_of_every_leaf_subcommand(tmp_path, capsys, graded_disk, command):
    out = tmp_path / "report.json"
    assert run(_leaf_argv(command, tmp_path, graded_disk) + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    report = read_json(out)
    assert report["command"] == command
    assert list(report["wall_time_s"]) == ["run"]


# a missing directory and a directory fail on open, a full device on write
UNWRITABLE = {"missing-directory": "{dir}/absent/x.out", "directory": "{dir}",
              "full-device": "/dev/full"}


@pytest.mark.parametrize("fault", sorted(UNWRITABLE))
@pytest.mark.parametrize("command, option", OUTPUTS)
def test_unwritable_output_exits_2(tmp_path, capsys, graded_disk, command, option, fault):
    argv = _leaf_argv(command, tmp_path, graded_disk)
    target = UNWRITABLE[fault].format(dir=tmp_path)
    if option == "--out":
        argv += ["--out", target]
    else:
        argv[argv.index(option) + 1] = target
    code, err = run_clean(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"usage error: cannot write {target}: ")
    if fault == "full-device":
        assert err == "usage error: cannot write /dev/full: No space left on device\n"


def _child_env():
    """The environment of a fresh interpreter that imports this steklab."""
    src = str(Path(steklab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _oracle_disk_process(launcher=(), stdout=None):
    """`steklab oracle disk` in a fresh interpreter that imports this steklab."""
    argv = [*launcher, sys.executable, "-m", "steklab.cli", "oracle", "disk"]
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=_child_env(), timeout=120)


def test_closed_standard_output_exits_2():
    # the shell closes file descriptor 1 before it starts the interpreter
    proc = _oracle_disk_process(["sh", "-c", 'exec "$@" >&-', "sh"], stdout=subprocess.DEVNULL)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "usage error: cannot write the report: there is no standard output"
    ]


def test_closed_standard_output_pipe_exits_2():
    read_end, write_end = os.pipe()
    os.close(read_end)  # nothing will ever read the report
    try:
        proc = _oracle_disk_process(stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["usage error: cannot write the report: Broken pipe"]


# The child caps its own address space once its imports are done, at the size
# it has then plus a headroom, so the cap fails the request, not the start-up.
_CAPPED_MAIN = """
import resource, sys
from steklab.cli import main
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:")) * 1024
cap = size + int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(main(sys.argv[2:]))
"""


def _capped_process(headroom_mib, argv):
    env = {**_child_env(), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", _CAPPED_MAIN, str(headroom_mib), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


capped = pytest.mark.skipif(not sys.platform.startswith("linux"),
                            reason="reads the address-space size from /proc")


@capped
def test_qhull_out_of_memory_exits_3(tmp_path):
    # about 787,000 points: Qhull's allocation fails after a second or two
    mesh_out, out = tmp_path / "mesh.json", tmp_path / "report.json"
    proc = _capped_process(160, ["mesh", "--family", "disk", "--n", "2", "--delta", "1",
                                 "--h", "0.002", "--mesh-out", str(mesh_out), "--out", str(out)])
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["numerical failure: out of memory"]
    assert not mesh_out.exists() and not out.exists()


@capped
def test_dense_branch_out_of_memory_exits_3(tmp_path):
    # 2,992 Steklov vertices and one interior ring: the LU fits in the headroom,
    # the 68 MiB G-block of A^{-1} and its inverse do not
    mesh = generate_mesh(FamilyDescriptor("cylinder-surface", h=0.0042, radius=1.0, length=0.006))
    n_gamma = len(mesh.steklov_vertices())
    assert n_gamma == 2992 and mesh.n_vertices == 3 * n_gamma // 2
    path, traces, out = tmp_path / "mesh.json", tmp_path / "t.csv", tmp_path / "report.json"
    mesh.save(path)
    proc = _capped_process(192, ["spectrum", "--mesh", str(path), "--kmax", str(n_gamma // 4),
                                 "--traces", str(traces), "--out", str(out)])
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["numerical failure: out of memory"]
    assert not traces.exists() and not out.exists()

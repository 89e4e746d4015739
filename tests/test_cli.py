import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hermcap
from hermcap import classical_ovoid
from hermcap.capfile import load_cap_ids, read_cap, resolve_cap, serialize_cap, write_cap
from hermcap import cli
from hermcap.cli import main
from hermcap.errors import CapFileError


def run_cli(*argv):
    return main(list(argv))


def test_surface_info_values(capsys):
    assert run_cli("surface-info", "--q", "2") == 0
    assert capsys.readouterr().out.strip() == (
        "points=45 gx=13 generators=27 per_point=3 ovoid=9"
    )
    assert run_cli("surface-info", "--q", "5") == 0
    assert capsys.readouterr().out.strip() == (
        "points=3276 gx=151 generators=756 per_point=6 ovoid=126"
    )


def test_unsupported_q_exits_2(capsys):
    assert run_cli("surface-info", "--q", "6") == 2
    assert "prime power" in capsys.readouterr().err


def test_q_above_limit_exits_2(capsys):
    assert run_cli("surface-info", "--q", "17") == 2
    assert capsys.readouterr().err.startswith("error: q=17 exceeds")


def test_jobs_environment_variable_is_ignored(monkeypatch, capsys):
    monkeypatch.setenv("HERMCAP_JOBS", "abc")
    assert run_cli("surface-info", "--q", "2") == 0
    assert capsys.readouterr().out.startswith("points=45 ")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", "--q", "2", "--runs", "5")  # seed group missing
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "bad",
    [
        ["--runs", "0", "--empty"],
        ["--runs", "5", "--seed-size", "-1"],
        ["--runs", "5", "--seed-size", "345"],  # q^3 + 1 = 344 at q = 7
        ["--runs", "5", "--empty", "--jobs", "0"],
        ["--runs", "5", "--empty", "--jobs", "-5"],
    ],
    ids=["runs-0", "seed-size-negative", "seed-size-above-ovoid", "jobs-0", "jobs-negative"],
)
def test_spectrum_bad_config_exits_2_before_model_build(bad, monkeypatch, capsys):
    def no_build(q):
        raise AssertionError("model built before the arguments were validated")

    monkeypatch.setattr(cli, "_build_model", no_build)
    assert run_cli("spectrum", "--q", "7", "--master", "1", *bad) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_passes(capsys):
    assert run_cli("verify", "--q", "2", "--deep") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "ok" in out


def test_cap_file_round_trip(tmp_path, model_q3):
    ov = classical_ovoid(model_q3)
    path = tmp_path / "ovoid.json"
    write_cap(path, model_q3, ov)
    ids = load_cap_ids(model_q3, path)
    assert np.array_equal(ids, ov)
    data = path.read_bytes()
    assert serialize_cap(model_q3, ids) == data  # byte-exact round trip
    payload = json.loads(data)
    assert payload["form"] == "diagonal"
    assert payload["q"] == 3 and payload["p"] == 3 and payload["k"] == 1
    assert payload["modulus"] == [1, 0, 1]


def test_cap_file_validation_errors(tmp_path, model_q3):
    ov = classical_ovoid(model_q3)
    path = tmp_path / "bad.json"

    payload = json.loads(serialize_cap(model_q3, ov))
    payload["points"][0] = [1, 0, 0, 0]  # off the surface
    path.write_text(json.dumps(payload))
    with pytest.raises(CapFileError, match="off-surface"):
        load_cap_ids(model_q3, path)

    payload = json.loads(serialize_cap(model_q3, ov))
    conj = model_q3.coords_of(int(model_q3.tangent_set(int(ov[0]))[1]))
    payload["points"].append(list(conj))
    path.write_text(json.dumps(payload))
    with pytest.raises(CapFileError, match="not-a-cap"):
        load_cap_ids(model_q3, path)

    payload = json.loads(serialize_cap(model_q3, ov))
    payload["modulus"] = [2, 0, 1]
    path.write_text(json.dumps(payload))
    with pytest.raises(CapFileError, match="modulus"):
        load_cap_ids(model_q3, path)

    path.write_text("{not json")
    with pytest.raises(CapFileError, match="unreadable"):
        load_cap_ids(model_q3, path)


def test_verify_names_capfile_failure(tmp_path, capsys):
    from hermcap.capfile import serialize_cap
    from tests.conftest import get_model

    model = get_model(2)
    ov = classical_ovoid(model)
    payload = json.loads(serialize_cap(model, ov))
    payload["points"][0] = [1, 0, 0, 0]
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("verify", "--q", "2", "--cap", str(bad)) == 1
    out = capsys.readouterr()
    assert "FAIL capfile-valid" in out.out
    assert "capfile-point-off-surface" in out.out
    assert "first failing invariant: capfile-valid" in out.err


def test_verify_reports_raising_check_as_failure(monkeypatch, capsys):
    # a fresh model, not the shared cache: with two tangent rows swapped the
    # search checks' random completion adds a covered point and raises
    model = cli._build_model(2)
    model.tangent_dense[[0, 1]] = model.tangent_dense[[1, 0]]
    monkeypatch.setattr(cli, "_build_model", lambda q: model)
    assert run_cli("verify", "--q", "2", "--deep") == 1
    out = capsys.readouterr()
    assert "FAIL search-checks-raised (CapViolationError: point " in out.out
    assert "ok   oracle-conjugacy-form-q3" in out.out  # later groups still run
    assert "first failing invariant: " in out.err
    assert "Traceback" not in out.out + out.err


def _malformed_cap(kind, model):
    if kind == "top-level-number":
        return "5"
    payload = json.loads(serialize_cap(model, classical_ovoid(model)))
    if kind == "modulus-number":
        payload["modulus"] = 5
    else:
        payload["points"] = [7]
    return json.dumps(payload)


@pytest.mark.parametrize("kind", ["top-level-number", "modulus-number", "point-number"])
def test_malformed_cap_file_exits_1_without_traceback(kind, tmp_path, model_q2, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(_malformed_cap(kind, model_q2))
    assert run_cli("complete", "--q", "2", "--input", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: capfile-") and "Traceback" not in err
    assert run_cli("verify", "--q", "2", "--cap", str(bad)) == 1
    out = capsys.readouterr()
    assert "FAIL capfile-valid (capfile-" in out.out
    assert "first failing invariant: capfile-valid" in out.err
    assert "Traceback" not in out.out + out.err


def test_complete_with_ovoid_input(tmp_path, model_q2, capsys):
    ov = classical_ovoid(model_q2)
    inp = tmp_path / "in.json"
    outp = tmp_path / "out.json"
    write_cap(inp, model_q2, ov)
    assert (
        run_cli(
            "complete", "--q", "2", "--strategy", "random",
            "--input", str(inp), "--output", str(outp),
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "size=9 is_ovoid=true"
    assert outp.read_bytes() == inp.read_bytes()


def test_complete_non_cap_input_exits_1(tmp_path, model_q2, capsys):
    pair = [int(x) for x in model_q2.tangent_set(0)[:2]]
    payload = {
        "q": 2, "p": 2, "k": 1, "modulus": [1, 1, 1], "form": "diagonal",
        "points": [list(model_q2.coords_of(i)) for i in pair],
    }
    bad = tmp_path / "pair.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("complete", "--q", "2", "--input", str(bad)) == 1
    assert "capfile-not-a-cap" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["random", "min-relevance", "forward", "backtrack"])
def test_complete_all_strategies(strategy, capsys):
    assert run_cli("complete", "--q", "2", "--strategy", strategy, "--seed", "5") == 0
    out = capsys.readouterr().out
    assert out.startswith("size=")


def test_spectrum_outputs(tmp_path, capsys):
    hist_path = tmp_path / "hist.csv"
    log_path = tmp_path / "runs.jsonl"
    assert (
        run_cli(
            "spectrum", "--q", "2", "--strategy", "random", "--runs", "40",
            "--empty", "--master", "99",
            "--out", str(hist_path), "--runlog", str(log_path),
        )
        == 0
    )
    header, *rows = hist_path.read_text().strip().split("\n")
    assert header == "size,count,percent"
    assert sum(int(r.split(",")[1]) for r in rows) == 40
    lines = log_path.read_text().strip().split("\n")
    assert len(lines) == 40 and json.loads(lines[0])["run_index"] == 0


def test_spectrum_jobs_determinism(tmp_path):
    logs = []
    for jobs in ("1", "3"):
        path = tmp_path / f"log{jobs}.jsonl"
        assert (
            run_cli(
                "spectrum", "--q", "2", "--strategy", "random", "--runs", "30",
                "--seed-size", "4", "--master", "31415",
                "--jobs", jobs, "--runlog", str(path), "--out", str(tmp_path / "h.csv"),
            )
            == 0
        )
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]


def test_spectrum_json_format(capsys):
    assert (
        run_cli(
            "spectrum", "--q", "2", "--strategy", "min-relevance", "--runs", "10",
            "--empty", "--master", "7", "--format", "json",
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_runs"] == 10 and payload["strategy"] == "min-relevance"


def test_ovoid_and_thin_commands(tmp_path, model_q2, capsys):
    ov_path = tmp_path / "ovoid.json"
    kept_path = tmp_path / "kept.json"
    removed_path = tmp_path / "removed.json"
    assert run_cli("ovoid", "--q", "2", "--output", str(ov_path)) == 0
    assert capsys.readouterr().out.strip() == "size=9"
    assert (
        run_cli(
            "thin", "--q", "2", "--seed", "2",
            "--output", str(kept_path), "--removed", str(removed_path),
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "kept=6 removed=3"
    kept = load_cap_ids(model_q2, kept_path)
    removed = load_cap_ids(model_q2, removed_path)
    ov = load_cap_ids(model_q2, ov_path)
    assert sorted(set(map(int, kept)) | set(map(int, removed))) == list(map(int, ov))
    # thin then complete recovers the ovoid
    assert run_cli("complete", "--q", "2", "--input", str(kept_path), "--output", str(tmp_path / "re.json")) == 0
    assert np.array_equal(load_cap_ids(model_q2, tmp_path / "re.json"), ov)


def test_console_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(hermcap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hermcap.cli", "surface-info", "--q", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "points=280 gx=37 generators=112 per_point=4 ovoid=28"


def test_emitted_files_reverify(tmp_path, capsys):
    path = tmp_path / "cap.json"
    assert run_cli("complete", "--q", "3", "--seed", "77", "--output", str(path)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--q", "3", "--cap", str(path)) == 0

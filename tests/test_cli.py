import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hermcap
from hermcap import CapState, GapReport
from hermcap.capfile import cap_ids, load_cap_ids, serialize_cap, write_cap
from hermcap import cli
from hermcap.cli import main
from hermcap.errors import CapFileError
from hermcap.verify import run_checks


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
    for q in (17, 2**61 - 1):  # 2^61 - 1 is prime: factoring it first would not finish
        assert run_cli("surface-info", "--q", str(q)) == 2
        assert capsys.readouterr().err.startswith(f"error: q={q} exceeds")


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


@pytest.mark.parametrize("value", ["-1", str(2**64)])
@pytest.mark.parametrize(
    "argv",
    [
        ["complete", "--q", "7", "--seed"],
        ["thin", "--q", "7", "--seed"],
        ["spectrum", "--q", "7", "--runs", "2", "--empty", "--master"],
    ],
    ids=["complete-seed", "thin-seed", "spectrum-master"],
)
def test_seed_outside_64_bits_exits_2_before_model_build(argv, value, monkeypatch, capsys):
    def no_build(q):
        raise AssertionError("model built before the seed was validated")

    monkeypatch.setattr(cli, "_build_model", no_build)
    assert run_cli(*argv, value) == 2
    assert capsys.readouterr().err.startswith(f"error: {argv[-1]} must lie in [0, 2^64)")


def test_verify_passes(capsys):
    assert run_cli("verify", "--q", "2", "--deep") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "ok" in out


def test_cap_file_round_trip(tmp_path, model_q3):
    ov = model_q3.classical_ovoid_ids()
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


def test_serialize_cap_reads_ids_as_the_readers_do(model_q3):
    ov = model_q3.classical_ovoid_ids()
    with pytest.raises(TypeError):
        serialize_cap(model_q3, [1.7])  # must not write point 1
    with pytest.raises(ValueError):
        serialize_cap(model_q3, [int(ov[0]), int(ov[0])])  # cap_ids rejects a repeated point
    with pytest.raises(ValueError):
        serialize_cap(model_q3, [model_q3.num_points])
    # any order and integer type writes the same bytes, and a non-cap stays writable
    assert serialize_cap(model_q3, ov[::-1].astype(np.uint16)) == serialize_cap(model_q3, ov)
    pair = np.unique(model_q3.pencil(0))[:2]
    assert len(json.loads(serialize_cap(model_q3, pair))["points"]) == 2


def test_cap_file_validation_errors(tmp_path, model_q3):
    ov = model_q3.classical_ovoid_ids()
    path = tmp_path / "bad.json"

    payload = json.loads(serialize_cap(model_q3, ov))
    payload["points"][0] = [1, 0, 0, 0]  # off the surface
    path.write_text(json.dumps(payload))
    with pytest.raises(CapFileError, match="off-surface"):
        load_cap_ids(model_q3, path)

    payload = json.loads(serialize_cap(model_q3, ov))
    conj = model_q3.coords_of(int(np.unique(model_q3.pencil(int(ov[0])))[1]))
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

    # json.loads raises RecursionError, not ValueError, on 100,000 nested lists
    with pytest.raises(CapFileError, match="capfile-unreadable"):
        cap_ids(model_q3, b"[" * 100_000)


def test_verify_names_capfile_failure(tmp_path, capsys):
    from hermcap.capfile import serialize_cap
    from tests.conftest import get_model

    model = get_model(2)
    ov = model.classical_ovoid_ids()
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
    # a fresh model, not the shared cache: with the pencils of two points
    # swapped the search checks' random completion adds a covered point and raises
    model = cli._build_model(2)
    gens = model._gens_by_point.copy()  # the model's own arrays are read-only
    gens[[0, 1]] = gens[[1, 0]]
    model._gens_by_point = gens
    monkeypatch.setattr(cli, "_build_model", lambda q: model)
    assert run_cli("verify", "--q", "2", "--deep") == 1
    out = capsys.readouterr()
    assert "FAIL search-checks-raised (CapViolationError: point " in out.out
    assert "ok   oracle-conjugacy-form-q3" in out.out  # later groups still run
    assert "first failing invariant: " in out.err
    assert "Traceback" not in out.out + out.err


def test_verify_checks_conjugacy_against_the_form(monkeypatch, capsys):
    # a fresh model with the generator lists of points 0 and 1 swapped:
    # conjugacy read off them stays symmetric, and the scalar form catches it
    model = cli._build_model(2)
    gens = model._gens_by_point.copy()
    gens[[0, 1]] = gens[[1, 0]]
    model._gens_by_point = gens
    monkeypatch.setattr(cli, "_build_model", lambda q: model)
    assert run_cli("verify", "--q", "2") == 1
    out = capsys.readouterr()
    assert "FAIL surface-conjugacy-form" in out.out
    assert "Traceback" not in out.out + out.err


_ROLLED_VERIFY = """
import numpy as np
from hermcap import cli
model = cli._build_model(2)
model._gens_by_point = np.roll(model._gens_by_point, 1, axis=0)
cli._build_model = lambda q: model
raise SystemExit(cli.main(["verify", "--q", "2"]))
"""


def test_verify_fails_on_a_rolled_model_without_hanging():
    # each point gets its neighbour's generators, so adding a point need not
    # cover it; a child process, so that a hang ends at the timeout
    src = str(Path(hermcap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _ROLLED_VERIFY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    # the surface group's failures stay in front of the result for its raise
    failing = [line for line in lines if line.startswith("FAIL surface-")]
    assert failing[:3] == [
        "FAIL surface-tangent-size",
        "FAIL surface-conjugacy-form",
        "FAIL surface-self-tangency",
    ]
    assert failing[3].startswith("FAIL surface-checks-raised")
    assert any(line.startswith("FAIL search-checks-raised (HermcapError") for line in lines)
    assert "Traceback" not in proc.stdout + proc.stderr


def test_verify_catches_a_dropped_relevance_update(model_q3, monkeypatch):
    # add_point keeps its coverage counters but undoes its relevance update:
    # only the comparison of relevance with a fresh state can tell
    add_point = CapState.add_point

    def dropped(cap, x):
        unc = None if cap._unc is None else cap._unc.copy()
        add_point(cap, x)
        cap._unc = unc

    monkeypatch.setattr(CapState, "add_point", dropped)
    results = {r.name: r.ok for r in run_checks(model_q3)}
    assert results["capstate-incremental-exact"] is False
    assert results["field-ring-axioms"] and results["search-deterministic"]


def _read_skips_its_shift(monkeypatch):
    read = CapState.uncovered_relevance
    monkeypatch.setattr(CapState, "uncovered_relevance", lambda cap, m: read(cap, m) + cap.model.q)


def _add_skips_the_put_back(monkeypatch):
    # x's own q + 1 generators hold no uncovered point; leave them at -q
    add_point = CapState.add_point

    def skipped(cap, x):
        add_point(cap, x)
        if cap._unc is not None:
            cap._unc[cap.model.generators_of(x)] -= cap.model.q

    monkeypatch.setattr(CapState, "add_point", skipped)


def _relevance_off_by_one(monkeypatch):
    read = CapState.relevance_many
    monkeypatch.setattr(CapState, "relevance_many", lambda cap, ids: read(cap, ids) + 1)


def _weight_drops_a_term(monkeypatch):
    # the candidate's own term, 1 / 1
    read = CapState.weight_after_add_many
    monkeypatch.setattr(CapState, "weight_after_add_many", lambda cap, ids: read(cap, ids) - 1)


@pytest.mark.parametrize(
    ("fault", "failing"),
    [
        (_read_skips_its_shift, ["capstate-incremental-exact"]),
        (_add_skips_the_put_back, ["capstate-incremental-exact"]),
        (_relevance_off_by_one, ["capstate-relevance-coverage-identity", "oracle-relevance-singletons-q2"]),
        (_weight_drops_a_term, ["ovoid-member-weight"]),
    ],
    ids=["read_skips_its_shift", "add_skips_the_put_back", "relevance_off_by_one", "weight_drops_a_term"],
)
def test_verify_catches_a_wrong_uncovered_read(model_q3, monkeypatch, fault, failing):
    # incremental-exact compares the uncovered read of the mutated state with
    # a fresh state's relevance_many of the same ids; the identity and the
    # singleton oracle read relevance_many, the member weight its weight
    # after being added back
    fault(monkeypatch)
    results = {r.name: r.ok for r in run_checks(model_q3, deep=True)}
    assert [results[name] for name in failing] == [False] * len(failing)
    assert results["field-ring-axioms"] and results["search-deterministic"]


def test_verify_check_names_keep_their_order(model_q2, tmp_path):
    # every check of the full suite, in the order verify prints them
    path = tmp_path / "ovoid.json"
    write_cap(path, model_q2, model_q2.classical_ovoid_ids())
    results = run_checks(model_q2, deep=True, cap_path=path)
    assert all(r.ok for r in results)
    assert [r.name for r in results] == [
        "field-ring-axioms",
        "field-inverses",
        "field-conjugation-involutory",
        "field-subfield-size",
        "field-conjugation-homomorphism",
        "field-norm-fibers",
        "surface-point-count",
        "surface-tangent-size",
        "surface-conjugacy-form",
        "surface-self-tangency",
        "ovoid-size",
        "ovoid-complete",
        "ovoid-member-weight",
        "capstate-incremental-exact",
        "capstate-relevance-coverage-identity",
        "capstate-member-multiplicity-one",
        "search-random-complete-in-bounds",
        "search-deterministic",
        "generators-count",
        "generators-line-size",
        "generators-per-point",
        "ovoid-meets-generators-once",
        "oracle-relevance-singletons-q2",
        "oracle-conjugacy-generators-q2",
        "oracle-conjugacy-form-q2",
        "oracle-relevance-singletons-q3",
        "oracle-conjugacy-generators-q3",
        "oracle-conjugacy-form-q3",
        "capfile-valid",
        "capfile-roundtrip",
    ]


def test_verify_deep_counts_generators_per_point(monkeypatch, capsys):
    # a fresh model, not the shared cache: point 0 of generator 0 is replaced by
    # a point off it, which then lies on q + 2 generators and point 0 on q; the
    # pencil of point 0 still holds gx distinct ids, but 0 only q times
    model = cli._build_model(2)
    gens = model._gen_points.copy()
    gens[0, 0] = gens[1, -1]
    model._gen_points = gens
    monkeypatch.setattr(cli, "_build_model", lambda q: model)
    assert run_cli("verify", "--q", "2", "--deep") == 1
    out = capsys.readouterr()
    assert "FAIL generators-per-point" in out.out
    assert "FAIL surface-tangent-size" in out.out
    assert "ok   generators-count" in out.out
    assert "Traceback" not in out.out + out.err


# kind -> the invariant the malformed file violates
_MALFORMED = {
    "top-level-number": "capfile-not-an-object",
    "modulus-number": "capfile-bad-field",
    "point-number": "capfile-bad-coordinates",
    "q-float": "capfile-bad-field",
    "k-bool": "capfile-bad-field",
    "modulus-float": "capfile-bad-field",
    "point-bool": "capfile-bad-coordinates",
    "point-float": "capfile-bad-coordinates",
    "point-zero": "capfile-bad-coordinates",
    "point-short": "capfile-bad-coordinates",
    "point-long": "capfile-bad-coordinates",
    "point-negative": "capfile-bad-coordinates",
    "point-outside-field": "capfile-bad-coordinates",
    "form-missing": "capfile-missing-field",
    "k-mismatch": "capfile-field-mismatch",
    "form-unknown": "capfile-unknown-form",
    "point-scaled": "capfile-point-not-normalized",
    "point-repeated": "capfile-duplicate-points",
    "nested-too-deep": "capfile-unreadable",
}


def _malformed_cap(kind, model):
    if kind == "top-level-number":
        return "5"
    if kind == "nested-too-deep":
        return "[" * 100_000
    payload = json.loads(serialize_cap(model, model.classical_ovoid_ids()))
    points = payload["points"]
    if kind == "modulus-number":
        payload["modulus"] = 5
    elif kind == "point-number":
        payload["points"] = [7]
    elif kind == "q-float":
        payload["q"] = float(payload["q"])
    elif kind == "k-bool":
        payload["k"] = True
    elif kind == "modulus-float":
        payload["modulus"][-1] = 1.0
    elif kind == "point-zero":
        points[0] = [0, 0, 0, 0]
    elif kind == "point-short":
        points[0] = points[0][:3]
    elif kind == "point-long":
        points[0] = points[0] + [0]
    elif kind == "point-negative":
        points[0][-1] = -1
    elif kind == "point-outside-field":
        points[0][-1] = model.q2
    elif kind == "form-missing":
        del payload["form"]
    elif kind == "k-mismatch":
        payload["k"] = 2
    elif kind == "form-unknown":
        payload["form"] = "hermitian"
    elif kind == "point-scaled":
        # the first nonzero coordinate becomes 2 instead of 1
        points[0] = [int(model.field.mul2[2, c]) for c in points[0]]
    elif kind == "point-repeated":
        points.append(points[0])
    elif kind == "point-bool":
        # a point whose coordinates are all 0 or 1, so true/false compare equal
        i = next(i for i, pt in enumerate(points) if max(pt) == 1)
        points[i] = [c == 1 for c in points[i]]
    else:
        points[0] = [float(c) for c in points[0]]
    return json.dumps(payload)


@pytest.mark.parametrize("kind", sorted(_MALFORMED))
def test_malformed_cap_file_exits_1_without_traceback(kind, tmp_path, model_q2, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(_malformed_cap(kind, model_q2))
    assert run_cli("complete", "--q", "2", "--input", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {_MALFORMED[kind]}") and "Traceback" not in err
    spectrum = ["spectrum", "--q", "2", "--runs", "2", "--master", "1"]
    assert run_cli(*spectrum, "--seed-file", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {_MALFORMED[kind]}") and "Traceback" not in err
    assert run_cli("verify", "--q", "2", "--cap", str(bad)) == 1
    out = capsys.readouterr()
    assert f"FAIL capfile-valid ({_MALFORMED[kind]}" in out.out
    assert "first failing invariant: capfile-valid" in out.err
    assert "Traceback" not in out.out + out.err


def test_unreadable_cap_file_exits_1_without_traceback(tmp_path, capsys):
    # a directory: reading it raises an OSError, not a JSON error
    assert run_cli("complete", "--q", "2", "--input", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: capfile-unreadable") and "Traceback" not in err
    assert run_cli("verify", "--q", "2", "--cap", str(tmp_path)) == 1
    assert "FAIL capfile-valid (capfile-unreadable" in capsys.readouterr().out


_OUTPUT_ARGVS = [
    ["complete", "--q", "2", "--output"],
    ["spectrum", "--q", "2", "--runs", "2", "--empty", "--master", "1", "--out"],
    ["spectrum", "--q", "2", "--runs", "2", "--empty", "--master", "1", "--runlog"],
    ["ovoid", "--q", "2", "--output"],
    ["thin", "--q", "2", "--output"],
    ["thin", "--q", "2", "--removed"],
]


def _output_id(argv):
    return f"{argv[0]}{argv[-1]}"


@pytest.mark.parametrize("argv", _OUTPUT_ARGVS, ids=_output_id)
def test_unwritable_output_exits_1_without_traceback(argv, tmp_path, capsys):
    assert run_cli(*argv, str(tmp_path / "missing" / "x.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err


@pytest.mark.parametrize("argv", _OUTPUT_ARGVS, ids=_output_id)
def test_missing_output_directory_exits_1_before_model_build(argv, tmp_path, monkeypatch, capsys):
    def no_build(q):
        raise AssertionError("model built before the output paths were checked")

    monkeypatch.setattr(cli, "_build_model", no_build)
    assert run_cli(*argv, str(tmp_path / "missing" / "x.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err


def test_complete_with_ovoid_input(tmp_path, model_q2, capsys):
    ov = model_q2.classical_ovoid_ids()
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
    pair = [int(x) for x in np.unique(model_q2.pencil(0))[:2]]
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


def test_spectrum_prints_a_gap_report_to_stderr(monkeypatch, capsys):
    spectrum = ["spectrum", "--q", "2", "--runs", "3", "--empty", "--master", "1"]
    assert run_cli(*spectrum) == 0
    assert capsys.readouterr().err == ""
    seen = []

    def gap_check(records, q):
        seen.append((len(records), q))
        return GapReport(q=q, lower=7, upper=9, offenders={8: 3})

    monkeypatch.setattr(cli, "gap_check", gap_check)
    assert run_cli(*spectrum) == 0
    out = capsys.readouterr()
    assert seen == [(3, 2)]
    assert out.out.startswith("size,count,percent\n")
    assert out.err == "cap sizes inside (7, 9): 8x3\n"


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


def test_spectrum_seed_file(tmp_path, model_q3, capsys):
    seed = tmp_path / "seed.json"
    write_cap(seed, model_q3, model_q3.classical_ovoid_ids()[::3])  # 10 of the 28 points
    logs = []
    for jobs in ("1", "2"):
        path = tmp_path / f"log{jobs}.jsonl"
        assert (
            run_cli(
                "spectrum", "--q", "3", "--strategy", "backtrack", "--runs", "12",
                "--seed-file", str(seed), "--master", "5",
                "--jobs", jobs, "--runlog", str(path), "--out", str(tmp_path / "h.csv"),
            )
            == 0
        )
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]
    records = [json.loads(line) for line in logs[0].splitlines()]
    assert len(records) == 12 and all(r["input_size"] == 10 for r in records)

    pair = tmp_path / "pair.json"
    write_cap(pair, model_q3, np.unique(model_q3.pencil(0))[:2])
    capsys.readouterr()
    assert (
        run_cli(
            "spectrum", "--q", "3", "--runs", "2", "--seed-file", str(pair), "--master", "5",
        )
        == 1
    )
    assert capsys.readouterr().err.strip() == "error: capfile-not-a-cap"


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


def test_failed_thinning_exits_1_with_its_error(monkeypatch, capsys):
    # no coverer may leave, so every witness fails and thinning gives up
    monkeypatch.setattr(CapState, "removal_relevance_many", lambda cap, ids: np.full(len(ids), 2))
    assert run_cli("thin", "--q", "2") == 1
    out = capsys.readouterr()
    assert out.err.strip() == "error: ovoid thinning could not honor the covering invariant"
    assert "Traceback" not in out.out + out.err


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


def test_package_runs_as_module():
    # python -m hermcap, from a source checkout as from an install
    src = str(Path(hermcap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hermcap", "surface-info", "--q", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "points=45 gx=13 generators=27 per_point=3 ovoid=9"


def test_emitted_files_reverify(tmp_path, capsys):
    path = tmp_path / "cap.json"
    assert run_cli("complete", "--q", "3", "--seed", "77", "--output", str(path)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--q", "3", "--cap", str(path)) == 0

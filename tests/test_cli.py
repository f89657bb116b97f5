import contextlib
import copy
import io
import json
import os
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcc.analysis import classify
from amcc.catalog import ghz_model, pr_box
from amcc.cli import main
from amcc.empirical import model_from_dict, model_to_dict

from _generators import cycle_scenario, uniform_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_stdin(capsys, monkeypatch, payload, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    return run_cli(capsys, *argv)


def test_catalog_emit_then_classify_roundtrip(capsys, tmp_path):
    path = tmp_path / "pr.json"
    code, out, err = run_cli(
        capsys, "catalog", "pr-box", "--alpha", "0", "--beta", "0",
        "--gamma", "0", "--emit", str(path),
    )
    assert code == 0 and out == ""
    assert "wrote" in err

    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    report = json.loads(out)
    in_process = classify(pr_box(0, 0, 0)).to_dict()
    assert report == in_process
    assert report["amcc"] is True and report["cf"] == "1"


def test_classify_reads_stdin(capsys, monkeypatch):
    payload = model_to_dict(ghz_model())
    code, out, _ = run_cli_stdin(capsys, monkeypatch, payload, "classify", "--no-avn")
    assert code == 0
    report = json.loads(out)
    assert report["amcc"] is True
    assert "avn" not in report["witness"]


def test_cf_subcommand(capsys, monkeypatch, tmp_path):
    payload = model_to_dict(pr_box(1, 0, 1))
    code, out, _ = run_cli_stdin(capsys, monkeypatch, payload, "cf")
    assert (code, out.strip()) == (0, "1")

    # A deterministic model has CF = 0.
    from amcc.empirical import deterministic_model
    from amcc.scenario import bell_scenario

    det = model_to_dict(deterministic_model(bell_scenario(2, 2), (0, 0, 0, 0)))
    path = tmp_path / "det.json"
    path.write_text(json.dumps(det))
    code, out, _ = run_cli(capsys, "cf", str(path))
    assert (code, out.strip()) == (0, "0")


def test_catalog_stdout_and_unknown_name(capsys):
    code, out, _ = run_cli(capsys, "catalog", "ghz")
    assert code == 0
    assert model_from_dict(json.loads(out)).tables == ghz_model().tables

    code, _, err = run_cli(capsys, "catalog", "nope")
    assert code == 1 and "unknown catalog model" in err


def test_parity_subcommand_consistency_and_classification(capsys):
    code, out, _ = run_cli(
        capsys, "parity", "--scenario", "bell-2-2-2", "--parities", "0001",
        "--classify",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is False
    assert payload["certificate"] == [0, 1, 2, 3]
    assert payload["classification"]["amcc"] is True


def test_parity_scenario_inferred_from_length(capsys):
    code, out, _ = run_cli(capsys, "parity", "--parities", "01111111")
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"] == "bell-3-2-2"
    assert payload["consistent"] is False


def test_parity_emit_lift(capsys, tmp_path):
    path = tmp_path / "lift.json"
    code, _, _ = run_cli(
        capsys, "parity", "--scenario", "bell-2-2-2", "--parities", "0001",
        "--emit", str(path),
    )
    assert code == 0
    lifted = model_from_dict(json.loads(path.read_text()))
    assert lifted.tables == pr_box(0, 0, 0).tables


def test_parity_preset_file(capsys, tmp_path):
    preset = {"scenario": "bell-2-2-2", "parities": [0, 0, 0, 1]}
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(preset))
    code, out, _ = run_cli(capsys, "parity", "--preset-file", str(path))
    assert code == 0
    assert json.loads(out)["consistent"] is False


def test_enumerate_parity_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "parity", "--scenario", "bell-2-2-2")
    assert code == 0
    assert json.loads(out) == {"total": 16, "consistent": 8, "amcc": 8}


def test_enumerate_parity_stream(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "parity", "--scenario", "bell-2-2-2", "--stream"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 17  # 16 verdicts + summary
    assert lines[0]["parities"] == [0, 0, 0, 0]
    assert lines[0]["consistent"] is True
    assert lines[-1]["amcc"] == 8


def test_scan_eight_param(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "eight-param", "--grid", "0,1/4", "--fix", "1=1/4",
        "--fix", "2=0", "--fix", "3=0", "--fix", "4=0", "--fix", "5=0",
        "--fix", "6=0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 4
    assert sum(payload["histogram"].values()) == 4


def test_entropy_subcommand(capsys, monkeypatch):
    payload = model_to_dict(ghz_model())
    code, out, _ = run_cli_stdin(
        capsys, monkeypatch, payload,
        "entropy", "--context", "000", "--subset", "X1,X2",
    )
    assert code == 0
    report = json.loads(out)
    assert report == {
        "guess_probability": "1/4",
        "min_entropy_bits": 2.0,
        "subset_size": 2,
    }


def test_entropy_unknown_context_is_validation_error(capsys, monkeypatch):
    payload = model_to_dict(pr_box(0, 0, 0))
    code, _, err = run_cli_stdin(
        capsys, monkeypatch, payload,
        "entropy", "--context", "000", "--subset", "X1",
    )
    assert code == 2 and "no context" in err


def test_entropy_repeated_subset_label_exits_2(capsys, monkeypatch):
    code, out, err = run_cli_stdin(
        capsys, monkeypatch, model_to_dict(ghz_model()),
        "entropy", "--context", "000", "--subset", "X1,X1",
    )
    assert (code, out) == (2, "") and "duplicate label" in err


def test_empty_parities_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "parity", "--parities", "")
    assert (code, out) == (1, "") and "cannot infer a scenario from 0 parities" in err
    code, out, err = run_cli(
        capsys, "secret-share", "--parities", "", "--rounds", "10",
        "--test-fraction", "1/5", "--seed", "1", "--secret", "a5",
    )
    assert (code, out) == (1, "") and "cannot infer a scenario" in err


@pytest.mark.parametrize("command", ["parity", "secret-share"])
def test_single_parity_is_usage_error(capsys, command):
    # One parity bit would name bell-0-2-2; it gets the same usage error as
    # every other length that fixes no Bell scenario.
    argv = [command, "--parities", "1"]
    if command == "secret-share":
        argv += ["--rounds", "10", "--test-fraction", "1/5", "--seed", "1", "--secret", "a5"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and "cannot infer a scenario from 1 parities" in err


@pytest.mark.parametrize("subset", ["", ","])
def test_entropy_empty_subset_exits_2(capsys, monkeypatch, subset):
    code, out, err = run_cli_stdin(
        capsys, monkeypatch, model_to_dict(ghz_model()),
        "entropy", "--context", "000", "--subset", subset,
    )
    assert (code, out) == (2, "") and "at least one observable" in err


def test_scan_fix_non_integer_index_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "scan", "eight-param", "--grid", "0", "--fix", "x=1/4")
    assert (code, out) == (1, "") and "--fix expects i=value, got 'x=1/4'" in err


def test_scan_repeated_fix_index_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "scan", "eight-param", "--grid", "0,1/8", "--fix", "1=1/4", "--fix", "1=0",
        "--fix", "2=0", "--fix", "3=0", "--fix", "4=0", "--fix", "5=0", "--fix", "6=0",
    )
    assert (code, out) == (1, "") and "--fix gives index 1 more than once" in err


@pytest.mark.parametrize("rounds", ["-3", "0", "65537"])
def test_secret_share_rounds_outside_guard_exit_2(capsys, rounds):
    code, out, err = run_cli(
        capsys, "secret-share", "--parities", "01111111", "--rounds", rounds,
        "--test-fraction", "1/5", "--seed", "1", "--secret", "a5",
    )
    assert (code, out) == (2, "") and "round" in err


def test_secret_share_transcript(capsys):
    args = (
        "secret-share", "--parities", "01111111", "--rounds", "50",
        "--test-fraction", "1/5", "--seed", "42", "--secret", "a5",
    )
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    lines = first.strip().splitlines()
    header = json.loads(lines[0])["header"]
    assert header["seed"] == 42 and header["rng"] == "python-random-mt19937"
    result = json.loads(lines[-1])["result"]
    assert result["success"] is True


def test_signaling_model_exits_2_with_witness(capsys, monkeypatch):
    payload = model_to_dict(pr_box(0, 0, 0))
    payload["tables"]["X1|X2"] = ["1", "0", "0", "0"]
    code, _, err = run_cli_stdin(capsys, monkeypatch, payload, "classify")
    assert code == 2
    assert "disagree" in err


def test_unnormalized_model_exits_2(capsys, monkeypatch):
    payload = model_to_dict(pr_box(0, 0, 0))
    payload["tables"]["X1|X2"] = ["1/2", "0", "0", "1/4"]
    code, _, err = run_cli_stdin(capsys, monkeypatch, payload, "cf")
    assert code == 2 and "sums to" in err


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "classify", "--bogus-flag")
    assert code == 1
    code, _, err = run_cli(capsys, "parity")
    assert code == 1 and "need --parities" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "/nonexistent/model.json")
    assert code == 2


def test_enumerate_csp_small_smoke(capsys):
    # Full preset run is covered by the acceptance suite; smoke the plumbing.
    code, out, _ = run_cli(capsys, "enumerate", "csp", "--preset", "eq40", "--jobs", "2")
    assert code == 0
    assert json.loads(out) == {"candidates": 65536, "ns_and_unsat": 2401}


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "parity", "--scenario", "bell-2-2-2", "--stream"),
        ("enumerate", "csp", "--preset", "eq40", "--stream"),
    ],
)
def test_enumerate_jobs_capped_at_cpu_count(capsys, pool_requests, argv):
    code, sequential, _ = run_cli(capsys, *argv, "--jobs", "1")
    assert code == 0 and pool_requests == []
    code, out, _ = run_cli(capsys, *argv, "--jobs", "100000")
    assert code == 0 and out == sequential
    assert all(p <= (os.cpu_count() or 1) for p in pool_requests)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["tables"].update({"X1|X2": 5}),
        lambda d: d["tables"].update({"X1|X2": ["2.5e-3", "0", "0", "1"]}),
        lambda d: d["tables"].update({"X1|X2": ["1e200000", "0", "0", "1"]}),
        lambda d: d["tables"].update({"X1|X2": ["1/0", "0", "0", "1"]}),
        lambda d: d["scenario"].update({"observables": 5}),
        lambda d: d["scenario"].update({"contexts": [5]}),
        lambda d: d.update({"tables": []}),
    ],
)
def test_malformed_model_shapes_exit_2(capsys, monkeypatch, mutate):
    payload = model_to_dict(pr_box(0, 0, 0))
    mutate(payload)
    code, out, err = run_cli_stdin(capsys, monkeypatch, payload, "classify")
    assert (code, out) == (2, "")
    assert "validation error" in err


def test_missing_json_field_is_named(capsys, monkeypatch, tmp_path):
    payload = model_to_dict(pr_box(0, 0, 0))
    del payload["tables"]
    code, out, err = run_cli_stdin(capsys, monkeypatch, payload, "classify")
    assert (code, out) == (2, "") and "missing field 'tables'" in err
    path = tmp_path / "preset.json"
    path.write_text(json.dumps({"parities": [0, 0, 0, 1]}))
    code, out, err = run_cli(capsys, "parity", "--preset-file", str(path))
    assert (code, out) == (2, "") and "missing field 'scenario'" in err


def test_top_level_list_exits_2(capsys, monkeypatch):
    code, _, err = run_cli_stdin(capsys, monkeypatch, [model_to_dict(pr_box(0, 0, 0))], "cf")
    assert code == 2 and "must be an object" in err


def test_scan_grid_rejects_decimal_values(capsys):
    code, out, _ = run_cli(capsys, "scan", "eight-param", "--grid", "0,2.5e-3", "--fix", "1=1/4")
    assert (code, out) == (2, "")


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_json_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_JSON))
    code, out, err = run_cli(capsys, "classify")
    assert (code, out) == (2, "") and "nested too deeply" in err
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, out, err = run_cli(capsys, "parity", "--preset-file", str(path))
    assert (code, out) == (2, "") and "nested too deeply" in err


@pytest.mark.parametrize("token", ["bell-2-300", "bell-3-300"])
def test_oversized_bell_token_exits_2_before_building(capsys, token):
    # bell-2-300 would build 90 000 contexts and bell-3-300 27 million.
    code, out, err = run_cli(capsys, "parity", "--scenario", token, "--parities", "0")
    assert (code, out) == (2, "") and "observables exceed" in err


def test_bell_token_with_underscore_exits_2(capsys):
    code, out, err = run_cli(capsys, "enumerate", "parity", "--scenario", "bell-1_0-1")
    assert (code, out) == (2, "") and "not a bell scenario token" in err


def test_cf_lp_guard_exits_2_quickly(capsys, monkeypatch):
    # 80 rows x 2**20 global assignments: a dense CF LP of gigabytes.
    payload = model_to_dict(uniform_model(cycle_scenario(20)))
    start = time.perf_counter()
    code, out, err = run_cli_stdin(capsys, monkeypatch, payload, "cf")
    assert (code, out) == (2, "") and "LP guard" in err
    assert time.perf_counter() - start < 1


def test_oversized_scan_grid_exits_2_before_scanning(capsys):
    # Five values on all eight parameters is 390 625 points, one LP each.
    code, out, err = run_cli(capsys, "scan", "eight-param", "--grid", "0,1/16,1/8,3/16,1/4")
    assert (code, out) == (2, "") and "390625 scan points exceed" in err


# --- fuzzing the model loader through the CLI ---------------------------------

BASE_DOCUMENTS = (model_to_dict(pr_box(0, 0, 0)), model_to_dict(ghz_model()))

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "0", "1", "1/2", "-1/2", "1/0", "2.5e-3", "1e200000", "X1", "X1|X2",
                       "bell-2-2", "bell-2-2-3", "bell-2-300", "bell-13-2"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(["scenario", "tables", "observables", "contexts", "outcomes", "X1|X2",
                         "parities"]),
        children,
        max_size=3,
    ),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@st.composite
def mutated_documents(draw, bases):
    """A valid document from ``bases`` with one to three nodes replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_documents(BASE_DOCUMENTS), st.sampled_from(["classify", "cf"]))
def test_cli_mutated_model_json_exits_0_or_2(document, command):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(document))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command])
    finally:
        sys.stdin = stdin
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


PRESET_DOCUMENTS = (
    {"scenario": "bell-3-2-2", "parities": [0, 1, 1, 1, 1, 1, 1, 1]},
    {
        "scenario": {"observables": ["A", "B", "C"], "contexts": [["A", "B"], ["B", "C"], ["A", "C"]]},
        "parities": [0, 0, 1],
    },
)


@settings(max_examples=300, deadline=None)
@given(mutated_documents(PRESET_DOCUMENTS), st.sampled_from(["parity", "secret-share"]))
def test_cli_mutated_preset_json_exits_0_or_2(tmp_path_factory, document, command):
    path = tmp_path_factory.mktemp("preset") / "preset.json"
    path.write_text(json.dumps(document))
    argv = [command, "--preset-file", str(path)]
    if command == "secret-share":
        argv += ["--rounds", "4", "--test-fraction", "1/2", "--seed", "1", "--secret", "a"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()

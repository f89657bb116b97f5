import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcc import analysis, cli, construct, empirical
from amcc.analysis import classify
from amcc.catalog import ghz_model, pr_box
from amcc.cli import main
from amcc.empirical import model_from_dict, model_to_dict
from amcc.scenario import make_scenario

from _generators import (
    cycle_scenario,
    fraction_rows,
    large_denominator_document,
    singleton_scenario,
    uniform_model,
)


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
    assert fraction_rows(model_from_dict(json.loads(out))) == fraction_rows(ghz_model())

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
    assert fraction_rows(lifted) == fraction_rows(pr_box(0, 0, 0))


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


@pytest.mark.parametrize("key", ["\u0661", "\uff11", "\u00b9", "\u20031"])
def test_scan_fix_index_must_be_ascii(capsys, key):
    # Arabic-indic, fullwidth and superscript digits and an em space used to
    # pass the key check: "--fix \u0661=1/4" pinned p1.
    code, out, err = run_cli(capsys, "scan", "eight-param", "--grid", "0", "--fix", f"{key}=1/4")
    assert (code, out) == (1, "") and "--fix expects i=value" in err


def test_scan_fix_index_of_5000_digits_is_usage_error(capsys):
    # int() refuses more than 4 300 digits: the key used to end in a ValueError.
    code, out, err = run_cli(capsys, "scan", "eight-param", "--grid", "0", "--fix", "1" * 5000 + "=1/4")
    assert (code, out) == (1, "") and "--fix expects i=value" in err and "ValueError" not in err


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


def test_secret_share_reads_four_bits_per_hex_digit(capsys):
    args = (
        "secret-share", "--parities", "01111111", "--rounds", "50",
        "--test-fraction", "1/5", "--seed", "42", "--secret",
    )
    for secret, bits in (("a", (1, 0, 1, 0)), ("a5F", (1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1))):
        code, out, _ = run_cli(capsys, *args, secret)
        assert code == 0
        sent = json.loads(out.strip().splitlines()[-1])["result"]["secret_bits_sent"]
        assert sent and sent == [bits[k % len(bits)] for k in range(len(sent))]
    for secret in ("a5 b6", "0x5", "g", "a\u0663"):  # "\u0663" is an Arabic-Indic digit
        code, out, err = run_cli(capsys, *args, secret)
        assert (code, out) == (1, "") and "hex digits" in err


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


EMPTY_COVER_DOCUMENT = {"scenario": {"observables": [], "contexts": []}, "tables": {}}


@pytest.mark.parametrize("command", ["classify", "cf"])
def test_empty_cover_exits_2(capsys, monkeypatch, command):
    code, out, err = run_cli_stdin(capsys, monkeypatch, EMPTY_COVER_DOCUMENT, command)
    assert (code, out) == (2, "")
    assert "no contexts" in err


def test_huge_singleton_cover_exits_2(capsys, monkeypatch):
    # No two of the 3 000 contexts share a label; the refusal must not pay for
    # every pair of contexts on the way to the guard.  Building the document
    # cached the scenario's overlap plans, which a fresh process would not have.
    document = model_to_dict(uniform_model(singleton_scenario(3000)))
    for command in ("classify", "cf"):
        empirical._overlap_plans.cache_clear()
        start = time.perf_counter()
        code, out, err = run_cli_stdin(capsys, monkeypatch, document, command)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and "LP guard" in err


def test_one_wide_context_exits_2_before_any_flip_table(capsys, monkeypatch):
    # One context of 12 labels: its flip table used to be built before the LP
    # guard ran, taking 1.7 s and over 600 MB before the exit.
    labels = [f"Y{k}" for k in range(12)]
    document = model_to_dict(uniform_model(make_scenario(labels, [labels])))
    built = []
    monkeypatch.setattr(analysis, "_section_flips", lambda width: built.append(width) or ())
    for command in ("classify", "cf"):
        code, out, err = run_cli_stdin(capsys, monkeypatch, document, command)
        assert (code, out) == (2, "") and "LP guard" in err
    assert built == []


@pytest.mark.parametrize("shape", ["wide-row", "singletons"])
def test_many_distinct_denominators_exit_2_quickly(capsys, monkeypatch, shape):
    document = large_denominator_document(shape)
    for command in ("classify", "cf"):
        start = time.perf_counter()
        code, out, err = run_cli_stdin(capsys, monkeypatch, document, command)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and "common denominator" in err


def test_missing_file_exits_2(capsys, tmp_path):
    # A missing path and a directory: the message names the path.
    for path in ("/nonexistent/model.json", str(tmp_path)):
        code, out, err = run_cli(capsys, "classify", path)
        assert (code, out) == (2, "")
        assert err.startswith("validation error: [Errno ") and repr(path) in err


def test_enumerate_csp_small_smoke(capsys):
    # Full preset run is covered by the acceptance suite; smoke the plumbing.
    code, out, _ = run_cli(capsys, "enumerate", "csp", "--preset", "eq40", "--jobs", "2")
    assert code == 0
    assert json.loads(out) == {"candidates": 65536, "ns_and_unsat": 2401}


def test_enumerate_csp_preset_with_too_few_masks_exits_2(capsys, monkeypatch):
    pattern, extendable = construct.CSP_PRESETS["eq40"]
    monkeypatch.setitem(construct.CSP_PRESETS, "short", (pattern[:7], extendable[:3]))
    code, out, err = run_cli(capsys, "enumerate", "csp", "--preset", "short")
    assert (code, out) == (2, "")
    assert err == "validation error: 7 support masks for 8 contexts\n"


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


@pytest.mark.parametrize("experiment", [("parity", "--scenario", "bell-2-2-2"), ("csp",)])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_enumerate_jobs_below_one_is_usage_error(capsys, experiment, jobs):
    code, out, err = run_cli(capsys, "enumerate", *experiment, "--jobs", jobs)
    assert (code, out) == (1, "") and "--jobs must be at least 1" in err


def test_a_5000_digit_bell_count_is_a_validation_error(capsys):
    token = "bell-" + "9" * 5000 + "-2"
    code, out, err = run_cli(capsys, "enumerate", "parity", "--scenario", token)
    assert (code, out) == (2, "") and "more than 9 digits" in err
    assert "ValueError" not in err


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


def test_model_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(model_to_dict(pr_box(0, 0, 0))).replace("X1", "X\u00e9").encode("latin-1"))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out) == (2, "") and "UnicodeDecodeError" in err


def test_json_number_cell_of_5000_digits_exits_2(capsys, monkeypatch):
    # json refuses to read an integer past 4 300 digits, with a ValueError.
    text = json.dumps(model_to_dict(pr_box(0, 0, 0))).replace('"1/2"', "1" + "0" * 4999, 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "classify")
    assert (code, out) == (2, "") and "validation error" in err and "digits" in err


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


def test_oversized_parity_enumeration_exits_2_quickly(capsys):
    # bell-5-2 has 32 contexts: the guard names the 2**32 vectors, not the contexts.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "parity", "--scenario", "bell-5-2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and "2**32 parity vectors exceed the 2**20 guard" in err


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


# --- one parser per process ----------------------------------------------------


def test_calls_share_one_parser(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, "catalog", "ghz")[0] == 0
    assert built.count("amcc") == 1


def _run_alone(argv):
    """Exit code, stdout and stderr of ``argv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "amcc", *argv], capture_output=True, text=True, env=env, check=False
    )
    return done.returncode, done.stdout, done.stderr


def test_a_single_process_run_never_loads_the_process_pool():
    script = (
        "import contextlib, io, sys\n"
        "import amcc, amcc.cli\n"
        "loaded = ['multiprocessing' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    amcc.cli.main(['enumerate', 'parity', '--scenario', 'bell-3-2-2', '--jobs', '1'])\n"
        "loaded.append('multiprocessing' in sys.modules)\n"
        "print(loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=False
    )
    assert (done.returncode, done.stdout) == (0, "[False, False]\n")


@pytest.mark.parametrize("sequence", [
    [["scan", "eight-param", "--grid", "1/8", "--fix", "1=1/4", "--stream"],
     ["scan", "eight-param", "--grid", "1/8", "--stream"]],
    [["classify", "{ghz}"], ["classify", "--no-avn", "{ghz}"]],
    [["classify", "--bogus-flag", "{ghz}"], ["cf", "{ghz}"]],
    [["parity", "--parities", "01111111", "--classify"], ["parity", "--parities", "01111111"]],
], ids=["fix-then-none", "avn-then-no-avn", "usage-error-then-valid", "classify-then-not"])
def test_call_sequences_match_fresh_processes(capsys, tmp_path, sequence):
    ghz = tmp_path / "ghz.json"
    ghz.write_text(json.dumps(model_to_dict(ghz_model())))
    argvs = [[arg.format(ghz=ghz) for arg in argv] for argv in sequence]
    in_process = [run_cli(capsys, *argv) for argv in argvs]
    assert in_process[0] != in_process[1]  # so a leak from the first call would show
    assert in_process == [_run_alone(argv) for argv in argvs]


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

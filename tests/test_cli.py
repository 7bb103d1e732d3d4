import csv
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from hpp.cli import main
from hpp.errors import InvariantViolationError


ROOT = Path(__file__).resolve().parents[1]


def _read(path):
    return path.read_bytes()


def _child(*argv, timeout=None):
    """Run argv under this interpreter with the repository's src/ first on
    PYTHONPATH; a timeout turns a hang into a failure."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=timeout,
    )


def test_eta_moments_json(tmp_path):
    out = tmp_path / "m.json"
    assert main(["eta", "--field", "5", "-n", "2", "--moments",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["field"] == "5"
    assert doc["first_moment"] == "1"
    assert doc["k"] == 2
    # second moment is an exact fraction rendered as a string
    from fractions import Fraction

    Fraction(doc["second_moment"])


def test_eta_table_csv_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["eta", "--field", "2^2", "-n", "2", "--out"]
    assert main([*args, str(a)]) == 0
    assert main([*args, str(b)]) == 0
    assert _read(a) == _read(b)
    lines = a.read_text().splitlines()
    assert lines[0].startswith("x,")
    assert len(lines) > 1


def test_eta_table_out_dash_is_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "eta.csv"
    assert main(["eta", "--field", "3", "-n", "2", "--out", str(path)]) == 0
    assert main(["eta", "--field", "3", "-n", "2", "--out", "-"]) == 0
    assert capsys.readouterr().out == path.read_text()
    assert not (tmp_path / "-").exists()


def test_eta_table_to_stdout_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eta", "--field", "5", "-n", "2"])
    assert exc.value.code == 2


def test_field_guard_maps_to_exit_3(capsys):
    assert main(["eta", "--field", "2^21", "-n", "1", "--moments"]) == 3
    assert "error:" in capsys.readouterr().err
    # A huge prime and a huge exponent must meet the cap before a primality
    # test or p**e.
    for field in ("1000000000000000003", "3^99999999999"):
        proc = _child("-m", "hpp.cli", "plan", "--field", field, "-n", "2", "-m", "1", timeout=20)
        assert proc.returncode == 3, (field, proc.stderr)
        assert proc.stderr.startswith("error: field size ") and proc.stderr.count("\n") == 1
        assert proc.stderr.endswith(" exceeds the cap of 1048576\n"), proc.stderr


@pytest.mark.parametrize(
    "argv,message",
    [
        # Deeper than the recursion limit allows.
        (["plan", "--field", "7", "-n", "1", "-m", "400"], "m = 400 exceeds the cap"),
        # The guard trips before kappa counts 10^12 terms.
        (["plan", "--field", "7", "-n", "2", "-m", "1000000000000"], "exceeds the cap"),
        # The guard trips before a 3000-variable instance is sampled.
        (["e2e", "--field", "7", "-n", "1", "-m", "3000", "--trials", "1", "--seed", "s"],
         "m = 3000 exceeds the cap"),
        (["plan", "--field", "7", "-n", "2", "-m", "14"],
         "kappa(n = 2, m = 14) exceeds the budget of 10000 univariate solves"),
    ],
    ids=["plan-deep", "plan-huge-m", "e2e-deep", "plan-over-budget"],
)
def test_schedule_guards_map_to_exit_3(argv, message):
    proc = _child("-m", "hpp.cli", *argv, timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


def test_enumeration_guard_names_the_checked_point_count(capsys):
    # A success pass enumerates d^(2n) points, not d^n.
    assert main(["success", "--field", "101", "-n", "3"]) == 3
    assert "101^6 = 1061520150601 points" in capsys.readouterr().err


def test_bad_field_string_is_a_usage_error(capsys):
    assert main(["eta", "--field", "6", "-n", "1", "--moments"]) == 2
    assert "error:" in capsys.readouterr().err


def test_success_report_json(tmp_path):
    out = tmp_path / "s.json"
    assert main(["success", "--field", "2^2", "-n", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["analysis"] == "second"
    assert doc["ideal_success"] == pytest.approx(2128 / 4096)
    assert doc["mc"] is None


def test_success_mc_requires_seed(monkeypatch):
    monkeypatch.delenv("HPP_SEED", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["success", "--field", "5", "-n", "2", "--mc", "100"])
    assert exc.value.code == 2


def test_success_mc_and_dump_dist(tmp_path):
    out = tmp_path / "s.json"
    dist = tmp_path / "dist.csv"
    assert main(["success", "--field", "5", "-n", "2", "--mc", "200",
                 "--seed", "cli-test", "--out", str(out),
                 "--dump-dist", str(dist)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mc"]["runs"] == 200
    assert 0.0 <= doc["mc"]["estimate"] <= 1.0
    lines = dist.read_text().splitlines()
    assert lines[0] == "x,good_mass,qprime,probability"
    assert len(lines) > 1


def test_dump_dist_reuses_the_report_pass(tmp_path, monkeypatch):
    import hpp.cli
    import hpp.pgm
    from hpp.fibers import iter_eta_tables

    built = []

    def counting(*args, **kwargs):
        return (built.append(t.x) or t for t in iter_eta_tables(*args, **kwargs))

    monkeypatch.setattr(hpp.pgm, "iter_eta_tables", counting)
    monkeypatch.setattr(hpp.cli, "iter_eta_tables", counting)
    assert main(["success", "--field", "5", "-n", "2", "--out", str(tmp_path / "s.json"),
                 "--dump-dist", str(tmp_path / "dist.csv")]) == 0
    assert len(built) == len(set(built)) == 25


def test_unwritable_dump_dist_exits_2_before_any_json(tmp_path, capsys):
    assert main(["success", "--field", "5", "-n", "2",
                 "--dump-dist", str(tmp_path / "no" / "dist.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unwritable_success_out_exits_2_before_any_table(tmp_path, monkeypatch, capsys):
    def no_tables(*a, **k):
        raise RuntimeError("a table was built")

    monkeypatch.setattr("hpp.pgm.iter_eta_tables", no_tables)
    assert main(["success", "--field", "37", "-n", "2", "--mc", "100", "--seed", "s",
                 "--out", str(tmp_path / "no" / "s.json"),
                 "--dump-dist", str(tmp_path / "dist.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unwritable_baseline_fit_out_exits_2_before_any_trial(tmp_path, monkeypatch, capsys):
    trials = []
    monkeypatch.setattr("hpp.baseline.solve_linear_classical", lambda *a, **k: trials.append(a))
    assert main(["baseline", "--sizes", "31,101,307", "--trials", "30", "--seed", "0",
                 "--out", str(tmp_path / "b.csv"),
                 "--fit-out", str(tmp_path / "no" / "fit.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert trials == []
    assert list(tmp_path.iterdir()) == []  # --out's new file was deleted


@pytest.mark.parametrize(
    "argv, code",
    [
        (["success", "--field", "101", "-n", "3"], 3),
        (["e2e", "--field", "101", "-n", "3", "-m", "2", "--trials", "1", "--seed", "s"], 3),
        (["eta", "--field", "101", "-n", "3", "--moments"], 3),
        (["baseline", "--trials", "10", "--seed", "0"], 2),
    ],
    ids=["success", "e2e", "eta", "baseline"],
)
def test_a_failed_run_leaves_existing_outputs_alone(argv, code, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"earlier output\n")
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == b"earlier output\n"
    assert list(tmp_path.iterdir()) == [out]
    assert capsys.readouterr().err.startswith("error: ")


def test_a_successful_run_replaces_its_output_and_keeps_its_mode(tmp_path):
    out = tmp_path / "p.json"
    out.write_bytes(b"earlier output\n")
    out.chmod(0o640)
    assert main(["plan", "--field", "7", "-n", "2", "-m", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kappa"] == 3
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert list(tmp_path.iterdir()) == [out]


def test_a_pipe_output_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["plan", "--field", "7", "-n", "2", "-m", "2", "--out", str(fifo)]) == 0
        assert json.loads(os.read(reader, 1 << 16))["kappa"] == 3
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode) and list(tmp_path.iterdir()) == [fifo]


@pytest.mark.parametrize("bad", ["--out", "--summary-out"])
def test_unwritable_e2e_output_exits_2_before_any_trial(
    bad, tmp_path, monkeypatch, capsys
):
    sampled = []
    monkeypatch.setattr("hpp.cli.sample_instance", lambda *a, **k: sampled.append(a))
    paths = {"--out": tmp_path / "t.csv", "--summary-out": tmp_path / "s.json"}
    paths[bad] = tmp_path / "no" / "out"
    argv = ["e2e", "--field", "7", "-n", "2", "-m", "2", "--trials", "20", "--seed", "s"]
    assert main([*argv, *(str(a) for kv in paths.items() for a in kv)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert sampled == []


def test_seed_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("HPP_SEED", "env-seed")
    out = tmp_path / "e.json"
    assert main(["e2e", "--field", "5", "-n", "1", "-m", "1", "--trials", "2",
                 "--summary-out", str(out), "--out", str(tmp_path / "e.csv")]) == 0
    assert json.loads(out.read_text())["trials"] == 2


def test_e2e_runs_and_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.delenv("HPP_SEED", raising=False)
    args = ["e2e", "--field", "7", "-n", "2", "-m", "2", "--trials", "3",
            "--seed", "t0"]
    c1, s1 = tmp_path / "1.csv", tmp_path / "1.json"
    c2, s2 = tmp_path / "2.csv", tmp_path / "2.json"
    assert main([*args, "--out", str(c1), "--summary-out", str(s1)]) == 0
    assert main([*args, "--out", str(c2), "--summary-out", str(s2)]) == 0
    assert _read(c1) == _read(c2)
    assert _read(s1) == _read(s2)
    doc = json.loads(s1.read_text())
    assert doc["kappa"] == 3
    assert doc["success_rate"] == 1.0
    lines = c1.read_text().splitlines()
    assert lines[0] == "trial,success,queries,solves,retries"
    assert len(lines) == 4


def test_e2e_reveal_and_baseline_column(tmp_path):
    csv_out = tmp_path / "e.csv"
    summary = tmp_path / "e.json"
    assert main(["e2e", "--field", "11", "-n", "1", "-m", "1", "--trials", "2",
                 "--seed", "rev", "--baseline", "--reveal",
                 "--out", str(csv_out), "--summary-out", str(summary)]) == 0
    header = csv_out.read_text().splitlines()[0]
    assert header.endswith(",baseline_queries")
    doc = json.loads(summary.read_text())
    assert len(doc["instances"]) == 2
    assert all("hidden" in row for row in doc["instances"])


def test_e2e_baseline_needs_linear_univariate():
    with pytest.raises(SystemExit) as exc:
        main(["e2e", "--field", "7", "-n", "2", "-m", "2", "--seed", "x",
              "--baseline"])
    assert exc.value.code == 2


def test_e2e_requires_seed(monkeypatch):
    monkeypatch.delenv("HPP_SEED", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["e2e", "--field", "5", "-n", "1", "-m", "1"])
    assert exc.value.code == 2


def test_baseline_command(tmp_path):
    csv_out = tmp_path / "b.csv"
    fit_out = tmp_path / "fit.json"
    assert main(["baseline", "--sizes", "31,101,307", "--trials", "30",
                 "--seed", "0", "--out", str(csv_out),
                 "--fit-out", str(fit_out)]) == 0
    doc = json.loads(fit_out.read_text())
    assert doc["sizes"] == [31, 101, 307]
    assert 0.3 < doc["exponent"] < 0.7
    assert set(doc["medians"]) == {"31", "101", "307"}
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "d,trial,queries,success"
    assert len(lines) == 1 + 3 * 30


def test_baseline_budget_exhaustion_maps_to_exit_1(tmp_path, capsys):
    assert main(["baseline", "--sizes", "1009,2003,4001", "--trials", "30",
                 "--seed", "0", "--max-queries", "2",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_baseline_validation_maps_to_exit_2(capsys):
    assert main(["baseline", "--sizes", "31,101", "--trials", "30",
                 "--seed", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_plan_command(tmp_path):
    out = tmp_path / "p.json"
    assert main(["plan", "--field", "7", "-n", "2", "-m", "3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kappa"] == 7
    assert doc["tree"]["kind"] == "split"


def test_plan_refuses_a_field_no_larger_than_n(capsys):
    # sample_instance refuses d <= n, so no schedule exists there at any m.
    for m in ("1", "2"):
        assert main(["plan", "--field", "3", "-n", "3", "-m", m]) == 2
        err = capsys.readouterr().err
        assert err == "error: need more than n = 3 field elements, got d = 3\n", m


def test_invariant_violation_maps_to_exit_4(monkeypatch, capsys):
    def boom(*a, **k):
        raise InvariantViolationError("forced")

    monkeypatch.setattr("hpp.cli.success_report", boom)
    assert main(["success", "--field", "5", "-n", "2"]) == 4
    assert "forced" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eta", "--field", "5", "-n", "0", "--out", "OUT"],
        ["eta", "--field", "5", "-n", "-1", "--out", "OUT"],
        ["success", "--field", "5", "-n", "0"],
        ["success", "--field", "5", "-n", "-1"],
        ["success", "--field", "5", "-n", "2", "--mc", "-5", "--seed", "s"],
        ["success", "--field", "5", "-n", "2", "--jobs", "-3"],
        ["eta", "--field", "5", "-n", "2", "--out", "MISSING/eta.csv"],
        ["baseline", "--sizes", "5,7,7", "--trials", "30", "--seed", "a"],
        ["eta", "--field", "5", "-n", "2", "--k", "1", "--out", "OUT"],
        ["eta", "--field", "7", "-n", "2", "--moments", "--solutions"],
        ["success", "--field", "5", "-n", "2", "--seed", "s"],
        ["e2e", "--field", "5", "-n", "1", "-m", "1", "--seed", "s", "--out", "OUT",
         "--summary-out", "OUT"],
        ["success", "--field", "5", "-n", "2", "--out", "OUT", "--dump-dist", "OUT"],
        ["baseline", "--sizes", "31,101,307", "--trials", "30", "--seed", "a",
         "--out", "OUT", "--fit-out", "OUT"],
        # LINK is a symlink to OUT: the two options still name one file.
        ["e2e", "--field", "5", "-n", "1", "-m", "1", "--seed", "s", "--out", "OUT",
         "--summary-out", "LINK"],
    ],
)
def test_bad_arguments_exit_2_with_one_line(argv, tmp_path, capsys):
    (tmp_path / "link").symlink_to(tmp_path / "out")
    argv = [
        a.replace("OUT", str(tmp_path / "out"))
        .replace("MISSING", str(tmp_path / "no"))
        .replace("LINK", str(tmp_path / "link"))
        for a in argv
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_module_entry_point(tmp_path):
    proc = _child("-m", "hpp.cli", "plan", "--field", "5", "-n", "1",
                  "-m", "2", "--out", str(tmp_path / "p.json"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "p.json").read_text())["kappa"] == 2


def _traced_spans(stats, *argv):
    """Spans of one CLI run under the benchmark's tracer, which rebinds every
    copy of each library function; a layer that calls a function through a
    binding it cannot see would drop out of the per-layer metrics."""
    proc = _child(str(ROOT / "perfbench" / "traced_cli.py"), str(stats), *argv)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(stats.read_text())
    assert doc["unpatched"] == []
    spans = doc["spans"]
    # The benchmark's traced check tables_built = enum_passes * d^n, at d^n = 25.
    assert spans["fibers.eta_table"][0] == spans["fibers.iter_eta_tables"][0] * 25
    return spans


def test_traced_success_builds_one_table_per_direction(tmp_path):
    spans = _traced_spans(
        tmp_path / "stats.json", "success", "--field", "5", "-n", "2",
        "--out", str(tmp_path / "success.json"),
    )
    assert spans["fibers.iter_eta_tables"][0] == 1
    # Argument parsing is a stage of its own, not cli.main's self time.
    assert spans["cli.parse_args"][0] == 1


def test_traced_cli_wraps_every_binding(tmp_path):
    trials = tmp_path / "trials.csv"
    spans = _traced_spans(
        tmp_path / "stats.json",
        "e2e", "--field", "5", "-n", "2", "-m", "2", "--trials", "1", "--seed", "g",
        "--out", str(trials), "--summary-out", str(tmp_path / "summary.json"),
    )
    assert spans["blackbox.verify_candidate"][0] > 0
    assert spans["reduction.view.verify_candidate"][0] > 0
    with trials.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    retries = sum(int(row["retries"]) for row in rows)
    solves = spans["pgm.solver"][0] - spans["reduction.univariate_oracle_view"][0]
    assert solves == retries
    # Every oracle evaluation is a metered HiddenInstance.query, and in this
    # run every query is a verification query: n + 3 = 5 queries per
    # verification, for the views and for the assembled polynomial alike.
    queries = spans["blackbox.query"][0]
    assert queries == sum(int(row["queries"]) for row in rows)
    verifications = (
        spans["reduction.view.verify_candidate"][0] + spans["blackbox.verify_candidate"][0]
    )
    assert queries == 5 * verifications


def test_traced_recovery_counts_match_the_trials_csv(tmp_path):
    # The benchmark's traced completeness checks on a recovery with retries:
    # every query the CSV counts passed through the wrapped
    # HiddenInstance.query, every solve through the wrapped solver, and no
    # binding escaped the tracer (checked in _traced_spans).
    trials = tmp_path / "trials.csv"
    spans = _traced_spans(
        tmp_path / "stats.json",
        "e2e", "--field", "5", "-n", "2", "-m", "3", "--trials", "4", "--seed", "t3",
        "--out", str(trials), "--summary-out", str(tmp_path / "summary.json"),
    )
    with trials.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4

    def column(name):
        return sum(int(row[name]) for row in rows)

    assert column("retries") > 0
    assert spans["blackbox.query"][0] == column("queries")
    assert spans["pgm.solver"][0] == column("solves")
    assert spans["pgm.solver"][0] - spans["reduction.univariate_oracle_view"][0] == column(
        "retries"
    )
    assert spans["pgm.sample_outcome"][0] >= 5 * column("solves")


def test_unexpected_exception_maps_to_exit_4(monkeypatch, capsys):
    def boom(*a, **k):
        raise RuntimeError("unforeseen")

    monkeypatch.setattr("hpp.cli.success_report", boom)
    assert main(["success", "--field", "5", "-n", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "RuntimeError" in err and "unforeseen" in err

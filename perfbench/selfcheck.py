"""Self-check of the benchmark itself, at toy size.

    python3 perfbench/selfcheck.py

Runs each workload shape once, untraced and traced, on GF(5) and GF(2^2)
against toy references recorded into a temporary directory, and checks:

  * BENCHMARK.json agrees with run.py's metric and workload lists and its
    names and units use only the allowed characters;
  * the result line has exactly the keys correct/attempted/failed/metrics,
    every metric carries a positive numeric value and its unit;
  * traced runs pass the completeness checks (with the coverage floor
    lowered to 0.8, since toy runs are short);
  * a missing reference fails a run, and so does a changed output byte.

It takes about a minute and is not part of the tier-1 test run.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import run
from record_reference import record
from run import END_TO_END, PER_LAYER, WORKLOADS, Workload

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# GF(2^2) runs the extension-field and second-analysis paths, which no
# full-size workload covers.
TOY = {
    "analysis-prime": Workload("analysis-prime", "5", 2),
    "recovery-prime": Workload("recovery-prime", "2^2", 2, m=3, trials=2),
    "recovery-reuse": Workload("recovery-reuse", "5", 2, m=4, trials=20),
}


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys {sorted(doc)}",
    )
    check([w["name"] for w in doc["workloads"]] == list(WORKLOADS), "workload names")
    check(set(TOY) == set(WORKLOADS), "every workload has a toy shape")
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in doc[section]}
        check(listed == table, f"{section} differs from run.py")
        for name, (unit, better) in listed.items():
            check(bool(NAME.match(name)), f"metric name {name!r}")
            check(bool(UNIT.match(unit)), f"unit {unit!r}")
            check(better in ("lower", "higher"), f"{name}: better={better!r}")
    for m in doc["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"{m['name']}: bound {m['bound']}")
    setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    check(setup_bound == max(m["bound"] for m in doc["end_to_end"]), "setup_s has the largest bound")


def check_result(result: dict, table: dict, correct: bool) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}")
    check(result["correct"] is correct, f"correct is {result['correct']}, expected {correct}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    check(isinstance(result["failed"], int), "failed")
    check(set(result["metrics"]) == set(table), f"metrics {sorted(result['metrics'])}")
    for name, m in result["metrics"].items():
        check(m["unit"] == table[name][0], f"{name} unit {m['unit']!r}")
        check(isinstance(m["value"], (int, float)), f"{name} value {m['value']!r}")
    json.loads(json.dumps(result))


def main() -> int:
    check_benchmark_json()
    run.TMP.mkdir(exist_ok=True)
    # cli.main's own argument parsing and output writing are a few percent
    # of a toy run, against under 0.1% of a full-size one.
    run.MIN_COVERAGE = 0.8
    with tempfile.TemporaryDirectory(dir=run.TMP) as refs:
        run.REFERENCE = Path(refs)
        for name, w in TOY.items():
            record(w)
            result = run.run(w, seed=3, seconds=1, trace=False)
            check_result(result, END_TO_END, correct=True)
            check(all(m["value"] > 0 for m in result["metrics"].values()), f"{name}: a 0 metric")
            result = run.run(w, seed=3, seconds=1, trace=True)
            check_result(result, PER_LAYER, correct=True)
            check(result["failed"] == 0, f"{name}: traced run failed")

            # A changed byte and a missing reference both fail the run.
            ref = w.reference_dir(w.hpp_seed(3, 0)) / w.outputs()[0]
            original = ref.read_bytes()
            if ref.suffix == ".json":
                doc = json.loads(original)
                doc["n"] += 1
                ref.write_text(json.dumps(doc))
            else:
                ref.write_bytes(original + b"\n")
            result = run.run(w, seed=3, seconds=1, trace=False)
            check(result["failed"] >= 1 and not result["correct"], f"{name}: mismatch passed")
            ref.unlink()
            result = run.run(w, seed=3, seconds=1, trace=False)
            check(result["failed"] >= 1 and not result["correct"], f"{name}: no reference passed")
            print(f"selfcheck {name}: ok", flush=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Quick self-check of the benchmark's output checkers.

    python3 benchmarks/selfcheck.py

Runs the smallest commands of each workload once and requires each checker
to accept the real output and to reject a deliberately wrong copy of it: a
dimension off by one, a Berezinian with its sign flipped, a record with
"pass": false.  It also checks that BENCHMARK.json names the metrics that
run.py prints.  Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import superschur.cli  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from run import run_op  # noqa: E402

END_TO_END = ["pass_ref", "setup_s", "peak_rss_mb"]


def first_record(out: str, **changes) -> str:
    lines = out.splitlines()
    record = json.loads(lines[0])
    for key, change in changes.items():
        record[key] = change(record[key])
    return "\n".join([json.dumps(record, sort_keys=True)] + lines[1:]) + "\n"


def dim_off_by_one(out: str) -> str:
    return first_record(out, dim_tau=lambda v: v + 1)


def ssyt_off_by_one(out: str) -> str:
    rows = json.loads(out)
    rows[0]["ssyt"] += 1
    return json.dumps(rows) + "\n"


def record_fails(out: str) -> str:
    return first_record(out, **{"pass": lambda v: False})


def berezinian_sign_flipped(out: str) -> str:
    data = json.loads(out)
    for term in data["berezinian"]["terms"]:
        term["coeff"] = str(-Fraction(term["coeff"]))
    return json.dumps(data, sort_keys=True) + "\n"


def find(ops: list, argv: list) -> W.Op:
    return next(op for op in ops if op.argv == argv)


def main() -> int:
    sw, _ = W.schurweyl(0)
    act, act_extra = W.actions(0)
    pts, _ = W.points(0)
    dims = ["-m", "1", "-n", "1", "-r", "2"]
    cases = [
        (find(sw, ["verify", "schurweyl"] + dims), dim_off_by_one),
        (find(sw, ["tableaux"] + dims + ["--format", "json", "--list"]), ssyt_off_by_one),
        (find(act, ["verify", "actions", "-m", "1", "-n", "1", "-r", "3"]), record_fails),
        (find(act, ["verify", "bracket", "-m", "1", "-n", "1"]), record_fails),
        (next(op for op in pts if op.argv[0] == "berezinian" and json.loads(op.stdin)["m"] + json.loads(op.stdin)["n"] == 2), berezinian_sign_flipped),
        (find(pts, ["verify", "group", "-m", "1", "-n", "1", "-r", "2", "--grassmann-n", "4", "--seed", "0"]), record_fails),
    ]
    problems = []
    for op, mutate in cases:
        ok, out, t0, t1 = run_op(superschur.cli.main, op)
        if not ok:
            problems.append(f"{op.label}: command failed")
            continue
        try:
            op.check(out)
        except W.WrongOutput as exc:
            problems.append(f"{op.label}: real output rejected: {exc}")
        try:
            op.check(mutate(out))
            problems.append(f"{op.label}: {mutate.__name__} accepted")
        except W.WrongOutput as exc:
            print(f"ok  {op.label} ({t1 - t0:.3f} s): {mutate.__name__} rejected: {exc}")
    try:
        act_extra()
        print("ok  signed permutation operators match the closed-form sign")
    except W.WrongOutput as exc:
        problems.append(str(exc))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end names differ from run.py's")
    if [m["name"] for m in spec["per_layer"]] != tracing.REPORTED + ["trace.pass_s"]:
        problems.append("BENCHMARK.json per_layer names differ from tracing.REPORTED")
    for problem in problems:
        print(f"BAD {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

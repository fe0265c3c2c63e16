"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from coxchar import build  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def infos(name):
    return {t: workloads.TypeInfo(t, build) for t in workloads.workload_types(name)}


def one_pass(name, ops, trace=False):
    request = {"workload": name, "types": workloads.workload_types(name), "ops": ops,
               "trace": trace, "spans_path": os.devnull}
    reply = run.run_worker(request, time.monotonic() + 120)
    reply["traced"] = trace
    return reply


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(name):
    info = infos(name)
    first = workloads.generate(name, 7, info)
    assert first == workloads.generate(name, 7, info)
    assert first != workloads.generate(name, 8, info)
    assert len(first) >= 100


def test_names_follow_the_contract():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    design = workloads.DESIGN
    assert set(design["end_to_end"]) == {m["name"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    for row in design["predictions"]:
        assert set(row["layer"]) <= per_layer
        assert set(row["moves"]) <= set(design["end_to_end"])
        assert set(row["on"] + row["not_on"]) <= set(workloads.WORKLOADS)


def test_traced_pass_reports_every_per_layer_metric():
    info = infos("verify-oracle")
    ops = workloads.generate("verify-oracle", 1, info)[:5]
    passes = [one_pass("verify-oracle", ops), one_pass("verify-oracle", ops, trace=True)]
    metrics, missing = run.per_layer(passes)
    assert not missing
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    factors = [f for t, _ in ops for f in build(t).factors]
    # one orbit per factor per op, and one per distinct factor for its denominator
    walked = factors + list({f.name: f for f in factors}.values())
    assert metrics["oracle.orbit_points"][0] == sum(f.weyl_order for f in walked)


def test_end_to_end_metrics_match_the_declaration():
    info = infos("table-small")
    ops = workloads.generate("table-small", 1, info)[:150]
    passes = [one_pass("table-small", ops)]
    attempted, failures, wrong, _ = run.judge("table-small", ops, passes, info)
    assert (attempted, failures, wrong) == (150, 0, 0)
    metrics = run.end_to_end(passes, [0.1], attempted, failures)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name, field, fake", [
    ("table-small", "value", lambda v: 1 if v != 1 else -1),
    ("table-small", "fs", lambda v: 1 if v != 1 else 0),
    ("verify-oracle", "oracle", lambda v: -v if v else 1),
    ("torsion-census", "regular_orbits", lambda v: v + 1),
    ("torsion-census", "invariant_factors_weight_side", lambda v: v + [2]),
])
def test_an_injected_wrong_value_is_a_failed_op(name, field, fake):
    info = infos(name)
    ops = workloads.generate(name, 3, info)
    ops = [op for op in ops if field in _fields(name, op)][:3]
    passes = [one_pass(name, ops)]
    assert run.judge(name, ops, passes, info)[1] == 0
    passes[0]["results"][1][field] = fake(passes[0]["results"][1][field])
    attempted, failures, wrong, reasons = run.judge(name, ops, passes, info)
    assert (attempted, failures, wrong) == (3, 1, 1)
    metrics = run.end_to_end(passes, [0.1], attempted, failures)
    assert metrics["ok_frac"][0] == 2 / 3


def _fields(name, op):
    if name != "torsion-census":
        return {"value", "fs", "oracle"}
    if op[0] == "classify":
        return {"regular_orbits"}
    return {"invariant_factors_weight_side"}


def test_a1_values_follow_the_period_four_rule_at_any_size():
    ti = infos("char-large")["A1"]
    for lam in (0, 2, 4, 10, 2 * 10**6, 4 * 10**9 + 2):
        assert ti.expected_value([lam])[0] == (1, 0, -1, 0)[lam % 4]
    ops = [["A1", [lam]] for lam in (0, 1, 2, 3, 12, 14)]
    res = one_pass("char-large", ops)["results"]
    assert [r["value"] for r in res] == [1, 0, -1, 0, 1, -1]


def test_char_large_cap_ops_fail_and_the_rest_pass():
    info = infos("char-large")
    spec = workloads.DESIGN["workloads"]["char-large"]
    ops = workloads.generate("char-large", 1, info)
    ops = [op for op in ops if op[0] == "A2"]
    passes = [one_pass("char-large", ops)]
    attempted, failures, wrong, reasons = run.judge("char-large", ops, passes, info)
    assert spec["over_cap_types"].count("A2") == failures
    assert wrong == 0
    assert list(reasons) == ["raised InternalCheckError"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    leaf = tracer.wrap("leaf", leaf)

    def outer():
        leaf()
        leaf()
        time.sleep(0.01)

    tracer.wrap("outer", outer)()
    totals = tracer.layer_totals()
    assert totals["leaf"]["calls"] == 2
    outer_row = totals["outer"]
    assert outer_row["self_s"] == pytest.approx(outer_row["total_s"] - totals["leaf"]["total_s"])
    assert 0.01 <= outer_row["self_s"] < 0.02


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

Kept out of the repository's default test collection: the two runs of
run.py below take several seconds each.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import pipeline  # noqa: E402
from workloads import gen_scan, gen_store, gen_wide, generate  # noqa: E402

from ll2fun import llvm_interp, ll_parser, state  # noqa: E402

MANIFEST = json.loads(run.MANIFEST.read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def _inputs(w):
    return (w.ll_text, w.entry, w.args, w.mem, w.image_text, w.expected_retval,
            w.expected_mem, w.loop_iterations, w.region)


@pytest.mark.parametrize("gen", [lambda s: gen_scan(s, 2000), lambda s: gen_store(s, 500),
                                 lambda s: gen_wide(s, 20)])
def test_same_seed_same_inputs(gen):
    assert _inputs(gen(7)) == _inputs(gen(7))
    assert _inputs(gen(7)) != _inputs(gen(8))


def test_wide_shape_does_not_depend_on_the_seed():
    def shape(w):
        return re.sub(r"\b\d+\b", "N", w.ll_text)
    assert shape(gen_wide(1, 20)) == shape(gen_wide(2, 20))
    assert gen_wide(1, 20).ll_text != gen_wide(2, 20).ll_text


def test_half_size_workloads():
    assert generate("store", 3, half=True).args == gen_store(3, 4096).args


def test_instructions_per_iteration_matches_acceptance_constant():
    module = ll_parser.parse_text(gen_scan(1, 10).ll_text)
    assert pipeline.instructions_per_iteration(module) == 9
    assert pipeline.instructions_per_iteration(ll_parser.parse_text(gen_store(1, 10).ll_text)) == 7
    assert pipeline.instructions_per_iteration(ll_parser.parse_text(gen_wide(1, 5).ll_text)) == 0


@pytest.mark.parametrize("seed", range(6))
def test_wide_model_agrees_with_reference_interpreter(seed):
    w = gen_wide(seed, 30)
    st = state.make_state(mem=state.parse_memory_image(w.image_text))
    final = llvm_interp.interp_function(ll_parser.parse_text(w.ll_text), w.entry, w.args, st)
    assert pipeline.state_mismatches(w, final) == []


@pytest.mark.parametrize("gen", [lambda: gen_scan(2, 300), lambda: gen_store(2, 300),
                                 lambda: gen_wide(2, 40)])
def test_pipeline_outputs_pass_every_check(gen):
    w = gen()
    tr = pipeline.translate(w.ll_text)
    assert pipeline.translate(w.ll_text).text == tr.text
    ev, st = pipeline.setup(tr.text, w)
    assert pipeline.reference_mismatches(w, tr.module, st) == []
    for checking in (False, True):
        assert pipeline.result_mismatches(w, pipeline.execute(ev, w, st, checking)) == []


def test_checks_catch_a_wrong_result():
    w = gen_store(1, 50)
    ev, st = pipeline.setup(pipeline.translate(w.ll_text).text, w)
    result = pipeline.execute(ev, w, st, False)
    wrong = state.store_word(8, w.region[0], 12345, result.state)
    assert pipeline.state_mismatches(w, wrong) == ["final memory differs from the expected memory"]
    assert pipeline.state_mismatches(w, state.update_retval(1, result.state))


def test_operations_count_stages_not_calls():
    import measure
    ops = measure.Ops()
    for value in (1, 2, 3):
        ops.attempt("exec", "evaluator", lambda: value, lambda v: ["wrong"] if v == 2 else [])
    ops.attempt("setup", "state", lambda: 1)
    assert (ops.attempted, ops.failed, ops.calls, ops.failed_calls) == (2, 1, 4, 1)
    assert not ops.correct


def test_manifest_shape():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in MANIFEST[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, key):
    proc = _run(run.ROOT, "--workload", "store", "--seed", "1", "--seconds", "0.1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = MANIFEST[key]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1])


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.MANIFEST, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "scan", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout

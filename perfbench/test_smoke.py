"""Smoke test of the benchmark on a trimmed pass of each workload.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.prepare_environment()
import sgdom.cli  # noqa: E402


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)], max_ops=4)
    assert rc == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def failed_frac(lines: list[str]) -> float:
    line = next(line for line in lines if line.startswith("failed_frac "))
    return float(line.split()[1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert failed_frac(lines) == 0
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


def flip_first(result):
    values = list(result.certificate.values)
    values[0] = -values[0]
    return type(result)(result.status, result.value,
                        type(result.certificate)(tuple(values)), result.nodes_explored)


def test_corrupted_brute_certificate_fails(monkeypatch):
    for name in ("brute_force_sigma", "brute_force_upper"):
        solver = getattr(sgdom.cli, name)
        monkeypatch.setattr(sgdom.cli, name,
                            lambda *a, solver=solver, **kw: flip_first(solver(*a, **kw)))
    lines, result = bench("brute", 0)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert failed_frac(lines) == 1 and result["metrics"]["ok_frac"]["value"] == 0


def test_wrong_bnb_value_fails(monkeypatch):
    solver = sgdom.cli.bnb_sigma

    def off_by_two(*args, **kwargs):
        res = solver(*args, **kwargs)
        return type(res)(res.status, res.value + 2, res.certificate, res.nodes_explored)

    monkeypatch.setattr(sgdom.cli, "bnb_sigma", off_by_two)
    lines, result = bench("bnb", 0)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert failed_frac(lines) == 1


def test_corrupted_extremal_certificate_fails(monkeypatch):
    emit = sgdom.cli.emit_certificate
    monkeypatch.setattr(sgdom.cli, "emit_certificate",
                        lambda *a: emit(*a).replace("+1", "-1", 1))
    lines, result = bench("certify-io", 0)
    assert not result["correct"] and result["failed"] >= 1
    assert failed_frac(lines) > 0

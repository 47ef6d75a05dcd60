"""Tests of the benchmark itself: seeded op lists, checks and failure accounting.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402
import checks  # noqa: E402
import workload  # noqa: E402


def _ops(name: str, seed: int, blocks: int = 2) -> list[str]:
    return [c.id for block in itertools.islice(catalog.blocks(name, seed), blocks) for c in block]


@pytest.mark.parametrize("name", catalog.WORKLOADS)
def test_seed_fixes_the_op_list(name):
    assert _ops(name, 7) == _ops(name, 7)
    assert _ops(name, 7) != _ops(name, 8)
    # whatever the seed, a block runs every variant of every stratum equally often
    table = catalog.strata(name)
    for seed in (7, 8):
        block = next(catalog.blocks(name, seed))
        assert sorted(c.id for c in block) == sorted(
            c.id for cases in table.values() for c in cases * (catalog.BLOCK // len(cases)))


def test_every_case_has_a_reference():
    refs = workload.load_references()
    assert {c.id for c in catalog.all_cases()} <= set(refs)


def _case(workload_name: str, stratum: str, **params) -> catalog.Case:
    return next(c for c in catalog.strata(workload_name)[stratum]
                if all(c.params[k] == v for k, v in params.items()))


def _eval_csv(case: catalog.Case, values) -> str:
    xs = catalog.grid_points(case.params["grid"])
    return "u,value\n" + "".join(f"{x:.12g},{v:.12g}\n" for x, v in zip(xs, values))


def test_value_off_by_2e_6_fails():
    case = _case("transform", "transform/rayleigh/cdf/nonint/gmgf-general", m=2.5)
    ref = workload.load_references()[case.id]
    values = list(ref["value"])
    assert checks.check(case, ref, 0, None, "", _eval_csv(case, values)) == []
    values[3] += 5e-7
    assert checks.check(case, ref, 0, None, "", _eval_csv(case, values)) == []
    values[3] += 1.5e-6
    reasons = checks.check(case, ref, 0, None, "", _eval_csv(case, values))
    assert len(reasons) == 1 and reasons[0].startswith("value: 1 value(s)")


def test_outage_exact_off_by_2e_6_fails():
    case = _case("outage", "outage/nakagami/low-int", m=2.0)
    ref = workload.load_references()[case.id]
    db = catalog.grid_points(case.params["grid_db"])
    exact = [v + (2e-6 if i == 0 else 0.0) for i, v in enumerate(ref["exact"])]
    text = "gamma_th_db,exact,asymptote\n" + "".join(
        f"{d:.12g},{e:.12g},{a:.12g}\n" for d, e, a in zip(db, exact, ref["asymptote"]))
    reasons = checks.check(case, ref, 0, None, "", text)
    assert len(reasons) == 1 and reasons[0].startswith("exact: 1 value(s)")


def test_failing_op_is_counted_and_the_loop_goes_on(tmp_path):
    from igcomposite import cli

    refs = workload.load_references()
    hoyt = _case("outage", "outage/hoyt/low-nonint", m=2.5)
    rayleigh = _case("outage", "outage/rayleigh/low-nonint", m=2.5)
    records = workload.closed_loop(cli, refs, [[hoyt, rayleigh]], 0.0, str(tmp_path))
    assert [r["case"] for r in records] == [hoyt, rayleigh]
    assert records[0]["failed"] == ["exit 3"]  # series non-convergence at -40 dB
    assert records[1]["failed"] == []
    metrics, info = workload.summarize(records)
    assert metrics["ok_op_ratio"] == 0.5 and info["failed_op_ratio"] == 0.5
    assert workload.correct(records)  # the Hoyt failure is a known defect


def test_failure_outside_the_known_defects_makes_the_run_incorrect():
    assert set(catalog.KNOWN_DEFECTS) <= {
        s for w in catalog.WORKLOADS for s in catalog.strata(w)}
    hoyt = _case("outage", "outage/hoyt/low-nonint", m=2.5)
    rayleigh = _case("outage", "outage/rayleigh/low-nonint", m=2.5)
    known = {"case": hoyt, "latency": 0.1, "failed": ["exit 3"]}
    missed = {"case": rayleigh, "latency": 0.1, "failed": ["exact: 1 value(s) miss"]}
    unchecked = {"case": hoyt, "latency": 0.1, "failed": [f"{checks.UNCHECKED[0]} for this case"]}
    assert workload.correct([known])
    assert not workload.correct([known, missed])
    assert not workload.correct([unchecked])


def test_metric_names_do_not_depend_on_the_seed(tmp_path):
    from igcomposite import cli

    refs = workload.load_references()
    names = []
    for seed in (1, 2):
        cheap = [c for c in next(catalog.blocks("outage", seed))
                 if c.stratum.startswith(("outage/rayleigh", "outage/nakagami"))]
        records = workload.closed_loop(cli, refs, [cheap], 0.0, str(tmp_path))
        assert all(not r["failed"] for r in records)
        names.append(sorted(workload.summarize(records)[0]))
    assert names[0] == names[1]

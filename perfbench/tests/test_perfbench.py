"""Self-tests of the benchmark, on inputs small enough to run in seconds.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_GRID = (
    ("oracle-laws", {"max_len_comm": 2, "max_len_assoc": 1}, 76),
    ("lemma31", {"max_run": 3}, 9),
    ("theorem22", {"max_run": 1, "max_exp": 2}, 9),
    ("prop41", {"k_values": [2, 3], "p_values": [2]}, 2),
    ("euler", {"max_arg": 3}, 4),
    ("duality-numeric", {"max_weight": 4}, 7),
)


def small_pool():
    pool = workloads.load_golden("cli_pool.json")
    return {kind: entries[:4] for kind, entries in pool.items()}


def small_workloads(seed=3):
    return [
        workloads.ProductTable(seed, max_weight=7),
        workloads.VerifySuites(seed, grid=SMALL_GRID),
        workloads.CliSession(seed, pool=small_pool()),
    ]


def traced_unit(work):
    tracer = spans.Tracer()
    tracer.install()
    try:
        unit = work.run_unit(0)
    finally:
        tracer.uninstall()
    work.check(unit)
    return unit, tracer


@pytest.mark.parametrize("work", small_workloads(), ids=lambda w: w.name)
def test_traced_and_untraced_outputs_agree(work):
    plain = work.run_unit(0)
    work.check(plain)
    unit, tracer = traced_unit(work)
    assert plain.failed == unit.failed == 0
    assert plain.attempted == unit.attempted > 0
    assert plain.digest == unit.digest
    assert tracer.spans


@pytest.mark.parametrize("work", small_workloads(), ids=lambda w: w.name)
def test_traced_counts_repeat_exactly(work):
    _, first = traced_unit(work)
    _, second = traced_unit(work)
    assert first.counts == second.counts
    assert sum(first.counts.values()) > 0
    assert [s[:2] for s in first.spans] == [s[:2] for s in second.spans]


def test_tracer_restores_every_binding():
    import imzv
    from imzv import cli, coeffs, verify, zeta

    before = (imzv.tshuffle_words, cli.tshuffle_words, zeta.zeta_map, verify.zeta_map,
              dict(verify.SUITES), coeffs.QtPoly.__init__, coeffs.QtPoly.__radd__)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.tshuffle_words is not before[1]
    assert verify.zeta_map is zeta.zeta_map is not before[2]
    tracer.uninstall()
    after = (imzv.tshuffle_words, cli.tshuffle_words, zeta.zeta_map, verify.zeta_map,
             dict(verify.SUITES), coeffs.QtPoly.__init__, coeffs.QtPoly.__radd__)
    assert after == before


def test_per_layer_metrics_match_benchmark_json():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(range(1, 100), 90) is None
    assert run.percentile(range(1, 101), 90) == 90
    assert run.percentile(range(1, 20), 50) is None
    assert run.percentile(range(1, 21), 50) == 10
    assert run.percentile([], 50) is None


def test_scale_to_host_uses_the_probes_around_each_operation():
    ref = run.HOST_LOOP_REF_S
    unit = workloads.Unit(wall_s=4.0, ops=[("product", 1.0)] * 4)
    run.scale_to_host(unit, [(0, ref), (2, ref), (4, 2 * ref)])
    assert [dt for _, dt in unit.ops] == pytest.approx([1, 1, 2 / 3, 2 / 3])
    assert unit.wall_s == pytest.approx(10 / 3)


def test_perturbed_table_row_is_caught():
    from imzv.halg import HElement

    def perturbed_pass(work):
        unit = work.run_unit(0)
        u, v, prod, combo = unit.outputs[3]
        unit.outputs[3] = (u, v, prod + HElement.from_word("xy"), combo)
        work.check(unit)
        return unit

    # the first pass is checked against the golden digests
    unit = perturbed_pass(workloads.ProductTable(1, max_weight=6))
    assert unit.attempted == 10 and unit.failed == 1
    # later passes are checked against the first
    work = workloads.ProductTable(1, max_weight=6)
    first = work.run_unit(0)
    work.check(first)
    assert first.failed == 0
    unit = perturbed_pass(work)
    assert unit.attempted == 10 and unit.failed == 1 and unit.digest != first.digest


def test_wrong_plain_part_is_caught():
    # a t-only change keeps the t = 0 sum; a constant change breaks it
    assert workloads.plain_part_ok([{"coeff": "2 - 3*t"}, {"coeff": "4"}], 2, 2)
    assert workloads.plain_part_ok([{"coeff": "2 - 5*t"}, {"coeff": "4"}], 2, 2)
    assert not workloads.plain_part_ok([{"coeff": "3 - 3*t"}, {"coeff": "4"}], 2, 2)


def test_perturbed_cli_replies_are_caught():
    work = workloads.CliSession(2, pool=small_pool())
    unit = work.run_unit(0)
    for n, (kind, entry, rc, out) in enumerate(unit.outputs):
        if kind == "eval":
            res = json.loads(out)
            res["value"] += 1e-3
            out = json.dumps(res)
        elif kind == "product":
            out = out.replace('"coeff": "', '"coeff": "2*', 1)
        else:
            out = out + " "
        unit.outputs[n] = (kind, entry, rc, out)
    work.check(unit)
    assert unit.failed == unit.attempted == 16


def test_tolerance_miss_is_caught():
    entry = {"argv": ["eval", "z(2)", "--tol", "1e-6"], "value": 1.0, "error_estimate": 0.0}
    ok = json.dumps({"value": 1.0, "error_estimate": 0.0, "tol_ok": True})
    miss = json.dumps({"value": 1.0, "error_estimate": 0.0, "tol_ok": False})
    assert workloads.cli_output_ok("eval", entry, ok)
    assert not workloads.cli_output_ok("eval", entry, miss)


def test_shrunken_or_empty_grid_fails_every_case():
    grid = (("lemma31", {"max_run": 2}, 9), ("euler", {"max_arg": 1}, 25))
    work = workloads.VerifySuites(1, grid=grid)
    unit = work.run_unit(0)
    work.check(unit)
    assert unit.attempted == 34 and unit.failed == 34


def test_same_seed_same_inputs():
    pool = workloads.load_golden("cli_pool.json")
    assert workloads.cli_epoch(pool, 5, 0) == workloads.cli_epoch(pool, 5, 0)
    assert workloads.cli_epoch(pool, 5, 0) != workloads.cli_epoch(pool, 6, 0)
    assert workloads.cli_epoch(pool, 5, 0) != workloads.cli_epoch(pool, 5, 1)
    table = workloads.ProductTable(5, max_weight=7)
    assert table.pass_order(0) == workloads.ProductTable(5, max_weight=7).pass_order(0)
    assert table.pass_order(0) != workloads.ProductTable(6, max_weight=7).pass_order(0)
    assert table.pass_order(0) != table.pass_order(1)
    assert sorted(map(str, table.pass_order(1))) == sorted(map(str, table.pairs))

"""Tests of the benchmark's own counters:  python3 -m pytest bench -q"""

from __future__ import annotations

import random
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from ciore import matrix, prop_prover, sequents  # noqa: E402
from ciore.parsing import parse_sequent  # noqa: E402
from ciore.randgen import random_formula, random_sequent  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_valuations_examined_is_the_enumeration_position():
    rng = random.Random(7)
    for _ in range(200):
        s = random_sequent(rng, ["p", "q", "r", "s"], 2, 2)
        names = reference.sequent_atoms(s)
        position, found = 0, None
        for v in matrix.valuations(tuple(names)):
            position += 1
            if not matrix.sequent_satisfied(v, s):
                found = v
                break
        cm = matrix.find_countermodel(s)
        assert (cm is None) == (found is None)
        ranks = None if cm is None else workloads.ranks(cm)
        assert reference.valuations_examined(names, ranks) == position


def test_valuations_examined_counts_all_for_valid_goals():
    s = parse_sequent("|- p | ~p, q")
    assert reference.valuations_examined(reference.sequent_atoms(s), None) == 9


def test_percentile_matches_inclusive_quantiles_and_leaves_ten_beyond_p90():
    samples = [float(x) for x in random.Random(3).sample(range(1000), 100)]
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    assert run.percentile(samples, 50) == statistics.median(samples)
    assert abs(run.percentile(samples, 90) - cuts[8]) < 1e-9
    assert run.beyond(samples, run.percentile(samples, 90)) == 10
    assert run.percentile([4.0], 90) == 4.0


def test_self_time_subtracts_the_covered_part_of_children():
    tree = [
        ["outer", 0.0, 10.0, None, 1],
        ["child", 1.0, 3.0, 0, 1],
        ["child", 2.0, 4.0, 0, 1],  # overlaps the first child: [1, 4] is covered once
        ["grandchild", 2.5, 3.5, 2, 1],
        ["late", 9.0, 12.0, 0, 1],  # runs past its parent: only [9, 10] counts
    ]
    assert spans.self_times(tree) == [10.0 - 3.0 - 1.0, 2.0, 1.0, 1.0, 3.0]


def test_tracer_counts_outermost_calls_and_restores_the_package():
    original = prop_prover.decide
    tracer = spans.Tracer()
    s = parse_sequent("|- p | ~p")
    with tracer.installed():
        tracer.goal = 0
        verdict = prop_prover.decide(s)
        sequents.check_proof(verdict.proof, sequents.Calculus.GCIORE_PRIME)
        with tracer.paused():
            matrix.find_countermodel(s)
    assert prop_prover.decide is original
    metrics = spans.layer_metrics(tracer)
    assert metrics["prop_prover.calls"][0] == 1
    assert metrics["prop_prover.proved"][0] == 1
    assert metrics["sequents.nodes_checked"][0] == spans.proof_size(verdict.proof)
    assert metrics["matrix.calls"][0] == 0
    assert all(goal == 0 for *_, goal in tracer.spans)


def test_reference_evaluator_agrees_with_the_matrix():
    rng = random.Random(11)
    atoms = ["p", "q", "r"]
    for _ in range(300):
        phi = random_formula(rng, atoms, 4)
        v = {name: rng.choice(matrix.VALUE_ORDER) for name in atoms}
        assert reference.prop_value(phi, workloads.ranks(v)) == reference.RANK[matrix.eval_formula(phi, v).value]


def test_quotas_split_the_total_by_weight():
    assert workloads.quotas({"a": 3, "b": 1}, 8) == {"a": 6, "b": 2}
    assert workloads.quotas({"a": 1, "b": 1, "c": 1}, 2) == {"a": 1, "b": 1, "c": 0}
    assert sum(workloads.quotas(workloads.MATRIX_STRATA, 500).values()) == 500


def test_stratified_draws_fill_each_stratum_to_its_quota():
    def draw(rng):
        x = rng.randrange(100)
        return x % 3, x

    out = workloads.stratified(random.Random(5), 30, {0: 1, 1: 1, 2: 1}, draw)
    assert len(out) == 30
    assert sorted(Counter(x % 3 for x in out).values()) == [10, 10, 10]

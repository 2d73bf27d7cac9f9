"""Faulty-prefix reuse: a unit resumes its sibling's forward, bit for bit.

A campaign unit's integer forward starts at the first injectable layer
where its protection plan differs from the retained trace of a sibling
(same model, data, sample range, batch size, BER, injector kind and
fault config; same seed and batch).  Every check here compares against
the path with no prefix: a fresh ``qmodel.evaluate`` with a new injector
per unit — accuracy, total events and the per-category counts — and
also asserts the forward really did resume, so none of it is vacuous.

CI tier-2 re-runs this module with ``REPRO_PARITY_WORKERS=2``: every
forked worker keeps its own retained state.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis import layer_vulnerability
from repro.backends import DEFAULT_BACKEND
from repro.faultsim import (
    AbftChecker,
    CampaignConfig,
    NeuronLevelInjector,
    OperationLevelInjector,
    ProtectionPlan,
    SCHEME_ABFT,
    SCHEME_TMR,
    combine_slice_results,
    evaluate_sample_slice,
    evaluate_seed_point,
)
from repro.faultsim import campaign
from repro.nn import GraphBuilder, initialize
from repro.quantized import QuantConfig, QuantizedModel, quantize_model
from repro.runtime import CampaignEngine, TaskSpec
from repro.winograd.opcount import ADD_CATEGORIES, MUL_CATEGORIES

#: Worker count for the multi-worker regime (CI tier-2 sets this to 2).
PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "4"))

N_SAMPLES = 24
BER = 2e-4
SEEDS = (0, 1)
MODES = ["standard", "winograd"]


@pytest.fixture(autouse=True)
def fresh_state():
    """Every test starts and ends with nothing retained in this process."""
    campaign._PREFIXES.clear()
    yield
    campaign._PREFIXES.clear()


@pytest.fixture()
def starts(monkeypatch):
    """Start node of every ``forward_trace`` call, in call order."""
    seen: list[int] = []
    original = QuantizedModel.forward_trace

    def spy(self, x, injector=None, start=0, prefix=None, observe=None):
        seen.append(start)
        return original(self, x, injector, start=start, prefix=prefix, observe=observe)

    monkeypatch.setattr(QuantizedModel, "forward_trace", spy)
    return seen


def model_for(tiny_quantized, mode):
    return tiny_quantized[0] if mode == "standard" else tiny_quantized[1]


def layer_names(qm):
    return [layer.name for layer in qm.injectable_layers()]


def config_for(injector="operation", batch_size=12):
    return CampaignConfig(
        seeds=SEEDS, batch_size=batch_size, max_samples=N_SAMPLES, injector=injector
    )


def oracle_injector(config, seed, plan, sample_base=0):
    """The unit's injector built from scratch, independent of the campaign."""
    if config.injector == "neuron":
        return NeuronLevelInjector(
            BER, seed=seed, config=config.fault_config, sample_base=sample_base
        )
    inner = OperationLevelInjector(
        BER, seed=seed, config=config.fault_config, protection=plan,
        sample_base=sample_base,
    )
    if plan is not None and plan.abft_layers:
        return AbftChecker(inner, layers=plan.abft_layers, correct=True)
    return inner


def nonzero(counts):
    return {category: n for category, n in counts.items() if n}


def oracle(qm, x, y, config, seed, plan, window=None):
    """Accuracy and per-category events of a fresh forward with no prefix."""
    start, stop = window or (0, min(len(x), config.max_samples))
    injector = oracle_injector(config, seed, plan, sample_base=start)
    accuracy = qm.evaluate(
        x[start:stop], y[start:stop], injector=injector,
        batch_size=config.batch_size,
    )
    return accuracy, nonzero(injector.event_counts)


def assert_units_match_oracle(qm, x, y, config, units, starts, window=None):
    """Run ``(seed, plan)`` units in order through the campaign's unit
    evaluation, compare each with the oracle, and return each unit's
    forward start nodes (one per batch)."""
    start, stop = window or (0, min(len(x), config.max_samples))
    per_unit = []
    for seed, plan in units:
        mark = len(starts)
        preds, counts = campaign._unit_predictions(
            qm, x, start, stop, BER, seed, config, plan
        )
        per_unit.append(starts[mark:])
        accuracy = float((preds == y[start:stop]).mean())
        expected = oracle(qm, x, y, config, seed, plan, window)
        assert (accuracy, nonzero(counts)) == expected, (seed, plan)
    return per_unit


def fault_free(qm, name):
    return ProtectionPlan.fault_free_layer(name, layer_names(qm))


class TestLayerVulnerability:
    """The Fig. 3 protocol: baseline plus one fault-free layer per unit."""

    @pytest.mark.parametrize("mode", MODES)
    def test_engine_matches_fresh_evaluation(self, tiny_quantized, tiny_eval, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        config = config_for()
        plans = [None] + [fault_free(qm, name) for name in layer_names(qm)]
        fresh = [[oracle(qm, x, y, config, seed, p) for seed in SEEDS] for p in plans]
        for workers in (1, PARITY_WORKERS):
            campaign._PREFIXES.clear()
            engine = CampaignEngine(workers=workers)
            report = layer_vulnerability(qm, x, y, BER, config=config, engine=engine)
            tasks = [TaskSpec(ber=BER, seeds=SEEDS, protection=p) for p in plans]
            points = engine.evaluate_tasks(qm, x, y, tasks, config=config)
            for point, expected in zip(points, fresh):
                assert point.per_seed == [accuracy for accuracy, _ in expected]
                assert point.events_per_seed == [
                    sum(counts.values()) for _, counts in expected
                ]
            assert report.baseline_accuracy == points[0].mean_accuracy
            assert [lv.accuracy_when_fault_free for lv in report.layers] == [
                point.mean_accuracy for point in points[1:]
            ]

    @pytest.mark.parametrize("mode", MODES)
    def test_per_category_counts_and_resume_points(
        self, tiny_quantized, tiny_eval, starts, mode
    ):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        names = layer_names(qm)
        units = [(seed, None) for seed in SEEDS] + [
            (seed, fault_free(qm, name)) for name in names for seed in SEEDS
        ]
        per_unit = assert_units_match_oracle(qm, x, y, config_for(), units, starts)
        bounds = campaign._Layout.of(qm).bounds
        assert per_unit == [[0, 0]] * len(SEEDS) + [
            [bounds[j]] * 2 for j in range(len(names)) for _ in SEEDS
        ]


class TestPlanShapes:
    """Plans that differ late, early, not at all, partially, or by scheme."""

    @pytest.mark.parametrize("mode", MODES)
    def test_differs_only_at_last_layer(self, tiny_quantized, tiny_eval, starts, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        units = [(0, None), (0, fault_free(qm, layer_names(qm)[-1]))]
        per_unit = assert_units_match_oracle(qm, x, y, config_for(), units, starts)
        assert per_unit == [[0, 0], [campaign._Layout.of(qm).bounds[-2]] * 2]

    @pytest.mark.parametrize("mode", MODES)
    def test_differs_only_at_first_layer(self, tiny_quantized, tiny_eval, starts, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        names = layer_names(qm)
        units = [(1, None), (1, fault_free(qm, names[0])), (1, fault_free(qm, names[1]))]
        per_unit = assert_units_match_oracle(qm, x, y, config_for(), units, starts)
        bounds = campaign._Layout.of(qm).bounds
        # The first-layer unit shares only the quantized input; it does not
        # replace the baseline trace, so the next sibling resumes later.
        assert per_unit == [[0, 0], [bounds[0]] * 2, [bounds[1]] * 2]

    @pytest.mark.parametrize("mode", MODES)
    def test_identical_plan_reuses_whole_forward(
        self, tiny_quantized, tiny_eval, starts, mode
    ):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        name = layer_names(qm)[1]
        plan = fault_free(qm, name)
        units = [(0, plan), (0, plan.copy()), (0, fault_free(qm, name))]
        per_unit = assert_units_match_oracle(qm, x, y, config_for(), units, starts)
        end = len(qm.nodes)
        assert per_unit == [[0, 0], [end, end], [end, end]]

    @pytest.mark.parametrize("mode", MODES)
    def test_partial_tmr_fractions(self, tiny_quantized, tiny_eval, starts, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        plan, grown = ProtectionPlan(), []
        for name in reversed(layer_names(qm)):  # planner-style growth
            for category in MUL_CATEGORIES + ADD_CATEGORIES:
                plan.set(name, category, 0.25)
            grown.append(plan.copy())
            plan.set(name, MUL_CATEGORIES[0], 0.5)
            grown.append(plan.copy())
        half_adds = ProtectionPlan()  # differs from the baseline in adds only
        for category in ADD_CATEGORIES:
            half_adds.set(layer_names(qm)[1], category, 0.5)
        units = [(0, None), (0, half_adds)] + [(0, p) for p in grown]
        per_unit = assert_units_match_oracle(qm, x, y, config_for(), units, starts)
        assert per_unit[1] == [campaign._Layout.of(qm).bounds[1]] * 2
        assert all(start > 0 for unit in per_unit[1:] for start in unit)

    @pytest.mark.parametrize("mode", MODES)
    def test_abft_portfolio_plan(self, tiny_quantized, tiny_eval, starts, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        names = layer_names(qm)
        ladder = ProtectionPlan()
        ladder.set_scheme(names[1], SCHEME_ABFT)
        upgraded = ladder.copy()
        upgraded.set_scheme(names[-1], SCHEME_ABFT)
        tmr = upgraded.copy()
        tmr.set_scheme(names[-1], SCHEME_TMR)
        for category in MUL_CATEGORIES + ADD_CATEGORIES:
            tmr.set(names[-1], category, 1.0)
        units = [(seed, p) for p in (ladder, upgraded, tmr) for seed in SEEDS]
        per_unit = assert_units_match_oracle(qm, x, y, config_for(), units, starts)
        last = campaign._Layout.of(qm).bounds[-2]
        assert per_unit == [[0, 0]] * 2 + [[last, last]] * 4
        _, counts = campaign._unit_predictions(
            qm, x, 0, N_SAMPLES, BER, 0, config_for(), ladder
        )
        assert counts.get("abft_detected", 0) > 0, "ABFT never fired"


def branching_model(mode):
    """A stem conv, two branches joined by QAdd, a QConcat skip, a head."""
    b = GraphBuilder("branchy", input_shape=(3, 8, 8))
    stem = b.relu(b.conv2d(b.input_node, 4, kernel=3, padding=1, name="stem"))
    left = b.conv2d(stem, 4, kernel=3, padding=1, name="left")
    right = b.conv2d(stem, 4, kernel=1, name="right")
    joined = b.relu(b.add(left, right, name="join"))
    cat = b.concat([joined, stem], name="cat")
    head = b.conv2d(cat, 6, kernel=3, padding=1, name="head")
    graph = b.output(b.linear(b.flatten(b.globalavgpool(head)), 3, name="fc"))
    initialize(graph, 3)
    calib = np.random.default_rng(0).standard_normal((16, 3, 8, 8)).astype(np.float32)
    return quantize_model(graph, calib, QuantConfig(width=16), mode)


class TestGraphsAndPartitions:
    @pytest.mark.parametrize("mode", MODES)
    def test_branching_graph_with_add_and_concat(self, starts, mode):
        qm = branching_model(mode)
        assert {"QAdd", "QConcat"} <= {node.op for node in qm.nodes}
        x = np.random.default_rng(5).standard_normal((N_SAMPLES, 3, 8, 8))
        x = x.astype(np.float32)
        y = np.argmax(qm.logits(x), axis=1)
        names = layer_names(qm)
        units = [(0, None)] + [(0, fault_free(qm, name)) for name in names]
        per_unit = assert_units_match_oracle(qm, x, y, config_for(), units, starts)
        layout = campaign._Layout.of(qm)
        assert per_unit[1:] == [[bound] * 2 for bound in layout.bounds[:-1]]
        # Resuming at the right branch needs the finished left branch and
        # the stem's activation, which the concat skip also reads later.
        stem_out = qm.node("left").inputs[0]
        assert set(layout.live[names.index("right")]) == {stem_out, "left"}
        assert stem_out in qm.node("cat").inputs

    @pytest.mark.parametrize("mode", MODES)
    def test_batch_smaller_than_sample_count(
        self, tiny_quantized, tiny_eval, starts, mode
    ):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        config = config_for(batch_size=5)  # five batches, the last one short
        plans = (None, fault_free(qm, layer_names(qm)[-1]))
        units = [(seed, p) for p in plans for seed in SEEDS]
        per_unit = assert_units_match_oracle(qm, x, y, config, units, starts)
        last = campaign._Layout.of(qm).bounds[-2]
        assert per_unit == [[0] * 5] * 2 + [[last] * 5] * 2
        assert len(campaign._PREFIXES.traces) == len(SEEDS) * 5

    @pytest.mark.parametrize("mode", MODES)
    def test_sample_slices_recombine(self, tiny_quantized, tiny_eval, starts, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        config = config_for(batch_size=4)
        names = layer_names(qm)
        windows = [(lo, min(lo + 10, N_SAMPLES)) for lo in range(0, N_SAMPLES, 10)]
        plans = (None, fault_free(qm, names[1]), fault_free(qm, names[-1]))
        for window in windows:  # one slice family at a time: siblings resume
            units = [(seed, p) for p in plans for seed in SEEDS]
            per_unit = assert_units_match_oracle(
                qm, x, y, config, units, starts, window=window
            )
            assert all(start > 0 for unit in per_unit[2:] for start in unit)
        for plan in plans:
            for seed in SEEDS:
                parts = [
                    evaluate_sample_slice(
                        qm, x, y, BER, seed, window, config=config, protection=plan
                    )
                    for window in windows
                ]
                whole = combine_slice_results(parts, expected_total=N_SAMPLES)
                accuracy, counts = oracle(qm, x, y, config, seed, plan)
                assert (whole.accuracy, whole.events) == (
                    accuracy, sum(counts.values())
                )

    @pytest.mark.parametrize("mode", MODES)
    def test_neuron_level_units(self, tiny_quantized, tiny_eval, starts, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        config = config_for(injector="neuron")
        plans = (None, fault_free(qm, layer_names(qm)[0]))
        units = [(seed, p) for p in plans for seed in SEEDS]
        per_unit = assert_units_match_oracle(qm, x, y, config, units, starts)
        # The neuron injector ignores plans: the sibling's whole forward serves.
        end = len(qm.nodes)
        assert per_unit == [[0, 0]] * 2 + [[end, end]] * 2
        assert evaluate_seed_point(qm, x, y, BER, 0, config=config).events > 0


class TestRetainedState:
    def test_one_family_read_only(self, tiny_quantized, tiny_eval):
        qm_st, qm_wg = tiny_quantized
        x, y = tiny_eval
        config = config_for()
        for seed in SEEDS:
            evaluate_seed_point(qm_st, x, y, BER, seed, config=config)
        retained = campaign._PREFIXES
        assert set(retained.traces) == {(s, b) for s in SEEDS for b in (0, 1)}
        evaluate_seed_point(qm_wg, x, y, BER, 0, config=config)
        # Another model is another family: the first family's traces are gone.
        assert set(retained.traces) == {(0, 0), (0, 1)}
        evaluate_seed_point(qm_wg, x, y, BER / 2, 0, config=config)
        assert retained._rest[3] == BER / 2
        assert set(retained.traces) == {(0, 0), (0, 1)}
        try:  # the differential tests' oracle seam is its own family too
            qm_wg.set_kernel_backend("reference")
            evaluate_seed_point(qm_wg, x, y, BER / 2, 1, config=config)
            assert set(retained.traces) == {(1, 0), (1, 1)}
        finally:
            qm_wg.set_kernel_backend(DEFAULT_BACKEND)
        assert retained.nbytes > 0
        for trace in retained.traces.values():
            for kept, dtype in trace.values.values():
                assert (kept.dtype, dtype) == (np.int16, np.int64)
                with pytest.raises(ValueError):
                    kept.flat[0] = 1

    @pytest.mark.parametrize("retained_before", [False, True])
    def test_unit_that_raises_leaves_nothing(
        self, tiny_quantized, tiny_eval, monkeypatch, retained_before
    ):
        qm = tiny_quantized[0]
        x, y = tiny_eval
        config = config_for()
        if retained_before:
            evaluate_seed_point(qm, x, y, BER, 0, config=config)
            assert campaign._PREFIXES.traces

        def boom(self, layer, *args):
            raise RuntimeError("injected mid-forward failure")

        with monkeypatch.context() as patch:
            patch.setattr(OperationLevelInjector, "visit_linear", boom)
            with pytest.raises(RuntimeError, match="mid-forward"):
                evaluate_seed_point(
                    qm, x, y, BER, 0, config=config,
                    protection=fault_free(qm, layer_names(qm)[0]),
                )
        assert campaign._PREFIXES.traces == {}
        accuracy, counts = oracle(qm, x, y, config, 0, None)
        point = evaluate_seed_point(qm, x, y, BER, 0, config=config)
        assert (point.accuracy, point.events) == (accuracy, sum(counts.values()))

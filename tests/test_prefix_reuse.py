"""Faulty-prefix reuse: a unit resumes its sibling's forward, bit for bit.

A campaign unit's integer forward starts at the first injectable layer
where its protection plan differs from the retained trace of a sibling
(same model, data, sample range, batch size, BER, injector kind and
fault config; same seed and batch), and takes its unprotected sites'
fault draws from the table its siblings of the same seed recorded.
Every check here compares against the path with neither: a fresh
``qmodel.evaluate`` with a new injector per unit — accuracy, total
events and the per-category counts — and also asserts the forward
really did resume or the draws really were replayed, so none of it is
vacuous.

CI tier-2 re-runs this module with ``REPRO_PARITY_WORKERS=2``: every
forked worker keeps its own retained state.
"""

from __future__ import annotations

import gc
import os
import warnings

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
from repro.faultsim import FaultModelConfig, campaign
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


@pytest.fixture()
def samplers(monkeypatch):
    """The sampler of every unit, in call order."""
    seen: list = []
    original = campaign._make_injector

    def spy(*args, **kwargs):
        injector, sampler = original(*args, **kwargs)
        seen.append(sampler)
        return injector, sampler

    monkeypatch.setattr(campaign, "_make_injector", spy)
    return seen


def replayed(sampler):
    """Site draws a unit's sampler took from the table (None: it had no table)."""
    return getattr(sampler, "replayed", None)


def family(qm):
    """The retained family of a model in this process."""
    return campaign._PREFIXES.families[id(qm)]


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
        assert len(family(qm).traces) == len(SEEDS) * 5

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


class TestDrawReplay:
    """Siblings take unprotected sites' draws from their seed's table."""

    @pytest.mark.parametrize("mode", MODES)
    def test_vulnerability_batch(self, tiny_quantized, tiny_eval, starts, samplers, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        names = layer_names(qm)
        plans = [None] + [fault_free(qm, name) for name in names]
        units = [(seed, p) for p in plans for seed in SEEDS]
        assert_units_match_oracle(qm, x, y, config_for(), units, starts)
        per_unit = [replayed(sampler) for sampler in samplers]
        # The baseline has no sibling, the first-layer unit records what
        # the second-layer one replays.
        assert per_unit[:4] == [None, None, 0, 0]
        assert all(count > 0 for count in per_unit[4:6])
        # The table never holds more than one unit's unprotected draws.
        fresh = OperationLevelInjector(BER, seed=0, config=config_for().fault_config)
        drawn = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                fresh.sampler, "site_events",
                lambda *args, **kw: drawn.append(args) or None,
            )
            qm.evaluate(x[:N_SAMPLES], y[:N_SAMPLES], injector=fresh, batch_size=12)
        for seed in SEEDS:
            assert 0 < len(family(qm).draws[seed]) <= len(drawn)

    @pytest.mark.parametrize("mode", MODES)
    def test_planner_batches(self, tiny_quantized, tiny_eval, starts, samplers, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        names = layer_names(qm)
        plan, grown = ProtectionPlan(), []
        for name in names:  # planner-style growth: partial fractions, stepped up
            for fraction in (0.25, 0.5):
                plan.set(name, MUL_CATEGORIES[0], fraction)
                plan.set(name, ADD_CATEGORIES[0], fraction / 2)
                grown.append(plan.copy())
        units = [(seed, None) for seed in SEEDS] + [
            (seed, p) for p in grown for seed in SEEDS
        ]
        assert_units_match_oracle(qm, x, y, config_for(batch_size=5), units, starts)
        assert sum(replayed(sampler) for sampler in samplers[4:]) > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_abft_ladder(self, tiny_quantized, tiny_eval, starts, samplers, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        names = layer_names(qm)
        ladder, plans = ProtectionPlan(), [None]
        for name in reversed(names):
            ladder.set_scheme(name, SCHEME_ABFT)
            plans.append(ladder.copy())
        units = [(seed, p) for p in plans for seed in SEEDS]
        assert_units_match_oracle(qm, x, y, config_for(), units, starts)
        assert sum(replayed(sampler) for sampler in samplers[4:]) > 0
        _, counts = campaign._unit_predictions(
            qm, x, 0, N_SAMPLES, BER, 0, config_for(), plans[-1]
        )
        assert counts.get("abft_detected", 0) > 0, "ABFT never fired"

    def test_fig1_shaped_sweep_records_nothing(self, tiny_quantized, tiny_eval, samplers):
        x, y = tiny_eval
        for injector in ("operation", "neuron"):
            config = config_for(injector=injector)
            for qm in tiny_quantized:
                for ber in (BER / 4, BER / 2, BER):
                    for seed in SEEDS:
                        evaluate_seed_point(qm, x, y, ber, seed, config=config)
        assert len(samplers) == 2 * 2 * 3 * len(SEEDS)
        assert all(replayed(sampler) is None for sampler in samplers)
        assert all(family(qm).draws == {} for qm in tiny_quantized)

    @pytest.mark.parametrize("mode", MODES)
    def test_thinned_sites_never_recorded(self, tiny_quantized, tiny_eval, mode):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        names = layer_names(qm)
        half_adds = ProtectionPlan()
        for category in ADD_CATEGORIES:
            half_adds.set(names[1], category, 0.5)
        for plan in (None, half_adds):  # the sibling resumes at names[1]
            evaluate_seed_point(qm, x, y, BER, 0, config=config_for(), protection=plan)
        table = family(qm).draws[0]
        sites = {(layer, site) for layer, site, *_ in table}
        mul = "st_mul" if mode == "standard" else "sub0:wg_mul"
        assert (names[1], mul) in sites
        assert {layer for layer, site in sites} == set(names[1:])
        assert not any(
            layer == names[1] and "add" in site for layer, site in sites
        ), "a thinned site was recorded"

    def test_stored_draws_are_read_only(self, tiny_quantized, tiny_eval):
        qm = tiny_quantized[1]
        x, y = tiny_eval
        for plan in (None, fault_free(qm, layer_names(qm)[0])):
            evaluate_seed_point(qm, x, y, BER, 0, config=config_for(), protection=plan)
        entries = [events for events, _ in family(qm).draws[0].values() if events]
        assert entries
        assert any(events.signs() is not None for events in entries)
        for events in entries:
            for array in events._arrays():
                with pytest.raises(ValueError):
                    array[...] = 0
            with pytest.raises(AttributeError):
                events.coords.append(events.img)


class TestEventCapWarning:
    """A unit warns once when the event cap bound on any of its events."""

    def test_fresh_and_replaying_units_warn(self, tiny_quantized, tiny_eval, samplers):
        qm = tiny_quantized[0]
        x, y = tiny_eval
        capped = FaultModelConfig(max_events_per_category=1)
        config = CampaignConfig(
            seeds=SEEDS, batch_size=12, max_samples=N_SAMPLES, fault_config=capped
        )
        names = layer_names(qm)
        first, last = fault_free(qm, names[0]), fault_free(qm, names[-1])
        # Fresh; recording; replaying only (resumes before the first layer,
        # which draws nothing); carrying only the trace's cap bit (resumes
        # at the last layer, which draws nothing).
        for plan in (None, first, first.copy(), last):
            mark = len(samplers)
            with pytest.warns(RuntimeWarning) as caught:
                point = evaluate_seed_point(
                    qm, x, y, BER, 1, config=config, protection=plan
                )
            messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
            assert len(messages) == 1, messages
            assert f"BER {BER!r}" in messages[0] and "seed 1" in messages[0]
            oracle_inj = oracle_injector(config, 1, plan)
            qm.evaluate(x[:N_SAMPLES], y[:N_SAMPLES], injector=oracle_inj, batch_size=12)
            assert oracle_inj.capped
            assert point.events == sum(oracle_inj.event_counts.values())
            if plan is last:
                assert not samplers[mark].capped  # the bit came from the trace
        assert replayed(samplers[2]) > 0

    def test_default_config_does_not_warn(self, tiny_quantized, tiny_eval):
        x, y = tiny_eval
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for qm in tiny_quantized:
                for plan in (None, fault_free(qm, layer_names(qm)[0])):
                    for seed in SEEDS:
                        evaluate_seed_point(
                            qm, x, y, BER, seed, config=config_for(), protection=plan
                        )


class TestRetainedState:
    def test_one_family_read_only(self, tiny_quantized, tiny_eval):
        """One family per live model: a model's family is replaced only by
        its own units of another family, and goes when the model does."""
        qm_st, qm_wg = tiny_quantized
        x, y = tiny_eval
        config = config_for()
        for seed in SEEDS:
            evaluate_seed_point(qm_st, x, y, BER, seed, config=config)
        st = family(qm_st)
        every = {(s, b) for s in SEEDS for b in (0, 1)}
        assert set(st.traces) == every
        evaluate_seed_point(qm_wg, x, y, BER, 0, config=config)
        # Another model has its own family: the ST traces survive.
        assert family(qm_st) is st and set(st.traces) == every
        assert set(family(qm_wg).traces) == {(0, 0), (0, 1)}
        evaluate_seed_point(qm_wg, x, y, BER / 2, 0, config=config)
        assert family(qm_wg).rest[3] == BER / 2
        assert set(family(qm_wg).traces) == {(0, 0), (0, 1)}
        assert family(qm_st) is st
        try:  # the differential tests' oracle seam is its own family too
            qm_wg.set_kernel_backend("reference")
            evaluate_seed_point(qm_wg, x, y, BER / 2, 1, config=config)
            assert set(family(qm_wg).traces) == {(1, 0), (1, 1)}
        finally:
            qm_wg.set_kernel_backend(DEFAULT_BACKEND)
        assert family(qm_st) is st and set(st.traces) == every
        assert campaign._PREFIXES.nbytes > 0
        for qm in tiny_quantized:
            for trace in family(qm).traces.values():
                for kept, dtype in trace.values.values():
                    assert (kept.dtype, dtype) == (np.int16, np.int64)
                    with pytest.raises(ValueError):
                        kept.flat[0] = 1
        # A collected model's state is gone with it.
        qm = branching_model("standard")
        xb = np.zeros((4, 3, 8, 8), dtype=np.float32)
        evaluate_seed_point(qm, xb, np.zeros(4, dtype=np.int64), BER, 0, config=config)
        key = id(qm)
        assert key in campaign._PREFIXES.families
        del qm
        gc.collect()
        assert key not in campaign._PREFIXES.families
        assert set(campaign._PREFIXES.families) == {id(qm_st), id(qm_wg)}

    @pytest.mark.parametrize("retained_before", [False, True])
    def test_unit_that_raises_leaves_nothing(
        self, tiny_quantized, tiny_eval, monkeypatch, retained_before
    ):
        qm = tiny_quantized[0]
        x, y = tiny_eval
        config = config_for()
        names = layer_names(qm)
        if retained_before:
            for plan in (None, fault_free(qm, names[0])):
                evaluate_seed_point(qm, x, y, BER, 0, config=config, protection=plan)
            assert family(qm).traces and family(qm).draws[0]

        def boom(self, layer, *args):
            raise RuntimeError("injected mid-forward failure")

        with monkeypatch.context() as patch:
            patch.setattr(OperationLevelInjector, "visit_linear", boom)
            with pytest.raises(RuntimeError, match="mid-forward"):
                evaluate_seed_point(
                    qm, x, y, BER, 0, config=config,
                    protection=fault_free(qm, names[1]),
                )
        assert family(qm).traces == {} and family(qm).draws == {}
        accuracy, counts = oracle(qm, x, y, config, 0, None)
        point = evaluate_seed_point(qm, x, y, BER, 0, config=config)
        assert (point.accuracy, point.events) == (accuracy, sum(counts.values()))

"""Frozen identity pins for the keyed fault sampler.

Two kinds of literal references, recorded before the sequential-stream
sampling protocol was retired, guard against any silent change to what a
campaign *is*:

* **Content keys.**  ``campaign_fingerprint`` (which reads
  ``FaultModelConfig.rng_identity``) feeds every checkpoint key.  The
  pinned digests keep existing checkpoints valid;
  the pinned stream-era digests must stay unreachable, so entries recorded
  under the retired protocol are recomputed rather than misread.
* **A reference ladder of event counts.**  Per seed and per category, the
  events both injectors draw on the tiny fixture for both convolution
  modes at two BERs.  Counts depend only on the keyed draws and on the
  model's structure — never on trained weights or BLAS rounding — so the
  ladder is portable across machines, and it must not move with the
  evaluation batch size either.
"""

from __future__ import annotations

import pytest

from repro.faultsim import (
    CampaignConfig,
    FaultModelConfig,
    NeuronLevelInjector,
    OperationLevelInjector,
)
from repro.runtime import campaign_fingerprint

#: campaign_fingerprint(CampaignConfig()) under the keyed protocol.
OPERATION_FINGERPRINT = (
    "712901e2214d7a6b2b0a50986aecc5814403748c40428c4ebe2b8da93d6cb939"
)
#: campaign_fingerprint(CampaignConfig(injector="neuron")), same protocol.
NEURON_FINGERPRINT = (
    "679eb1b69ad04af24ea459588d72d33b99169ed673472833725119a68fd7f42a"
)
#: The same two configurations under the retired sequential-stream
#: protocol, whose keys carried no sampling fields.
STREAM_ERA_FINGERPRINTS = (
    "3da6fc4c27b09987659535f2e93ce2bb19554947869f5eb7a1f1ad4396a270c3",
    "932709889771499838bc44527b73ec8b3c73e42ba9892474b912fc9c50b9abc1",
)

SEEDS = (0, 1, 2)

#: (conv mode, injector, BER) -> per-seed event counts by category, over
#: the tiny fixture's 48 evaluation samples with the default fault model.
LADDER = {
    ("standard", "operation", 1e-5): [
        {"st_add": 1168, "st_mul": 1980},
        {"st_add": 1209, "st_mul": 1938},
        {"st_add": 1279, "st_mul": 2005},
    ],
    ("standard", "operation", 1e-4): [
        {"st_add": 12178, "st_mul": 19827},
        {"st_add": 12300, "st_mul": 19723},
        {"st_add": 12521, "st_mul": 19904},
    ],
    ("winograd", "operation", 1e-5): [
        {"wg_acc_add": 441, "wg_input_add": 93, "wg_mul": 888, "wg_output_add": 162},
        {"st_mul": 2, "wg_acc_add": 444, "wg_input_add": 81, "wg_mul": 854,
         "wg_output_add": 204},
        {"st_add": 1, "st_mul": 1, "wg_acc_add": 409, "wg_input_add": 109,
         "wg_mul": 897, "wg_output_add": 185},
    ],
    ("winograd", "operation", 1e-4): [
        {"st_add": 9, "st_mul": 9, "wg_acc_add": 4355, "wg_input_add": 966,
         "wg_mul": 8835, "wg_output_add": 2037},
        {"st_add": 5, "st_mul": 9, "wg_acc_add": 4384, "wg_input_add": 979,
         "wg_mul": 8726, "wg_output_add": 2053},
        {"st_add": 8, "st_mul": 10, "wg_acc_add": 4325, "wg_input_add": 968,
         "wg_mul": 8859, "wg_output_add": 2010},
    ],
    # Neuron-level faults hit stored activations, identical in both modes.
    ("standard", "neuron", 1e-5): [{"neuron": 19}, {"neuron": 28}, {"neuron": 29}],
    ("standard", "neuron", 1e-4): [{"neuron": 241}, {"neuron": 240}, {"neuron": 245}],
    ("winograd", "neuron", 1e-5): [{"neuron": 19}, {"neuron": 28}, {"neuron": 29}],
    ("winograd", "neuron", 1e-4): [{"neuron": 241}, {"neuron": 240}, {"neuron": 245}],
}

INJECTORS = {"operation": OperationLevelInjector, "neuron": NeuronLevelInjector}


class TestContentKeys:
    def test_campaign_fingerprints_pinned(self):
        assert campaign_fingerprint(CampaignConfig()) == OPERATION_FINGERPRINT
        assert (
            campaign_fingerprint(CampaignConfig(injector="neuron"))
            == NEURON_FINGERPRINT
        )

    def test_stream_era_keys_unreachable(self):
        live = {
            campaign_fingerprint(CampaignConfig(injector=kind))
            for kind in INJECTORS
        }
        assert live.isdisjoint(STREAM_ERA_FINGERPRINTS)

    def test_rng_identity_is_constant(self):
        assert FaultModelConfig().rng_identity() == {
            "rng_scheme": "counter",
            "chunk_samples": 8,
        }
        assert FaultModelConfig(chunk_samples=4).rng_identity() == {
            "rng_scheme": "counter",
            "chunk_samples": 4,
        }


class TestReferenceLadder:
    @pytest.mark.parametrize(
        "mode, kind, ber", sorted(LADDER), ids=lambda v: str(v)
    )
    @pytest.mark.parametrize("batch_size", [16, 7])
    def test_event_counts_pinned(
        self, tiny_quantized, tiny_eval, mode, kind, ber, batch_size
    ):
        qm = tiny_quantized[0 if mode == "standard" else 1]
        x, _ = tiny_eval
        got = []
        for seed in SEEDS:
            injector = INJECTORS[kind](ber, seed=seed, config=FaultModelConfig())
            qm.predict(x, injector=injector, batch_size=batch_size)
            got.append(dict(injector.event_counts))
        assert got == LADDER[(mode, kind, ber)]

"""Fault-injection platform: operation-level and neuron-level injectors."""

from repro.faultsim.model import BerConvention, FaultModelConfig, FaultSemantics
from repro.faultsim.protection import (
    ProtectionPlan,
    SCHEME_ABFT,
    SCHEME_NONE,
    SCHEME_TMR,
)
from repro.faultsim.sites import (
    category_exposure_bits,
    expected_faults_per_image,
    layer_exposure,
    model_exposure,
)
from repro.faultsim.operation_level import (
    OperationLevelInjector,
    register_flip_delta,
    register_scale_pow,
)
from repro.faultsim.neuron_level import NeuronLevelInjector
from repro.faultsim.abft import AbftChecker, AbftReport, detection_coverage
from repro.faultsim.campaign import (
    CampaignConfig,
    CampaignResult,
    INJECTOR_NEURON,
    INJECTOR_OPERATION,
    SampleSliceResult,
    SeedPointResult,
    campaign_lambda,
    combine_seed_results,
    combine_slice_results,
    evaluate_sample_slice,
    evaluate_seed_point,
    run_point,
    run_sweep,
    validate_ber,
)

__all__ = [
    "FaultModelConfig",
    "FaultSemantics",
    "BerConvention",
    "ProtectionPlan",
    "SCHEME_NONE",
    "SCHEME_ABFT",
    "SCHEME_TMR",
    "category_exposure_bits",
    "layer_exposure",
    "model_exposure",
    "expected_faults_per_image",
    "OperationLevelInjector",
    "NeuronLevelInjector",
    "AbftChecker",
    "AbftReport",
    "detection_coverage",
    "register_scale_pow",
    "register_flip_delta",
    "CampaignConfig",
    "CampaignResult",
    "SeedPointResult",
    "SampleSliceResult",
    "INJECTOR_OPERATION",
    "INJECTOR_NEURON",
    "campaign_lambda",
    "combine_seed_results",
    "combine_slice_results",
    "evaluate_seed_point",
    "evaluate_sample_slice",
    "run_point",
    "run_sweep",
    "validate_ber",
]

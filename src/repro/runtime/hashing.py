"""Content hashing for campaign checkpoints.

A checkpoint entry is only reusable when the *entire* computation that
produced it is unchanged: the quantized model (structure and weights), the
campaign configuration (injector, fault model, protection, sample budget),
the evaluation data and the (BER, seed) point itself.  Each of those
contributes to the point key; any drift produces a different key and the
point is recomputed rather than silently served stale.

Keys exist only at *subtask* granularity — one per (model, campaign, data,
BER, seed, plan) evaluation.  A seed-batch task (one
:class:`~repro.runtime.tasks.TaskSpec` carrying ``seeds=``) is keyed as
its per-seed subtasks, which is what lets ``--resume`` recompute exactly
the missing seeds of an interrupted batch; :func:`batch_task_keys` is the
engine's bulk entry point and memoizes the per-plan campaign fingerprint
across a batch (a Fig. 3 batch reuses each plan across all its seeds).
"""

from __future__ import annotations

import hashlib
import json

from repro.faultsim.campaign import CampaignConfig
from repro.faultsim.protection import ProtectionPlan
from repro.quantized.qmodel import QuantizedModel

__all__ = [
    "model_fingerprint",
    "campaign_fingerprint",
    "data_fingerprint",
    "point_key",
    "task_key",
    "batch_task_keys",
]


def _digest(payload: dict) -> str:
    """SHA-256 hex digest of a payload's canonical JSON form."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def model_fingerprint(qmodel: QuantizedModel) -> str:
    """Stable digest of a quantized model's structure, weights and formats.

    Hashing the integer weights *and* every node's activation format (not
    just the config) means a retrained or re-calibrated model invalidates
    old checkpoints automatically: recalibration can leave ``weight_int``
    unchanged while shifting the per-node fixed-point exponents.
    """
    weights = hashlib.sha256()
    for node in qmodel.injectable_layers():
        weights.update(node.name.encode())
        weights.update(node.weight_int.tobytes())
        # Biases are independent parameters: retraining can change
        # bias_acc while leaving weight_int untouched.
        if getattr(node, "bias_acc", None) is not None:
            weights.update(node.bias_acc.tobytes())
    formats = [
        (n.name, n.op)
        + tuple(
            (fmt.width, fmt.frac)
            for fmt in (
                getattr(n, fname, None) for fname in ("in_fmt", "w_fmt", "out_fmt")
            )
            if fmt is not None
        )
        for n in qmodel.nodes
        if getattr(n, "out_fmt", None) is not None
    ]
    payload = {
        "name": qmodel.name,
        "benchmark": qmodel.metadata.get("benchmark", qmodel.name),
        "conv_mode": qmodel.conv_mode,
        "input_shape": list(qmodel.input_shape),
        "width": qmodel.config.width,
        "acc_guard": qmodel.config.acc_guard,
        "calibration": qmodel.config.calibration,
        "percentile": qmodel.config.percentile,
        "wg_tile": qmodel.config.wg_tile,
        "nodes": [(n.name, n.op) for n in qmodel.nodes],
        "formats": formats,
        "weights": weights.hexdigest(),
    }
    return _digest(payload)


def campaign_fingerprint(
    config: CampaignConfig, protection: ProtectionPlan | None = None
) -> str:
    """Stable digest of everything in a campaign except the swept point.

    ``seeds`` is deliberately excluded: the seed is part of the point, so a
    sweep re-run with extra seeds still reuses the points it already has.
    """
    fc = config.fault_config
    payload = {
        "batch_size": config.batch_size,
        "injector": config.injector,
        "max_samples": config.max_samples,
        "semantics": fc.semantics.value,
        "convention": fc.convention.value,
        "max_events": fc.max_events_per_category,
        "amplify": fc.amplify_input_transform_adds,
        "protection": list(protection.cache_key()) if protection is not None else None,
    }
    payload.update(fc.rng_identity())
    return _digest(payload)


def data_fingerprint(x, labels) -> str:
    """Stable digest of the evaluation batch a point is scored on.

    The engine hashes the arrays *after* ``max_samples`` trimming, i.e. the
    exact inputs of the unit of work, so a different evaluation set can
    never be served another set's cached accuracies.
    """
    digest = hashlib.sha256()
    for arr in (x, labels):
        digest.update(str(arr.shape).encode())
        digest.update(str(arr.dtype).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def point_key(
    model_fp: str,
    campaign_fp: str,
    data_fp: str,
    ber: float,
    seed: int,
    sample_slice: tuple[int, int] | None = None,
) -> str:
    """Checkpoint key for one (model, campaign, data, BER, seed) unit.

    ``sample_slice`` extends the identity to one sample window of the
    point; ``None`` (the whole set) reproduces the historical key, so
    pre-sharding checkpoints stay valid.
    """
    payload = {
        "model": model_fp,
        "campaign": campaign_fp,
        "data": data_fp,
        "ber": float(ber),
        "seed": int(seed),
    }
    if sample_slice is not None:
        payload["slice"] = [int(sample_slice[0]), int(sample_slice[1])]
    return _digest(payload)[:32]


def task_key(
    model_fp: str,
    data_fp: str,
    config: CampaignConfig,
    ber: float,
    seed: int,
    protection: ProtectionPlan | None = None,
    sample_slice: tuple[int, int] | None = None,
) -> str:
    """Checkpoint key for one :class:`~repro.runtime.tasks.TaskSpec`.

    The per-task protection plan enters through the campaign fingerprint
    via :meth:`ProtectionPlan.cache_key`, whose canonical (sorted,
    zero-free) form makes the key independent of fraction-map insertion
    order while any fraction *value* change produces a new key.  Per-layer
    protection *schemes* (``abft``/``tmr``) are part of that canonical
    form, so an ABFT-protected point never shares a key with the same
    point unprotected — while legacy scheme-free plans keep their
    pre-scheme keys bit-for-bit.  A task evaluated through
    :func:`run_sweep`'s shared-plan path and the same evaluation reached
    as an explicit task therefore share one key.
    """
    return point_key(
        model_fp,
        campaign_fingerprint(config, protection),
        data_fp,
        ber,
        seed,
        sample_slice=sample_slice,
    )


def batch_task_keys(
    model_fp: str,
    data_fp: str,
    config: CampaignConfig,
    tasks: list,
) -> list[str]:
    """Checkpoint keys for a batch of *point* tasks, one per task.

    Equivalent to ``[t.key(model_fp, data_fp, config) for t in tasks]``
    but computes each distinct protection plan's campaign fingerprint only
    once per batch: a Fig. 3 batch reuses each plan across all its seeds,
    and a TMR planner iteration reuses its candidate plan the same way.
    ``tasks`` must already be expanded to subtask granularity (no
    seed-batch tasks).
    """
    campaign_fps: dict[tuple | None, str] = {}
    keys = []
    for task in tasks:
        plan_id = task.protection.cache_key() if task.protection else None
        campaign_fp = campaign_fps.get(plan_id)
        if campaign_fp is None:
            campaign_fp = campaign_fingerprint(config, task.protection)
            campaign_fps[plan_id] = campaign_fp
        keys.append(
            point_key(
                model_fp, campaign_fp, data_fp, task.ber, task.seed,
                sample_slice=task.sample_slice,
            )
        )
    return keys

"""Pluggable kernel backends for the quantized per-layer hot paths.

Two backends serve the :class:`~repro.backends.base.KernelBackend`
protocol (filter/input/output tile transforms, the ``channel_reduce``
channel GEMM, the im2col direct-convolution GEMM, requantization):

* ``optimized`` — fused Kronecker transform GEMMs on Winograd stage
  arrays that stay float64 from tile gather to output scatter,
  zero-copy strided im2col consumption, blocked int64 fallbacks,
  in-place requantize.  Every production forward runs on it.
* ``reference`` — the original NumPy kernels, extracted verbatim; the
  bit-identity oracle the differential tests check ``optimized``
  against (selected with ``QuantizedModel.set_kernel_backend``).

Backends are identified by these plain string names on models and their
nodes and resolved to per-process instances lazily, which keeps models
picklable and fork-safe and — together with the bit-identity contract —
keeps the backend choice out of checkpoint keys and campaign
fingerprints.
"""

from __future__ import annotations

from repro.backends.base import (
    BoundedCache,
    EINSUM_PATHS,
    KernelBackend,
    cached_einsum,
    format_bound,
    kron_row_bound,
    row_bound,
)
from repro.backends.optimized import OptimizedBackend
from repro.backends.reference import ReferenceBackend
from repro.errors import ConfigurationError

__all__ = [
    "BACKEND_NAMES",
    "BoundedCache",
    "DEFAULT_BACKEND",
    "EINSUM_PATHS",
    "KernelBackend",
    "OptimizedBackend",
    "ReferenceBackend",
    "cached_einsum",
    "format_bound",
    "get_backend",
    "kron_row_bound",
    "row_bound",
]

#: Every selectable backend name.
BACKEND_NAMES = ("reference", "optimized")

#: The backend every model runs on unless a test selects the oracle.
DEFAULT_BACKEND = "optimized"

#: Per-process singleton instances, created on first request.
_INSTANCES: dict[str, KernelBackend] = {}


def get_backend(name: str = DEFAULT_BACKEND) -> KernelBackend:
    """Resolve a backend name to its per-process singleton instance.

    Raises :class:`~repro.errors.ConfigurationError` for unknown names.
    """
    backend = _INSTANCES.get(name)
    if backend is not None:
        return backend
    if name == "reference":
        backend = ReferenceBackend()
    elif name == "optimized":
        backend = OptimizedBackend()
    else:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; choose from {BACKEND_NAMES}"
        )
    _INSTANCES[name] = backend
    return backend


"""Deterministic random-number-generator plumbing.

Fault-injection experiments are Monte-Carlo simulations; reproducibility
requires that every stochastic component draw from an explicitly seeded
:class:`numpy.random.Generator`.  This module centralizes the conventions:

* :func:`as_rng` normalizes ``None`` / ``int`` / ``Generator`` arguments.
* :func:`site_rng` builds a **counter-based** stream: a Philox generator
  that is a pure function of ``(seed, *labels)``.  Unlike a sequential
  stream, two call sites keyed by different labels can draw in any order —
  or on different processes — and always see the same values, which is what
  makes fault sampling partition-invariant (see
  :mod:`repro.faultsim.sampling`).
* :func:`shared_site_rng` yields the same keyed stream on one reused
  per-process generator — the fault samplers' hot path.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["as_rng", "site_rng", "shared_site_rng"]

_MASK64 = (1 << 64) - 1

#: Domain-separation constant so site streams can never collide with other
#: SeedSequence users of the same integer seed.
_SITE_DOMAIN = 0x5749_4E4F_4641_554C  # "WINOFAUL"


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a fresh OS-entropy generator, an ``int`` yields a seeded
    PCG64 generator, and an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@functools.lru_cache(maxsize=4096)
def _label_to_int(label: str) -> int:
    """Hash ``label`` into a stable 64-bit integer.

    Memoized: the fault samplers re-key streams with the same small set
    of layer/site labels once per sample chunk per forward pass, which
    would otherwise repeat the SHA-256 on the hot injection path.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def site_rng(seed: int, *labels: int | str) -> np.random.Generator:
    """Counter-based keyed stream: a generator fully determined by its key.

    Returns a Philox-backed :class:`numpy.random.Generator` whose state is
    a pure function of ``(seed, labels)`` — no global state, no draw-order
    coupling between different keys.  String labels are hashed stably
    (SHA-256), integer labels are used directly, so
    ``site_rng(s, "layer3", "wg_mul", 7)`` names one independent stream per
    (seed, layer, category, chunk) tuple.

    This is the primitive behind the fault injectors' ``"counter"`` RNG
    scheme: because every draw is keyed by *what* is being sampled instead
    of *when*, splitting an evaluation batch across workers cannot shift
    any draw.
    """
    entropy = _entropy(seed, labels)
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy)))


def _entropy(seed: int, labels: tuple) -> list[int]:
    """SeedSequence entropy of a keyed stream: domain, seed, hashed labels."""
    entropy = [_SITE_DOMAIN, int(seed) & _MASK64]
    for label in labels:
        if isinstance(label, str):
            entropy.append(_label_to_int(label))
        else:
            entropy.append(int(label) & _MASK64)
    return entropy


@functools.lru_cache(maxsize=8192)
def _philox_key(seed: int, labels: tuple) -> np.ndarray:
    """The Philox key ``Philox(seed=SeedSequence(entropy))`` would derive.

    Bounded, so memory stays flat however many streams a campaign keys;
    the fault samplers revisit the same (seed, layer, site, chunk) keys
    on every unit of a campaign.
    """
    key = np.random.SeedSequence(_entropy(seed, labels)).generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


_SHARED_BITGEN = np.random.Philox(0)
_SHARED_RNG = np.random.Generator(_SHARED_BITGEN)
_SHARED_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
    "buffer": np.zeros(4, dtype=np.uint64),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def shared_site_rng(seed: int, *labels: int | str) -> np.random.Generator:
    """:func:`site_rng`'s stream on one reused per-process generator.

    Draws are identical to ``site_rng(seed, *labels)``: the shared Philox
    is reset to the full state a fresh one starts from (zero counter, the
    key's cached derivation, empty buffer, no buffered 32-bit half), which
    skips building a ``SeedSequence`` and two objects per stream.  The
    generator is valid until the next call, so a caller finishes its
    draws from one stream before keying the next.
    """
    _SHARED_STATE["state"]["key"] = _philox_key(int(seed), labels)
    _SHARED_BITGEN.state = _SHARED_STATE
    return _SHARED_RNG


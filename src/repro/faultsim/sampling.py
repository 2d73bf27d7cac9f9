"""Counter-based fault-event sampling: partition-invariant draws.

Every draw is a pure function of ``(campaign seed, layer, site, sample
chunk)``, realized as keyed Philox streams
(:func:`repro.utils.rng.site_rng`, drawn on the reused generator of
:func:`repro.utils.rng.shared_site_rng`), so no draw depends on visit order,
batch boundaries or how the sample set is partitioned.

Sampling protocol
-----------------
The sample axis is divided into fixed-size chunks of
``FaultModelConfig.chunk_samples`` consecutive evaluation samples (global
indices, not batch-relative).  For one injection *site* — a (layer,
category/pass) pair — and one chunk, the keyed stream
``site_rng(seed, layer, site, chunk)`` is consumed in a fixed order:

1. event count    ``~ Poisson(ber · ops_per_sample · exposure · thinning · chunk)``,
   capped at ``max_events_per_category``;
2. sample offset  ``~ U{0..chunk-1}`` per event;
3. coordinates    ``~ U{0..high_i-1}`` per event, one draw per axis;
4. bit fraction   ``~ U[0, 1)`` per event — mapped to a register bit only
   once the event's register width is known (widths may depend on the
   event's own sample's values, which other partitions cannot see, so the
   *raw randomness* must be value-independent);
5. sign           ``~ U{-1, +1}`` per event, for sites that need one.

Events whose global sample index falls outside the evaluated batch are
discarded *after* all draws.  Consequently any partition of the sample
axis — slice sizes, evaluation batch sizes, worker counts — sees exactly
the same faults for the samples it owns, and recombined results are
bit-identical to an unpartitioned run (``tests/test_rng_partition_invariance.py``).

The per-category expected fault count is
``lambda = ber · n_ops · exposure · thinning``; the chunking fixes the
Monte-Carlo realization, which is why it is part of a campaign's content
identity (:meth:`repro.faultsim.model.FaultModelConfig.rng_identity`).

Sibling replay
--------------
Since a site's events over a batch are a pure function of (seed, layer,
site, batch window, chunk rate :meth:`CounterSampler.chunk_rate`, coordinate
highs, signs), a campaign unit need not redraw what a sibling unit of the
same seed already drew.  The campaign's sampler subclass
(:class:`repro.faultsim.campaign._ReplaySampler`) keeps the frozen
(:meth:`SiteEvents.freeze`) events of every unprotected site in a
per-seed table and serves later siblings from it, together with whether
the event cap bound on them.  The protocol above is unchanged: a
replayed site's events are the fresh draw, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FaultModelError
from repro.utils.rng import shared_site_rng

__all__ = [
    "SiteEvents",
    "CounterSampler",
    "bit_lengths",
]

#: Largest Poisson rate the chunk sampler accepts.  NumPy's int64
#: ``Generator.poisson`` raises an opaque ``ValueError: lam value too
#: large`` just above 9.22e18 (the int64 ceiling); we refuse a margin
#: below that with an error naming the offending site.  Any physical
#: campaign sits tens of orders of magnitude under this — reaching it
#: means a poisoned BER or op census, not a big experiment.
_POISSON_LAM_MAX = 9.0e18


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for non-negative int64 arrays.

    A fixed binary-search ladder of integer shifts (32, 16, 8, 4, 2, 1,
    then the last bit): no float log, so boundary powers of two are exact
    for the full int64 range, and six passes however large the values.
    """
    x = np.asarray(values, dtype=np.int64)
    if np.any(x < 0):
        raise FaultModelError("bit_lengths requires non-negative values")
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        high = x >> shift
        wide = high > 0
        out += wide * shift
        x = np.where(wide, high, x)
    return out + (x > 0)


class SiteEvents:
    """Fault events drawn for one site over the current batch.

    ``img`` holds batch-local sample rows and ``coords`` one array per
    requested coordinate axis.  :meth:`bits` and :meth:`signs` complete
    the per-event draws from values drawn up front, so neither consumes
    randomness.
    """

    __slots__ = ("img", "coords", "_bit_u", "_sign")

    def __init__(self, img, coords, bit_u, sign):
        self.img = img
        self.coords = coords
        self._bit_u = bit_u
        self._sign = sign

    def __len__(self) -> int:
        return len(self.img)

    def bits(self, width) -> np.ndarray:
        """Register bit per event, uniform over ``[0, width)``.

        ``width`` may be a scalar or a per-event array (sample-local
        register widths): the stored ``U[0, 1)`` draw is scaled by each
        event's own width, so the randomness consumed is identical no
        matter how widths turned out.
        """
        w = np.asarray(width, dtype=np.int64)
        picked = (self._bit_u * w).astype(np.int64)
        return np.minimum(picked, w - 1)

    def signs(self) -> np.ndarray:
        """±1 sign per event."""
        return self._sign

    def _arrays(self) -> list[np.ndarray]:
        arrays = [self.img, *self.coords, self._bit_u]
        return arrays if self._sign is None else arrays + [self._sign]

    @property
    def nbytes(self) -> int:
        """Bytes of the stored draws."""
        return sum(array.nbytes for array in self._arrays())

    def freeze(self) -> "SiteEvents":
        """Make every stored array read-only (for sharing between units)."""
        self.coords = tuple(self.coords)
        for array in self._arrays():
            array.flags.writeable = False
        return self


class CounterSampler:
    """Draws fault events for batches of a larger sample set.

    One sampler serves one injector instance; it tracks only the rolling
    position of the current batch within the global sample axis
    (``sample_base`` + everything seen through :meth:`begin_batch`).
    """

    def __init__(self, seed: int, ber: float, config, sample_base: int = 0):
        if isinstance(seed, np.random.Generator):
            raise FaultModelError(
                "fault draws are keyed by integer campaign seed; pass an "
                "int seed, not a Generator"
            )
        self.seed = int(seed)
        self.ber = float(ber)
        self.config = config
        self.capped = False
        self._batch_start = int(sample_base)
        self._next_start = int(sample_base)

    def begin_batch(self, batch_size: int) -> None:
        """Advance to the next forward batch of ``batch_size`` samples."""
        self._batch_start = self._next_start
        self._next_start += int(batch_size)

    @property
    def batch_start(self) -> int:
        """Global index of the current batch's first sample."""
        return self._batch_start

    def chunk_rate(
        self,
        layer_name: str,
        site: str,
        ops_per_sample: int,
        exposure: int,
        thinning: float,
    ) -> float:
        """Poisson rate of one site's events per sample chunk."""
        lam = (
            self.ber * float(ops_per_sample) * exposure * thinning
            * self.config.chunk_samples
        )
        if not np.isfinite(lam) or lam > _POISSON_LAM_MAX:
            raise FaultModelError(
                f"Poisson event rate {lam!r} for layer '{layer_name}' site "
                f"'{site}' at BER {self.ber!r} exceeds the sampler's limit "
                f"({_POISSON_LAM_MAX:.1e}); the BER or the site's op census "
                "is corrupt"
            )
        return lam

    def site_events(
        self,
        layer_name: str,
        site: str,
        n_batch: int,
        ops_per_sample: int,
        exposure: int,
        thinning: float,
        highs: tuple[int, ...],
        with_signs: bool = False,
    ) -> SiteEvents | None:
        """Events of one site that land inside the current batch.

        ``ops_per_sample`` is the site's op census for a *single* sample;
        ``exposure`` the already-resolved bits-per-op factor; ``thinning``
        the protection survival factor ``1 - rho``.  Returns ``None``
        when no event hits the batch.
        """
        if self.ber == 0.0 or ops_per_sample <= 0 or thinning <= 0.0 or n_batch <= 0:
            return None
        chunk = self.config.chunk_samples
        cap = self.config.max_events_per_category
        lam = self.chunk_rate(layer_name, site, ops_per_sample, exposure, thinning)
        start = self._batch_start
        stop = start + n_batch

        # One (img, coords, bit_u, sign) part per chunk with events in the
        # batch.  A chunk wholly inside the batch needs no mask, and a
        # single part needs no concatenation.
        parts: list[tuple] = []
        for index in range(start // chunk, (stop - 1) // chunk + 1):
            rng = shared_site_rng(self.seed, layer_name, site, index)
            count = int(rng.poisson(lam))
            if count > cap:
                count = cap
                self.capped = True
            if count == 0:
                continue
            first = index * chunk
            sample = first + rng.integers(0, chunk, size=count)
            coords = [rng.integers(0, high, size=count) for high in highs]
            bit_u = rng.random(count)
            sign = (
                rng.integers(0, 2, size=count).astype(np.int64) * 2 - 1
                if with_signs
                else None
            )
            if first < start or first + chunk > stop:
                mask = (sample >= start) & (sample < stop)
                if not mask.any():
                    continue
                sample, bit_u = sample[mask], bit_u[mask]
                coords = [axis[mask] for axis in coords]
                sign = sign[mask] if with_signs else None
            parts.append((sample - start, coords, bit_u, sign))

        if not parts:
            return None
        if len(parts) == 1:
            img, coords, bit_u, sign = parts[0]
            return SiteEvents(img=img, coords=coords, bit_u=bit_u, sign=sign)
        imgs, coord_lists, bit_us, signs = zip(*parts)
        return SiteEvents(
            img=np.concatenate(imgs),
            coords=[np.concatenate(column) for column in zip(*coord_lists)],
            bit_u=np.concatenate(bit_us),
            sign=np.concatenate(signs) if with_signs else None,
        )

"""Counter-based fault-event sampling: partition-invariant draws.

Every draw is a pure function of ``(campaign seed, layer, site, sample
chunk)``, realized as keyed Philox streams
(:func:`repro.utils.rng.site_rng`), so no draw depends on visit order,
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

The same post-hoc filtering generalizes from contiguous windows to
*arbitrary* sample subsets: :meth:`CounterSampler.set_rows` pins the next
forward to an explicit set of global sample rows (the golden-run replay
executor's dirty set, :mod:`repro.faultsim.replay`), and
:meth:`CounterSampler.struck_samples` replays only draws 1–2 of the
protocol to report *which* samples of a window receive events at a site —
without needing any operand values, which is what lets the replay
executor decide what to recompute before computing anything.

The per-category expected fault count is
``lambda = ber · n_ops · exposure · thinning``; the chunking fixes the
Monte-Carlo realization, which is why it is part of a campaign's content
identity (:meth:`repro.faultsim.model.FaultModelConfig.rng_identity`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FaultModelError
from repro.utils.rng import site_rng

__all__ = [
    "SiteEvents",
    "CounterSampler",
    "ReplayHooks",
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


class ReplayHooks:
    """Golden-run replay hooks shared by both injectors.

    Mixed into both injectors, which own a :class:`CounterSampler` as
    ``self._sampler``.  Protection-aware injectors override
    :meth:`_protected_fraction`; the default is unprotected.
    """

    _sampler: "CounterSampler"

    def _protected_fraction(self, layer_name: str, category: str) -> float:
        """Protected fraction rho of one (layer, category); 0 = unprotected."""
        return 0.0

    def begin_inference(self, batch_size: int) -> None:
        """Track the forward batch's position on the global sample axis."""
        self._sampler.begin_batch(batch_size)

    def set_replay_rows(self, rows: np.ndarray) -> None:
        """Pin the next layer forward to explicit global sample rows
        (:meth:`CounterSampler.set_rows`)."""
        self._sampler.set_rows(rows)

    def replay_struck(self, layer_name: str, sites, start: int, stop: int):
        """Global rows in ``[start, stop)`` struck by >= 1 event at a layer.

        ``sites`` is the layer's recorded census
        (:class:`repro.faultsim.replay.SiteSpec` entries); protection
        thinning is applied per category exactly as the real draw applies
        it, so the probe reports precisely the samples the full injection
        would touch.
        """
        hits = [
            self._sampler.struck_samples(
                layer_name,
                spec.site,
                spec.ops_per_sample,
                spec.exposure,
                1.0 - self._protected_fraction(layer_name, spec.category),
                start,
                stop,
            )
            for spec in sites
        ]
        hits = [h for h in hits if h.size]
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(hits))


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
        self._rows: np.ndarray | None = None

    def begin_batch(self, batch_size: int) -> None:
        """Advance to the next forward batch of ``batch_size`` samples."""
        self._batch_start = self._next_start
        self._next_start += int(batch_size)
        self._rows = None

    def set_rows(self, rows: np.ndarray) -> None:
        """Pin the next forward pass to an explicit set of global sample rows.

        ``rows`` (strictly increasing global sample indices) replaces the
        rolling contiguous window for the next :meth:`site_events` calls:
        events are filtered to exactly those samples, and ``img`` indexes
        the row *positions* (the order a replay gather packs them in).
        Because draws are keyed by (seed, layer, site, chunk) and filtered
        afterwards, the events a sample receives are identical whether it
        is evaluated through a window or through any row subset.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and np.any(np.diff(rows) <= 0):
            raise FaultModelError("set_rows requires strictly increasing rows")
        self._rows = rows

    @property
    def batch_start(self) -> int:
        """Global index of the current batch's first sample."""
        return self._batch_start

    def _chunk_head(self, layer_name: str, site: str, index: int, lam: float):
        """Draws 1–2 of one chunk's protocol: its stream, samples hit.

        Returns ``(rng, samples)`` where ``rng`` is the chunk's keyed
        stream positioned *after* the count and offset draws and
        ``samples`` the global sample index per event (``None`` when the
        chunk drew no events).  The single source of the count/cap/offset
        sequence: :meth:`site_events` continues drawing coordinates and
        bits from the returned stream, while :meth:`struck_samples` stops
        here — so the probe can never drift from the real draw.
        """
        chunk = self.config.chunk_samples
        cap = self.config.max_events_per_category
        if not np.isfinite(lam) or lam > _POISSON_LAM_MAX:
            raise FaultModelError(
                f"Poisson event rate {lam!r} for layer '{layer_name}' site "
                f"'{site}' at BER {self.ber!r} exceeds the sampler's limit "
                f"({_POISSON_LAM_MAX:.1e}); the BER or the site's op census "
                "is corrupt"
            )
        rng = site_rng(self.seed, layer_name, site, int(index))
        count = int(rng.poisson(lam))
        if count > cap:
            count = cap
            self.capped = True
        if count == 0:
            return rng, None
        offsets = rng.integers(0, chunk, size=count)
        return rng, index * chunk + offsets

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
        when no event hits the batch (or pinned row set; see
        :meth:`set_rows`).
        """
        if self.ber == 0.0 or ops_per_sample <= 0 or thinning <= 0.0 or n_batch <= 0:
            return None
        chunk = self.config.chunk_samples
        lam = self.ber * float(ops_per_sample) * exposure * thinning * chunk
        rows = self._rows
        if rows is not None:
            if len(rows) != n_batch:
                raise FaultModelError(
                    f"pinned row set has {len(rows)} rows but the forward "
                    f"batch carries {n_batch} samples"
                )
            chunk_indices = np.unique(rows // chunk)
        else:
            start = self._batch_start
            stop = start + n_batch
            chunk_indices = range(start // chunk, (stop - 1) // chunk + 1)

        imgs: list[np.ndarray] = []
        coord_cols: list[list[np.ndarray]] = [[] for _ in highs]
        bit_us: list[np.ndarray] = []
        sign_cols: list[np.ndarray] = []
        for index in chunk_indices:
            rng, sample = self._chunk_head(layer_name, site, index, lam)
            if sample is None:
                continue
            count = len(sample)
            coords = [rng.integers(0, high, size=count) for high in highs]
            bit_u = rng.random(count)
            sign = (
                rng.integers(0, 2, size=count).astype(np.int64) * 2 - 1
                if with_signs
                else None
            )
            if rows is not None:
                mask = np.isin(sample, rows)
            else:
                mask = (sample >= start) & (sample < stop)
            if not mask.any():
                continue
            if rows is not None:
                imgs.append(np.searchsorted(rows, sample[mask]))
            else:
                imgs.append(sample[mask] - start)
            for column, axis in zip(coord_cols, coords):
                column.append(axis[mask])
            bit_us.append(bit_u[mask])
            if sign is not None:
                sign_cols.append(sign[mask])

        if not imgs:
            return None
        return SiteEvents(
            img=np.concatenate(imgs),
            coords=[np.concatenate(column) for column in coord_cols],
            bit_u=np.concatenate(bit_us),
            sign=np.concatenate(sign_cols) if with_signs else None,
        )

    def struck_samples(
        self,
        layer_name: str,
        site: str,
        ops_per_sample: int,
        exposure: int,
        thinning: float,
        start: int,
        stop: int,
    ) -> np.ndarray:
        """Global indices in ``[start, stop)`` receiving >= 1 event at a site.

        Replays only draws 1–2 of the per-chunk protocol (the Poisson
        count and the sample offsets, via the shared :meth:`_chunk_head`
        primitive — the probe cannot drift from the real draw), so it
        needs *no operand values* and costs a negligible fraction of an
        actual injection — the primitive behind the replay executor's
        dirty-set discovery.  Because each chunk owns a fresh keyed
        stream, the later full draw over any subset containing these
        samples reproduces exactly the same events.  The event-count cap
        is applied identically to the real draw (capping is
        partition-invariant by construction), and ``self.capped`` is
        updated so diagnostics match a full run.
        """
        if self.ber == 0.0 or ops_per_sample <= 0 or thinning <= 0.0 or stop <= start:
            return np.empty(0, dtype=np.int64)
        chunk = self.config.chunk_samples
        lam = self.ber * float(ops_per_sample) * exposure * thinning * chunk
        hits: list[np.ndarray] = []
        for index in range(start // chunk, (stop - 1) // chunk + 1):
            _, sample = self._chunk_head(layer_name, site, index, lam)
            if sample is None:
                continue
            hits.append(sample[(sample >= start) & (sample < stop)])
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(hits))

"""Operation-level fault injector.

Implements the paper's core contribution: random soft errors injected into
the primitive operations (multiplications and additions) of convolution and
fully-connected layers, with *exact* propagation of every fault's effect to
the layer output accumulator.

Propagation identities (all linear, hence exact):

* direct conv / linear — a perturbed product or partial sum shifts the
  output accumulator by the perturbation delta;
* Winograd element-wise product / channel-reduction add at tile position
  ``(i, j)`` — the output tile shifts by ``delta * outer(AT[:, i], AT[:, j])``;
* Winograd input-transform add on channel ``c`` — the perturbation enters
  ``U`` before the Hadamard product, so it is *amplified by the transformed
  weights* and fans out to every output channel ``k``:
  ``dY_k = AT (dU ⊙ V[k, c]) AT^T``;
* Winograd output-transform add — a row (pass 1) or single-element (pass 2)
  update of the output tile.

Registers are modeled as described in :mod:`repro.faultsim.model`:
multiplier result registers are ``2 * width`` bits (the full product, at the
native product LSB) — the structural reason multiplication faults dominate;
sum registers are sized to their stage's dynamic range, capped at
``width + acc_guard`` bits.  Under the default (paper) semantics,
input-transform addition faults perturb the additive chain locally — the
fully physical weight-amplified fan-out propagation is available as the
``amplify_input_transform_adds`` ablation.

Fault sampling
--------------
Draws are pure functions of ``(campaign seed, layer, site, sample chunk)``
via :class:`repro.faultsim.sampling.CounterSampler`, and sum-register
widths are sized per *sample*.  Results are therefore invariant under any
partition of the sample axis (window sizes, batch sizes, worker counts),
which is what lets the campaign score a point in sample windows
(:func:`repro.faultsim.campaign.evaluate_sample_slice`, the one
evaluator).
"""

from __future__ import annotations

import functools
from collections import defaultdict

import numpy as np

from repro.fixedpoint.bits import flip_delta
from repro.faultsim.model import FaultModelConfig, FaultSemantics
from repro.faultsim.protection import ProtectionPlan
from repro.faultsim.sampling import CounterSampler, bit_lengths
from repro.quantized.interface import Injector

__all__ = ["OperationLevelInjector", "register_scale_pow", "register_flip_delta"]


def register_scale_pow(max_abs: int, width: int) -> int:
    """LSB exponent of a ``width``-bit register sized to hold ``max_abs``.

    Returns the smallest ``s >= 0`` such that every value with
    ``|v| <= max_abs`` fits a ``width``-bit two's-complement register whose
    LSB weighs ``2**s``.
    """
    if max_abs <= 0:
        return 0
    span_bits = int(max_abs).bit_length() + 1  # + sign bit
    return max(0, span_bits - width)


def register_flip_delta(
    values: np.ndarray, bits: np.ndarray, width, scale_pow: int
) -> np.ndarray:
    """Delta caused by flipping register bit ``bits`` of ``values``.

    The register holds ``values >> scale_pow``; the returned delta is in the
    native integer domain (scaled back up by ``2**scale_pow``).  ``width``
    is a scalar or one width per event (see :func:`flip_delta`).
    """
    held = np.asarray(values, dtype=np.int64) >> np.int64(scale_pow)
    return flip_delta(held, bits, width) << np.int64(scale_pow)


def gather_flat(view: np.ndarray, index: tuple) -> np.ndarray:
    """``view[index]`` for a tuple of index arrays, one flat offset each.

    ``view`` is a strided view with non-negative strides over one block
    of memory: the patches view of the padded input, or a linear layer's
    ``(N, F, 1, 1, 1, 1)`` input view.  Each element is read at offset
    ``sum(index_k * stride_k)`` by one 1-D take.
    """
    steps = [s // view.itemsize for s in view.strides]
    offset = sum(i * s for i, s in zip(index, steps))
    span = 1 + sum((d - 1) * s for d, s in zip(view.shape, steps))
    flat = np.lib.stride_tricks.as_strided(view, (span,), (view.itemsize,))
    return flat[offset]


class OperationLevelInjector(Injector):
    """Injects operation-level faults during quantized inference.

    Parameters
    ----------
    ber:
        Bit error rate (interpretation set by ``config.convention``).
    seed:
        Integer campaign seed; every draw is keyed by it.
    config:
        Fault-model parameters.
    protection:
        Optional :class:`ProtectionPlan`; protected fractions thin the
        event rate of their (layer, category).
    sample_base:
        Global index of the first evaluation sample this injector will
        see.  Sample-slice evaluation passes the slice start so every
        sample keeps its dataset-global identity; the default 0 covers
        whole-set evaluation.
    """

    def __init__(
        self,
        ber: float,
        seed: int = 0,
        config: FaultModelConfig | None = None,
        protection: ProtectionPlan | None = None,
        sample_base: int = 0,
    ):
        if ber < 0:
            raise ValueError(f"ber must be non-negative, got {ber}")
        self.ber = float(ber)
        self.config = config or FaultModelConfig()
        self.protection = protection
        #: Draws every fault event; a campaign may swap in a subclass that
        #: takes sibling units' draws (:mod:`repro.faultsim.campaign`).
        self.sampler = CounterSampler(
            seed, self.ber, self.config, sample_base=sample_base
        )
        #: Events actually injected, keyed by category (diagnostics).
        self.event_counts: dict[str, int] = defaultdict(int)
        #: True when the per-category event cap ever bound.
        self.capped = False

    # ------------------------------------------------------------------ sampling
    def begin_inference(self, batch_size: int) -> None:
        """Track the forward batch's position on the global sample axis."""
        self.sampler.begin_batch(batch_size)

    def _protected_fraction(self, layer_name: str, category: str) -> float:
        return (
            self.protection.fraction(layer_name, category)
            if self.protection is not None
            else 0.0
        )

    def _site_events(
        self,
        layer_name: str,
        category: str,
        site: str,
        n_batch: int,
        ops_per_sample: int,
        exposure_bits: int,
        highs: tuple[int, ...],
        with_signs: bool = False,
    ):
        """Sample one site's events for the current batch.

        ``category`` is the diagnostics/protection bucket; ``site``
        uniquely names this draw sequence within the layer (categories
        visited more than once per forward — Winograd passes and
        sub-convolutions — carry distinguishing suffixes so their keyed
        streams never collide).
        """
        events = self.sampler.site_events(
            layer_name,
            site,
            n_batch,
            ops_per_sample,
            exposure_bits,
            1.0 - self._protected_fraction(layer_name, category),
            highs,
            with_signs=with_signs,
        )
        if events is not None:
            self.event_counts[category] += len(events)
        self.capped = self.capped or self.sampler.capped
        return events

    @staticmethod
    def _sample_widths(ref: np.ndarray, acc_width: int) -> np.ndarray:
        """Per-sample sum-register widths ``(N,)``, sized to ``ref``'s range.

        ``ref`` is a ``(rows, N, cols)`` view of a stage's values: a
        sample-major ``(N, F)`` array as ``ref[None]``, a position-major
        ``(..., N*T)`` stage array as ``ref.reshape(-1, N, T)``.  Both
        reduce over the physical array, never through a transposed copy.
        The values are exact integers, int64 or float64; only the
        per-sample maxima are cast to int64.

        Hardware sizes each sum register to its stage's dynamic range,
        capped at the accumulator width:
        ``min(acc_width, bit_length(max_abs) + 1)`` (at least 2).  Each
        event's register is sized to its *own sample's* maximum, so a
        fault's delta never depends on which other samples share the
        batch (partition invariance).
        """
        if len(ref) > 1:
            # Folding the rows first streams over contiguous (N, cols)
            # slabs: several times faster than one reduction over (0, 2).
            hi, lo = ref.max(axis=0), ref.min(axis=0)
        else:
            hi = lo = ref[0]
        # max(max, -min) is max(|ref|) without a full-size |ref| copy.
        per_sample = np.maximum(hi.max(axis=1, initial=1), -lo.min(axis=1, initial=-1))
        return np.clip(bit_lengths(per_sample.astype(np.int64)) + 1, 2, acc_width)

    @staticmethod
    def _register_deltas(values, widths, events):
        """Flip-bit deltas for ``events`` with scalar or per-event widths."""
        return register_flip_delta(values, events.bits(widths), widths, 0)

    def _mul_exposure_bits(self, layer) -> int:
        return self.config.exposure_bits(True, layer.in_fmt.width, layer.acc_width)

    def _add_exposure_bits(self, layer) -> int:
        return self.config.exposure_bits(False, layer.in_fmt.width, layer.acc_width)

    def _mul_register_width(self, layer) -> int:
        """Product-result register width: 2W (full product) under PAPER
        semantics, the sum-register width under RESULT_ALL (ablation)."""
        if self.config.semantics is FaultSemantics.PAPER:
            return 2 * layer.in_fmt.width
        return layer.acc_width

    # ------------------------------------------------------------- direct conv
    def visit_direct(self, layer, x_int, cols, acc):
        """Inject multiplication and addition faults into a direct-conv GEMM."""
        n = acc.shape[0]
        k_out = acc.shape[1]
        spatial = acc.shape[2] * acc.shape[3] if acc.ndim == 4 else 1
        weight2d = layer.weight_int.reshape(k_out, -1)
        reduction = weight2d.shape[1]
        acc_flat = acc.reshape(n, k_out * spatial)

        self._inject_gemm_muls(
            layer, "st_mul", cols, weight2d, acc_flat, n, k_out, spatial, reduction
        )
        self._inject_result_adds(
            layer, "st_add", "st_add", layer.op_counts.st_add, acc_flat
        )

    def visit_linear(self, layer, x_int, acc):
        """Inject faults into a linear layer (a GEMM with one spatial site)."""
        n, k_out = acc.shape
        # (N, F_in) as a patches view: F_in channels, 1x1 kernel, 1x1 output.
        cols = x_int[:, :, None, None, None, None]
        weight2d = layer.weight_int
        acc_flat = acc.reshape(n, k_out)
        self._inject_gemm_muls(
            layer, "st_mul", cols, weight2d, acc_flat, n, k_out, 1, weight2d.shape[1]
        )
        self._inject_result_adds(
            layer, "st_add", "st_add", layer.op_counts.st_add, acc_flat
        )

    def _inject_gemm_muls(
        self, layer, category, cols, weight2d, acc_flat, n, k_out, spatial, reduction
    ):
        """Multiplication faults in a GEMM: product-result register flips.

        ``cols`` is the strided ``(N, C, R, S, P, Q)`` patches view; the
        reduction index unravels into ``(c, r, s)`` (the canonical im2col
        order) and the spatial index into ``(p, q)``.  Each event reads its
        activation and its weight, and adds its delta, at one flat offset.
        """
        events = self._site_events(
            layer.name,
            category,
            category,
            n,
            k_out * spatial * reduction,
            self._mul_exposure_bits(layer),
            (k_out * spatial, reduction),
        )
        if events is None:
            return
        img = events.img
        out_idx, red = events.coords
        kk, pq = np.divmod(out_idx, spatial)
        cc, rr, ss = np.unravel_index(red, cols.shape[1:4])
        pp, qq = np.divmod(pq, cols.shape[5])

        x_vals = gather_flat(cols, (img, cc, rr, ss, pp, qq))
        w_vals = weight2d.reshape(-1)[kk * reduction + red]
        products = x_vals * w_vals
        width = self._mul_register_width(layer)
        deltas = self._register_deltas(products, width, events)
        np.add.at(acc_flat.reshape(-1), img * acc_flat.shape[1] + out_idx, deltas)

    def _inject_result_adds(self, layer, category, site, ops_per_sample, acc_flat):
        """Addition faults: flips of sum registers, applied to final outputs."""
        n, flat = acc_flat.shape
        events = self._site_events(
            layer.name,
            category,
            site,
            n,
            ops_per_sample,
            self._add_exposure_bits(layer),
            (flat,),
        )
        if events is None:
            return
        img = events.img
        (idx,) = events.coords
        widths = self._sample_widths(acc_flat[None], layer.acc_width)[img]
        # Sign from the final accumulator value's bit: exact for the last
        # addition of the chain, an unbiased approximation for earlier ones.
        deltas = self._register_deltas(acc_flat[img, idx], widths, events)
        np.add.at(acc_flat, (img, idx), deltas)

    # ------------------------------------------------------------- winograd conv
    def visit_winograd(self, layer, sub_contexts, y_scaled):
        """Inject faults into every stage of a Winograd convolution."""
        n, k_out, out_h, out_w = y_scaled.shape
        tf = layer.transform
        at = tf.at_int.astype(np.int64)  # (m, t)
        bt = tf.bt_int.astype(np.int64)  # (t, t)
        m = tf.m

        for sub_index, (spec, ctx) in enumerate(sub_contexts):
            u, v, m_arr = ctx.u_int, ctx.v_int, ctx.m_int
            grid = ctx.grid
            tiles = grid.num_tiles
            c_in = v.shape[2]
            t = tf.t
            prefix = f"sub{sub_index}:"

            pad = _TilePadAccumulator(y_scaled, grid)
            # The M-domain register widths serve both the channel-reduction
            # and the (paper-semantics) input-transform adds; computed at
            # most once per sub-conv, and only when one of them has events.
            m_widths = functools.cache(
                lambda: self._sample_widths(m_arr.reshape(-1, n, tiles), layer.acc_width)
            )

            self._wg_muls_and_acc_adds(
                layer, prefix, u, v, m_arr, m_widths, at, pad, n, k_out, c_in, tiles, t
            )
            self._wg_input_adds(
                layer, prefix, u, v, m_arr, m_widths, bt, at, pad,
                n, k_out, c_in, tiles, t, m,
            )
            self._wg_output_adds(layer, prefix, tf, y_scaled, pad, n, k_out, tiles, t, m)
            pad.flush()

        # Sub-conv recombination + bias additions act on the final summed output.
        ops_per_sample = (len(sub_contexts) - 1 + 1) * k_out * out_h * out_w
        self._inject_result_adds(
            layer,
            "wg_output_add",
            "wg_output_add:recombine",
            ops_per_sample,
            y_scaled.reshape(n, -1),
        )

    def _wg_muls_and_acc_adds(
        self, layer, prefix, u, v, m_arr, m_widths, at, pad, n, k_out, c_in, tiles, t
    ):
        """Element-wise product and channel-reduction addition faults.

        The stage arrays are position-major, so the event at image ``n``,
        tile ``tl`` and element ``(i, j)`` reads position ``i*t + j`` and
        column ``n*T + tl`` (see :class:`WinogradConvContext`).  They hold
        exact integers, int64 or float64; only the gathered elements are
        cast to int64.
        """
        # --- element-wise multiplications ---------------------------------------
        events = self._site_events(
            layer.name,
            "wg_mul",
            prefix + "wg_mul",
            n,
            k_out * c_in * tiles * t * t,
            self._mul_exposure_bits(layer),
            (k_out, c_in, tiles, t, t),
        )
        if events is not None:
            img = events.img
            kk, cc, tl, ii, jj = events.coords
            pos, col = ii * t + jj, img * tiles + tl
            u_vals = u[pos, cc, col].astype(np.int64)
            products = u_vals * v[pos, kk, cc].astype(np.int64)
            mul_width = self._mul_register_width(layer)
            deltas = self._register_deltas(products, mul_width, events)
            pad.add_rank1(img, kk, tl, deltas, at[:, ii], at[:, jj])

        # --- channel-reduction additions -----------------------------------------
        events = self._site_events(
            layer.name,
            "wg_acc_add",
            prefix + "wg_acc_add",
            n,
            k_out * max(c_in - 1, 0) * tiles * t * t,
            self._add_exposure_bits(layer),
            (k_out, tiles, t, t),
        )
        if events is not None:
            img = events.img
            kk, tl, ii, jj = events.coords
            m_vals = m_arr[ii * t + jj, kk, img * tiles + tl].astype(np.int64)
            deltas = self._register_deltas(m_vals, m_widths()[img], events)
            pad.add_rank1(img, kk, tl, deltas, at[:, ii], at[:, jj])

    def _wg_input_adds(
        self, layer, prefix, u, v, m_arr, m_widths, bt, at, pad,
        n, k_out, c_in, tiles, t, m,
    ):
        """Input-transform addition faults.

        Default model (paper semantics): the fault perturbs the additive
        chain it belongs to — a transformed-domain partial result — and its
        effect reaches one output channel's tile through the (constant)
        output transform, exactly like a channel-reduction add.

        With ``config.amplify_input_transform_adds`` the full physical
        propagation applies instead: the corrupted ``U`` element multiplies
        the transformed weights and fans out to *every* output channel of
        the tile (ablation; see FaultModelConfig).
        """
        per_vector = int(np.maximum((bt != 0).sum(axis=1) - 1, 0).sum())
        pass_ops = c_in * tiles * per_vector * t  # per sample, per pass

        if not self.config.amplify_input_transform_adds:
            # Additive-chain locality (paper semantics): the perturbation is a
            # transformed-domain sum-register flip whose effect reaches one
            # output channel's tile through the constant output transform —
            # same damage kernel as a channel-reduction add, with the
            # input-transform site census.  Base values come from the M
            # domain so the flip window matches the applied domain's units.
            events = self._site_events(
                layer.name,
                "wg_input_add",
                prefix + "wg_input_add",
                n,
                2 * pass_ops,
                self._add_exposure_bits(layer),
                (k_out, tiles, t, t),
            )
            if events is None:
                return
            img = events.img
            kk, tl, ii, jj = events.coords
            base_vals = m_arr[ii * t + jj, kk, img * tiles + tl].astype(np.int64)
            deltas = self._register_deltas(base_vals, m_widths()[img], events)
            pad.add_rank1(img, kk, tl, deltas, at[:, ii], at[:, jj])
            return

        u_widths = functools.cache(
            lambda: self._sample_widths(u.reshape(-1, n, tiles), layer.acc_width)
        )
        for pass_idx in (1, 2):
            events = self._site_events(
                layer.name,
                "wg_input_add",
                f"{prefix}wg_input_add:p{pass_idx}",
                n,
                pass_ops,
                self._add_exposure_bits(layer),
                (c_in, tiles, t, t),
            )
            if events is None:
                continue
            img = events.img
            cc, tl, uu, vv = events.coords
            base_vals = u[uu * t + vv, cc, img * tiles + tl].astype(np.int64)
            deltas = self._register_deltas(base_vals, u_widths()[img], events)

            for f in range(len(events)):
                delta = int(deltas[f])
                if delta == 0:
                    continue
                if pass_idx == 2:
                    # dU is a single element at (uu, vv).
                    du = np.zeros((t, t), dtype=np.int64)
                    du[uu[f], vv[f]] = delta
                else:
                    # dZ[u, v] = delta -> dU[u, j] = delta * B[v, j] = delta * bt[j, v].
                    du = np.zeros((t, t), dtype=np.int64)
                    du[uu[f], :] = delta * bt[:, vv[f]]
                # (K, t, t), amplified by the weights of channel cc[f].
                v_c = v[:, :, cc[f]].astype(np.int64)
                dm = du[None, :, :] * v_c.T.reshape(k_out, t, t)
                dy = np.einsum("ui,kij,vj->kuv", at, dm, at)
                pad.add_tile_all_k(int(img[f]), int(tl[f]), dy)

    def _wg_output_adds(self, layer, prefix, tf, y_scaled, pad, n, k_out, tiles, t, m):
        """Output-transform faults: row (pass 1) or element (pass 2) updates."""
        at = tf.at_int.astype(np.int64)
        per_vector = int(np.maximum((at != 0).sum(axis=1) - 1, 0).sum())
        y_flat = y_scaled.reshape(n, -1)
        # Both passes size their registers before this sub-conv's deltas
        # are flushed into y_scaled, so they share one width computation.
        y_widths = functools.cache(
            lambda: self._sample_widths(y_flat[None], layer.acc_width)
        )

        # Pass 1: P = AT M, shape (m, t): per tile per k, t applications.
        events = self._site_events(
            layer.name,
            "wg_output_add",
            prefix + "wg_output_add:p1",
            n,
            k_out * tiles * per_vector * t,
            self._add_exposure_bits(layer),
            (k_out, tiles, m, t),
            with_signs=True,
        )
        if events is not None:
            img = events.img
            kk, tl, uu, vv = events.coords
            bits = events.bits(y_widths()[img])
            deltas = events.signs() * (np.int64(1) << bits)
            # dY[u, w] = delta * A[v, w] = delta * at[w, v]
            rows = deltas[:, None] * at[:, vv].T  # (F, m)
            pad.add_row(img, kk, tl, uu, rows)

        # Pass 2: Y = P A, shape (m, m): per tile per k, m applications.
        events = self._site_events(
            layer.name,
            "wg_output_add",
            prefix + "wg_output_add:p2",
            n,
            k_out * tiles * per_vector * m,
            self._add_exposure_bits(layer),
            (k_out, tiles, m, m),
            with_signs=True,
        )
        if events is not None:
            img = events.img
            kk, tl, uu, ww = events.coords
            bits = events.bits(y_widths()[img])
            deltas = events.signs() * (np.int64(1) << bits)
            pad.add_element(img, kk, tl, uu, ww, deltas)


class _TilePadAccumulator:
    """Accumulates tile-space fault deltas, then adds them to the output.

    Winograd fault effects live naturally in the padded tile grid (whose
    spatial extent is a multiple of ``m``); accumulating there and cropping
    once keeps every scatter fully vectorized.
    """

    def __init__(self, y_scaled: np.ndarray, grid):
        self.y = y_scaled
        self.grid = grid
        self.m = grid.m
        n, k = y_scaled.shape[0], y_scaled.shape[1]
        self._buf = None
        self._shape = (n, k, grid.tiles_h * grid.m, grid.tiles_w * grid.m)

    def _ensure(self) -> np.ndarray:
        if self._buf is None:
            self._buf = np.zeros(self._shape, dtype=np.int64)
        return self._buf

    def _origins(self, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        th, tw = np.divmod(tiles, self.grid.tiles_w)
        return th * self.m, tw * self.m

    def add_rank1(self, img, kk, tiles, deltas, a_cols_i, a_cols_j):
        """``buf[img, kk, tile] += delta * outer(a_cols_i, a_cols_j)`` per fault.

        ``a_cols_i``/``a_cols_j`` have shape ``(m, F)``.
        """
        buf = self._ensure()
        m = self.m
        updates = deltas[None, None, :] * a_cols_i[:, None, :] * a_cols_j[None, :, :]
        oh, ow = self._origins(tiles)
        n, k, hh, ww = buf.shape
        flat = buf.reshape(-1)
        base = (img * k + kk) * hh
        uu, vv = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        idx = (
            (base[None, None, :] + oh[None, None, :] + uu[:, :, None]) * ww
            + ow[None, None, :]
            + vv[:, :, None]
        )
        np.add.at(flat, idx.ravel(), updates.ravel())

    def add_row(self, img, kk, tiles, row_u, rows):
        """``buf[img, kk, tile][row_u, :] += rows`` per fault; rows: (F, m)."""
        buf = self._ensure()
        m = self.m
        oh, ow = self._origins(tiles)
        n, k, hh, ww = buf.shape
        flat = buf.reshape(-1)
        base = (img * k + kk) * hh
        vv = np.arange(m)
        idx = (base[:, None] + oh[:, None] + row_u[:, None]) * ww + ow[:, None] + vv[None, :]
        np.add.at(flat, idx.ravel(), rows.ravel())

    def add_element(self, img, kk, tiles, uu, ww_idx, deltas):
        """``buf[img, kk, tile][uu, ww] += delta`` per fault."""
        buf = self._ensure()
        oh, ow = self._origins(tiles)
        n, k, hh, ww = buf.shape
        flat = buf.reshape(-1)
        base = (img * k + kk) * hh
        idx = (base + oh + uu) * ww + ow + ww_idx
        np.add.at(flat, idx, deltas)

    def add_tile_all_k(self, img: int, tile: int, dy: np.ndarray):
        """Add a (K, m, m) update at one tile of one image (input-transform fan-out)."""
        buf = self._ensure()
        th, tw = divmod(tile, self.grid.tiles_w)
        oh, ow = th * self.m, tw * self.m
        buf[img, :, oh : oh + self.m, ow : ow + self.m] += dy

    def flush(self):
        """Crop the padded buffer into the real output accumulator."""
        if self._buf is None:
            return
        h, w = self.y.shape[2], self.y.shape[3]
        self.y += self._buf[:, :, :h, :w]
        self._buf = None

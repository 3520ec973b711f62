"""Cross-session batched SAR ingest: one stacked fold per round.

The serving hot path used to fold every session's micro-batch through
its own chunked :class:`~repro.localization.sar.SarGeometry` pass — one
``(B, N)`` distance tensor, one ``exp``, one accumulate *per session
per round*. At fleet scale (thousands of co-scheduled sessions sharing
one search grid) the per-call overhead dominates the arithmetic.

Because the Eq. 11-12 coherent sum is linear and per-pose terms never
interact across sessions, a whole round can instead stack every planned
block's poses into one ``(P, 2)`` array, compute the node-chunked
distance/phase matrix once, and hand each accumulator exactly the
per-node sum of its own contiguous pose segment
(``np.add.reduceat`` over the stacked weighted-phase matrix).

Two exactness properties matter and are pinned by the test suite:

* **Batched ~ scalar**: a segment's reduction is the same coherent sum
  :meth:`IncrementalSar.update` computes, associated differently —
  agreement to 1e-12 under arbitrary micro-batch splits.
* **Stacking-invariance (exact)**: a segment's reduction reads only its
  own rows, and node chunk boundaries only split *where* partial sums
  land, never what is added per node — so an accumulator's bits do not
  depend on which other sessions were co-batched. That is what makes a
  sharded service (fewer co-resident sessions per round) bit-identical
  to the unsharded one (see :mod:`repro.serve.shard`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import LocalizationError
from repro.localization.incremental import (
    IncrementalSar,
    canonical_batch,
    unit_weights,
)
from repro.localization.sar import DEFAULT_CHUNK_NODES, _MAX_CHUNK_ELEMENTS
from repro.obs import metrics


@dataclass(frozen=True, eq=False)
class PoseBlock:
    """One accumulator-bound pose block staged for a batched fold.

    ``positions`` is ``(B, 2)`` and ``channels`` complex ``(B,)`` —
    the same shapes :meth:`IncrementalSar.update` takes; the fold is
    the moral equivalent of ``target.update(positions, channels)``.
    """

    target: IncrementalSar
    positions: np.ndarray
    channels: np.ndarray


def fold_blocks(blocks: Sequence[PoseBlock]) -> int:
    """Fold staged blocks into their accumulators, one pass per group.

    Blocks are grouped by their target's
    :meth:`~IncrementalSar.batch_signature` (identical grid + phase
    constant); each group runs as a single stacked kernel. Within a
    group, blocks fold in input order — a session that staged a FULL
    batch and then a catch-up block sees the same accumulator ordering
    the scalar path produces. Returns total grid nodes projected,
    matching the sum of per-block ``update`` returns.
    """
    groups: Dict[
        Tuple[float, ...], List[Tuple[PoseBlock, np.ndarray, np.ndarray]]
    ] = {}
    staged = 0
    for block in blocks:
        # Finiteness is checked once per stacked group (hot path);
        # shape admission stays per block for exact error attribution.
        positions, channels = canonical_batch(
            block.positions, block.channels, check_finite=False
        )
        if len(positions):
            staged += 1
            groups.setdefault(block.target.batch_signature(), []).append(
                (block, positions, channels)
            )
    if not staged:
        return 0
    projected = 0
    for group in groups.values():
        projected += _fold_group(group)
    metrics.count("localization.sar.batched_folds")
    return projected


def _fold_group(
    group: Sequence[Tuple[PoseBlock, np.ndarray, np.ndarray]]
) -> int:
    """One stacked segment-reduced fold over same-signature blocks.

    The stacked round is processed in fixed-size *slabs* of pose rows
    through preallocated scratch buffers: allocator and first-touch
    costs are paid once per group instead of once per node chunk, and
    a slab's working set stays cache-sized. Slab boundaries always
    coincide with block boundaries, so each block's segment reduction
    sees exactly the rows it would in one giant pass — identical bits,
    bounded memory.
    """
    reference = group[0][0].target
    nodes = reference.grid_nodes()
    positions = np.concatenate([entry[1] for entry in group], axis=0)
    channels = np.concatenate([entry[2] for entry in group])
    if not (
        np.all(np.isfinite(positions)) and np.all(np.isfinite(channels))
    ):
        raise LocalizationError(
            "staged pose blocks contain NaN or Inf; drop bad "
            "measurements before accumulating"
        )
    weights = unit_weights(channels)
    pos_x = np.ascontiguousarray(positions[:, 0])
    pos_y = np.ascontiguousarray(positions[:, 1])
    nodes_x = np.ascontiguousarray(nodes[:, 0])
    nodes_y = np.ascontiguousarray(nodes[:, 1])
    slabs = _slab_spans([len(entry[1]) for entry in group])
    slab_rows = max(rows_hi - rows_lo for _, _, rows_lo, rows_hi in slabs)
    k_factor = reference.k_factor
    n_nodes = len(nodes)
    chunk = max(
        1,
        min(
            DEFAULT_CHUNK_NODES,
            _MAX_CHUNK_ELEMENTS // max(1, slab_rows),
        ),
    )
    chunk = min(chunk, n_nodes)
    scratch = np.empty((slab_rows, chunk), dtype=float)
    dy = np.empty((slab_rows, chunk), dtype=float)
    phases = np.empty((slab_rows, chunk), dtype=complex)
    for start in range(0, n_nodes, chunk):
        stop = min(start + chunk, n_nodes)
        node_slice = slice(start, stop)
        width = stop - start
        chunk_x = nodes_x[node_slice]
        chunk_y = nodes_y[node_slice]
        for block_lo, block_hi, rows_lo, rows_hi in slabs:
            rows = rows_hi - rows_lo
            dist = scratch[:rows, :width]
            dy_v = dy[:rows, :width]
            # d^2 = dx^2 + dy^2 built in place via outer differences:
            # same bits as the (R, N, 2)-broadcast norm without its
            # 3-D intermediate.
            np.subtract(pos_x[rows_lo:rows_hi, None], chunk_x, out=dist)
            np.subtract(pos_y[rows_lo:rows_hi, None], chunk_y, out=dy_v)
            dist *= dist
            dy_v *= dy_v
            dist += dy_v
            np.sqrt(dist, out=dist)
            dist *= k_factor
            # exp(j x) assembled as cos/sin written straight into the
            # complex buffer's real/imag views (cexp with a zero real
            # part reduces to exactly this, minus one temporary).
            phase_v = phases[:rows, :width]
            np.cos(dist, out=phase_v.real)
            np.sin(dist, out=phase_v.imag)
            phase_v *= weights[rows_lo:rows_hi, None]
            if block_hi - block_lo == rows:
                # All-singleton slab (the steady serving state: one
                # pose per session per round): each segment is its own
                # row, exactly what reduceat returns for length-1
                # segments, so the reduction is skipped outright.
                partials = phase_v
            else:
                counts = [
                    len(group[index][1])
                    for index in range(block_lo, block_hi)
                ]
                starts = np.concatenate(
                    [[0], np.cumsum(counts[:-1])]
                ).astype(np.intp)
                partials = np.add.reduceat(phase_v, starts, axis=0)
            # At fleet scale this loop runs once per co-resident
            # session per round, so the accumulate is a plain indexed
            # add with no method dispatch.
            for offset in range(block_hi - block_lo):
                target = group[block_lo + offset][0].target
                target._accumulator[node_slice] += partials[offset]
    # Inlined IncrementalSar.record_block (same reasoning), with one
    # aggregate incremental_updates count per fold — the counter total
    # is identical to the scalar path's per-block emissions.
    total_poses = 0
    for block, block_positions, block_channels in group:
        target = block.target
        target._positions.append(block_positions)
        target._channels.append(block_channels)
        count = len(block_positions)
        target._n_poses += count
        total_poses += count
    metrics.count("localization.sar.incremental_updates", total_poses)
    return total_poses * n_nodes


#: Pose rows per scratch slab: large enough to amortize per-slab ufunc
#: dispatch, small enough that the complex phase buffer stays ~L2/L3
#: sized for typical serving grids.
_SLAB_ROWS = 4096


def _slab_spans(
    counts: Sequence[int], slab_rows: int = _SLAB_ROWS
) -> List[Tuple[int, int, int, int]]:
    """Partition blocks into row slabs aligned to block boundaries.

    Returns ``(block_lo, block_hi, rows_lo, rows_hi)`` spans covering
    all blocks in order. A block larger than ``slab_rows`` gets a slab
    of its own — blocks are never split, so segment reductions are
    slab-local.
    """
    spans: List[Tuple[int, int, int, int]] = []
    block_lo = 0
    rows_lo = 0
    rows = 0
    for index, count in enumerate(counts):
        if rows and rows + count > slab_rows:
            spans.append((block_lo, index, rows_lo, rows_lo + rows))
            block_lo = index
            rows_lo += rows
            rows = 0
        rows += count
    if rows or not spans:
        spans.append((block_lo, len(counts), rows_lo, rows_lo + rows))
    return spans

"""Exact, order-invariant streaming accumulation.

Floating-point addition is not associative, so a naive streaming
collector ("add each batch's column sum to a running total") produces
estimates that depend on *how* the report stream was batched — and a
sharded collector would additionally depend on how batches were routed
across shards and in which order the shards were merged.

:class:`StreamingSum` removes the problem at the root: it accumulates the
**exact** sum. Every float64 is an integer multiple of ``2**-1074``, so a
column sum is representable as one arbitrary-precision integer; the
accumulator decomposes incoming values into (mantissa, exponent) pairs
with :func:`numpy.frexp`, reduces them bin-by-exponent with exact
float-integer arithmetic, and folds the bins into one Python big int per
column. :meth:`value` rounds the exact integer sum to the nearest float64
(integer true division is correctly rounded).

Consequences, all load-bearing for the distributed collection API:

* **batching invariance** — the value after ten small batches is
  bit-identical to the value after one concatenated batch;
* **order invariance** — permuting the batches (e.g. routing them
  round-robin over shards) cannot change the value;
* **exact merge** — merging two accumulators is big-int addition, so a
  shard-merged estimate is bit-identical to one-shot ingestion, and a
  snapshot/restore cycle resumes a round without losing a single ulp.

The decomposition is vectorized (``frexp``/``bincount``); the only
Python-level work is one loop over the occupied (exponent, column) bins
per ``add`` call. Since the sums are exact, many width-1 accumulators
may share one ``add``: :func:`fold_columns` stacks a batch's short
columns into small zero-padded blocks, folds each in a single ``add``
and hands each column's exact sum to its own accumulator, which is how
a server folds a batch's numeric attributes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from ..exceptions import (
    AggregationError, DimensionError, DomainError, WireFormatError,
)
from ..mechanisms.base import BLOCK_ENTRIES

#: ``frexp`` exponents of finite float64 values lie in [-1073, 1024];
#: shifting by the offset makes every bin index non-negative.
_EXPONENT_OFFSET = 1073
_BIN_COUNT = 2098

#: Accumulators store ``sum * 2**_SCALE_BITS`` as exact integers: a
#: mantissa contributes ``m * 2**(e - 53)``, i.e. ``m << (e + 1073)``
#: at this scale.
_SCALE_BITS = _EXPONENT_OFFSET + 53
_SCALE_DEN = 1 << _SCALE_BITS

#: Mantissas are split into 27-bit halves so :func:`numpy.bincount` can
#: reduce them in float64 without rounding: partial sums stay integers
#: below 2**53 for any block up to ``_MAX_BLOCK`` rows.
_SPLIT_BITS = 27
_MAX_BLOCK = 1 << 24

#: Identifier stamped into (and required from) state dictionaries.
STATE_KIND = "exact-sum"

#: Largest stack :func:`fold_columns` folds in one ``add``. ``add``
#: allocates several temporaries the size of its block; above about 16K
#: entries (128 KB) each one is fresh memory that page-faults in, and
#: the arithmetic runs 4-5 times slower per entry.
GROUP_ENTRIES = BLOCK_ENTRIES // 8


class StreamingSum:
    """Exact streaming column sums, invariant to batching *and* order.

    Parameters
    ----------
    width:
        Number of columns being summed.
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise DimensionError("width must be >= 1, got %d" % width)
        self.width = int(width)
        self._acc: List[int] = [0] * self.width
        self._rows = 0

    @property
    def rows(self) -> int:
        """Total number of rows accumulated so far."""
        return self._rows

    def add(self, rows: np.ndarray, assume_finite: bool = False) -> None:
        """Accumulate a ``(k, width)`` batch of rows (``k`` may be 0).

        ``assume_finite`` skips the non-finite guard for callers that
        already validated the block (the collectors' fold path scans
        payloads once in ``check_payload``).
        """
        block = np.asarray(rows, dtype=np.float64)
        if block.ndim == 1:
            block = block[:, None]
        if block.ndim != 2 or block.shape[1] != self.width:
            raise DimensionError(
                "expected (k, %d) rows, got %s" % (self.width, block.shape)
            )
        if block.shape[0] == 0:
            return
        if not assume_finite and not np.all(np.isfinite(block)):
            raise DomainError("cannot accumulate non-finite values")
        for start in range(0, block.shape[0], _MAX_BLOCK):
            self._add_block(block[start : start + _MAX_BLOCK])
        self._rows += block.shape[0]

    def _add_block(self, block: np.ndarray) -> None:
        """Exactly fold one ``(k <= _MAX_BLOCK, width)`` block.

        Every step below is exact in float64: ``m * 2**53`` is an
        integer with <= 53 significant bits (frexp mantissas lie in
        ±[0.5, 1)), splitting it at bit 27 uses only power-of-two
        scalings and differences of exactly representable integers, and
        the bincount reductions sum integers far below 2**53.
        """
        mantissa, exponent = np.frexp(block)
        m53 = mantissa * float(1 << 53)
        high = np.floor(m53 * (1.0 / (1 << _SPLIT_BITS)))
        low = m53 - high * float(1 << _SPLIT_BITS)
        # One bincount over (exponent, column) pairs, windowed to the
        # exponent range actually present in the block. ``index``, ``high``
        # and ``low`` share the layout of ``frexp``'s outputs, so flattening
        # them in memory order ("K") pairs the same entries without copying
        # a transposed (column-major) block.
        base = int(exponent.min())
        span = int(exponent.max()) - base + 1
        index = exponent
        index -= base
        index *= self.width
        index += np.arange(self.width, dtype=exponent.dtype)
        high_sums = np.bincount(
            index.ravel("K"), weights=high.ravel("K"), minlength=span * self.width
        )
        low_sums = np.bincount(
            index.ravel("K"), weights=low.ravel("K"), minlength=span * self.width
        )
        occupied = np.flatnonzero((high_sums != 0.0) | (low_sums != 0.0))
        shift_base = base + _EXPONENT_OFFSET
        for flat, high_sum, low_sum in zip(
            occupied.tolist(),
            high_sums[occupied].tolist(),
            low_sums[occupied].tolist(),
        ):
            contribution = (int(high_sum) << _SPLIT_BITS) + int(low_sum)
            column = flat % self.width
            self._acc[column] += contribution << (flat // self.width + shift_base)

    def value(self) -> np.ndarray:
        """Current column sums (does not mutate the accumulator).

        Equal, bit for bit, to the value any other batching — or any
        other *ordering* — of the same rows would produce: the integer
        accumulator is exact and the final division rounds correctly.
        """
        out = np.empty(self.width, dtype=np.float64)
        for column, acc in enumerate(self._acc):
            try:
                out[column] = acc / _SCALE_DEN
            except OverflowError:
                raise AggregationError(
                    "exact column sum exceeds the float64 range"
                ) from None
        return out

    def merge(self, other: "StreamingSum") -> None:
        """Fold ``other``'s rows into this accumulator (exactly).

        Bit-identical to having added ``other``'s rows directly, in any
        order. ``other`` is left untouched.
        """
        if not isinstance(other, StreamingSum) or other.width != self.width:
            raise DimensionError(
                "can only merge a StreamingSum of width %d" % self.width
            )
        for column in range(self.width):
            self._acc[column] += other._acc[column]
        self._rows += other._rows

    def reset(self) -> None:
        """Discard all accumulated rows."""
        self._acc = [0] * self.width
        self._rows = 0

    # ------------------------------------------------------------- snapshots

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the exact accumulator state."""
        return {
            "kind": STATE_KIND,
            "width": self.width,
            "rows": self._rows,
            "scale_bits": _SCALE_BITS,
            "sums": list(self._acc),
        }

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "StreamingSum":
        """Reconstruct an accumulator from :meth:`state_dict` output."""
        if not isinstance(state, dict) or state.get("kind") != STATE_KIND:
            raise WireFormatError(
                "not a %r state dictionary: %r" % (STATE_KIND, state)
            )
        if state.get("scale_bits") != _SCALE_BITS:
            raise WireFormatError(
                "unsupported accumulator scale %r" % state.get("scale_bits")
            )
        try:
            width = int(state["width"])
            rows = int(state["rows"])
            sums = [int(total) for total in state["sums"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise WireFormatError("malformed accumulator state: %s" % exc) from None
        if len(sums) != width or rows < 0:
            raise WireFormatError(
                "accumulator state is inconsistent: width=%d, %d sums, rows=%d"
                % (width, len(sums), rows)
            )
        restored = cls(width)
        restored._acc = sums
        restored._rows = rows
        return restored


def fold_columns(sums: Sequence[StreamingSum], columns: Sequence[np.ndarray]) -> None:
    """Add each finite ``(k_i,)`` column into its width-1 accumulator, exactly.

    The same accumulators as ``sums[i].add(columns[i], assume_finite=True)``
    for every ``i``, in fewer ``add`` calls: shortest first, the columns
    become the rows of zero-padded ``(g, k)`` stacks of at most
    :data:`GROUP_ENTRIES` entries. A width-``g`` accumulator folds each
    stack's transposed view, zeros adding nothing, and column ``i``'s
    exact sum then goes to ``sums[i]``. A column alone in its stack is
    added directly, without the copy.
    """
    for target in sums:
        if target.width != 1:
            raise DimensionError(
                "fold_columns needs width-1 accumulators, got width %d" % target.width
            )
    pairs = sorted(zip(sums, columns), key=lambda pair: len(pair[1]))
    stack: List[Any] = []
    for target, column in pairs:
        if stack and (len(stack) + 1) * len(column) > GROUP_ENTRIES:
            _fold_stack(stack)
            stack = []
        stack.append((target, column))
    if stack:
        _fold_stack(stack)


def _fold_stack(stack: Sequence[Any]) -> None:
    """Fold ``(accumulator, column)`` pairs, shortest first, in one ``add``."""
    if len(stack) == 1:
        target, column = stack[0]
        target.add(column, assume_finite=True)
        return
    stacked = np.zeros((len(stack), len(stack[-1][1])))
    for row, (_, column) in zip(stacked, stack):
        row[: len(column)] = column
    total = StreamingSum(len(stack))
    total.add(stacked.T, assume_finite=True)
    for (target, column), exact in zip(stack, total._acc):
        target._acc[0] += exact
        target._rows += len(column)

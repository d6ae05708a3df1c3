"""Typed record schemas for the unified collection API.

A :class:`Schema` declares what one user's record looks like: an ordered
list of named, typed attributes. Two attribute types cover the paper's two
estimation tasks:

* :class:`NumericAttribute` — a real value inside a declared interval
  (mean estimation, Sections III–V of the paper);
* :class:`CategoricalAttribute` — an integer label in ``[0, v)``
  (frequency estimation, Section V-C / the Wang et al. oracles).

The schema is the contract shared by :class:`~repro.session.LDPClient`
and :class:`~repro.session.LDPServer`: the client validates and encodes a
record against it before perturbing, the server uses it to shape its
aggregation state and to interpret estimates. Records travel as ``(n, d)``
float matrices in schema order; categorical columns hold integer labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from ..exceptions import DimensionError, DomainError
from ..mechanisms.base import BLOCK_ENTRIES, STANDARD_DOMAIN

#: Round-off slack allowed outside a numeric domain before values are
#: rejected (they are clipped back into it).
DOMAIN_ATOL = 1e-9


@dataclass(frozen=True)
class NumericAttribute:
    """A real-valued attribute with a declared bounded domain.

    Attributes
    ----------
    name:
        Unique attribute name within the schema.
    domain:
        Closed interval of admissible original values; defaults to the
        library-standard ``[−1, 1]``.
    """

    name: str
    domain: Tuple[float, float] = STANDARD_DOMAIN

    #: Discriminator used by protocol adapters ("numeric"/"categorical").
    kind = "numeric"

    def __post_init__(self) -> None:
        if not self.name:
            raise DimensionError("attribute name must be non-empty")
        lo, hi = float(self.domain[0]), float(self.domain[1])
        if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
            raise DomainError(
                "numeric domain must be a finite non-degenerate interval, "
                "got [%r, %r]" % (self.domain[0], self.domain[1])
            )
        object.__setattr__(self, "domain", (lo, hi))

    def validate_column(
        self, column: np.ndarray, atol: float = DOMAIN_ATOL
    ) -> np.ndarray:
        """Validate one data column against the domain; return float64."""
        arr = np.asarray(column, dtype=np.float64)
        if arr.size and not np.all(np.isfinite(arr)):
            raise DomainError(
                "attribute %r: values must be finite (found NaN or inf)"
                % self.name
            )
        lo, hi = self.domain
        if arr.size and (arr.min() < lo - atol or arr.max() > hi + atol):
            raise DomainError(
                "attribute %r: values outside domain [%g, %g]: min=%g max=%g"
                % (self.name, lo, hi, float(arr.min()), float(arr.max()))
            )
        return np.clip(arr, lo, hi)


@dataclass(frozen=True)
class CategoricalAttribute:
    """An integer-label attribute over ``n_categories`` categories.

    Attributes
    ----------
    name:
        Unique attribute name within the schema.
    n_categories:
        Number of categories ``v`` (labels live in ``[0, v)``).
    """

    name: str
    n_categories: int

    kind = "categorical"

    def __post_init__(self) -> None:
        if not self.name:
            raise DimensionError("attribute name must be non-empty")
        if int(self.n_categories) < 2:
            raise DimensionError(
                "attribute %r: need at least two categories, got %d"
                % (self.name, self.n_categories)
            )
        object.__setattr__(self, "n_categories", int(self.n_categories))

    def validate_column(self, column: np.ndarray) -> np.ndarray:
        """Validate one label column; return int64 labels."""
        arr = np.asarray(column)
        if arr.size and not np.all(np.isfinite(np.asarray(arr, dtype=np.float64))):
            raise DomainError(
                "attribute %r: labels must be finite integers" % self.name
            )
        labels = np.asarray(arr, dtype=np.float64)
        rounded = np.rint(labels)
        if labels.size and np.any(np.abs(labels - rounded) > 1e-9):
            raise DomainError(
                "attribute %r: labels must be integers" % self.name
            )
        out = rounded.astype(np.int64)
        if out.size and (out.min() < 0 or out.max() >= self.n_categories):
            raise DomainError(
                "attribute %r: labels must lie in [0, %d)"
                % (self.name, self.n_categories)
            )
        return out


Attribute = Union[NumericAttribute, CategoricalAttribute]


@dataclass(frozen=True)
class Schema:
    """Ordered, named, typed description of one user's record.

    Attributes
    ----------
    attributes:
        The typed attributes in record order. Names must be unique.
    """

    attributes: Tuple[Attribute, ...] = field(default_factory=tuple)

    def __init__(self, attributes: Sequence[Attribute]) -> None:
        attrs = tuple(attributes)
        if not attrs:
            raise DimensionError("a schema needs at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DimensionError("duplicate attribute names: %s" % ", ".join(dupes))
        for attr in attrs:
            if getattr(attr, "kind", None) not in ("numeric", "categorical"):
                raise DimensionError(
                    "unsupported attribute type: %r" % (attr,)
                )
        object.__setattr__(self, "attributes", attrs)
        numeric = [j for j, a in enumerate(attrs) if a.kind == "numeric"]
        domains = np.array(
            [attrs[j].domain for j in numeric], dtype=np.float64
        ).reshape(-1, 2)
        object.__setattr__(self, "_numeric_columns", np.array(numeric, dtype=np.intp))
        object.__setattr__(self, "_numeric_lo", domains[:, 0].copy())
        object.__setattr__(self, "_numeric_hi", domains[:, 1].copy())
        object.__setattr__(
            self,
            "_categorical_columns",
            tuple(j for j, a in enumerate(attrs) if a.kind == "categorical"),
        )

    # ------------------------------------------------------------- structure

    @property
    def dimensions(self) -> int:
        """Number of attributes ``d`` (the protocol's dimensionality)."""
        return len(self.attributes)

    @property
    def names(self) -> List[str]:
        """Attribute names in record order."""
        return [a.name for a in self.attributes]

    @property
    def numeric_indices(self) -> List[int]:
        """Column indices of the numeric attributes."""
        return self._numeric_columns.tolist()

    @property
    def categorical_indices(self) -> List[int]:
        """Column indices of the categorical attributes."""
        return list(self._categorical_columns)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __getitem__(self, key: Union[int, str]) -> Attribute:
        """Look an attribute up by column index or by name."""
        if isinstance(key, str):
            for attr in self.attributes:
                if attr.name == key:
                    return attr
            raise KeyError(
                "unknown attribute %r; schema has: %s"
                % (key, ", ".join(self.names))
            )
        return self.attributes[key]

    # ------------------------------------------------------------ validation

    def validate_matrix(self, records: np.ndarray) -> np.ndarray:
        """Validate an ``(n, d)`` record matrix, each column exactly once.

        Returns a float64 copy whose numeric columns are clipped to their
        domains and whose categorical columns hold exact integer labels.
        The copy is column-major, so each attribute's column (and each run
        of adjacent columns) is contiguous for the client.

        The numeric columns are checked together, in row blocks of about
        :data:`~repro.mechanisms.base.BLOCK_ENTRIES` entries: per-column minima and maxima
        against the domain bounds (a NaN or infinity fails them too) and
        one broadcast clip. A failing column is re-checked through its
        attribute's ``validate_column``, so the :class:`DomainError`
        names the first bad column in schema order, exactly as a
        column-by-column pass would.
        """
        matrix = np.asarray(records, dtype=np.float64)
        if matrix.ndim == 1 and self.dimensions == 1:
            matrix = matrix[:, None]
        if matrix.ndim != 2 or matrix.shape[1] != self.dimensions:
            raise DimensionError(
                "expected (n, %d) records for schema [%s], got %s"
                % (self.dimensions, ", ".join(self.names), np.shape(records))
            )
        out = np.empty(matrix.shape, dtype=np.float64, order="F")
        failed = self._numeric_columns[self._validate_numeric(matrix, out)]
        for j in sorted(self._categorical_columns + tuple(failed.tolist())):
            out[:, j] = self.attributes[j].validate_column(matrix[:, j])
        return out

    def _validate_numeric(self, matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Check and clip every numeric column into ``out``; flag failures.

        Returns a boolean vector over the numeric columns, True for those
        whose values leave the domain or are not finite (NaN propagates
        through the minima and maxima; an infinity exceeds the bounds).
        """
        columns = self._numeric_columns
        lo, hi = self._numeric_lo, self._numeric_hi
        users = matrix.shape[0]
        if columns.size == 0 or users == 0:
            return np.zeros(columns.size, dtype=bool)
        every = columns.size == self.dimensions
        step = max(1, BLOCK_ENTRIES // columns.size)
        mins = np.full(columns.size, np.inf)
        maxs = np.full(columns.size, -np.inf)
        for start in range(0, users, step):
            rows = slice(start, start + step)
            block = matrix[rows] if every else matrix[rows][:, columns]
            np.minimum(mins, block.min(axis=0), out=mins)
            np.maximum(maxs, block.max(axis=0), out=maxs)
            if every:
                np.clip(block, lo, hi, out=out[rows])
            else:
                out[rows, columns] = np.clip(block, lo, hi)
        return ~((mins >= lo - DOMAIN_ATOL) & (maxs <= hi + DOMAIN_ATOL))

    def validate_record(self, record: np.ndarray) -> np.ndarray:
        """Validate a single ``d``-dimensional record (1-D)."""
        arr = np.asarray(record, dtype=np.float64).ravel()
        if arr.size != self.dimensions:
            raise DimensionError(
                "record must have %d attributes, got shape %s"
                % (self.dimensions, np.shape(record))
            )
        return self.validate_matrix(arr[None, :])[0]

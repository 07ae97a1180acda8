"""Empirical cumulative distribution functions.

Several of the paper's figures are CDFs (Figs. 4, 6, 7, 10, 11); this module
provides the small amount of machinery needed to compute, query and compare
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EmpiricalCdf:
    """Empirical CDF of a sample."""

    values: np.ndarray
    fractions: np.ndarray

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalCdf":
        """Build the empirical CDF of a sample.

        Args:
            samples: Any non-empty iterable of numbers.

        Returns:
            The CDF with values sorted ascending.

        Raises:
            ValueError: If the sample is empty.
        """
        ordered = np.sort(np.asarray(list(samples), dtype=float))
        if len(ordered) == 0:
            raise ValueError("cannot build a CDF from an empty sample")
        fractions = np.arange(1, len(ordered) + 1) / len(ordered)
        return cls(values=ordered, fractions=fractions)

    def __len__(self) -> int:
        return len(self.values)

    def fraction_below(self, threshold: float) -> float:
        """P(X <= threshold) under the empirical distribution.

        Args:
            threshold: The evaluation point.

        Returns:
            The fraction of samples at or below ``threshold``.
        """
        return float(np.searchsorted(self.values, threshold, side="right") / len(self.values))

    def quantile(self, q: float) -> float:
        """The q-quantile of the sample.

        Args:
            q: Quantile level in ``[0, 1]``.

        Returns:
            The interpolated quantile value.

        Raises:
            ValueError: If ``q`` is outside ``[0, 1]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        return float(np.quantile(self.values, q))

    def median(self) -> float:
        """The sample median.

        Returns:
            The 0.5-quantile.
        """
        return self.quantile(0.5)

    def evaluated_at(self, points) -> np.ndarray:
        """CDF values at the given points.

        Args:
            points: Evaluation points (any array-like).

        Returns:
            One cumulative fraction per point.
        """
        points = np.asarray(points, dtype=float)
        return np.searchsorted(self.values, points, side="right") / len(self.values)

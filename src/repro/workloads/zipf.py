"""Zipfian synthetic data for the data-distribution experiments (Section 8.4).

The paper studies the singleton query ``Q6(A, B) :- R1(A), R2(A, B)`` and the
NP-hard ``Qpath(A, B) :- R1(A), R2(A, B), R3(B)`` on instances where the
degree of each ``A``-value in ``R2(A, B)`` follows a Zipf(α) distribution
(α = 0 is uniform; larger α is more skewed) while the ``B``-degrees stay
uniform.  The number of distinct values in ``A`` and ``B`` is 20% of the
input size.

:func:`generate_zipf_path` reproduces that setup.  The same database serves
both queries -- ``Q6`` simply ignores ``R3``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import List

from repro.data.database import Database
from repro.data.relation import Relation


@dataclass(frozen=True)
class ZipfConfig:
    """Generation knobs for the Zipfian path instance."""

    #: Number of tuples in R2(A, B); R1 and R3 hold the distinct values.
    r2_tuples: int = 1000
    #: Zipf exponent controlling the skew of A-degrees (0 = uniform).
    alpha: float = 0.0
    #: Distinct values in A (and in B) as a fraction of ``r2_tuples``.
    distinct_ratio: float = 0.2
    seed: int = 13


def zipf_weights(count: int, alpha: float) -> List[float]:
    """Unnormalised Zipf weights ``i^-alpha`` for ``i = 1..count``."""
    return [1.0 / (i ** alpha) if alpha > 0 else 1.0 for i in range(1, count + 1)]


def generate_zipf_path(
    r2_tuples: int = 1000,
    alpha: float = 0.0,
    seed: int = 13,
    config: ZipfConfig | None = None,
) -> Database:
    """Generate the ``R1(A), R2(A, B), R3(B)`` instance of Section 8.4.

    * ``R1`` holds every distinct ``A`` value, ``R3`` every distinct ``B``
      value (so the path query never has dangling endpoint tuples);
    * ``R2`` holds ``r2_tuples`` edges whose ``A`` endpoint is drawn from a
      Zipf(α) distribution over the ``A`` domain and whose ``B`` endpoint is
      drawn uniformly.

    The total input size is ``r2_tuples * (1 + 2 * distinct_ratio)``, matching
    the paper's "input size N with 0.2·N distinct values in A and B".
    """
    cfg = config or ZipfConfig(r2_tuples=r2_tuples, alpha=alpha, seed=seed)
    rng = random.Random(cfg.seed)
    distinct = max(1, int(cfg.r2_tuples * cfg.distinct_ratio))

    a_domain = [f"a{i}" for i in range(distinct)]
    b_domain = [f"b{i}" for i in range(distinct)]
    # Cumulative weights computed once: ``choices(weights=...)`` would
    # rebuild them on every draw (O(n^2) overall) for the same RNG stream.
    cum_weights = list(accumulate(zipf_weights(distinct, cfg.alpha)))

    r1 = Relation("R1", ("A",), [(a,) for a in a_domain])
    r3 = Relation("R3", ("B",), [(b,) for b in b_domain])
    r2 = Relation("R2", ("A", "B"))
    # Sampling with replacement and set semantics means the relation can end
    # up slightly smaller than requested on very skewed configurations; keep
    # drawing until the target size (bounded by the full cross product).
    target = min(cfg.r2_tuples, distinct * distinct)
    attempts = 0
    while len(r2) < target and attempts < 50 * cfg.r2_tuples:
        attempts += 1
        a = rng.choices(a_domain, cum_weights=cum_weights, k=1)[0]
        b = rng.choice(b_domain)
        r2.insert((a, b))
    return Database([r1, r2, r3])

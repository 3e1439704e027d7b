"""Synthetic FIB and workload generators.

The paper's evaluation data is not redistributable (5 proprietary router
FIBs, RouteViews RIB dumps, CAIDA traces), so every dataset is simulated
here. Three generator families cover all of them:

* **iterative random prefix splitting** — the paper's own generator for
  its synthetic FIBs ("generated by iterative random prefix splitting
  and setting next-hops according to a truncated Poisson-distribution");
* **Internet-like prefix sampling** — draws prefixes from a DFZ-shaped
  prefix-length histogram (peak at /24) to stand in for the real router
  FIBs of Table 1;
* **Bernoulli labelings** — the controlled-entropy experiments of
  Figs 6 and 7 ("a first next-hop was set with probability p and
  another with probability 1 − p").

All generators are deterministic under a seed.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.entropy import distribution_with_entropy
from repro.core.fib import Fib
from repro.utils.bits import IPV4_WIDTH
from repro.utils.rng import DiscreteSampler, Seedable, derive_rng, make_rng

# A DFZ-shaped prefix-length histogram (fractions of announced IPv4
# prefixes by length, shaped after public BGP table reports [26]).
DFZ_LENGTH_HISTOGRAM: dict[int, float] = {
    8: 0.002,
    9: 0.002,
    10: 0.003,
    11: 0.004,
    12: 0.006,
    13: 0.012,
    14: 0.020,
    15: 0.022,
    16: 0.060,
    17: 0.030,
    18: 0.045,
    19: 0.060,
    20: 0.080,
    21: 0.070,
    22: 0.110,
    23: 0.070,
    24: 0.410,
    25: 0.001,
    26: 0.001,
    27: 0.001,
    28: 0.001,
}


def truncated_poisson_weights(delta: int, parameter: float) -> list[float]:
    """Poisson(parameter) pmf truncated to ``delta`` labels (1..δ).

    The paper's synthetic FIBs use parameter 3/5.
    """
    if delta < 1:
        raise ValueError("need at least one label")
    if parameter <= 0:
        raise ValueError("Poisson parameter must be positive")
    weights = []
    for k in range(delta):
        weights.append(math.exp(-parameter) * parameter**k / math.factorial(k))
    return weights


def label_sampler_with_entropy(delta: int, h0: float) -> DiscreteSampler:
    """A next-hop sampler over 1..δ whose distribution has entropy ``h0``."""
    probabilities = distribution_with_entropy(delta, h0)
    return DiscreteSampler(probabilities, values=list(range(1, delta + 1)))


def bernoulli_label_sampler(p: float) -> DiscreteSampler:
    """Fig 6's labeling: label 1 with probability p, label 2 otherwise."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return DiscreteSampler([p, 1.0 - p], values=[1, 2])


def random_prefix_split_fib(
    entries: int,
    label_sampler: DiscreteSampler,
    seed: Seedable = None,
    width: int = IPV4_WIDTH,
    max_length: int = IPV4_WIDTH,
) -> Fib:
    """The paper's synthetic generator: iterative random prefix splitting.

    Starting from the default prefix, a uniformly chosen leaf prefix is
    repeatedly split into its two halves until ``entries`` disjoint
    prefixes cover the address space; each then receives a next-hop from
    ``label_sampler``.
    """
    if entries < 1:
        raise ValueError("need at least one entry")
    rng = make_rng(seed)
    label_rng = derive_rng(rng, "labels")
    prefixes: list[tuple[int, int]] = [(0, 0)]
    while len(prefixes) < entries:
        index = rng.randrange(len(prefixes))
        value, length = prefixes[index]
        if length >= max_length:
            continue
        # Swap-remove, then push both halves.
        prefixes[index] = prefixes[-1]
        prefixes.pop()
        prefixes.append((value << 1, length + 1))
        prefixes.append(((value << 1) | 1, length + 1))
    fib = Fib(width)
    for value, length in prefixes:
        fib.add(value, length, label_sampler.sample(label_rng))
    return fib


def internet_like_fib(
    entries: int,
    label_sampler: DiscreteSampler,
    seed: Seedable = None,
    width: int = IPV4_WIDTH,
    length_histogram: Optional[dict[int, float]] = None,
    default_route: bool = False,
    default_label: int = 1,
) -> Fib:
    """A FIB with a DFZ-shaped prefix-length mix.

    Prefix values are drawn uniformly at each sampled length (duplicates
    retried), which produces the natural nesting of more-specifics under
    covering aggregates that real tables show.
    """
    if entries < 1:
        raise ValueError("need at least one entry")
    rng = make_rng(seed)
    label_rng = derive_rng(rng, "labels")
    histogram = length_histogram or DFZ_LENGTH_HISTOGRAM
    lengths = DiscreteSampler(
        list(histogram.values()), values=list(histogram.keys())
    )
    fib = Fib(width)
    if default_route:
        fib.add(0, 0, default_label)
    attempts = 0
    budget = entries * 64
    while len(fib) < entries and attempts < budget:
        attempts += 1
        length = lengths.sample(rng)
        if length > width:
            continue
        value = rng.getrandbits(length) if length else 0
        if fib.get(value, length) is not None:
            continue
        fib.add(value, length, label_sampler.sample(label_rng))
    if len(fib) < entries:
        raise RuntimeError(
            f"prefix sampling saturated at {len(fib)}/{entries} entries; "
            f"use a wider length histogram"
        )
    return fib


def bernoulli_fib(
    entries: int,
    p: float,
    seed: Seedable = None,
    width: int = IPV4_WIDTH,
    length_histogram: Optional[dict[int, float]] = None,
) -> Fib:
    """Fig 6's workload: an Internet-shaped FIB with Bernoulli(p) labels."""
    return internet_like_fib(
        entries,
        bernoulli_label_sampler(p),
        seed=seed,
        width=width,
        length_histogram=length_histogram,
    )


def bernoulli_string(length: int, p: float, seed: Seedable = None) -> list[int]:
    """Fig 7's workload: a string of ``length`` Bernoulli(p) symbols."""
    if length < 1:
        raise ValueError("need a non-empty string")
    sampler = bernoulli_label_sampler(p)
    rng = make_rng(seed)
    return sampler.sample_many(rng, length)


def relabel_fib(fib: Fib, label_sampler: DiscreteSampler, seed: Seedable = None) -> Fib:
    """Keep a FIB's prefix structure but redraw every next-hop.

    This is exactly the paper's Fig 6 methodology: "we re-generated the
    next-hops in access(d) according to Bernoulli-distribution".
    """
    rng = make_rng(seed)
    out = Fib(fib.width)
    for route in fib:
        out.add(route.prefix, route.length, label_sampler.sample(rng))
    return out


def poisson_label_fib(
    entries: int,
    delta: int,
    parameter: float = 0.6,
    seed: Seedable = None,
    width: int = IPV4_WIDTH,
) -> Fib:
    """The paper's fib_600k / fib_1m recipe: random prefix splitting with
    truncated-Poisson next-hops (parameter 3/5, δ around 4–5)."""
    sampler = DiscreteSampler(
        truncated_poisson_weights(delta, parameter), values=list(range(1, delta + 1))
    )
    return random_prefix_split_fib(entries, sampler, seed=seed, width=width)

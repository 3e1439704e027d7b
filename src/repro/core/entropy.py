"""FIB compressibility metrics (§2.1–§2.2, revised constants).

Given the unique leaf-pushed normal form of a FIB with ``n`` leaves over
an alphabet of ``δ`` distinct leaf labels whose empirical distribution
has Shannon entropy ``H0``:

* the **FIB information-theoretic lower bound** is
  ``I = 2n + n·lg δ`` bits (Proposition 1, revised), and
* the **FIB entropy** is ``E = 2n + n·H0`` bits (Proposition 2, revised).

These are the ``I`` and ``E`` columns of Table 1, the yardsticks every
compressor in this library is measured against (compression efficiency
``ν = size / E``). ``n`` and ``H0`` also size the barrier λ (eq. (3))
of every :class:`~repro.core.prefixdag.PrefixDag` build, so
:func:`trie_entropy` counts the normal form's leaves straight off the
trie instead of building the form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Union

from repro.core.fib import INVALID_LABEL, Fib
from repro.core.trie import BinaryTrie, TrieNode
from repro.utils.bits import lg


def shannon_entropy(histogram: Mapping[object, int]) -> float:
    """Zero-order Shannon entropy (bits/symbol) of a count histogram.

    >>> shannon_entropy({1: 1, 2: 1})
    1.0
    """
    total = sum(histogram.values())
    if total <= 0:
        return 0.0
    entropy = 0.0
    for count in histogram.values():
        if count <= 0:
            continue
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def entropy_of_probabilities(probabilities: Iterable[float]) -> float:
    """Shannon entropy of an explicit probability vector."""
    entropy = 0.0
    for p in probabilities:
        if p < 0:
            raise ValueError(f"negative probability {p}")
        if p > 0:
            entropy -= p * math.log2(p)
    return entropy


@dataclass(frozen=True)
class EntropyReport:
    """The compressibility profile of one FIB.

    Attributes
    ----------
    leaves:
        ``n`` — leaves of the leaf-pushed normal form.
    delta:
        ``δ`` — distinct leaf labels (including ⊥ when reachable).
    h0:
        Shannon entropy of the leaf-label distribution, bits/label.
    info_bound_bits:
        ``I = 2n + n·lg δ`` (Proposition 1).
    entropy_bits:
        ``E = 2n + n·H0`` (Proposition 2).
    label_histogram:
        Leaf-label counts underlying ``h0``.
    """

    leaves: int
    delta: int
    h0: float
    info_bound_bits: int
    entropy_bits: float
    label_histogram: Dict[int, int]

    @property
    def info_bound_kbytes(self) -> float:
        return self.info_bound_bits / 8192.0

    @property
    def entropy_kbytes(self) -> float:
        return self.entropy_bits / 8192.0

    def bits_per_prefix(self, prefixes: int) -> float:
        """Entropy bits per original FIB entry (the η denominators)."""
        if prefixes <= 0:
            raise ValueError("prefix count must be positive")
        return self.entropy_bits / prefixes


def _pushed_leaf_histogram(trie: BinaryTrie) -> Dict[int, int]:
    """Leaf-label counts of ``leaf_pushed_trie(trie)``, in the order of
    each label's leftmost leaf, without building that trie.

    One postorder pass mirrors :func:`~repro.core.leafpush.leaf_push_node`:
    a sub-trie whose pushed form collapses to one leaf reports that
    leaf's label to its parent instead of counting it, since the parent
    may collapse it further. A left half reported that way claims its
    histogram slot before the right half is walked, so the insertion
    order is the materialized form's preorder order, and
    :func:`shannon_entropy`, which sums in that order, agrees bit for bit.
    """
    histogram: Dict[int, int] = {}

    def pushed(node: TrieNode, inherited: int) -> Optional[int]:
        if node.label is not None:
            inherited = node.label
        left, right = node.left, node.right
        if left is None and right is None:
            return inherited
        first = inherited if left is None else pushed(left, inherited)
        if first is not None and first not in histogram:
            histogram[first] = 0
        second = inherited if right is None else pushed(right, inherited)
        if first is not None:
            if second == first:
                return first
            histogram[first] += 1
        if second is not None:
            histogram[second] = histogram.get(second, 0) + 1
        return None

    top = pushed(trie.root, INVALID_LABEL)
    if top is not None:
        histogram[top] = histogram.get(top, 0) + 1
    return histogram


def trie_entropy(trie: BinaryTrie, assume_normalized: bool = False) -> EntropyReport:
    """Entropy report of a trie's leaf-pushed normal form.

    The leaves of that form are counted per label straight off ``trie``
    in one pass; the normal form itself is never built.

    Parameters
    ----------
    trie:
        Any labeled binary trie.
    assume_normalized:
        Set when ``trie`` is already the proper leaf-labeled normal form;
        its leaves are then counted as they stand.
    """
    if assume_normalized:
        histogram: Dict[int, int] = {}
        for node, _ in trie.nodes():
            if node.is_leaf:
                histogram[node.label] = histogram.get(node.label, 0) + 1
    else:
        histogram = _pushed_leaf_histogram(trie)
    leaves = sum(histogram.values())
    delta = len(histogram)
    h0 = shannon_entropy(histogram)
    info_bound = 2 * leaves + leaves * lg(max(2, delta))
    entropy_bits = 2 * leaves + leaves * h0
    return EntropyReport(
        leaves=leaves,
        delta=delta,
        h0=h0,
        info_bound_bits=info_bound,
        entropy_bits=entropy_bits,
        label_histogram=histogram,
    )


def fib_entropy(source: Union[Fib, BinaryTrie]) -> EntropyReport:
    """Entropy report of a FIB (or of a trie holding one)."""
    if isinstance(source, Fib):
        return trie_entropy(BinaryTrie.from_fib(source))
    return trie_entropy(source)


def compression_efficiency(size_bits: float, report: EntropyReport) -> float:
    """``ν`` — measured size over FIB entropy (Table 1's efficiency column)."""
    if report.entropy_bits <= 0:
        return math.inf
    return size_bits / report.entropy_bits


def bits_per_prefix(size_bits: float, prefixes: int) -> float:
    """``η`` — measured size per original FIB entry (Table 1)."""
    if prefixes <= 0:
        raise ValueError("prefix count must be positive")
    return size_bits / prefixes


def order_k_entropy(sequence, k: int) -> float:
    """k-th order empirical entropy H_k of a symbol sequence, bits/symbol.

    ``H_k`` conditions each symbol on its k predecessors:
    ``H_k = Σ_ctx p(ctx) · H(symbol | ctx)``. The paper notes (§3.2) that
    XBW-b's level ordering would let a context-aware coder reach
    higher-order entropy "if contextual dependency is present in real IP
    FIBs"; this estimator is the tool for checking that, applied to the
    leaf-label string ``S_α``. ``H_0`` equals :func:`shannon_entropy` of
    the histogram, and ``H_k`` is non-increasing in k.
    """
    if k < 0:
        raise ValueError(f"negative context order {k}")
    symbols = list(sequence)
    if len(symbols) <= k:
        return 0.0
    contexts: Dict[tuple, Dict[object, int]] = {}
    for index in range(k, len(symbols)):
        context = tuple(symbols[index - k : index])
        bucket = contexts.setdefault(context, {})
        symbol = symbols[index]
        bucket[symbol] = bucket.get(symbol, 0) + 1
    total = len(symbols) - k
    entropy = 0.0
    for bucket in contexts.values():
        weight = sum(bucket.values()) / total
        entropy += weight * shannon_entropy(bucket)
    return entropy


def distribution_with_entropy(delta: int, target_h0: float, tolerance: float = 1e-9) -> list[float]:
    """A ``delta``-symbol probability vector whose entropy is ``target_h0``.

    Used by the dataset generators to hit the H0 column of Table 1: one
    dominant symbol with probability ``p`` and the remaining mass spread
    uniformly, with ``p`` found by bisection. ``target_h0`` must lie in
    ``[0, log2(delta)]``.
    """
    if delta < 1:
        raise ValueError("alphabet must contain at least one symbol")
    if delta == 1:
        if target_h0 > tolerance:
            raise ValueError("a one-symbol alphabet has zero entropy")
        return [1.0]
    maximum = math.log2(delta)
    if target_h0 < -tolerance or target_h0 > maximum + tolerance:
        raise ValueError(f"target H0={target_h0} outside [0, {maximum:.4f}]")
    target = min(max(target_h0, 0.0), maximum)

    def entropy_with_dominant(p: float) -> float:
        rest = (1.0 - p) / (delta - 1)
        probs = [p] + [rest] * (delta - 1)
        return entropy_of_probabilities(probs)

    # Entropy rises monotonically as the dominant mass p drops from 1 to 1/δ.
    low, high = 1.0 / delta, 1.0
    for _ in range(200):
        mid = (low + high) / 2
        if entropy_with_dominant(mid) > target:
            low = mid
        else:
            high = mid
        if high - low < tolerance:
            break
    p = (low + high) / 2
    rest = (1.0 - p) / (delta - 1)
    return [p] + [rest] * (delta - 1)

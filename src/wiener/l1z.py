"""The convolution algebra of two-sided absolutely summable sequences.

Elements are represented by finitely many coefficients plus a certified
tail bound: an :class:`L1ZSeq` stands for the set of all true
sequence-space elements within ``tail`` of the finite part in the
one-norm.  All operations keep that reading sound.

The coefficients are stored as blocks: a sorted tuple of ``(offset,
values)`` pairs, ``values`` a read-only complex array holding the
coefficients at ``offset, offset + 1, ...``.  A block starts and ends on a
nonzero coefficient, and a new one starts wherever more than ``_GAP``
zeros separate two nonzero coefficients, so the blocks of an element are
fixed by its nonzero set, and an index such as ``2**70`` stays an exact
Python int offset.  Every operation works on the arrays, and every
result's blocks come from one builder, `_merge`; products take one
``np.convolve`` per pair of blocks.  Other modules read an element through
``coeffs``, `fold` and the norms, never through its blocks.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .certs import (
    CU_ZERO,
    ULP,
    CertUpper,
    _fsum,
    _up,
    cu,
    cu_abs,
    cu_add,
    cu_cross,
    cu_from_float_sum,
    cu_mul,
    cu_sum,
    cu_sum_abs,
)
from .errors import BoundOverflow, InvalidInput, ToleranceUnreachable

#: longest run of zero coefficients kept inside a block; one past it starts a new block
_GAP = 64

_CIRCLE_TOL = 1e-12

Block = Tuple[int, np.ndarray]


@dataclass(frozen=True)
class L1ZSeq:
    """Coefficient blocks plus a tail bound.

    ``blocks`` is either the canonical tuple built by this module or a
    mapping ``n -> a_n``, which is validated and laid out as blocks.
    """

    blocks: Union[Tuple[Block, ...], Mapping[int, complex]]
    tail: CertUpper = field(default=CU_ZERO)

    def __post_init__(self):
        if not isinstance(self.blocks, tuple):
            object.__setattr__(self, "blocks", _merge(_runs(self.blocks)))

    @cached_property
    def _abs_sum(self) -> float:
        """Float sum of the moduli, summed once per element (`fold`); an
        overflow gives ``inf`` without a warning."""
        c = np.concatenate([x for _, x in self.blocks] or [np.zeros(0, dtype=complex)])
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(c)))

    @cached_property
    def coeffs(self) -> Mapping[int, complex]:
        """Read-only map of the nonzero coefficients, by increasing index."""
        return MappingProxyType({n: c for n, c in zip(_indices(self), _values(self)) if c})

    def support(self) -> Tuple[int, int]:
        """(min index, max index); (0, 0) for the zero element."""
        if not self.blocks:
            return (0, 0)
        (lo, _), (o, x) = self.blocks[0], self.blocks[-1]
        return (lo, o + x.size - 1)

    def __eq__(self, other):
        if not isinstance(other, L1ZSeq):
            return NotImplemented
        return self.coeffs == other.coeffs and self.tail == other.tail


def _indices(a: L1ZSeq) -> Iterator[int]:
    """The index of every stored coefficient, zeros inside blocks included, in order."""
    return chain.from_iterable(range(o, o + x.size) for o, x in a.blocks)


def _values(a: L1ZSeq) -> Iterator[complex]:
    """Every stored coefficient, as Python complex, in the order of `_indices`."""
    return chain.from_iterable(x.tolist() for _, x in a.blocks)


def _runs(coeffs: Mapping[int, complex]) -> List[Block]:
    """The coefficients ``n -> c`` as pieces for `_merge`, each run of keys one dense array."""
    clean = {int(n): complex(c) for n, c in coeffs.items()}
    ns = sorted(clean)
    first = [i for i in range(len(ns)) if i == 0 or ns[i] - ns[i - 1] > _GAP + 1]
    return [(ns[i], np.array([clean.get(n, 0j) for n in range(ns[i], ns[j - 1] + 1)], complex))
            for i, j in zip(first, first[1:] + [len(ns)])]


def _merge(pieces: Sequence[Block], w: complex | None = None) -> Tuple[Block, ...]:
    """Canonical blocks of ``w`` times the sum of ``pieces`` ``(offset, values)``.

    Every element's blocks are built here, and this is the one finiteness
    check of their arrays.  All values are multiplied by ``w`` (``None``:
    by nothing) in one `_cmul`.  A lone piece is its own buffer, and is its
    own block when it holds no zero.  Several pieces go into one zeroed
    buffer: the clusters of pieces within ``_GAP`` of each other, in
    offset order, each followed by ``_GAP + 1`` zeros.  When no two pieces
    share a cluster nothing is summed: each piece is copied to its place,
    whatever order the pieces come in, so their signed zeros stay.  Else
    the pieces are added in the given order.  One scan then cuts blocks
    at runs of more than ``_GAP`` zeros, which also cuts between clusters.
    """
    if not pieces:
        return ()
    values = pieces[0][1] if len(pieces) == 1 else np.concatenate([x for _, x in pieces])
    if w is not None:
        values = _cmul(w, values)
    if len(pieces) == 1:
        starts, pos, buf = [pieces[0][0]], [0], values
    else:  # starts, pos: each cluster's first index and its place in buf
        starts, pos, place, end = [], [], [0] * len(pieces), 0
        for i in sorted(range(len(pieces)), key=lambda i: pieces[i][0]):
            o, x = pieces[i]
            if not starts or o - end > _GAP:  # a new cluster, _GAP + 1 zeros past the last
                pos.append(pos[-1] + end - starts[-1] + _GAP + 1 if starts else 0)
                starts.append(o)
                end = o
            end = max(end, o + x.size)
            place[i] = pos[-1] + o - starts[-1]
        buf = np.zeros(pos[-1] + end - starts[-1], dtype=complex)
        sizes = [x.size for _, x in pieces]  # shifts: place in buf less place in values
        at = np.repeat(np.subtract(place, list(accumulate(sizes[:-1], initial=0))), sizes)
        at += np.arange(values.size)
        if len(starts) < len(pieces):  # unbuffered: summed in the order of the pieces
            np.add.at(buf, at, values)
        else:
            buf[at] = values
    if np.count_nonzero(np.isfinite(buf)) != buf.size:
        raise InvalidInput("NaN coefficient" if np.isnan(buf).any() else "non-finite coefficient")
    if 0 < np.count_nonzero(buf) == buf.size:  # one cluster with no zero: one block
        buf.setflags(write=False)
        return ((starts[0], buf),)
    nz = (buf != 0).nonzero()[0]
    if nz.size == 0:
        return ()
    cut = (nz[1:] - nz[:-1] > _GAP + 1).nonzero()[0]
    first = [int(nz[0])] + nz[cut + 1].tolist()
    last = (nz[cut] + 1).tolist() + [int(nz[-1]) + 1]
    out = []
    for s, e in zip(first, last):
        c = bisect_right(pos, s) - 1
        x = buf[s:e].copy()
        x.setflags(write=False)
        out.append((starts[c] + s - pos[c], x))
    return tuple(out)


def _cmul(c: complex, x: np.ndarray) -> np.ndarray:
    """``c * x`` by elements, rounded as Python's complex product is."""
    out = np.empty_like(x)
    out.real = c.real * x.real - c.imag * x.imag
    out.imag = c.real * x.imag + c.imag * x.real
    return out


def zero() -> L1ZSeq:
    return L1ZSeq(())


def delta(n: int, c: complex = 1.0) -> L1ZSeq:
    """Single coefficient ``c`` at index ``n``; ``delta(0)`` is the unit."""
    return from_dense(int(n), [complex(c)])


def from_dense(lo: int, values: np.ndarray) -> L1ZSeq:
    """Element with coefficient ``values[k]`` at index ``lo + k`` (a copy)."""
    return L1ZSeq(_merge([(lo, np.array(values, dtype=complex))]))


def add(a: L1ZSeq, b: L1ZSeq) -> L1ZSeq:
    return L1ZSeq(_merge(a.blocks + b.blocks), cu_add(a.tail, b.tail))


def neg(a: L1ZSeq) -> L1ZSeq:
    return L1ZSeq(_merge([(o, -x) for o, x in a.blocks]), a.tail)


def sub(a: L1ZSeq, b: L1ZSeq) -> L1ZSeq:
    pieces = a.blocks + tuple((o, -x) for o, x in b.blocks)
    return L1ZSeq(_merge(pieces), cu_add(a.tail, b.tail))


def scale(c: complex, a: L1ZSeq) -> L1ZSeq:
    c = complex(c)
    # before _merge: cu_abs rejects a NaN (InvalidInput) or infinite (BoundOverflow) scalar
    tail = cu_mul(cu_abs(c), a.tail)
    return L1ZSeq(_merge(a.blocks, c), tail)


def shift(a: L1ZSeq, k: int) -> L1ZSeq:
    """Multiply by the degree-``k`` monomial: indices move by ``k``."""
    return L1ZSeq(tuple((o + k, x) for o, x in a.blocks), a.tail)


def convolve(a: L1ZSeq, b: L1ZSeq) -> L1ZSeq:
    """Convolution product: one ``np.convolve`` per pair of blocks, summed by offset.

    Tails combine by the subadditive cross bound.  The float product's
    distance from the true one is bounded by `conv_roundoff`.
    """
    tail = CU_ZERO
    if a.tail.value != 0.0 or b.tail.value != 0.0:
        tail = cu_cross(a.tail, norm_upper(a), b.tail, norm_upper(b))
    pieces = [(o + p, np.convolve(x, y)) for o, x in a.blocks for p, y in b.blocks]
    return L1ZSeq(_merge(pieces), tail)


def conv_roundoff(a: L1ZSeq, b: L1ZSeq) -> CertUpper:
    """Envelope for the deviation of ``convolve(a, b)`` from the true product.

    Within a pair of blocks of lengths ``m_a`` and ``m_b``, ``np.convolve``
    sums at most ``min(m_a, m_b)`` products into an output coefficient; the
    pieces of the ``P`` block pairs are then added one by one.  Each product
    so goes through at most ``max min(m_a, m_b) + P - 2`` additions; summed
    over all outputs the error stays below this bound.
    """
    dots = [min(x.size, y.size) for _, x in a.blocks for _, y in b.blocks]
    m = max(dots, default=0) + max(len(dots), 1) + 3
    return cu_mul(cu(4.0 * ULP * m), cu_mul(norm_upper(a), norm_upper(b)))


def weighted_sum(
    parts: Iterable[L1ZSeq], w: float = 1.0, extra: CertUpper = CU_ZERO
) -> L1ZSeq:
    """``w`` times the sum of ``parts``, accumulated into one element.

    The tail is ``|w|`` times the parts' tails plus ``extra``; ``w`` is a
    real double, so ``|w|`` is exact, and ``w = 1`` multiplies nothing.
    """
    pieces, tails = [], []
    for a in parts:
        pieces.extend(a.blocks)
        tails.append(a.tail)
    return L1ZSeq(_merge(pieces, None if w == 1.0 else complex(w)),
                  cu_add(cu_mul(cu(abs(w)), cu_sum(tails)), extra))


def _series_cut(
    t0: float, ny: float, step: Callable[[int], complex], tol: float, cap: int
) -> Tuple[int, float]:
    """Least ``K`` with ``T_(K+1) / (1 - q) <= tol``, and that remainder bound.

    ``T_0 = t0`` and ``T_k = |step(k)| ny T_(k-1)`` bound the term norms;
    ``q = |step(K+2)| ny`` bounds every later ratio when ``|step|`` does
    not increase, so the terms past ``K`` sum to at most ``T_(K+1) / (1 - q)``.
    """
    bound = t0
    for K in range(cap + 1):
        bound = _up(bound * ny * abs(step(K + 1)))  # T_(K+1)
        if bound <= tol:  # else the remainder, at least T_(K+1), is too
            q = _up(ny * abs(step(K + 2)))
            if q < 1.0:
                rem = _up(bound / (1.0 - q))
                if rem <= tol:
                    return K, rem
    raise ToleranceUnreachable("series remainder does not reach tol")


def power_series(
    first: L1ZSeq,
    y: L1ZSeq,
    ny: float,
    step: Callable[[int], complex],
    tol: float,
    cap: int,
) -> Tuple[L1ZSeq, int]:
    """Truncated series ``sum t_k``, ``t_0 = first``, ``t_k = step(k) (t_(k-1) * y)``.

    ``ny`` is a certified ``||y||`` (``norm_upper(y).value``), which the
    callers hold already.  ``|step(k)|`` must not increase with ``k``.  The
    series is cut at the least ``K <= cap`` whose certified remainder is at
    most ``tol`` (``_series_cut``); that remainder and the terms' tails go
    into the tail of the result.  Returns the result and the term count
    ``K + 1``.
    """
    K, rem = _series_cut(norm_upper(first).value, ny, step, tol, cap)
    return weighted_sum(series_terms(first, y, step, K), extra=cu(rem)), K + 1


def series_terms(
    first: L1ZSeq, y: L1ZSeq, step: Callable[[int], complex], K: int
) -> Iterator[L1ZSeq]:
    """The terms ``t_0 = first``, ``t_k = step(k) (t_(k-1) * y)`` for ``k <= K``: K products."""
    t = first
    yield t
    for k in range(1, K + 1):
        t = scale(step(k), convolve(t, y))
        yield t


def norm_upper(a: L1ZSeq) -> CertUpper:
    """Certified one-norm bound: coefficient mass plus tail."""
    return cu_add(cu_sum_abs(_values(a)), a.tail)


def eval_circle(a: L1ZSeq, lam: complex) -> Tuple[complex, CertUpper]:
    """Evaluate the series at a point of the unit circle.

    Returns the finite-part value and an error bound covering the
    unrepresented tail (``|r(lam)| <= ||r||_1``).  A power that overflows
    (``|lam|`` may exceed 1 by ``_CIRCLE_TOL``) or a value that is not
    finite raises `BoundOverflow`.
    """
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= _CIRCLE_TOL:  # written so that NaN fails
        raise InvalidInput("not on circle")
    v = 0j
    try:
        for n, c in a.coeffs.items():
            v += c * lam ** n
    except OverflowError:
        raise BoundOverflow("power overflow") from None
    if not np.isfinite(v):
        raise BoundOverflow("value overflow")
    return v, a.tail


def eval_roundoff_bound(a: L1ZSeq) -> float:
    """Floating-point error envelope for `eval_circle` on the unit circle.

    Power-by-squaring of a unit complex number after ``|n|`` effective
    multiplies plus the accumulation sum stay well inside
    ``8 * (max|n| + m + 2) * ulp * sum|a_n|``; generous by design.  A
    modulus beyond the largest double raises `BoundOverflow`; a sum that
    overflows gives ``inf``.
    """
    lo, hi = a.support()  # (0, 0) for the zero element, whose mass is 0
    radius = max(abs(lo), abs(hi))
    try:
        mass = sum(map(abs, _values(a)))  # a zero adds an exact 0.0
    except OverflowError:
        raise BoundOverflow("bound overflow") from None
    return 8.0 * ULP * (radius + sum(int(np.count_nonzero(x)) for _, x in a.blocks) + 2) * mass


def circle_lipschitz_upper(a: L1ZSeq) -> CertUpper:
    """Bound L with ``|a(lam) - a(mu)| <= L |lam - mu|`` on the circle.

    Needs finite support: a nonzero tail has no known index radius, so
    no Lipschitz constant can be certified for it.
    """
    if a.tail.value != 0.0:
        raise InvalidInput("lipschitz unavailable for infinite tail")
    # per term: |n| to a float, |c| (hypot) and the product, 4; the fsum, 1
    return cu_from_float_sum(_fsum(map(mul, map(abs, _indices(a)), map(abs, _values(a)))), 5)


def fold(a: L1ZSeq, n: int) -> Tuple[np.ndarray, float]:
    """``a``'s coefficients summed by index mod ``n``, and a bound on that sum's rounding.

    At most ``ceil(span / n)`` coefficients share a residue, so each sum
    rounds at most ``ceil(span / n) - 1`` times, each within ``ULP`` of the
    mass.  A block's offset is folded as a Python int, so any index folds
    exactly.  A mass beyond the largest double gives a bound that is not
    finite, without a warning.
    """
    c = np.concatenate([x for _, x in a.blocks] or [np.zeros(0, dtype=complex)])
    j = np.concatenate([np.arange(o % n, o % n + x.size) for o, x in a.blocks]
                       or [np.arange(0)]) % n
    x = np.empty(n, dtype=complex)
    x.real = np.bincount(j, weights=c.real, minlength=n)
    x.imag = np.bincount(j, weights=c.imag, minlength=n)
    lo, hi = a.support()
    return x, (-((lo - hi - 1) // n) - 1) * ULP * a._abs_sum


# ---------------------------------------------------------------------------
# JSON element format


def to_jsonable(a: L1ZSeq) -> dict:
    return {
        "coeffs": [{"n": n, "re": c.real, "im": c.imag}
                   for n, c in zip(_indices(a), _values(a)) if c],
        "tail": a.tail.value,
    }


def from_jsonable(obj: dict) -> L1ZSeq:
    try:
        coeffs = {}
        for entry in obj["coeffs"]:
            n = int(entry["n"])
            float(n)  # an index beyond a float's range is an OverflowError here
            if n in coeffs:
                raise InvalidInput("duplicate index %d" % n)
            coeffs[n] = complex(float(entry["re"]), float(entry["im"]))
        tail = CertUpper(float(obj.get("tail", 0.0)))
        return L1ZSeq(coeffs, tail)
    except (KeyError, TypeError, ValueError, OverflowError, BoundOverflow) as exc:
        raise InvalidInput("malformed sequence JSON: %s" % exc) from exc


def dumps(a: L1ZSeq) -> str:
    return json.dumps(to_jsonable(a))


def loads(text: str) -> L1ZSeq:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput("invalid JSON: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise InvalidInput("expected a JSON object")
    return from_jsonable(obj)

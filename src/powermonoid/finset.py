"""Exact arithmetic on finite sets of integers.

The basic object is :class:`FinSet`, an immutable sorted set of integers in
the signed 64-bit range.  Sets combine under the Minkowski sum
``X + Y = {x + y : x in X, y in Y}``, the product of the power monoid the
rest of the package studies.  Two independent implementations of the sum are
kept side by side on purpose: :func:`sumset` is the fast path used
everywhere, :func:`sumset_naive` is the pairwise reference oracle the test
suite checks it against, and ``sumset`` never calls it.

``sumset`` chooses per call, by estimated work, between three routes: a
dense route (a shift-or over a bigint mask), a hashed route (a set of
pairwise sums, then a sort) and a runs route (the union of the interval
sums of the operands' maximal runs).  Each is costed in units of one bit
of a shift-or: the dense route by the span and the mask widths, the hashed
route by the pairs, the runs route by the pairs of runs.  Runs are found
by galloping and bisection, and only when the cheaper of the other two
estimates is large enough to repay the count, which gives up as soon as
the pairs of runs found so far price the runs route above that estimate.
:func:`kfold` folds a set that is one run, [a, b], to [k*a, k*b] with no
sum, since [a, b] + [c, d] = [a + c, b + d], and any other set by
doubling.  Every step of the dense route runs
in linear time at C speed: the mask is encoded by flagging a
``bytearray`` and reading it with ``int(..., 2)``, and decoded by
compressing a ``range`` with the bytes of ``bin(mask)``.  Results that
are already sorted and distinct skip validation through a trusted
constructor that range-checks only the two ends.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterable, Iterator
from itertools import chain, compress, repeat, zip_longest

# Magnitude cap standing in for a native signed 64-bit width; results that
# would leave the range raise OverflowError instead of wrapping.
MAX_ELEMENT = 2**63 - 1

# parse_set refuses LO..HI shorthand of more elements than this before
# building it; interval itself takes any size
MAX_SHORTHAND = 10**6

# The sumset route choice, by estimated work in units of one bit of a
# shift-or.  The dense route costs _SETUP_BITS once, _CODEC_BITS per bit of
# the sum's span for encoding and decoding, and per shifted copy the mask's
# width plus _LOOP_BITS of loop overhead; the hashed route costs _PAIR_BITS
# per pair.  Fitted to timings of both routes from 1x1 to 10^4x10^4
# elements and spans from 5 to 10^7 (CPython 3.11).
_SETUP_BITS = 3 << 17
_CODEC_BITS = 2048
_LOOP_BITS = 8192
_PAIR_BITS = 8192
# The runs route costs _INTERVAL_BITS per interval sum, one for each pair of
# runs, so it wins just when r_x * r_y * _INTERVAL_BITS < min(dense, pairs).
# Runs are counted only when that minimum reaches _RUNS_MIN_BITS, about a
# span of 4096 for the dense route or 1024 pairs for the hashed one.  The
# two operands are counted in lockstep, and the count gives up as soon as
# the runs found so far break that bound.  So a count that fails has found
# about 2 * sqrt(min(dense, pairs) / _INTERVAL_BITS) runs, and one that
# succeeds at most one run per interval sum the route then makes; a run
# costs about 2 * log2 of its length in probes.  Either way the count is a
# small share of whichever route answers.  Fitted like the constants above,
# to timings of all three routes on 160 seeded pairs of unions of 1 to 64
# runs of 1 to 10^4 elements: the routes chosen took 1.2% more in total
# than the fastest ones.  Checked again on 320 seeded pairs near the runs
# route's crossover, of up to about 2000 runs an operand and 3.4e6 pairs of
# runs: 3.1% more, against 2.6% for the best of the values from 2^13 to
# 2^15 tried.
_INTERVAL_BITS = 1 << 14
_RUNS_MIN_BITS = 1 << 23

_INT_ONLY = {int}
_ONE = ord("1")
_BITS_TO_FLAGS = bytes.maketrans(b"01", b"\0\1")


class FinSet:
    """Immutable nonempty finite set of integers, stored sorted.

    Supports ``+`` as the Minkowski sum, iteration in ascending order,
    ``in``, ``len``, equality and hashing by element sequence.
    """

    __slots__ = ("_elems",)

    def __init__(self, values: Iterable[int]):
        if not isinstance(values, (list, tuple)):
            values = list(values)
        # exact ints only: a bool or a float would hash equal to an int and
        # vanish into the set before the per-element check could refuse it
        if set(map(type, values)) == _INT_ONLY:
            elems = sorted(set(values))
            if -MAX_ELEMENT <= elems[0] and elems[-1] <= MAX_ELEMENT:
                self._elems = tuple(elems)
                return
        seen = set()
        for v in values:
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"set elements must be integers, got {v!r}")
            if v > MAX_ELEMENT or v < -MAX_ELEMENT:
                raise OverflowError(f"element {v} outside the supported integer range")
            seen.add(v)
        if not seen:
            raise ValueError("empty set is not an element of the power monoid")
        self._elems = tuple(sorted(seen))

    @classmethod
    def _from_sorted(cls, elems: tuple[int, ...]) -> "FinSet":
        """Trusted constructor: elems is a nonempty ascending tuple of distinct ints.

        Builds an instance of the class it is called on, so a subclass's
        own invariant, such as a ZeroSet's 0, is the caller's to vouch for.
        Only the two ends are checked against the range, so a sum that
        leaves it still raises OverflowError, naming the same element the
        ascending per-element check would.
        """
        if elems[0] < -MAX_ELEMENT:
            raise OverflowError(f"element {elems[0]} outside the supported integer range")
        if elems[-1] > MAX_ELEMENT:
            v = elems[bisect_right(elems, MAX_ELEMENT)]
            raise OverflowError(f"element {v} outside the supported integer range")
        obj = object.__new__(cls)
        obj._elems = elems
        return obj

    @property
    def elems(self) -> tuple[int, ...]:
        return self._elems

    @property
    def min(self) -> int:
        return self._elems[0]

    @property
    def max(self) -> int:
        return self._elems[-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self._elems)

    def __len__(self) -> int:
        return len(self._elems)

    def __contains__(self, v: object) -> bool:
        elems = self._elems
        try:
            i = bisect_left(elems, v)
        except TypeError:
            return v in elems
        return i < len(elems) and elems[i] == v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinSet):
            return NotImplemented
        return self._elems == other._elems

    def __hash__(self) -> int:
        return hash(self._elems)

    def __add__(self, other: object) -> "FinSet":
        if not isinstance(other, FinSet):
            return NotImplemented
        return sumset(self, other)

    def __str__(self) -> str:
        return format_set(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_set(self)})"


def make_set(values: Iterable[int]) -> FinSet:
    """Build a :class:`FinSet` from any iterable of integers."""
    return FinSet(values)


def interval(lo: int, hi: int) -> FinSet:
    """The discrete interval {lo, lo+1, ..., hi}; lo > hi is an error.

    Both ends must be ints, not bools: anything else raises TypeError.
    """
    for end in (lo, hi):
        if isinstance(end, bool) or not isinstance(end, int):
            raise TypeError(f"interval ends must be integers, got {end!r}")
    if lo > hi:
        raise ValueError(f"empty interval [{lo},{hi}]")
    # refuse before building, naming the element the ascending check would
    if lo < -MAX_ELEMENT:
        raise OverflowError(f"element {lo} outside the supported integer range")
    if hi > MAX_ELEMENT:
        first = max(lo, MAX_ELEMENT + 1)
        raise OverflowError(f"element {first} outside the supported integer range")
    return FinSet._from_sorted(tuple(range(lo, hi + 1)))


def bounds(x: FinSet) -> tuple[int, int]:
    return (x.min, x.max)


def translate(x: FinSet, t: int) -> FinSet:
    """x + t elementwise."""
    if type(t) is int and -MAX_ELEMENT <= x.min + t and x.max + t <= MAX_ELEMENT:
        return FinSet._from_sorted(tuple(map(t.__add__, x.elems)))
    # a bool would shift as 0 or 1; the validating constructor raises as for
    # any other input
    if isinstance(t, bool):
        raise TypeError(f"shift must be an integer, got {t!r}")
    return FinSet(v + t for v in x)


def reflect(x: FinSet, t: int) -> FinSet:
    """t - x elementwise (reflection through t/2)."""
    if type(t) is int and -MAX_ELEMENT <= t - x.max and t - x.min <= MAX_ELEMENT:
        return FinSet._from_sorted(tuple(map(t.__sub__, reversed(x.elems))))
    if isinstance(t, bool):
        raise TypeError(f"reflection offset must be an integer, got {t!r}")
    return FinSet(t - v for v in x)


def sumset_naive(x: FinSet, y: FinSet) -> FinSet:
    """Minkowski sum by direct pairwise enumeration.  Reference oracle."""
    return FinSet({a + b for a in x for b in y})


def _bit_mask(elems: tuple[int, ...]) -> int:
    # bit i set  <=>  elems[0] + i in elems
    base = elems[0]
    flags = bytearray(b"0") * (elems[-1] - base + 1)
    deque(map(flags.__setitem__, map(base.__rsub__, elems), repeat(_ONE)), 0)
    flags.reverse()
    return int(flags, 2)


def _from_mask(mask: int, base: int) -> FinSet:
    flags = bin(mask)[:1:-1].encode().translate(_BITS_TO_FLAGS)
    return FinSet._from_sorted(tuple(compress(range(base, base + len(flags)), flags)))


def _shift_or(mask: int, width: int, offsets: tuple[int, ...]) -> int:
    """OR of mask << (d - offsets[0]) over the ascending offsets d.

    mask is width bits wide.  Copies whose shifts lie within one width of
    each other are gathered into a partial result at most twice that wide,
    and each partial is shifted into the accumulator once, so the
    accumulator is touched once per block instead of once per offset.
    """
    acc = part = 0
    start = base = offsets[0]
    for d in offsets:
        if d - start >= width:
            acc |= part << (start - base)
            part = 0
            start = d
        part |= mask << (d - start)
    return acc | part << (start - base)


def _iter_runs(elems: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """The maximal runs of elems as ascending (lo, hi) pairs, found lazily.

    For distinct ascending ints elems[j] - elems[i] >= j - i, with equality
    just when elems[i..j] is one run, so elems[j] - j is nondecreasing.  Each
    run's end is found by galloping from its start, probing 1, 3, 7, ...
    places on, then bisecting on that key in the last gap: about
    2*log2(len) probes for a run of len elements, one for a lone element.
    """
    i, n = 0, len(elems)
    while i < n:
        key = elems[i] - i
        lo, step = i, 1
        while lo + step < n and elems[lo + step] - (lo + step) == key:
            lo += step
            step <<= 1
        hi = min(lo + step, n)
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if elems[mid] - mid == key:
                lo = mid
            else:
                hi = mid
        yield elems[i], elems[lo]
        i = lo + 1


def _runs(xs: tuple[int, ...], ys: tuple[int, ...],
          limit: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """The maximal runs of xs and of ys; None once there are limit pairs of runs.

    The two are counted in lockstep, one run of each at a time, and the count
    gives up as soon as the runs found so far make len(rx) * len(ry) >= limit
    pairs.  So a count that fails stops after about 2*sqrt(limit) runs when
    both operands have that many, not after every run of the longer one.
    """
    rx, ry = [], []
    for run_x, run_y in zip_longest(_iter_runs(xs), _iter_runs(ys)):
        if run_x:
            rx.append(run_x)
        if run_y:
            ry.append(run_y)
        if len(rx) * len(ry) >= limit:
            return None
    return rx, ry


def _sum_of_runs(rx: list[tuple[int, int]], ry: list[tuple[int, int]]) -> tuple[int, ...]:
    """The ascending elements of the union of every run of rx plus every run of ry.

    Each [a, b] + [c, d] is the interval [a + c, b + d]; sorted by their
    starts, intervals that overlap or touch merge into one range.
    """
    sums = sorted([(a + c, b + d) for a, b in rx for c, d in ry])
    parts = []
    lo, hi = sums[0]
    for a, b in sums:
        if a > hi + 1:
            parts.append(range(lo, hi + 1))
            lo = a
        if b > hi:
            hi = b
    parts.append(range(lo, hi + 1))
    return tuple(chain.from_iterable(parts))


def sumset(x: FinSet, y: FinSet) -> FinSet:
    """Minkowski sum x + y, by whichever of three routes costs least.

    The dense route holds one operand as a bit vector anchored at its
    minimum; the sum is the union of one shifted copy per element of the
    other, each copy one shift and the union bitwise or.  It costs a codec
    pass over the span of the sum plus, per shifted copy, the width of the
    mask.  The hashed route adds every pair into a set and sorts the
    result; its cost grows with |x| * |y| whatever the span, so
    {0, 2**40} + {0, 2**41} never allocates a 2**41-bit mask.  The runs
    route splits both operands into maximal runs and takes the union of
    the r_x * r_y interval sums, one per pair of runs; its cost grows with
    r_x * r_y, not with the elements or the span, so the sum of two
    intervals of 10**6 costs one interval and the output.  Runs are
    counted only when the other two routes are both estimated dear, and
    the count gives up as soon as the runs found so far make the runs
    route dearer than the cheaper of them; see the constants.
    """
    xs, ys = x._elems, y._elems
    lo = xs[0] + ys[0]
    span = xs[-1] + ys[-1] - lo + 1
    nx, ny = len(xs), len(ys)
    wx, wy = xs[-1] - xs[0] + 1, ys[-1] - ys[0] + 1
    # shift the mask of xs once per element of ys, whichever way costs less
    if ny * (wx + _LOOP_BITS) > nx * (wy + _LOOP_BITS):
        xs, ys, nx, ny, wx = ys, xs, ny, nx, wy
    dense = _SETUP_BITS + span * _CODEC_BITS + ny * (wx + _LOOP_BITS)
    pairs = _PAIR_BITS * nx * ny
    if dense >= _RUNS_MIN_BITS and pairs >= _RUNS_MIN_BITS:
        # the runs route wins just when r_x * r_y * _INTERVAL_BITS < min(dense,
        # pairs), that is when r_x * r_y is below this ceiling quotient
        runs = _runs(xs, ys, -(-min(dense, pairs) // _INTERVAL_BITS))
        if runs:
            return FinSet._from_sorted(_sum_of_runs(*runs))
    if dense <= pairs:
        return _from_mask(_shift_or(_bit_mask(xs), wx, ys), lo)
    if nx < ny:
        xs, ys = ys, xs
    out = set()
    for b in ys:
        out.update(map(b.__add__, xs))
    return FinSet._from_sorted(tuple(sorted(out)))


def kfold(x: FinSet, k: int) -> FinSet:
    """k-fold sumset x + x + ... + x; the empty fold (k = 0) is {0}.

    k must be an int, not a bool: anything else raises TypeError.

    Folds by doubling, after dividing out d, the gcd of x - min x.  With
    m = min x and d > 0, x is the image of y = (x - m) / d under
    v -> m + d*v, and a sum of k elements of x is
    (m + d*a_1) + ... + (m + d*a_k) = k*m + d*(a_1 + ... + a_k), the image
    of a sum of k elements of y under v -> k*m + d*v.  So
    kfold(x, k) = k*m + d*kfold(y, k), elementwise, at every k >= 0, and the
    map is increasing, so it keeps the order.  y has gcd 1, so its folds
    fill their span but for bounded fringes at both ends (Nathanson, "Sums
    of finite sets of integers", 1972) and keep few runs: {0,2} folds as
    {0,1} does.  Only a fold wide enough for the runs route to answer its
    doublings is rescaled; narrower folds are cheap on any route.  A set
    that is one run, as given or once rescaled, folds in one step with no
    sum (see _fold).
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"fold count must be an integer, got {k!r}")
    if k < 0:
        raise ValueError("fold count must be nonnegative")
    m = x.min
    if k * (x.max - m) * _CODEC_BITS >= _RUNS_MIN_BITS:
        # imported here, so that a process that folds nothing this wide,
        # such as every `sum`, never loads math
        from math import gcd

        d = gcd(*map(m.__rsub__, x.elems))
        if d > 1:
            y = FinSet._from_sorted(tuple([(v - m) // d for v in x.elems]))
            t = k * m
            return FinSet._from_sorted(tuple([t + d * v for v in _fold(y, k).elems]))
    return _fold(x, k)


def _fold(x: FinSet, k: int) -> FinSet:
    """kfold with no rescale: one step for a run, doubling for any other set.

    A run [a, b] folds to [k*a, k*b] with no sum at all: [a, b] + [c, d] is
    [a + c, b + d], so by induction k-1 sums of [a, b] make [k*a, k*b], and
    k = 0 gives {0} = [0, 0].  interval checks both ends before it builds,
    so a fold that leaves the range allocates nothing.  Doubling takes one
    sum per bit of k, and one more per set bit.
    """
    if len(x) == x.max - x.min + 1:
        return interval(k * x.min, k * x.max)
    acc = FinSet((0,))
    base = x
    while k:
        if k & 1:
            acc = sumset(acc, base)
        k >>= 1
        if k:
            base = sumset(base, base)
    return acc


def format_set(x: FinSet) -> str:
    """Canonical literal: ascending, comma-separated, no spaces."""
    return "{" + ",".join(str(v) for v in x) + "}"


def parse_set(text: str) -> FinSet:
    """Parse a set literal ``{1,2,3}`` or interval shorthand ``LO..HI``.

    Raises ValueError naming the offending token on malformed input, and
    naming the span on shorthand of more than MAX_SHORTHAND elements.
    """
    s = text.strip()
    if s.startswith("{"):
        if not s.endswith("}"):
            raise ValueError(f"unterminated set literal {text!r}")
        body = s[1:-1]
        if not body.strip():
            raise ValueError("empty set literal {}")
        elems = []
        for tok in body.split(","):
            tok = tok.strip()
            if not tok:
                raise ValueError(f"empty element in set literal {text!r}")
            try:
                elems.append(int(tok))
            except ValueError:
                raise ValueError(f"bad integer {tok!r} in set literal") from None
        return FinSet(elems)
    if ".." in s:
        ends = []
        for tok in s.partition("..")[::2]:
            try:
                ends.append(int(tok.strip()))
            except ValueError:
                raise ValueError(f"bad integer {tok.strip()!r} in interval shorthand") from None
        lo, hi = ends
        if hi - lo >= MAX_SHORTHAND:
            raise ValueError(f"interval shorthand {lo}..{hi} spans {hi - lo + 1} elements, "
                             f"above the cap of {MAX_SHORTHAND}")
        return interval(lo, hi)
    raise ValueError(f"expected a set literal or LO..HI interval, got {text!r}")


class _Record:
    """Base of the package's read-only value records.

    A subclass names its fields in ``__slots__`` and passes their values,
    in that order, to this ``__init__``.  Records of one type compare and
    hash field by field, repr as ``Name(field=value, ...)``, match by
    position in ``case`` patterns and refuse assignment with
    ``AttributeError``, as frozen dataclasses do, without importing
    ``dataclasses`` and, through it, ``inspect``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__}() takes {len(self.__slots__)} values, "
                            f"got {len(values)}")
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is refused
        return type(self), self._values()

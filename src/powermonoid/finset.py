"""Exact arithmetic on finite sets of integers.

The basic object is :class:`FinSet`, an immutable sorted set of integers in
the signed 64-bit range.  Sets combine under the Minkowski sum
``X + Y = {x + y : x in X, y in Y}``, the product of the power monoid the
rest of the package studies.  Two independent implementations of the sum are
kept side by side on purpose: :func:`sumset` is the fast path used
everywhere, :func:`sumset_naive` is the pairwise reference oracle the test
suite checks it against, and ``sumset`` never calls it.

``sumset`` chooses per call, by estimated work, between four routes: a
dense route (a shift-or over a bigint mask), a Decimal route (one product
of the operands packed into decimal digits, by Kronecker substitution), a
hashed route (a set of pairwise sums, then a sort) and a runs route (the
union of the interval sums of the operands' maximal runs).  Each is costed
in units of one bit of a shift-or: the dense route by the span and the
mask widths, the Decimal route by the span and the digits a slot, the
hashed route by the pairs, the runs route by the pairs of runs.  The
shift-or gathers its copies in blocks of a quarter of the mask's width,
or of 1024 bits for narrower masks, so each copy of a wide mask touches a
partial of at most 1.25 widths.  The Decimal route is taken only where
the C ``decimal`` module is there, and the ``sumset`` docstring proves
that no slot of its product carries.  Runs are found by galloping and
bisection, and only when the cheapest of the other estimates is large
enough to repay the count, which gives up as soon as the pairs of runs
found so far price the runs route above that estimate.
:func:`kfold` folds an arithmetic progression m + d*[0, L] to
k*m + d*[0, k*L] with no sum, and any other set by doubling, once it is
divided by the gcd d of x - min x.  The codecs of the dense and Decimal
routes run in linear time at C speed: an operand is encoded by flagging a
``bytearray``, read with ``int(..., 2)`` as a mask or spread to one flag a
slot for ``Decimal``, and a sum is decoded by compressing a ``range`` with
the bytes of ``bin(mask)``, or with every k-th digit of ``str()``.
Results that are already sorted and distinct skip validation through a
trusted constructor that range-checks only the two ends.

Every entry point takes exact integers by one rule: a bool, which would
act as 0 or 1, and anything that is not an int raise TypeError, and an int
subclass is stored as the int it equals, so a set formats and parses back
as itself.  A result that leaves the range raises OverflowError.  The
builders whose results come out sorted (the sums, :func:`kfold`,
:func:`interval`, :func:`translate`, :func:`reflect` and
``boxing.from_runs``) name its least element past the range.  The
constructor takes its values in any order and names the first bad value
in that order instead.
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
# The Decimal route costs what the dense route does but for the shifted
# copies, and in their place a second _SETUP_BITS and _DIGIT_BITS per
# decimal digit of its product, k digits for each integer of the sum's
# span.  Fitted to timings of both routes on 72 seeded pairs of 50 to 64000
# elements at densities 1/64 to 1/1.1: the routes chosen took 0.2% more in
# total than the faster ones, the worst pair 9% more; on 72 more pairs of
# another seed, 0.1% more.  The second setup is the route's measured fixed
# cost, 5-6 us above the shift-or's on sums of 3 to 30 elements, at about
# 10 ps a bit.
_DIGIT_BITS = 1792
# _shift_or gathers copies in blocks of a quarter of the mask's width, but
# never less than _BLOCK_BITS.
_BLOCK_BITS = 1 << 10

_INT_ONLY = {int}
_ONE = ord("1")
# a digit of a mask's bin() or of a Decimal's str() to its flag: 0 or not
_NONZERO = bytes.maketrans(b"0123456789", b"\0" + b"\1" * 9)


def _as_int(value, what: str) -> int:
    """value as an exact int; a bool or any non-int raises TypeError (see the module docstring)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what}, got {value!r}")
    return int(value)


class FinSet:
    """Immutable nonempty finite set of integers, stored sorted.

    Supports ``+`` as the Minkowski sum, iteration in ascending order,
    ``in``, ``len``, equality and hashing by element sequence.
    """

    __slots__ = ("_elems",)

    def __init__(self, values: Iterable[int]):
        if not isinstance(values, (list, tuple)):
            if isinstance(values, FinSet):
                # already validated and sorted: share its tuple
                self._elems = values._elems
                return
            values = list(values)
        # exact ints only: a bool or a float would hash equal to an int and
        # vanish into the set before the per-element check could refuse it,
        # and an int subclass would be stored as itself, not as an int
        if set(map(type, values)) == _INT_ONLY:
            elems = sorted(set(values))
            if -MAX_ELEMENT <= elems[0] and elems[-1] <= MAX_ELEMENT:
                self._elems = tuple(elems)
                return
        seen = set()
        for v in values:
            v = _as_int(v, "set elements must be integers")
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

    Both ends must be ints, not bools: anything else raises TypeError.  An
    interval that leaves the range is refused before it is built, by the
    rule of _progression with d = 1: it names lo when lo is out of range,
    and MAX_ELEMENT + 1 otherwise.
    """
    lo, hi = (_as_int(end, "interval ends must be integers") for end in (lo, hi))
    if lo > hi:
        raise ValueError(f"empty interval [{lo},{hi}]")
    return _progression(lo, hi, 1)


def _progression(lo: int, hi: int, d: int) -> FinSet:
    """The progression {lo, lo+d, ..., hi}, for lo <= hi and d >= 1 dividing hi - lo.

    One that leaves the range is refused before it is built, naming the
    element the ascending check would, its least one out of range.  That
    is lo when lo is out of range: below it, lo is the least element, and
    above it, every element is.  Otherwise no element lies below the
    range, and one lies above it just when hi > MAX_ELEMENT.  The least
    such is lo + d*j for the least j with lo + d*j >= MAX_ELEMENT + 1,
    which is j = ceil((MAX_ELEMENT + 1 - lo) / d), and it is an element,
    since j <= (hi - lo) / d.
    """
    if lo < -MAX_ELEMENT or hi > MAX_ELEMENT:
        past = lo if abs(lo) > MAX_ELEMENT else lo - (lo - MAX_ELEMENT - 1) // d * d
        raise OverflowError(f"element {past} outside the supported integer range")
    return FinSet._from_sorted(tuple(range(lo, hi + 1, d)))


def bounds(x: FinSet) -> tuple[int, int]:
    return (x.min, x.max)


def translate(x: FinSet, t: int) -> FinSet:
    """x + t elementwise; a result that leaves the range names its least element past it."""
    t = _as_int(t, "shift must be an integer")
    return FinSet._from_sorted(tuple(map(t.__add__, x.elems)))


def reflect(x: FinSet, t: int) -> FinSet:
    """t - x elementwise (reflection through t/2), refused as translate refuses."""
    t = _as_int(t, "reflection offset must be an integer")
    return FinSet._from_sorted(tuple(map(t.__sub__, reversed(x.elems))))


def sumset_naive(x: FinSet, y: FinSet) -> FinSet:
    """Minkowski sum by direct pairwise enumeration.  Reference oracle."""
    return FinSet({a + b for a in x for b in y})


def _flags(elems: tuple[int, ...]) -> bytearray:
    # one b"1" or b"0" per integer from elems[-1] down to elems[0], the
    # highest first: the binary digits of the mask, bit i for elems[0] + i
    base = elems[0]
    flags = bytearray(b"0") * (elems[-1] - base + 1)
    deque(map(flags.__setitem__, map(base.__rsub__, elems), repeat(_ONE)), 0)
    flags.reverse()
    return flags


def _from_flags(flags: bytes, base: int) -> FinSet:
    # flags[i] is nonzero  <=>  base + i is an element
    return FinSet._from_sorted(tuple(compress(range(base, base + len(flags)), flags)))


def _shift_or(mask: int, width: int, offsets: tuple[int, ...]) -> int:
    """OR of mask << (d - offsets[0]) over the ascending offsets d.

    mask is width bits wide.  Copies whose shifts lie within one block of
    each other are gathered into a partial result, and each partial is
    shifted into the accumulator once, so the accumulator is touched once
    per block instead of once per offset.  A block is a quarter of the
    width, but never less than _BLOCK_BITS.  So each copy of a mask at
    least 4 * _BLOCK_BITS wide touches a partial at most 1.25 widths wide,
    where blocks of a whole width would let it reach two, and a sum whose
    offsets span less than _BLOCK_BITS keeps one partial.
    """
    block = max(width >> 2, _BLOCK_BITS)
    acc = part = 0
    start = base = offsets[0]
    for d in offsets:
        if d - start >= block:
            acc |= part << (start - base)
            part = 0
            start = d
        part |= mask << (d - start)
    return acc | part << (start - base)


def _slot_digits(m: int) -> int:
    """The least k with 9 * 10**(k-1) >= m: the digits a slot needs in _slot_sum."""
    k = 1
    while 9 * 10 ** (k - 1) < m:
        k += 1
    return k


def _slot_sum(xs: tuple[int, ...], ys: tuple[int, ...], k: int) -> bytes | None:
    """The flags of xs + ys from one Decimal product, k digits a slot.

    Byte i is nonzero just when xs[0] + ys[0] + i is a sum; sumset proves
    it for k = _slot_digits(min(len(xs), len(ys))).  Returns None, and the
    caller shifts and ORs instead, when _decimal, the C accelerator that
    decimal re-exports, is missing: the pure-Python fallback multiplies in
    quadratic time.  _decimal is imported here, so a process that makes no
    such sum never loads it.
    """
    try:
        from _decimal import MAX_EMAX, MAX_PREC, Context, Decimal
    except ImportError:
        return None

    def packed(elems):
        # each mask digit becomes the last of a slot of k zeros
        flags = _flags(elems)
        digits = bytearray(b"0") * (len(flags) * k)
        digits[k - 1::k] = flags
        return Decimal(digits.decode())

    span = xs[-1] + ys[-1] - xs[0] - ys[0] + 1
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX)
    product = exact.multiply(packed(xs), packed(ys))
    lifted = exact.add(product, Decimal(("0" + "9" * (k - 1)) * span))
    return str(lifted)[-k::-k].encode().translate(_NONZERO)


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
    """Minkowski sum x + y, by whichever of four routes costs least.

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
    counted only when the other routes are all estimated dear, and the
    count gives up as soon as the runs found so far make the runs route
    dearer than the cheapest of them; see the constants.

    The Decimal route replaces the dense route's shifted copies with one
    multiplication, by Kronecker substitution.  Let P_x(t) be the sum of
    t**(a - min x) over a in x.  The coefficient of t**i in P_x * P_y is
    r_i, the number of pairs (a, b) with a + b = min x + min y + i, so the
    sum holds min x + min y + i just when r_i > 0.  Each operand is packed
    into a Decimal at t = 10**k, so slot i is digits k*i .. k*i + k - 1;
    the C decimal module multiplies numbers this large by a
    number-theoretic transform.  To the product is added the constant
    with 10**(k-1) - 1 in every slot of the sum's span.

    No slot carries.  In a pair (a, b) counted in r_i, a fixes b and b
    fixes a, so r_i <= min(|x|, |y|) <= 9 * 10**(k-1), by the choice of k
    in _slot_digits.  So slot i holds
    r_i + 10**(k-1) - 1 <= 10**k - 1, which fits its k digits, and the
    product plus the constant is the sum of those slot values times
    10**(k*i), digit for digit.  The top digit of slot i is therefore
    (r_i + 10**(k-1) - 1) // 10**(k-1), which is nonzero just when r_i >= 1.
    The sum's top slot has r >= 1, so str() of the result has k digits a
    slot, and reading every k-th digit from the k-th last reads the top
    digits of slots 0, 1, 2, ... in order.

    The route is priced like the dense route, with the product's digits in
    place of the shifted copies (see the constants).  It is taken when that
    is cheaper and the C module is there; see _slot_sum.  Without the
    module its price still bounds the run count, which may then give up
    on a sum the shift-or answers more slowly than the runs route would;
    the sum is the same either way.
    """
    xs, ys = x._elems, y._elems
    lo = xs[0] + ys[0]
    span = xs[-1] + ys[-1] - lo + 1
    nx, ny = len(xs), len(ys)
    wx, wy = xs[-1] - xs[0] + 1, ys[-1] - ys[0] + 1
    # shift the mask of xs once per element of ys, whichever way costs less
    if ny * (wx + _LOOP_BITS) > nx * (wy + _LOOP_BITS):
        xs, ys, nx, ny, wx = ys, xs, ny, nx, wy
    copies = ny * (wx + _LOOP_BITS)
    # a slot takes at least one digit, so k is found only when one digit a
    # slot would undercut the copies
    k, digits = 0, copies
    if _SETUP_BITS + span * _DIGIT_BITS < copies:
        k = _slot_digits(min(nx, ny))
        digits = _SETUP_BITS + k * span * _DIGIT_BITS
    dense = _SETUP_BITS + span * _CODEC_BITS + min(copies, digits)
    pairs = _PAIR_BITS * nx * ny
    if dense >= _RUNS_MIN_BITS and pairs >= _RUNS_MIN_BITS:
        # the runs route wins just when r_x * r_y * _INTERVAL_BITS < min(dense,
        # pairs), that is when r_x * r_y is below this ceiling quotient
        runs = _runs(xs, ys, -(-min(dense, pairs) // _INTERVAL_BITS))
        if runs:
            return FinSet._from_sorted(_sum_of_runs(*runs))
    if dense <= pairs:
        if digits < copies and (flags := _slot_sum(xs, ys, k)) is not None:
            return _from_flags(flags, lo)
        mask = _shift_or(int(_flags(xs), 2), wx, ys)
        return _from_flags(bin(mask)[:1:-1].encode().translate(_NONZERO), lo)
    if nx < ny:
        xs, ys = ys, xs
    out = set()
    for b in ys:
        out.update(map(b.__add__, xs))
    return FinSet._from_sorted(tuple(sorted(out)))


def kfold(x: FinSet, k: int) -> FinSet:
    """k-fold sumset x + x + ... + x; the empty fold (k = 0) is {0}.

    k must be an int, not a bool: anything else raises TypeError.

    Let m = min x and d the gcd of x - m, with d = 0 for a singleton.  The
    len(x) elements of x - m are distinct multiples of d in [0, max x - m],
    so x is the arithmetic progression m + d*[0, L], L = (max x - m) / d,
    just when max x - m = d*(len(x) - 1); a singleton is one with L = 0.
    The fold takes one of three cases.

    1. k = 0, where the fold is {0}, or x is a progression, where it is
       k*m + d*[0, k*L]: either is built with no sum, from k*min x to
       k*max x in steps of d, and _progression refuses it before building
       it when it leaves the range.  The closed form holds by induction on
       k: the 0-fold is {0} = 0 + d*[0, 0], and
       (j*m + d*[0, j*L]) + (m + d*[0, L]) = (j+1)*m + d*[0, (j+1)*L],
       since [0, a] + [0, b] = [0, a + b].
    2. Any other set with d > 1 is divided by d.  x is the image of
       y = (x - m) / d under v -> m + d*v, and a sum of k elements of x is
       (m + d*a_1) + ... + (m + d*a_k) = k*m + d*(a_1 + ... + a_k), the
       image of a sum of k elements of y under v -> k*m + d*v.  So
       kfold(x, k) = k*m + d*kfold(y, k), elementwise, and the map is
       increasing, so it keeps the order.  y has gcd 1, so its folds fill
       their span but for bounded fringes at both ends (Nathanson, "Sums
       of finite sets of integers", 1972) and keep few runs.
    3. Any other set with d = 1 folds by doubling (see _fold).

    In cases 2 and 3 the fold's ends are k*min x and k*max x.  The j-folds
    built on the way, j <= k, have ends j*min x and j*max x, each between
    0 and the fold's, so they stay in range when the fold does, and a fold
    that leaves the range is refused before any sum.  It names k*min x
    when that is out of range, and k*max x otherwise: the least fold
    element above the range would need the fold itself.
    """
    k = _as_int(k, "fold count must be an integer")
    if k < 0:
        raise ValueError("fold count must be nonnegative")
    # imported here, so that a process that folds nothing, such as every
    # `sum`, never loads math
    from math import gcd

    m = x.min
    lo, hi = k * m, k * x.max
    d = gcd(*map(m.__rsub__, x.elems))
    if not k or x.max - m == d * (len(x) - 1):
        return _progression(lo, hi, d or 1)
    if lo < -MAX_ELEMENT or hi > MAX_ELEMENT:
        past = lo if abs(lo) > MAX_ELEMENT else hi
        raise OverflowError(f"element {past} outside the supported integer range")
    if d == 1:
        return _fold(x, k)
    y = FinSet._from_sorted(tuple([(v - m) // d for v in x.elems]))
    return FinSet._from_sorted(tuple([lo + d * v for v in _fold(y, k).elems]))


def _fold(x: FinSet, k: int) -> FinSet:
    """kfold by doubling, for k >= 1.

    With k = 2**a * (odd) and x_i the 2**i-fold, x_(i+1) = x_i + x_i.  The
    fold starts at x_a, the lowest set bit of k, and adds x_i for each
    higher set bit i.  It needs x_0 .. x_(b-1), with b = k.bit_length(),
    so it makes b - 1 doublings and k.bit_count() - 1 of those additions,
    and no sum against {0}.
    """
    while not k & 1:
        x = sumset(x, x)
        k >>= 1
    acc = x
    while k := k >> 1:
        x = sumset(x, x)
        if k & 1:
            acc = sumset(acc, x)
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

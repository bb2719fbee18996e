"""numpy's ``Generator.multinomial``, reproduced exactly in plain Python.

numpy draws a multinomial as a chain of binomials, and each binomial by
inversion while its mean is at most 30 or by Kachitvichyanukul and
Schmeiser's BTPE ("Binomial random variate generation", CACM 31(2), 1988)
past it.  Both consume uniform doubles, so given :meth:`hqis.qstate.Stream.random`
in place of numpy's ``next_double`` they give numpy's counts, and leave the
stream where numpy leaves its generator.  The arithmetic follows numpy's
build, not its source: where C converts an int to a double, adds in int64
or calls ``log1p``, so does this module.  Only ``attack`` draws a
multinomial, so :meth:`~hqis.qstate.Stream.multinomial` imports this module
on first use and no other process compiles it.
"""

import math

from .qstate import _MASK64, MAX_TRIALS


def multinomial(random, n: int, pvals) -> list[int]:
    """The counts of ``n`` trials over the categories ``pvals``, drawn with
    ``random()``, a uniform double in [0, 1) per call.

    numpy's ``random_multinomial``: each category but the last draws a
    binomial count of the trials left, at its share of the probability
    left; the last takes the rest, and a category past the point where no
    trial is left gets 0.  ``n`` must lie in 0..``MAX_TRIALS``, every
    ``pvals`` entry in [0, 1], and all but the last must sum to at most
    1 + 1e-12, or ValueError is raised.
    """
    pvals = [float(p) for p in pvals]
    if not 0 <= n <= MAX_TRIALS:
        raise ValueError(f"n must be in 0..{MAX_TRIALS}, got {n}")
    if not pvals or not all(0.0 <= p <= 1.0 for p in pvals):  # NaN fails too
        raise ValueError(f"pvals must be a nonempty list of numbers in [0, 1], got {pvals}")
    if math.fsum(pvals[:-1]) > 1.0 + 1e-12:
        raise ValueError("sum(pvals[:-1]) > 1.0")
    counts = [0] * len(pvals)
    left, remaining_p = n, 1.0
    for j, p in enumerate(pvals[:-1]):
        counts[j] = _binomial(random, left, p / remaining_p)
        left -= counts[j]
        if left <= 0:
            break
        remaining_p -= p
    if left > 0:
        counts[-1] = left
    return counts


def _binomial(random, n: int, p: float) -> int:
    """numpy's ``random_binomial``: inversion while the mean is at most 30,
    BTPE past it, each at p <= 1/2; a larger p counts the failures."""
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return _inversion(random, n, p) if p * n <= 30.0 else _btpe(random, n, p)
    q = 1.0 - p
    return n - (_inversion(random, n, q) if q * n <= 30.0 else _btpe(random, n, q))


def _inversion(random, n: int, p: float) -> int:
    """numpy's ``random_binomial_inversion``: walk the probabilities up from
    ``(1 - p)**n``, taken as ``exp(n * log1p(-p))``, until they pass a
    uniform draw, and draw again past a bound of about ten standard
    deviations."""
    if p <= 0.0:
        # Only p = 1 - q with q >= 1 comes here: the first probability,
        # (1 - p)**n, is at least 1, so numpy's one draw gives 0.
        random()
        return 0
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = mean + 10.0 * math.sqrt(mean * q + 1)
    bound = int(n if n < bound else bound)  # C's (int64_t)MIN(n, bound)
    x, px, u = 0, qn, random()
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, random()
        else:
            u -= px
            px = (n - x + 1) * p * px / (x * q)
    return x


def _btpe(random, n: int, p: float) -> int:
    """numpy's ``random_binomial_btpe`` for p <= 1/2, step for step as
    numpy's build computes it: ``n + 1`` and ``-k * k`` are int64 and wrap,
    and every other int is converted to a double before it enters a sum."""
    r, q = p, 1.0 - p  # numpy takes r = min(p, 1 - p), which is p here
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    while True:
        # Step 10: the triangle accepts at once.
        u = random() * p4
        v = random()
        if u <= p1:
            return math.floor(xm - p1 * v + u)
        if u <= p2:  # Step 20: the parallelograms.
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:  # Step 30: the left exponential tail.
            if v == 0.0:
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # Step 40: the right exponential tail.
            if v == 0.0:
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if not (k > 20 and float(k) < nrq / 2.0 - 1):
            # Step 50: near the mode, the density ratio f(y) / f(m) exactly.
            s = r / q
            a = s * _int64(n + 1)
            f = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    f *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    f /= a / i - s
            if v > f:
                continue
            return y
        # Step 52: squeeze on log(v), then the Stirling bound.
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = _int64(-k * k) / (2 * nrq)
        big_a = _c_log(v)
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        # numpy's build adds these in doubles, each int converted first.
        x1 = float(y) + 1.0
        f1 = float(m) + 1.0
        z = float(n) + 1.0 - float(m)
        w = float(n) - float(y) + 1.0
        bound = (
            xm * _c_log(f1 / x1)
            + (n - m + 0.5) * _c_log(z / w)
            + (y - m) * _c_log(w * r / (x1 * q))
            + _stirling_tail(f1)
            + _stirling_tail(z)
            + _stirling_tail(x1)
            + _stirling_tail(w)
        )
        if big_a > bound:
            continue
        return y


def _int64(value: int) -> int:
    """``value`` wrapped to a signed 64-bit int, as C's int64 sum wraps."""
    return ((value + 2**63) & _MASK64) - 2**63


def _c_log(x: float) -> float:
    """C's ``log``: -inf at 0 and NaN below it, where ``math.log`` raises."""
    return math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan


def _stirling_tail(x: float) -> float:
    """BTPE's correction term of Stirling's series at ``x``."""
    x2 = x * x
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0

"""Deciding whether two expressions are equivalent.

``equal`` has one meaning: proved exactly.  Layered decision, cheapest
first:

1. the normalized difference is literally 0 (normalization happens at
   construction, so this is just a zero test);
2. full expansion of the difference (distribution + cos-power reduction)
   cancels to 0 -- sound both ways for polynomials over independent atoms;
   failing that, so does the expanded difference with its denominators
   cleared: each power b^x of a sum or nonzero rational b, x not an
   integer, is written b^n * w (n the floor of x's rational part, w a fresh
   symbol per (b, x - n)), and each term is multiplied by b^k for every sum
   b held somewhere to the power -k.  Sound, since b^x = b^n * b^(x-n)
   wherever b^x is defined and b != 0, an independent w can only lose
   completeness, each such b is nonzero wherever the difference is
   defined, and a polynomial that is 0 in independent atoms is 0 at every
   point;
3. randomized evaluation at rational points only finds counterexamples:
   any clear mismatch is a sound "different"; agreement at every point is
   "undecided", since it is evidence and not a proof (Schwartz 1980,
   Zippel 1979).

Points and opaque-kernel values come from ``numeric.Sampler``: atoms are
drawn as +-(1..6)/(1..3) on the domain ``expr.is_positive`` declares (a
point where a negative base meets a fractional power is drawn again), and
opaque kernels are sampled as unconstrained smooth functions (every
distinct (kernel, derivative, argument-values) triple gets an independent
random value, consistently within one point).  Domain errors trigger
resampling.  The cancellation guard compares in mpmath, so terms beyond
float range are decided like any others.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import mpmath

from .expr import (Add, DomainError, Expr, ExprError, Rat, ZERO, add, addends,
                   expand, is_int, is_zero, mul, powe, rat, sym, term_parts)
from .numeric import DPS, Program, Sampler

EQUAL = "equal"
DIFFERENT = "different"
UNDECIDED = "undecided"

MISMATCH_TOL = 1e-20
SAMPLES = 32          # sample points of the numeric layer
MAX_RESAMPLE = 8      # draws per point before it is given up


@dataclass
class EqDecision:
    verdict: str                      # equal / different / undecided
    path: str                         # normalize / expand / numeric
    samples: int = 0
    counterexample: Optional[dict] = None
    note: str = ""
    # what the numeric layer sampled: the expanded difference, or the raw
    # difference when expansion raised ExprError
    sampled: Optional[Expr] = None

    def __bool__(self):
        # no implicit reading may turn undecided into a refusal
        if self.verdict == UNDECIDED:
            raise TypeError("an undecided decision has no truth value; "
                            "read its verdict")
        return self.verdict == EQUAL


class Undecided(Exception):
    """A check that needs an identity decided met one that no exact layer
    proves and no sample point refutes."""


def vanish(decisions: Iterable[EqDecision]) -> Optional[bool]:
    """True when every decision is equal, False as soon as one is
    different, None (undecided) otherwise."""
    out = True
    for d in decisions:
        if d.verdict == DIFFERENT:
            return False
        if d.verdict == UNDECIDED:
            out = None
    return out


def decide_equivalence(e1: Expr, e2: Expr, seed: int = 0) -> EqDecision:
    """Decide e1 == e2."""
    # e1 - 0 is e1 itself: no need to merge its terms again
    diff = e1 if e2 is ZERO else add(e1, mul(rat(-1), e2))
    if is_zero(diff):
        return EqDecision(EQUAL, "normalize")
    try:
        expanded = expand(diff)
    except ExprError:
        expanded = None
    if expanded is not None and is_zero(expanded):
        return EqDecision(EQUAL, "expand")
    if expanded is not None and _cleared_is_zero(expanded):
        return EqDecision(EQUAL, "expand", note="after clearing denominators")
    target = expanded if expanded is not None else diff

    program = Program(addends(target))
    sampler = Sampler(random.Random(seed))
    done = 0
    for i in range(SAMPLES):
        for _ in range(MAX_RESAMPLE):
            point = sampler.point(program.atoms)
            try:
                val, scale = _eval_with_scale(program, point, sampler)
            except DomainError:
                continue
            if isinstance(val, Fraction):
                mismatch = val != 0
            else:
                # guard against catastrophic cancellation between terms:
                # a true zero leaves only rounding noise relative to the
                # largest term magnitude
                mismatch = abs(val) > MISMATCH_TOL * max(1, scale)
            if mismatch:
                return EqDecision(
                    DIFFERENT, "numeric", samples=done + 1,
                    counterexample={str(k): v for k, v in point.items()},
                    sampled=target)
            done += 1
            break
    note = (f"agreed at {done} points" if done
            else f"all {SAMPLES} points hit domain errors")
    return EqDecision(UNDECIDED, "numeric", samples=done, note=note,
                      sampled=target)


def _cleared_is_zero(e: Expr) -> bool:
    """The second half of layer 2: e, an expanded difference, with its
    fractional powers of sums and rationals rebased onto fresh symbols and
    its sum denominators multiplied through, expands to 0.  False when
    there is nothing to rebase or clear, or a step raises."""
    fresh = {}   # (b, x - n) -> its symbol, in u_ where no parse reaches
    depth = {}   # sum base b -> the largest k of a b^-k
    terms = []
    try:
        for t in addends(e):
            coeff, pairs = term_parts(t)
            factors = [rat(coeff)]
            for b, x in pairs or ():
                if not is_int(x) and (type(b) is Add or
                                      type(b) is Rat and b is not ZERO):
                    n = rat(math.floor(sum(s.value for s in addends(x)
                                           if type(s) is Rat)))
                    key = (b, add(x, -n))
                    if key not in fresh:
                        fresh[key] = sym(f"u_{len(fresh)}")
                    factors.append(fresh[key])
                    x = n
                if type(b) is Add and is_int(x) and x.value < 0:
                    depth[b] = max(depth.get(b, 0), -x.value)
                factors.append(powe(b, x))
            terms.append(factors)
        if not fresh and not depth:
            return False
        clear = [powe(b, rat(k)) for b, k in depth.items()]
        return is_zero(expand(add(*[mul(*f, *clear) for f in terms])))
    except ExprError:
        return False


def _eval_with_scale(program: Program, point, sampler):
    """Evaluate the target's terms, the roots of ``program``; also report
    the largest term magnitude, as an mpf: its exponent range is unbounded,
    so terms beyond float range still compare."""
    vals = list(program.run(point, sampler))
    with mpmath.workdps(DPS):
        return sum(vals), max(abs(mpmath.mpmathify(v)) for v in vals)


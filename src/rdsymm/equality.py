"""Deciding whether two expressions are equivalent.

Layered decision, cheapest first:

1. the normalized difference is literally 0 (normalization happens at
   construction, so this is just a zero test);
2. full expansion of the difference (distribution + cos-power reduction)
   cancels to 0 -- sound both ways for polynomials over independent atoms;
3. randomized evaluation at rational points: any clear mismatch is a sound
   "different"; agreement at every point is "equal" with the sampling
   confidence recorded.

Points and opaque-kernel values come from ``numeric.Sampler``: atoms are
drawn as +-(1..6)/(1..3) on the domain ``expr.is_positive`` declares (a
point where a negative base meets a fractional power is drawn again), and
opaque kernels are sampled as unconstrained smooth functions (every
distinct (kernel, derivative, argument-values) triple gets an independent
random value, consistently within one point).  Domain errors trigger
resampling; if every attempt at every point fails the verdict is
"undecided".  The cancellation guard compares in mpmath, so terms beyond
float range are decided like any others.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .expr import (Add, DomainError, Expr, ExprError, ZERO, add, expand,
                   free_symbols, is_zero, mul, rat)
from .numeric import DPS, Sampler, UnboundSymbol, eval_at

EQUAL = "equal"
DIFFERENT = "different"
UNDECIDED = "undecided"

MISMATCH_TOL = 1e-20
SAMPLES = 32          # sample points of the numeric layer
MAX_RESAMPLE = 8      # draws per point before it is given up
# the paths whose "equal" rests on no sampling
EXACT_PATHS = ("normalize", "expand")


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
        return self.verdict == EQUAL

    @property
    def exact(self) -> bool:
        """Decided equal by an exact path, without sampling."""
        return self.verdict == EQUAL and self.path in EXACT_PATHS


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
    target = expanded if expanded is not None else diff

    fs = sorted(free_symbols(target), key=Expr.key)
    sampler = Sampler(random.Random(seed))
    done = 0
    for i in range(SAMPLES):
        for _ in range(MAX_RESAMPLE):
            point = sampler.point(fs)
            try:
                val, scale = _eval_with_scale(target, point, sampler)
            except DomainError:
                continue
            except UnboundSymbol:
                return EqDecision(UNDECIDED, "numeric",
                                  note="unevaluable atom", sampled=target)
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
    if done == 0:
        return EqDecision(UNDECIDED, "numeric",
                          note=f"all {SAMPLES} points hit domain errors",
                          sampled=target)
    return EqDecision(EQUAL, "numeric", samples=done,
                      note=f"agreed at {done} random points", sampled=target)


def _eval_with_scale(target: Expr, point, sampler):
    """Evaluate; also report the largest term magnitude, as an mpf: its
    exponent range is unbounded, so terms beyond float range still
    compare."""
    terms = target.terms if isinstance(target, Add) else (target,)
    vals = [eval_at(t, point, kernel_values=sampler) for t in terms]
    with mpmath.workdps(DPS):
        return sum(vals), max(abs(mpmath.mpmathify(v)) for v in vals)


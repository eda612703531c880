"""Exact symbolic algebra of weighted radial expressions.

The algebra manipulates finite sums of terms

    c(alpha) * r^rho * (1 + r^2)^(-sigma/2)

where ``c`` is a polynomial in the formal parameter alpha with integer
coefficients and ``sigma = a*alpha + b`` is affine in alpha with
``a in {0, 1}``.  This family is closed under the weighted radial Laplacian

    Delta_alpha u = u'' + (alpha/r) u' ,

under d/dr, and hence under the m-th order gradient
``nabla_m = Delta_alpha^k`` (m = 2k) or ``(Delta_alpha^k)'`` (m = 2k+1).

A single application of the Laplacian follows the product rule identity

    Delta_alpha [r^rho (1+r^2)^(-sigma/2)]
        = (1+r^2)^(-(sigma+4)/2) [ r^(rho+2) A(rho, alpha, sigma)
                                   + r^rho     B(rho, alpha, sigma)
                                   + r^(rho-2) C(rho, alpha) ]

with

    A(x, y, z) = x(x + y - 1) + z(z - 2x + 1 - y)
    B(x, y, z) = 2x(x + y - 1) - z(2x + y + 1)
    C(x, y)    = x(x + y - 1).

All arithmetic on coefficients is exact; no floats enter the symbolic path.
Every coefficient is a plain ``int``: the expansion lives in Z[alpha].
Canonical forms lower every power r^(2i+e), e in {0, 1}, in one
binomial step,

    r^(2i+e) (1+r^2)^(-s/2)
        = sum_{k=0}^{i} C(i,k) (-1)^(i-k) r^e (1+r^2)^(-(s-2k)/2),

so every stored power of r is 0 or 1 and algebraic cancellations (for
example Delta_alpha r^2 = 2(alpha+1)) happen exactly.  A term with r^(2i)
yields i + 1 terms, so the cost of the symbolic checks grows polynomially
in the order m.  Negative powers of r are representable (Delta_alpha r =
alpha/r is a legitimate value) and left alone, but never arise from the
even-power expressions this toolkit derives; use
:meth:`RadialExpr.require_nonnegative_powers` as a defensive check on such
pipelines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np


class AlphaPoly:
    """Polynomial in the formal symbol alpha with integer coefficients.

    Coefficients are plain ``int`` values (no bool, float, Fraction or numpy
    integer), stored dense by degree with the trailing (leading-degree) zeros
    stripped, so the zero polynomial has an empty coefficient tuple and the
    leading coefficient is nonzero otherwise.  The constructor and the scalar
    operands refuse any other type with ``TypeError``; arithmetic results
    come from ``_derived``, since int arithmetic gives ints.  Exact
    evaluation at an int or Fraction alpha runs in integers and returns one
    ``Fraction``.
    """

    __slots__ = ("_coeffs",)

    # numpy scalars defer to these operators, which refuse them
    __array_ufunc__ = None

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"int coefficient expected, got {c!r}")
        self._coeffs = AlphaPoly._derived(cs)._coeffs

    @classmethod
    def _derived(cls, cs: list) -> "AlphaPoly":
        """From int coefficients cs, with the leading zeros stripped."""
        while cs and cs[-1] == 0:
            cs.pop()
        out = object.__new__(cls)
        out._coeffs = tuple(cs)
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "AlphaPoly":
        return cls(())

    @classmethod
    def one(cls) -> "AlphaPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "AlphaPoly":
        return cls((c,))

    @classmethod
    def linear(cls, a, b) -> "AlphaPoly":
        """The polynomial a*alpha + b."""
        return cls((b, a))

    # -- structure ----------------------------------------------------------

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = AlphaPoly.constant(other)
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __bool__(self):
        return not self.is_zero

    # -- arithmetic (exact) -------------------------------------------------

    def __add__(self, other) -> "AlphaPoly":
        if type(other) is int:
            other = AlphaPoly.constant(other)
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return AlphaPoly._derived(out)

    __radd__ = __add__

    def __neg__(self) -> "AlphaPoly":
        return AlphaPoly._derived([-c for c in self._coeffs])

    def __sub__(self, other) -> "AlphaPoly":
        if type(other) is not int and not isinstance(other, AlphaPoly):
            return NotImplemented  # -True would pass as the int -1
        return self + (-other)

    def __rsub__(self, other) -> "AlphaPoly":
        return (-self) + other

    def __mul__(self, other) -> "AlphaPoly":
        if type(other) is int:
            return AlphaPoly._derived([c * other for c in self._coeffs])
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return AlphaPoly.zero()
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):  # the shorter factor in the outer loop
            for i, x in enumerate(a, j):
                out[i] += x * y
        return AlphaPoly._derived(out)

    __rmul__ = __mul__

    def __call__(self, value):
        """Evaluate by Horner's rule; exact (a Fraction) at an int or
        Fraction argument.  The exact value p/q is formed in integers, by
        Horner's rule on B = sum_i c_i p^i q^(d-i) with the power of q kept
        running, and only B / q^d becomes a Fraction."""
        if isinstance(value, (int, Fraction)):
            p, q = value.as_integer_ratio()
            cs = self._coeffs
            acc, qk = (cs[-1] if cs else 0), 1
            for c in reversed(cs[:-1]):
                qk *= q
                acc = acc * p + c * qk
            return Fraction(acc, qk)
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * value + float(c)
        return acc

    # -- io -------------------------------------------------------------

    def to_strings(self) -> list:
        """Degree-indexed integer strings, e.g. ['-3', '-2', '1']."""
        return [str(c) for c in self._coeffs]

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for d in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[d]
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                body = f"{mag}"
            else:
                var = "a" if d == 1 else f"a^{d}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(("-" if c < 0 else "+", body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"AlphaPoly({self})"


@dataclass(frozen=True, order=True)
class ExponentAffine:
    """Exponent sigma = alpha_multiplier * alpha + constant_shift.

    Restricting the multiplier to {0, 1} covers every exponent the weighted
    polyharmonic calculus produces and rejects unsupported inputs early.  Both
    fields are plain ints (no bool or float): they enter coefficients as is.
    """

    alpha_multiplier: int
    constant_shift: int

    def __post_init__(self):
        if type(self.alpha_multiplier) is not int or type(self.constant_shift) is not int:
            raise TypeError(f"alpha multiplier and constant shift must be ints, got "
                            f"{self.alpha_multiplier!r}, {self.constant_shift!r}")
        if self.alpha_multiplier not in (0, 1):
            raise ValueError(
                f"alpha multiplier must be 0 or 1, got {self.alpha_multiplier}"
            )

    def shifted(self, delta: int) -> "ExponentAffine":
        return ExponentAffine(self.alpha_multiplier, self.constant_shift + delta)

    def as_poly(self) -> AlphaPoly:
        return AlphaPoly.linear(self.alpha_multiplier, self.constant_shift)

    def value_at(self, alpha):
        return self.alpha_multiplier * alpha + self.constant_shift

    def __str__(self) -> str:
        if self.alpha_multiplier == 0:
            return str(self.constant_shift)
        if self.constant_shift == 0:
            return "a"
        return f"a{self.constant_shift:+d}"


SIGMA_ZERO = ExponentAffine(0, 0)


@dataclass(frozen=True)
class RadialTerm:
    """One summand coeff(alpha) * r^r_power * (1+r^2)^(-sigma/2)."""

    coeff: AlphaPoly
    r_power: int
    sigma: ExponentAffine

    def __str__(self) -> str:
        bits = [f"({self.coeff})"]
        if self.r_power:
            bits.append(f"r^{self.r_power}")
        if self.sigma != SIGMA_ZERO:
            bits.append(f"(1+r^2)^(-({self.sigma})/2)")
        return "*".join(bits)


class RadialExpr:
    """Canonicalized finite sum of :class:`RadialTerm`.

    Canonical form: every power r^(2i+e) with 2i+e >= 2 is expanded
    binomially into r^e times powers of (1+r^2) (see the module docstring),
    like terms are merged on the (r_power, sigma) key,
    zero coefficients are dropped, and terms are sorted lexicographically on
    (sigma, r_power).  Two expressions built from nonnegative powers of r are
    equal as functions of (alpha, r) iff their canonical forms coincide.
    """

    __slots__ = ("_terms",)
    __array_ufunc__ = None  # as AlphaPoly: numpy scalars are refused

    def __init__(self, terms: Iterable[RadialTerm] = ()):
        merged: dict = {}
        for t in terms:
            if t.coeff.is_zero:
                continue
            # r^(2i+e) (1+r^2)^(-s/2)
            #   = sum_k C(i,k) (-1)^(i-k) r^e (1+r^2)^(-(s-2k)/2)
            i, e = divmod(t.r_power, 2) if t.r_power >= 2 else (0, t.r_power)
            for k in range(i + 1):
                weight = math.comb(i, k) * (-1) ** (i - k)
                coeff = t.coeff if weight == 1 else t.coeff * weight
                key = (e, t.sigma.shifted(-2 * k) if k else t.sigma)
                acc = merged.get(key)
                merged[key] = coeff if acc is None else acc + coeff
        out = [
            RadialTerm(c, rho, sigma)
            for (rho, sigma), c in merged.items()
            if not c.is_zero
        ]
        out.sort(key=lambda t: (t.sigma, t.r_power))
        self._terms = tuple(out)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "RadialExpr":
        return cls(())

    @classmethod
    def constant(cls, c) -> "RadialExpr":
        return cls.single(c, 0, SIGMA_ZERO)

    @classmethod
    def single(cls, coeff, r_power: int = 0,
               sigma: ExponentAffine = SIGMA_ZERO) -> "RadialExpr":
        if not isinstance(sigma, ExponentAffine):
            raise TypeError(f"sigma must be an ExponentAffine, got {sigma!r}")
        if not isinstance(coeff, AlphaPoly):
            coeff = AlphaPoly.constant(coeff)
        return cls((RadialTerm(coeff, r_power, sigma),))

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> tuple:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadialExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __bool__(self):
        return not self.is_zero

    def require_nonnegative_powers(self) -> "RadialExpr":
        """Defensive check: no negative power of r survived canonicalization.

        Expressions derived from even powers of r never contain one; hitting
        this on such a pipeline signals an implementation bug.
        """
        bad = [t for t in self._terms if t.r_power < 0]
        if bad:
            raise ValueError(
                f"negative r-powers survived canonicalization: {[str(t) for t in bad]}"
            )
        return self

    # -- exact linear arithmetic ---------------------------------------------

    def __add__(self, other) -> "RadialExpr":
        if not isinstance(other, RadialExpr):
            return NotImplemented
        return RadialExpr(self._terms + other._terms)

    def __sub__(self, other) -> "RadialExpr":
        return self + (-other)

    def __neg__(self) -> "RadialExpr":
        return RadialExpr(
            tuple(RadialTerm(-t.coeff, t.r_power, t.sigma) for t in self._terms)
        )

    def __mul__(self, scalar) -> "RadialExpr":
        """Scale by an int or an AlphaPoly."""
        if type(scalar) is not int and not isinstance(scalar, AlphaPoly):
            return NotImplemented
        return RadialExpr(
            tuple(RadialTerm(t.coeff * scalar, t.r_power, t.sigma) for t in self._terms)
        )

    __rmul__ = __mul__

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, alpha_value, r):
        """Numeric value at (alpha, r).

        If both arguments are exact (int / Fraction) and every exponent
        sigma(alpha) is an even integer, the result is an exact Fraction;
        otherwise ordinary floating arithmetic is used (r may be a numpy
        array in that case), with each term's c(alpha) by Horner's rule at
        float(alpha) and its exponent -sigma(alpha)/2.  An int or float array
        r is evaluated in floats in place, to the bits of the scalar
        expression summed from 0.0 wherever that expression does not
        overflow an int.
        """
        exact = isinstance(alpha_value, (int, Fraction)) and isinstance(r, (int, Fraction))
        if exact:
            sigmas = [t.sigma.value_at(Fraction(alpha_value)) for t in self._terms]
            exact = all(s.denominator == 1 and s.numerator % 2 == 0 for s in sigmas)
        if exact:
            rq = Fraction(r)
            total = Fraction(0)
            base = 1 + rq * rq
            for t, s in zip(self._terms, sigmas):
                total += t.coeff(Fraction(alpha_value)) * rq ** t.r_power * base ** (
                    -(s // 2)
                )
            return total
        a = float(alpha_value)
        if isinstance(r, np.ndarray) and r.ndim and r.dtype.kind in "iuf":
            # ints are squared as floats: r * r in int64 wraps past 3.04e9
            total = self._evaluate_array(a, r if r.dtype.kind == "f" else r.astype(float))
            total += 0.0  # as 0.0 + x: an exact zero reads +0.0
            return total
        base = 1.0 + r * r
        total = 0.0
        for t in self._terms:
            c, e = t.coeff(a), -0.5 * t.sigma.value_at(a)
            if t.r_power:  # c * r ** 0 == c
                c = c * r ** t.r_power
            total = total + c * base ** e
        return total

    def _evaluate_array(self, a: float, r: np.ndarray) -> np.ndarray:
        """The float value at the float alpha a on the float array r, in a
        fresh array.  1 + r^2 takes one buffer, which the last term's power
        overwrites; each other term (c r^rho) (1+r^2)^e takes one more, and
        the powers of terms with an r factor share one scratch buffer.  The
        terms are summed in place from the first, so an exact zero may read
        -0.0 where the sum from 0.0 reads +0.0; every other value has the
        bits of the scalar expression in :meth:`evaluate`."""
        if not self._terms:
            return np.zeros(r.shape, dtype=r.dtype)
        base = np.multiply(r, r)
        base += 1.0
        last = len(self._terms) - 1
        total = scratch = None
        for i, t in enumerate(self._terms):
            c, e = t.coeff(a), -0.5 * t.sigma.value_at(a)
            if i == last:  # 1 + r^2 is not needed past the last term
                power = np.power(base, e, out=base)
            elif t.r_power:
                power = scratch = np.power(base, e, out=scratch)
            else:
                power = np.power(base, e)
            if t.r_power:
                term = np.multiply(r, c) if t.r_power == 1 else r ** t.r_power * c
                term *= power
            else:  # c * r ** 0 == c
                term = power
                term *= c
            if total is None:
                total = term
            else:
                total += term
        return total

    # -- io -------------------------------------------------------------

    def to_json_obj(self) -> list:
        return [
            {
                "coeff": t.coeff.to_strings(),
                "r_power": t.r_power,
                "sigma": {
                    "a": t.sigma.alpha_multiplier,
                    "b": t.sigma.constant_shift,
                },
            }
            for t in self._terms
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(str(t) for t in self._terms)

    def __repr__(self) -> str:
        return f"RadialExpr({self})"


# ---------------------------------------------------------------------------
# Operator algebra
# ---------------------------------------------------------------------------


def abc_coefficients(rho: int, sigma: ExponentAffine) -> tuple:
    """The three expansion polynomials of one Laplacian application.

    Returns (A(rho, alpha, sigma), B(rho, alpha, sigma), C(rho, alpha)) as
    exact polynomials in alpha.  With sigma = s*alpha + t the coefficients,
    low degree first, are C = [rho(rho-1), rho],
    A = C + [t(t-2rho+1), s(t-2rho+1) + t(s-1), s(s-1)] and
    B = 2C - [t(2rho+1), s(2rho+1) + t, s].
    """
    s, t = sigma.alpha_multiplier, sigma.constant_shift
    c = [rho * (rho - 1), rho]
    v = t - 2 * rho + 1
    a = [c[0] + t * v, c[1] + s * v + t * (s - 1), s * (s - 1)]
    b = [2 * c[0] - t * (2 * rho + 1), 2 * c[1] - s * (2 * rho + 1) - t, -s]
    return AlphaPoly._derived(a), AlphaPoly._derived(b), AlphaPoly._derived(c)


def apply_laplacian(expr: RadialExpr) -> RadialExpr:
    """Apply Delta_alpha exactly.

    Each input term maps to at most three output terms whose sigma constant
    shift grows by exactly 4; like terms are merged.
    """
    out = []
    for t in expr.terms:
        a, b, c = abc_coefficients(t.r_power, t.sigma)
        sig = t.sigma.shifted(4)
        out.append(RadialTerm(t.coeff * a, t.r_power + 2, sig))
        out.append(RadialTerm(t.coeff * b, t.r_power, sig))
        out.append(RadialTerm(t.coeff * c, t.r_power - 2, sig))
    return RadialExpr(out)


def apply_polyharmonic(expr: RadialExpr, j: int, signed: bool = True) -> RadialExpr:
    """Iterate the Laplacian j times; with ``signed`` the result is
    (-Delta_alpha)^j expr."""
    if j < 1:
        raise ValueError(f"iteration count must be >= 1, got {j}")
    out = expr
    for _ in range(j):
        out = apply_laplacian(out)
    if signed and j % 2 == 1:
        out = -out
    return out


def differentiate(expr: RadialExpr) -> RadialExpr:
    """Exact d/dr:  r^rho (1+r^2)^(-s/2)  maps to
    rho r^(rho-1) (1+r^2)^(-s/2) - s r^(rho+1) (1+r^2)^(-(s+2)/2)."""
    out = []
    for t in expr.terms:
        out.append(RadialTerm(t.coeff * t.r_power, t.r_power - 1, t.sigma))
        out.append(
            RadialTerm(-(t.coeff * t.sigma.as_poly()), t.r_power + 1, t.sigma.shifted(2))
        )
    return RadialExpr(out)


def nabla_m(expr: RadialExpr, m: int) -> RadialExpr:
    """The m-th order gradient: Delta_alpha^k for m = 2k, and the radial
    derivative of Delta_alpha^k for m = 2k + 1."""
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    k, odd = divmod(m, 2)
    out = expr
    for _ in range(k):
        out = apply_laplacian(out)
    if odd:
        out = differentiate(out)
    return out

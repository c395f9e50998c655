"""Exact scalar and polynomial arithmetic.

Scalars are anything from Python's numeric tower (int, Fraction, float,
complex) plus :class:`GaussianRational`.  All exact code in this package is
duck-typed over that protocol: a scalar must support field arithmetic,
``.conjugate()``, ``.real`` and ``.imag``.  Rationals are plain
``fractions.Fraction``; there is no custom real-rational class.
The exact kernels (the elimination in `linalg`, the division-free
charpoly `berkowitz`, `cleared_vanishing_order`, the cleared traces of a
Higgs field, its moment map and bracket checks) run on numerators:
`numerators` clears the denominators of their input once, the kernel works
in that numerator ring (Python ints, or GaussianRational with integral
parts when some value has a nonzero imaginary part, where ``//`` is exact
division in both), and `ratio` (or `ratios`, for a list over one
denominator) divides once at the end.  Both type by value, the one rule
for exact scalars: a GaussianRational exactly where the imaginary part is
nonzero.  A caller that holds numerators already
(a Higgs field's psi, the fiber equations) hands them to the kernel as
they are.  Marked points enter as integer pairs p_j = u_j / v_j:
`shifted_reciprocals` gives the numerators of scale / (z - p_j) at a
rational z, and `linear_product` gives prod_j (v_j z - u_j) with its
cofactors, on ints alone.  `poly_add`, `poly_mul` and `poly_divmod` on
coefficient lists are the only general polynomial sum, product and
division loops over a numerator ring, and `squarefree_mod_p` the one loop
over F_p, into which Gaussian integers map by a square root of -1 mod p;
`DensePoly` is a value type over the first two, and `PolyMatrix` a
validated container of polynomials that keeps the numerators of its
characteristic polynomial: a polynomial Berkowitz pass, or the ones its
builder seeded (a Higgs field's psi is seeded by the field's factorized
route, which runs the scalar pass at integer nodes).
Truncated power series have no type here: the Betti layer keeps them as
plain coefficient lists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected a rational value, got {v!r}")


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    # numeric-tower style accessors so Fraction and GaussianRational
    # can flow through the same generic code
    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __floordiv__(self, other):
        """Floor of each part of the exact quotient, so that ``//`` is exact
        division of Gaussian integers whenever the quotient is integral."""
        q = self / other
        return GaussianRational(q.re // 1, q.im // 1)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------------------
# numerators: exact kernels clear denominators once and divide once

def numerators(values: Iterable) -> tuple[list, int]:
    """Numerators and least common denominator of exact scalars.

    Returns (nums, d) with values[i] = nums[i] / d.  The numerators are
    ints unless some value has a nonzero imaginary part, and
    GaussianRationals with integral parts then.
    """
    vals = list(values)
    if all(isinstance(v, (int, Fraction)) for v in vals):
        d = math.lcm(*(v.denominator for v in vals))
        return [v.numerator * (d // v.denominator) for v in vals], d
    parts = [(v.real, v.imag) for v in vals]
    d = math.lcm(*(x.denominator for pair in parts for x in pair))
    if not any(im for _, im in parts):
        return [re.numerator * (d // re.denominator) for re, _ in parts], d
    return [GaussianRational(re * d, im * d) for re, im in parts], d


def ratio(num, den):
    """The exact scalar num / den of two numerators: a GaussianRational
    where its imaginary part is nonzero, a Fraction otherwise."""
    if type(num) is int and type(den) is int:
        return Fraction(num, den)
    q = num / den
    return q if q.imag else q.real


def ratios(nums: Sequence, den) -> tuple:
    """The `ratio` of each numerator over one denominator.  Ints over an
    int go straight to `Fraction`, which refuses a GaussianRational; only
    then is each entry typed by `ratio`."""
    try:
        return tuple(map(Fraction, nums, repeat(den)))
    except TypeError:
        return tuple(ratio(v, den) for v in nums)


def shifted_reciprocals(pairs: Sequence, z: Rat, scale: int = 1) -> tuple[list, int]:
    """`numerators` of scale / (z - u_j / v_j) for a rational z, on ints.

    The pairs (u_j, v_j) are in lowest terms with v_j > 0.  At z = a / b
    each value is scale b v_j / (a v_j - u_j b), put in lowest terms by
    one gcd, and the common denominator is one lcm: the numerators and
    least common denominator that the Fraction values give.  ZeroDivisionError, with the first index j
    where z = u_j / v_j as its argument.
    """
    a, b = z.numerator, z.denominator
    nums, dens = [], []
    for j, (u, v) in enumerate(pairs):
        den = a * v - u * b
        if not den:
            raise ZeroDivisionError(j)
        num = scale * b * v
        g = math.gcd(num, den)
        nums.append(num // g)
        dens.append(den // g)
    # lcm is positive, and d // e carries the sign of a negative e
    d = math.lcm(*dens)
    return [w * (d // e) for w, e in zip(nums, dens)], d


# ---------------------------------------------------------------------------
# serialization helpers: rationals as "p/q" strings, complex values as
# {"re": ..., "im": ...} objects, tables as headerless CSV

def format_rational(v: Rat) -> str:
    f = _as_fraction(v)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(s) -> Fraction:
    """Parse "p/q", an int or a Fraction; ValueError on anything else,
    a zero denominator included.

    Strings take `Fraction`'s syntax.  The form every point file writes,
    decimal digits over decimal digits with an optional "-" in front, is
    built from its two ints; any other string is left to ``Fraction(s)``.
    """
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    if isinstance(s, str):
        num, sep, den = s.partition("/")
        try:
            if num.removeprefix("-").isdecimal() and (den.isdecimal() or not sep):
                return Fraction(int(num), int(den) if sep else 1)
            return Fraction(s)
        except ZeroDivisionError as e:
            raise ValueError(f"zero denominator in {s!r}") from e
    raise ValueError(f"cannot parse rational from {s!r}")


def scalar_to_json(v):
    """Serialize one scalar. Exact reals become "p/q", exact complex values
    become {"re": "p/q", "im": "p/q"}, floats stay native."""
    if isinstance(v, (int, Fraction)):
        return format_rational(v)
    if isinstance(v, GaussianRational):
        if v.im == 0:
            return format_rational(v.re)
        return {"re": format_rational(v.re), "im": format_rational(v.im)}
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, float):
        return v
    raise TypeError(f"cannot serialize scalar {v!r}")


def csv_text(rows: Iterable[Sequence]) -> str:
    """Headerless CSV, one line per row: booleans as "true"/"false", every
    other field as its str()."""
    def field(v):
        return ("true" if v else "false") if isinstance(v, bool) else str(v)

    return "".join(",".join(map(field, row)) + "\n" for row in rows)


def _finite_float(v) -> float:
    try:
        f = float(v)
    except OverflowError as e:
        raise ValueError("scalar outside the float range") from e
    if not math.isfinite(f):
        raise ValueError(f"non-finite scalar: {v!r}")
    return f


def _is_rational_json(v, exact: bool) -> bool:
    return isinstance(v, str) or (exact and type(v) is int)


def scalar_from_json(obj, exact: bool = False):
    """Parse one scalar written by `scalar_to_json`.

    With ``exact`` set (an exact point file) "p/q" strings and bare JSON
    integers are exact, and a JSON float raises ValueError, inside
    {"re", "im"} too.  Otherwise (a float point file) every scalar is the
    float, or complex, that it rounds to, a "p/q" string included, so that
    no Fraction meets another in float arithmetic; ValueError when it is
    outside the float range.
    """
    if _is_rational_json(obj, exact):
        v = parse_rational(obj)
        return v if exact else _finite_float(v)
    if isinstance(obj, dict):
        re, im = obj["re"], obj["im"]
        if _is_rational_json(re, exact) or _is_rational_json(im, exact):
            re, im = parse_rational(re), parse_rational(im)
            if not exact:
                re = _finite_float(re)
                return re if im == 0 else complex(re, _finite_float(im))
            if im == 0:
                return re
            return GaussianRational(re, im)
        if not exact:
            return complex(_finite_float(re), _finite_float(im))
    elif isinstance(obj, (int, float)) and not exact:
        return _finite_float(obj)
    raise ValueError(f"cannot parse {'exact ' if exact else ''}scalar from {obj!r}")


# ---------------------------------------------------------------------------
# dense univariate polynomials

class DensePoly:
    """Dense univariate polynomial over an exact field.

    Coefficients are stored lowest degree first with no trailing zeros, so
    representations are canonical and ``==`` is semantic equality.  ``var``
    tags the variable; operations on mismatched tags are rejected.  A value
    type: sums and products are `poly_add` and `poly_mul` on the
    coefficient tuples.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable = (), var: str = "z"):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def zero(cls, var: str = "z") -> "DensePoly":
        return cls((), var)

    @classmethod
    def one(cls, var: str = "z") -> "DensePoly":
        return cls((1,), var)

    @classmethod
    def gen(cls, var: str = "z") -> "DensePoly":
        """The polynomial equal to the variable itself."""
        return cls((0, 1), var)

    @classmethod
    def constant(cls, c, var: str = "z") -> "DensePoly":
        return cls((c,), var)

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, DensePoly):
            return self.coeffs == other.coeffs and (
                not self.coeffs or self.var == other.var
            )
        if not self.coeffs:
            return other == 0 or not other
        if len(self.coeffs) == 1:
            return self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.var if self.coeffs else ""))

    def _check_var(self, other: "DensePoly"):
        if self.coeffs and other.coeffs and self.var != other.var:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}"
            )

    def _var_of(self, other: "DensePoly") -> str:
        return self.var if self.coeffs else other.var

    def __add__(self, other):
        if not isinstance(other, DensePoly):
            other = DensePoly.constant(other, self.var)
        self._check_var(other)
        return DensePoly(poly_add(self.coeffs, other.coeffs), self._var_of(other))

    __radd__ = __add__

    def __neg__(self):
        return DensePoly(tuple(-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        if not isinstance(other, DensePoly):
            other = DensePoly.constant(other, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, DensePoly):
            if not other:
                return DensePoly.zero(self.var)
            return DensePoly(tuple(c * other for c in self.coeffs), self.var)
        self._check_var(other)
        return DensePoly(poly_mul(self.coeffs, other.coeffs), self._var_of(other))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = DensePoly.one(self.var)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, point):
        out = 0
        for c in reversed(self.coeffs):
            out = out * point + c
        return out

    def __repr__(self):
        if not self.coeffs:
            return "DensePoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*{self.var}")
            else:
                terms.append(f"{c}*{self.var}^{k}")
        return "DensePoly(" + " + ".join(terms) + ")"


def poly_from_roots(roots: Sequence, var: str = "z") -> DensePoly:
    out = DensePoly.one(var)
    x = DensePoly.gen(var)
    for a in roots:
        out = out * (x - DensePoly.constant(a, var))
    return out


def cleared_vanishing_order(nums: Sequence, a):
    """Order of vanishing at ``a`` of the polynomial with numerator
    coefficients ``nums`` (lowest degree first, no trailing zero).

    Returns ``math.inf`` for no coefficients.  With a = u / v cleared to
    numerators, the order is the multiplicity of the root u of
    R(w) = v^deg(P) P(w / v), whose coefficients P_k v^(deg-k) are
    numerators too.  It is counted by repeated synthetic division by
    w - u, which needs no division at all; only the first nonzero remainder
    R(u) ends the count.
    """
    if not nums:
        return math.inf
    (u,), v = numerators((a,))
    cur = list(nums)
    if v != 1:
        # P_k v^(deg-k) from the top coefficient down, by a running power
        scale = 1
        for k in range(len(cur) - 1, -1, -1):
            cur[k] *= scale
            scale *= v
    order = 0
    while True:
        acc = 0
        quot = []
        for c in reversed(cur):
            acc = acc * u + c
            quot.append(acc)
        if quot.pop():
            return order
        cur = quot[::-1]
        order += 1


# ---------------------------------------------------------------------------
# coefficient lists, lowest degree first, over a numerator ring

def poly_mul(a: Sequence, b: Sequence) -> list:
    """Product of two coefficient lists; zero coefficients of either
    operand cost nothing."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b_terms:
                out[i + j] += ai * bj
    return out


def poly_add(a: Sequence, b: Sequence) -> list:
    """Sum of two coefficient lists, with no trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def poly_divmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Long division of coefficient lists in a numerator ring.

    Each step divides by the leading coefficient of ``b`` with ``//``.  For
    a primitive ``b`` (content 1, as a product of factors v z - u with u, v
    coprime is) the remainder is zero exactly when ``b`` divides ``a`` over
    the field of fractions: then every step is exact by Gauss's lemma, and
    otherwise some step or the tail leaves a nonzero remainder.  Quotient
    and remainder have no trailing zeros.
    """
    rem = list(a)
    dn = len(b)
    lead = b[-1]
    q = [0] * max(len(rem) - dn + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + dn - 1]
        if not c:
            continue
        f = c // lead
        q[i] = f
        for j, bj in enumerate(b):
            rem[i + j] -= f * bj
    for cs in (q, rem):
        while cs and not cs[-1]:
            cs.pop()
    return q, rem


def linear_product(pairs: Sequence) -> tuple[list, int, list]:
    """P = prod_j (v_j z - u_j), V = prod_j v_j and the cofactors
    v_i P / (v_i z - u_i), for integer pairs (u_j, v_j) in lowest terms.

    P is built one linear factor at a time, and each quotient by
    v_i z - u_i by synthetic division from the top,
    q_(k-1) = (c_k + u_i q_k) / v_i.  Every division is exact: the
    quotient of primitive integer polynomials is integral (Gauss's
    lemma).  No list has a trailing zero.
    """
    full = [1]
    for u, v in pairs:
        full = [-u * full[0], *(v * lo - u * hi for lo, hi in zip(full, full[1:])),
                v * full[-1]]
    cofactors = []
    for u, v in pairs:
        acc = full[-1] // v
        q = [acc]
        for c in full[-2:0:-1]:
            acc = (c + u * acc) // v
            q.append(acc)
        cofactors.append([v * c for c in reversed(q)])
    return full, math.prod(v for _, v in pairs), cofactors


# the prime 2^61 - 31 = 1 (mod 4), the field F_p of `squarefree_mod_p`, and
# a square root of -1 in it: 7 is not a square mod p, so its ((p - 1) / 4)th
# power squares to -1
SQUAREFREE_PRIME = 2 ** 61 - 31
_SQRT_MINUS_ONE = pow(7, (SQUAREFREE_PRIME - 1) // 4, SQUAREFREE_PRIME)


def squarefree_mod_p(a: Sequence) -> bool:
    """Whether a nonzero numerator list is squarefree over F_p, p the
    `SQUAREFREE_PRIME`, with its leading coefficient nonzero mod p.

    Gaussian integer coefficients a + b i enter F_p as a + s b, s the
    square root of -1 mod p: a ring map from Z[i], ints being their own
    real part.  True proves ``a`` squarefree over Q(i), and so over Q for
    integer coefficients: a repeated factor g^2 of Gaussian integer
    polynomials (Gauss's lemma in Z[i]) maps to one over F_p, as the image
    of the leading coefficient of g divides that of ``a`` and is nonzero.
    False proves nothing: z^2 + p is squarefree over Q.
    """
    p, s = SQUAREFREE_PRIME, _SQRT_MINUS_ONE
    f = [(int(c.real) + s * int(c.imag)) % p for c in a]
    if not f[-1]:
        return False
    # Euclid's algorithm for gcd(f, f') mod p
    g, h = f, [k * c % p for k, c in enumerate(f)][1:]
    while h:
        inv = pow(h[-1], -1, p)
        while len(g) >= len(h):
            q, shift = g[-1] * inv % p, len(g) - len(h)
            for j, c in enumerate(h):
                g[shift + j] = (g[shift + j] - q * c) % p
            while g and not g[-1]:
                g.pop()
        g, h = h, g
    return len(g) == 1


# ---------------------------------------------------------------------------
# square matrices of polynomials

class PolyMatrix:
    """Square matrix with DensePoly entries, all in the same variable.

    A validated container: its arithmetic is the generic ring code of
    `linalg` applied to ``rows``.  It also keeps the result of
    `charpoly_numerators`, one pass that all its readers share: the
    polynomial `berkowitz` pass, unless a builder seeded the numerators of
    its own pass (a Higgs field's psi holds those of the field's
    factorized route, `hitchin._factored_charpoly`, equal to the
    Berkowitz coefficients).
    """

    __slots__ = ("rows", "size", "var", "_numerators")

    def __init__(self, rows: Sequence[Sequence[DensePoly]], var: str = "z"):
        rows = tuple(tuple(e for e in row) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for e in row:
                if not isinstance(e, DensePoly):
                    raise TypeError("entries must be DensePoly")
                if e.coeffs and e.var != var:
                    raise ValueError("entry variable mismatch")
        self.rows = rows
        self.size = n
        self.var = var
        self._numerators = None

    def trace(self) -> DensePoly:
        acc = DensePoly.zero(self.var)
        for i in range(self.size):
            acc = acc + self.rows[i][i]
        return acc

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"PolyMatrix({self.rows!r})"


def _poly_dot(xs: Sequence, ys: Sequence) -> list:
    """Sum of the products of paired coefficient lists."""
    acc: list = []
    for x, y in zip(xs, ys):
        if x and y:
            acc = poly_add(acc, poly_mul(x, y))
    return acc


def _poly_neg(a: Sequence) -> list:
    return [-c for c in a]


def _scalar_dot(xs: Sequence, ys: Sequence):
    return sum(map(operator.mul, xs, ys))


def berkowitz(a: Sequence) -> tuple:
    """Characteristic coefficients (C_1, ..., C_r) of a square matrix over
    a numerator ring (ints, or GaussianRationals with integral parts): of
    coefficient lists, each C_i a coefficient list lowest degree first,
    or of ring elements, each C_i one element.  The entries say which:
    a list is a polynomial.  A ring element needs only +, * and unary -,
    with the int 0 as its zero.

    Berkowitz's recurrence (Inf. Process. Lett. 18, 1984) uses ring
    operations only: with the leading block of size k + 1 split as
    [[A_k, S], [R, a]], the charpoly of A_(k+1), highest power first, is
    the lower triangular Toeplitz matrix with first column
    (1, -a, -R S, -R A_k S, ..., -R A_k^(k-1) S) times that of A_k.  From
    the empty block (charpoly 1) this takes k - 1 matrix-vector products
    on A_k per step.
    """
    if a and isinstance(a[0][0], list):
        zero, add, dot, neg = [], poly_add, _poly_dot, _poly_neg
    else:
        zero, add, dot, neg = 0, operator.add, _scalar_dot, operator.neg
    cs: list = []
    for k in range(len(a)):
        block = [row[:k] for row in a[:k]]
        col = [a[i][k] for i in range(k)]
        # the Toeplitz column below its leading 1
        q = [neg(a[k][k])]
        for j in range(k):
            if j:
                col = [dot(row, col) for row in block]
            q.append(neg(dot(a[k][:k], col)))
        # times the old charpoly; both leading 1s are added as sums
        cs = [add(add(q[i], cs[i] if i < k else zero), dot(q[:i][::-1], cs)) for i in range(k + 1)]
    return tuple(cs)


def charpoly_numerators(m: PolyMatrix) -> tuple[tuple[list, ...], int]:
    """Numerators (C_1, ..., C_r) and D with c_i = C_i / D^i.

    Unless a caller seeded the matrix with its own pass (a Higgs field's
    psi holds the numerators of the field's factorized route, the scalar
    `berkowitz` pass at integer nodes and an exact interpolation), D is
    the least common denominator of the coefficients of ``m``, and the
    C_i are the polynomial `berkowitz` coefficients of the numerator
    matrix A = D*m.  The pass runs once per matrix.
    """
    if m._numerators is None:
        nums, d = numerators(c for row in m.rows for e in row for c in e.coeffs)
        it = iter(nums)
        a = [[[next(it) for _ in e.coeffs] for e in row] for row in m.rows]
        m._numerators = (berkowitz(a), d)
    return m._numerators


def poly_matrix_charpoly(m: PolyMatrix) -> list[DensePoly]:
    """Characteristic polynomial coefficients of a polynomial matrix.

    Returns [c_1, ..., c_r] with det(t*Id - m) = t^r + c_1 t^(r-1) + ... + c_r,
    each c_i a polynomial in the matrix variable.  Berkowitz's recurrence
    on the numerators of `charpoly_numerators` divides nowhere; the only
    division is the boundary one c_i = C_i / D^i per coefficient.
    """
    cs, d = charpoly_numerators(m)
    return [DensePoly(ratios(ck, d ** k), m.var) for k, ck in enumerate(cs, start=1)]

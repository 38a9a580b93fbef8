"""Exact field arithmetic over Q, F_p, and simple extensions K[t]/(f).

A :class:`Field` knows how to add, multiply and invert payloads:
``Fraction`` for Q, residues in [0, p) for F_p, and length-d tuples of base
payloads for extensions.  Hot loops (symmetrizer, elimination, graded
elements, skew derivations) call the payload primitives ``_add``/``_neg``/
``_mul``/``_inv``/``_is_zero`` directly; :class:`FieldElement` wraps a
payload with its field at the API boundary, and ``Field.payload`` unwraps
one after checking its field.  An extension multiplies by convolving
coefficients, folding t^d..t^(2d-2) back through reduction rows computed
once, and normalising each coefficient once; it inverts a by solving the
d x d base-field system a*x = 1 with ``linalg.rref``.  A finite extension
of order at most TABLE_ORDER (F_4 up to F_49, so every field a scan admits)
lists its elements once when it is built and fills lookup tables from
those two routes; its ``_add``/``_neg``/``_mul``/``_inv``/``_from_int`` then
read the tables, on the same payloads.  A field pickles as its spec and is
rebuilt from it.  Field specs follow the grammar

    Q | Fp:<prime> | ext:Fp:<prime>:<c0,...,cd> | ext:Q:<c0,...,cd>

where the c_i are the coefficients of the modulus f = sum c_i t^i; a prime
may not exceed PRIME_BOUND, and over Q the monic f cleared to integers may
have no coefficient above Q_MODULUS_HEIGHT in absolute value.  Element
literals are ``a/b`` (rationals), ``k`` (prime fields) and sums of terms
``c``, ``c*t``, ``t^e``, ``c*t^e`` (extensions) with e <= EXPONENT_BOUND.
No numeral in a spec or a literal may exceed LITERAL_LENGTH characters.
Irreducibility over F_p is a gcd with t^(p^k) - t, not a search over roots.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterator

from .errors import (
    DivisionByZero,
    FieldMismatch,
    MalformedSpec,
    NonPrimeCharacteristic,
    ReduciblePolynomial,
)
from .linalg import rref

# Largest admissible characteristic.  Primality is tested by trial division
# up to sqrt(p), about 5 * 10^5 steps at the bound (well under a second).
PRIME_BOUND = 10**12
# Longest numeral int() or Fraction() is given, checked first: Python refuses
# strings over 4300 digits with a bare ValueError.
LITERAL_LENGTH = 1000


def _numeral(text: str) -> str:
    if len(text) > LITERAL_LENGTH:
        raise MalformedSpec(
            f"numeral of {len(text)} characters exceeds {LITERAL_LENGTH}"
        )
    return text


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldElement:
    """An immutable element of a :class:`Field`.

    Arithmetic accepts plain ints on either side (coerced via ``from_int``),
    which keeps scalar formulas like ``1 - q**j * r`` readable.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):  # pragma: no cover - immutability guard
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        return FieldElement, (self.field, self.value)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(
                    f"elements of {self.field.spec} and {other.field.spec}"
                )
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.value, o.value))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(
            self.field, self.field._add(self.value, self.field._neg(o.value))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(
            self.field, self.field._add(o.value, self.field._neg(self.value))
        )

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.value, o.value))

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        if self.field._is_zero(self.value):
            raise DivisionByZero("inverse of zero")
        return FieldElement(self.field, self.field._inv(self.value))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e: int) -> "FieldElement":
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base = self.inv()
            e = -e
        result = self.field.one
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field.spec, self.value))

    def __bool__(self):
        return not self.field._is_zero(self.value)

    def __str__(self):
        return self.field._render(self.value)

    def __repr__(self):
        return f"<{self} in {self.field.spec}>"


class Field:
    """Common interface of the three supported field kinds."""

    kind: str
    characteristic: int
    order: int | None  # None for infinite fields
    spec: str

    # payload-level primitives, provided by subclasses
    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _from_int(self, n: int):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _render(self, a) -> str:
        raise NotImplementedError

    def _parse(self, text: str):
        raise NotImplementedError

    def _iter_payloads(self) -> Iterator:
        raise NotImplementedError

    # public API
    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, self._from_int(0))

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, self._from_int(1))

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, self._from_int(n))

    def parse(self, text: str) -> FieldElement:
        return FieldElement(self, self._parse(text.strip()))

    def payload(self, x: FieldElement):
        """The payload of x; raises FieldMismatch unless x is in this field."""
        if not isinstance(x, FieldElement) or x.field != self:
            raise FieldMismatch(f"{x!r} is not an element of {self.spec}")
        return x.value

    def render(self, x: FieldElement) -> str:
        return self._render(x.value)

    def elements(self) -> Iterator[FieldElement]:
        """All elements, for finite fields only."""
        if self.order is None:
            raise MalformedSpec(f"{self.spec} is infinite; cannot enumerate")
        for payload in self._iter_payloads():
            yield FieldElement(self, payload)

    def units(self) -> Iterator[FieldElement]:
        for x in self.elements():
            if x:
                yield x

    def random_nonzero(self, rng) -> FieldElement:
        while True:
            x = self.random_element(rng)
            if x:
                return x

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __reduce__(self):
        return parse_field_spec, (self.spec,)

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Field({self.spec!r})"


class RationalField(Field):
    kind = "rationals"
    characteristic = 0
    order = None
    spec = "Q"

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return 1 / a

    def _from_int(self, n):
        return Fraction(n)

    def _is_zero(self, a):
        return a == 0

    def _render(self, a):
        return str(a)

    def _parse(self, text):
        if not re.fullmatch(r"[+-]?\d+(?:/\d+)?", text):
            raise MalformedSpec(f"bad rational literal: {text!r}")
        return Fraction(_numeral(text))

    def random_element(self, rng):
        return FieldElement(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


class PrimeField(Field):
    kind = "prime-field"

    def __init__(self, p: int) -> None:
        if p > PRIME_BOUND:
            raise MalformedSpec(f"characteristic {p} exceeds {PRIME_BOUND}")
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p
        self.spec = f"Fp:{p}"

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _from_int(self, n):
        return n % self.p

    def _is_zero(self, a):
        return a == 0

    def _render(self, a):
        return str(a)

    def _parse(self, text):
        if not re.fullmatch(r"[+-]?\d+", text):
            raise MalformedSpec(f"bad prime-field literal: {text!r}")
        return int(_numeral(text)) % self.p

    def _iter_payloads(self):
        return iter(range(self.p))

    def random_element(self, rng):
        return FieldElement(self, rng.randrange(self.p))


# -- polynomial helpers over a base field, on coefficient tuples of payloads --


def _poly_trim(base: Field, cs):
    cs = list(cs)
    while cs and base._is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def _poly_add(base: Field, a, b):
    n = max(len(a), len(b))
    z = base._from_int(0)
    out = [
        base._add(a[i] if i < len(a) else z, b[i] if i < len(b) else z)
        for i in range(n)
    ]
    return _poly_trim(base, out)


def _poly_mul(base: Field, a, b):
    if not a or not b:
        return ()
    z = base._from_int(0)
    out = [z] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = base._add(out[i + j], base._mul(ca, cb))
    return _poly_trim(base, out)


def _poly_divmod(base: Field, a, b):
    """Quotient and remainder of a by b (b nonzero)."""
    a = list(a)
    q = [base._from_int(0)] * max(0, len(a) - len(b) + 1)
    lead_inv = base._inv(b[-1])
    while len(_poly_trim(base, a)) >= len(b):
        a = list(_poly_trim(base, a))
        shift = len(a) - len(b)
        factor = base._mul(a[-1], lead_inv)
        q[shift] = base._add(q[shift], factor)
        for i, cb in enumerate(b):
            a[shift + i] = base._add(a[shift + i], base._neg(base._mul(factor, cb)))
    return _poly_trim(base, q), _poly_trim(base, a)


def _rational_roots_exist(ints: list[int]) -> bool:
    """True if sum ints[i] x^i has a rational root (ints[-1] != 0)."""
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if ints[0] == 0:
        return True  # x = 0
    for p in _divisors(abs(ints[0])):
        for q in _divisors(abs(ints[-1])):
            for sign in (1, -1):
                x = Fraction(sign * p, q)
                if sum(c * x**i for i, c in enumerate(ints)) == 0:
                    return True
    return False


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _quartic_splits_into_quadratics(ints: list[int]) -> bool:
    """Whether an integer quartic has a quadratic factor over Q.

    Monicize by y = a*x (a = leading coefficient); a monic integer quartic
    factors over Q into monic integer quadratics, so enumerate divisor pairs
    of the constant term.
    """
    e0, e1, e2, e3, a = ints
    # h(y) = y^4 + e3*y^3 + a*e2*y^2 + a^2*e1*y + a^3*e0
    h3, h2, h1, h0 = e3, a * e2, a * a * e1, a * a * a * e0
    if h0 == 0:
        return True  # y = 0 is a root, i.e. x = 0
    for b in _divisors(abs(h0)):
        for b_signed in (b, -b):
            if h0 % b_signed != 0:
                continue
            d = h0 // b_signed
            # seek y^4+h3 y^3+h2 y^2+h1 y+h0 = (y^2+A y+b_signed)(y^2+C y+d)
            if d != b_signed:
                num = h1 - h3 * b_signed
                if num % (d - b_signed) != 0:
                    continue
                A = num // (d - b_signed)
                C = h3 - A
                if b_signed + d + A * C == h2:
                    return True
            else:
                if b_signed * h3 != h1:
                    continue
                # A + C = h3, A*C = h2 - 2b
                disc = h3 * h3 - 4 * (h2 - 2 * b_signed)
                if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                    return True
    return False


# Largest |c| among the integer-cleared coefficients of a Q modulus.  The
# quartic test trial-divides a^3 e0 up to its square root, at most H^2 = 10^6
# steps, so a modulus at the bound is checked in well under a second.
Q_MODULUS_HEIGHT = 1000


def _check_irreducible(base: Field, mod) -> None:
    """Raise ReduciblePolynomial unless the monic modulus is irreducible.

    A reducible f of degree d <= 4 has a factor of degree at most d // 2,
    and every such degree divides d // 2.  Over F_p, t^(p^k) - t is the
    product of the monic irreducibles of degree dividing k, so f is
    irreducible iff gcd(f, t^(p^k) - t) = 1 for k = d // 2; t^(p^k) mod f
    takes O(k log p) products.  Over Q, a rational-root test plus divisor
    search on the integer-cleared coefficients, refused with MalformedSpec
    above Q_MODULUS_HEIGHT before any search starts.
    """
    d = len(mod) - 1
    if isinstance(base, PrimeField):
        one = base._from_int(1)
        power, square = (one,), (base._from_int(0), one)
        e = base.p ** (d // 2)
        while e:
            if e & 1:
                power = _poly_divmod(base, _poly_mul(base, power, square), mod)[1]
            square = _poly_divmod(base, _poly_mul(base, square, square), mod)[1]
            e >>= 1
        a, b = mod, _poly_add(base, power, (base._from_int(0), base._neg(one)))
        while b:
            a, b = b, _poly_divmod(base, a, b)[1]
        if len(a) > 1:
            raise ReduciblePolynomial(f"factor of degree <= {d // 2} over F_{base.p}")
    else:
        denom = math.lcm(*(c.denominator for c in mod))
        ints = [int(c * denom) for c in mod]
        if max(abs(c) for c in ints) > Q_MODULUS_HEIGHT:
            raise MalformedSpec(
                f"modulus coefficients, cleared to integers, exceed {Q_MODULUS_HEIGHT}"
            )
        if _rational_roots_exist(ints):
            raise ReduciblePolynomial("rational root")
        if d == 4 and _quartic_splits_into_quadratics(ints):
            raise ReduciblePolynomial("quadratic factor over Q")


# Largest e in a literal term t^e: the term is reduced mod f from a list of
# length e + 1, which at the bound takes well under a second even over Q.
EXPONENT_BOUND = 1000
# Largest finite extension whose arithmetic is tabulated: q^2 = 2401 entries
# per binary table at F_49, built in milliseconds.
TABLE_ORDER = 64
_TERM_RE = re.compile(r"(?:(?P<coeff>[^*\s]+)\*)?t(?:\^(?P<exp>\d+))?")


class ExtensionField(Field):
    """base[t]/(f) for a monic irreducible f of degree 2..4."""

    kind = "extension"

    def __init__(self, base: Field, coeffs) -> None:
        if isinstance(base, ExtensionField):
            raise MalformedSpec("towers of extensions are not supported")
        mod = _poly_trim(base, coeffs)
        deg = len(mod) - 1
        if deg < 2 or deg > 4:
            raise MalformedSpec(f"extension degree {deg} outside 2..4")
        lead_inv = base._inv(mod[-1])
        mod = tuple(base._mul(c, lead_inv) for c in mod)
        _check_irreducible(base, mod)
        self.base = base
        self.modulus = mod
        self.degree = deg
        self._p = getattr(base, "p", None)
        self._zero = base._from_int(0)
        one = base._from_int(1)
        self._t = self._pad((self._zero, one))
        # reduction rows: t^d, ..., t^(2d-2) mod f
        self._rows = tuple(
            self._reduce((self._zero,) * k + (one,)) for k in range(deg, 2 * deg - 1)
        )
        self.characteristic = base.characteristic
        self.order = None if base.order is None else base.order**deg
        base_tag = "Q" if isinstance(base, RationalField) else f"Fp:{base.p}"
        self.spec = f"ext:{base_tag}:" + ",".join(base._render(c) for c in mod)
        if self.order is not None and self.order <= TABLE_ORDER:
            self._tabulate()

    def _tabulate(self) -> None:
        """Shadow the payload primitives with lookups in tables filled by them.

        Binary tables are nested, table[a][b]: two flat-tuple lookups beat
        one keyed on the pair of payloads.
        """
        elements = list(self._iter_payloads())
        zero, p = self._from_int(0), self.base.p
        products = {a: {b: self._mul(a, b) for b in elements} for a in elements}
        sums = {a: {b: self._add(a, b) for b in elements} for a in elements}
        negatives = {a: self._neg(a) for a in elements}
        inverses = {a: self._inv(a) for a in elements if a != zero}
        ints = tuple(self._from_int(n) for n in range(p))

        def inv(a):
            if a == zero:
                raise DivisionByZero("inverse of zero")
            return inverses[a]

        self._mul = lambda a, b: products[a][b]
        self._add = lambda a, b: sums[a][b]
        self._neg = negatives.__getitem__
        self._inv = inv
        self._from_int = lambda n: ints[n % p]

    # payloads are coefficient tuples of length == degree
    def _pad(self, cs):
        z = self.base._from_int(0)
        return tuple(list(cs) + [z] * (self.degree - len(cs)))

    def _reduce(self, cs):
        _, rem = _poly_divmod(self.base, _poly_trim(self.base, cs), self.modulus)
        return self._pad(rem)

    def _canon(self, cs):
        """Canonical payload from raw base sums: % p over F_p, as is over Q."""
        p = self._p
        return tuple(cs) if p is None else tuple([c % p for c in cs])

    def _add(self, a, b):
        return self._canon([x + y for x, y in zip(a, b)])

    def _neg(self, a):
        return self._canon([-x for x in a])

    def _mul(self, a, b):
        """Convolve, then fold t^d.. back through the reduction rows."""
        d = self.degree
        conv = [self._zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    conv[j] += x * y
        out = conv[:d]
        for c, row in zip(conv[d:], self._rows):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return self._canon(out)

    def _inv(self, a):
        """Solve a*x = 1 over the base field: column j of the system is a*t^j."""
        d = self.degree
        cols = [a]
        for _ in range(d - 1):
            cols.append(self._mul(cols[-1], self._t))
        reduced, pivots = rref(self.base, list(zip(*cols, self._from_int(1))))
        if d in pivots:  # a*t^j spans less than the field only when a = 0
            raise DivisionByZero("inverse of zero")
        return tuple(row[d] for row in reduced)

    def _from_int(self, n):
        return self._pad((self.base._from_int(n),))

    def _is_zero(self, a):
        return not any(a)

    def _render(self, a):
        parts = []
        for i, c in enumerate(a):
            if self.base._is_zero(c):
                continue
            cs = self.base._render(c)
            if i == 0:
                parts.append(cs)
            else:
                var = "t" if i == 1 else f"t^{i}"
                parts.append(var if cs == "1" else f"{cs}*{var}")
        return "+".join(parts) if parts else "0"

    def _parse(self, text):
        z = self.base._from_int(0)
        acc = [z] * self.degree
        for term in text.replace(" ", "").split("+"):
            if not term:
                raise MalformedSpec(f"bad extension literal: {text!r}")
            if "t" not in term:
                acc = list(
                    _poly_add(self.base, self._pad(acc), (self.base._parse(term),))
                )
                acc = list(self._pad(acc))
                continue
            neg = False
            if term.startswith("-t"):
                term, neg = term[1:], True
            m = _TERM_RE.fullmatch(term)
            if not m:
                raise MalformedSpec(f"bad extension term: {term!r}")
            exp = int(_numeral(m.group("exp") or "1"))
            if exp > EXPONENT_BOUND:
                raise MalformedSpec(f"exponent {exp} exceeds {EXPONENT_BOUND}")
            coeff = (
                self.base._parse(m.group("coeff"))
                if m.group("coeff")
                else self.base._from_int(1)
            )
            if neg:
                coeff = self.base._neg(coeff)
            mono = [z] * exp + [coeff]
            summed = _poly_add(self.base, tuple(acc), tuple(mono))
            acc = list(self._pad(self._reduce(summed)))
        return tuple(acc)

    def _iter_payloads(self):
        if self.base.order is None:
            raise MalformedSpec(f"{self.spec} is infinite; cannot enumerate")

        return itertools.product(range(self.base.p), repeat=self.degree)

    def random_element(self, rng) -> FieldElement:
        cs = tuple(self.base.random_element(rng).value for _ in range(self.degree))
        return FieldElement(self, cs)

    def gen(self) -> FieldElement:
        """The class of t."""
        return FieldElement(self, self._t)


def parse_field_spec(spec: str) -> Field:
    """Build a field from its descriptor string (see module docstring)."""
    spec = spec.strip()
    if spec == "Q":
        return RationalField()
    if spec.startswith("Fp:"):
        body = spec[3:]
        if not re.fullmatch(r"\d+", body):
            raise MalformedSpec(f"bad prime-field spec: {spec!r}")
        return PrimeField(int(_numeral(body)))
    if spec.startswith("ext:"):
        rest = spec[4:]
        if rest.startswith("Fp:"):
            parts = rest[3:].split(":")
            if len(parts) != 2:
                raise MalformedSpec(f"bad extension spec: {spec!r}")
            if not re.fullmatch(r"\d+", parts[0]):
                raise MalformedSpec(f"bad extension spec: {spec!r}")
            base: Field = PrimeField(int(_numeral(parts[0])))
            coeff_text = parts[1]
        elif rest.startswith("Q:"):
            base = RationalField()
            coeff_text = rest[2:]
        else:
            raise MalformedSpec(f"bad extension base in: {spec!r}")
        if not coeff_text:
            raise MalformedSpec(f"missing modulus coefficients: {spec!r}")
        coeffs = [base._parse(c) for c in coeff_text.split(",")]
        return ExtensionField(base, coeffs)
    raise MalformedSpec(f"unrecognized field spec: {spec!r}")

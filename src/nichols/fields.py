"""Exact field arithmetic over Q, F_p, and simple extensions K[t]/(f).

A :class:`Field` knows how to add, multiply and invert payloads:
``Fraction`` for Q, residues in [0, p) for F_p, length-d tuples of base
payloads for extensions, and ints for tabulated extensions.  Hot loops
(symmetrizer, elimination, graded elements, skew derivations) call the
payload primitives ``_add``/``_neg``/``_mul``/``_inv``/``_is_zero`` directly;
:class:`FieldElement` wraps a payload with its field at the API boundary,
and ``Field.payload`` unwraps one after checking its field.  An extension
multiplies by convolving coefficients and folding t^d..t^(2d-2) back through
reduction rows computed once; it inverts a by solving the d x d base-field
system a*x = 1 with ``linalg.solve``.  That ``_mul`` and that solve build the
reduction rows and the powers of t in literals, and decide irreducibility
over F_p (is t^(p^k) - t a unit modulo f?), with no polynomial division.  A
finite extension of order at most TABLE_ORDER (F_4 up to F_49, so every
field a scan admits) is a :class:`TabulatedField`: its payload is an
element's index in coefficient-tuple order, and its primitives read tuples
of ints filled from digit-wise sums and the log/antilog table of a
generator.  :func:`parse_field_spec` keeps one field per spec string, and a
field pickles as its spec.  Field specs follow the grammar

    Q | Fp:<prime> | ext:Fp:<prime>:<c0,...,cd> | ext:Q:<c0,...,cd>

where the c_i are the coefficients of the modulus f = sum c_i t^i; a prime
may not exceed PRIME_BOUND, and over Q the monic f cleared to integers may
have no coefficient above Q_MODULUS_HEIGHT in absolute value.  Element
literals are ``a/b`` with b nonzero (rationals), ``k`` (prime fields) and
sums of terms ``c``, ``c*t``, ``t^e``, ``c*t^e`` (extensions) with
e <= EXPONENT_BOUND.  No numeral in a spec or a literal may exceed
LITERAL_LENGTH characters.  Any other spec or literal raises a
:class:`NicholsError` (mostly ``MalformedSpec``), never a bare Python error.
"""

from __future__ import annotations

import functools
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
from .linalg import solve

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
    """Common interface of the field kinds.  Each kind provides the payload
    primitives ``_add``, ``_neg``, ``_mul``, ``_inv``, ``_from_int``,
    ``_is_zero``, ``_render`` and ``_parse``, and a finite one
    ``_iter_payloads``, every payload once."""

    kind: str
    characteristic: int
    order: int | None  # None for infinite fields
    spec: str

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

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self.spec == other.spec)

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
        try:
            return Fraction(_numeral(text))
        except ZeroDivisionError:
            raise MalformedSpec(
                f"zero denominator in rational literal: {text!r}"
            ) from None


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


# -- the modulus: trimming over the base field, and the irreducibility test --


def _poly_trim(base: Field, cs):
    cs = list(cs)
    while cs and base._is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def _signed_divisors(n: int) -> list[int]:
    """The divisors of n, of both signs; none for n = 0."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return [sign * e for d in small for e in {d, n // d} for sign in (1, -1)]


def _splits_into_quadratics(h: list[int], divisors: list[int]) -> bool:
    """Whether the monic integer quartic sum h[i] y^i, with h[0] != 0, is
    (y^2 + A y + b)(y^2 + C y + h[0]/b) for a b in ``divisors`` (the signed
    divisors of h[0]) and integers A, C; by Gauss's lemma that is whether it
    has a quadratic factor over Q."""
    h0, h1, h2, h3 = h[:4]
    for b in divisors:
        d = h0 // b
        if d != b:  # A + C = h3 and A d + C b = h1 fix A
            A, rem = divmod(h1 - h3 * b, d - b)
            if not rem and b + d + A * (h3 - A) == h2:
                return True
        elif b * h3 == h1:  # A + C = h3, A*C = h2 - 2b
            disc = h3 * h3 - 4 * (h2 - 2 * b)
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                return True
    return False


# Largest |c| among the integer-cleared coefficients of a Q modulus.  The
# searches trial-divide h_0 = a^(d-1) e_0 up to its square root, at most
# H^2 = 10^6 steps, so a modulus at the bound is checked in well under a second.
Q_MODULUS_HEIGHT = 1000


def _check_irreducible(field: "ExtensionField") -> None:
    """Raise ReduciblePolynomial unless the field's monic modulus f is
    irreducible.

    A reducible f of degree d <= 4 has a factor of degree at most d // 2,
    and every such degree divides k = d // 2.  Over F_p, t^(p^k) - t is the
    product of the monic irreducibles of degree dividing k, so f is
    irreducible iff t^(p^k) - t is a unit of F_p[t]/(f), i.e. coprime to f;
    the field's own power and ``inv`` decide it, in O(k log p) products.
    Over Q, with a the leading coefficient of the integer-cleared f (refused
    with MalformedSpec above Q_MODULUS_HEIGHT before any search starts),
    h(y) = a^(d-1) f(y/a) is monic over Z, so by Gauss's lemma a rational
    root is a divisor of h_0 up to sign, and a quadratic factor is a
    divisor-pair search.
    """
    base, d = field.base, field.degree
    if isinstance(base, PrimeField):
        t = field.gen()
        try:
            (t ** base.p ** (d // 2) - t).inv()
        except DivisionByZero:
            raise ReduciblePolynomial(
                f"factor of degree <= {d // 2} over F_{base.p}"
            ) from None
        return
    denom = math.lcm(*(c.denominator for c in field.modulus))
    ints = [int(c * denom) for c in field.modulus]
    if max(abs(c) for c in ints) > Q_MODULUS_HEIGHT:
        raise MalformedSpec(
            f"modulus coefficients, cleared to integers, exceed {Q_MODULUS_HEIGHT}"
        )
    a = ints[-1]
    h = [c * a ** (d - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    divisors = _signed_divisors(h[0])
    if not h[0] or any(sum(c * y**i for i, c in enumerate(h)) == 0 for y in divisors):
        raise ReduciblePolynomial("rational root")
    if d == 4 and _splits_into_quadratics(h, divisors):
        raise ReduciblePolynomial("quadratic factor over Q")


# Largest e in a literal term t^e: the term takes e products by t, which at
# the bound take well under a second even over Q.
EXPONENT_BOUND = 1000
# Largest finite extension whose arithmetic is tabulated: q^2 = 2401 entries
# per binary table at F_49, built in milliseconds.
TABLE_ORDER = 64
_TERM_RE = re.compile(r"(?:(?P<coeff>[^*\s]+)\*)?t(?:\^(?P<exp>\d+))?")


class ExtensionField(Field):
    """base[t]/(f) for a monic irreducible f of degree 2..4."""

    kind = "extension"

    def __init__(self, base: Field, coeffs) -> None:
        if not isinstance(base, (RationalField, PrimeField)):
            raise MalformedSpec("towers of extensions are not supported")
        mod = _poly_trim(base, coeffs)
        deg = len(mod) - 1
        if deg < 2 or deg > 4:
            raise MalformedSpec(f"extension degree {deg} outside 2..4")
        lead_inv = base._inv(mod[-1])
        mod = tuple(base._mul(c, lead_inv) for c in mod)
        self.base = base
        self.modulus = mod
        self.degree = deg
        self._p = getattr(base, "p", None)
        self._zero = base._from_int(0)
        self._t = self._pad((self._zero, base._from_int(1)))
        # reduction rows t^d, ..., t^(2d-2) mod f: t^d = -(f_0 + ... + f_(d-1) t^(d-1)),
        # then t^(k+1) = t^k * t, which folds only through the rows before it
        self._rows = (tuple(base._neg(c) for c in mod[:-1]),)
        for _ in range(deg, 2 * deg - 2):
            self._rows += (self._mul(self._rows[-1], self._t),)
        self.characteristic = base.characteristic
        self.order = None if base.order is None else base.order**deg
        base_tag = "Q" if isinstance(base, RationalField) else f"Fp:{base.p}"
        self.spec = f"ext:{base_tag}:" + ",".join(base._render(c) for c in mod)
        _check_irreducible(self)  # after the spec: its elements compare by it

    # payloads are coefficient tuples of length == degree
    def _pad(self, cs):
        z = self.base._from_int(0)
        return tuple(list(cs) + [z] * (self.degree - len(cs)))

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
        x = solve(self.base, list(zip(*cols)), self._from_int(1))
        if x is None:  # a*t^j spans less than the field only when a = 0
            raise DivisionByZero("inverse of zero")
        return tuple(x)

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
        acc = self._from_int(0)
        powers: dict = {}  # t^e by square-and-multiply, once per exponent
        for term in text.replace(" ", "").split("+"):
            if not term:
                raise MalformedSpec(f"bad extension literal: {text!r}")
            if "t" not in term:
                acc = self._add(acc, self._pad((self.base._parse(term),)))
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
            if exp not in powers:
                powers[exp] = (self.gen() ** exp).value
            mono = self._mul(self._pad((coeff,)), powers[exp])
            acc = self._add(acc, self._neg(mono) if neg else mono)
        return acc

    def _iter_payloads(self):
        return itertools.product(range(self.base.p), repeat=self.degree)

    def gen(self) -> FieldElement:
        """The class of t."""
        return FieldElement(self, self._t)


class TabulatedField(Field):
    """A finite extension of order at most TABLE_ORDER, on int payloads.

    ``generic`` is the :class:`ExtensionField` on the same modulus.  An
    element's payload is the index of its coefficient tuple in
    ``generic._iter_payloads()`` order, so 0 is zero and units keep their
    order.  Sums are tabulated digit-wise; products and inverses come from
    the antilog table of the first unit whose powers, by ``generic._mul``,
    reach every unit.  Literals and rendering pass through ``generic``.
    """

    kind = "extension"

    def __init__(self, generic: ExtensionField) -> None:
        self.generic = generic
        for name in ("base", "modulus", "degree", "characteristic", "order", "spec"):
            setattr(self, name, getattr(generic, name))
        n = self.order
        self._tuples = tuples = tuple(generic._iter_payloads())
        self._index = index = {c: i for i, c in enumerate(tuples)}
        self._sums = tuple(tuple(index[generic._add(a, b)] for b in tuples) for a in tuples)
        self._negatives = tuple(index[generic._neg(a)] for a in tuples)
        self._ints = tuple(index[generic._from_int(k)] for k in range(self.characteristic))
        one = generic._from_int(1)
        for g in tuples[1:]:
            antilog = [one]
            while (power := generic._mul(antilog[-1], g)) != one:
                antilog.append(power)
            if len(antilog) == n - 1:
                break
        exp = [index[x] for x in antilog] * 2  # g^k for 0 <= k < 2(n - 1)
        log = dict(zip(exp, range(n - 1)))
        self._products = tuple(
            tuple(exp[log[a] + log[b]] if a and b else 0 for b in range(n)) for a in range(n)
        )
        self._inverses = (None,) + tuple(exp[n - 1 - log[a]] for a in range(1, n))

    def _add(self, a, b):
        return self._sums[a][b]

    def _neg(self, a):
        return self._negatives[a]

    def _mul(self, a, b):
        return self._products[a][b]

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._inverses[a]

    def _from_int(self, n):
        return self._ints[n % self.characteristic]

    def _is_zero(self, a):
        return a == 0

    def _render(self, a):
        return self.generic._render(self._tuples[a])

    def _parse(self, text):
        return self._index[self.generic._parse(text)]

    def _iter_payloads(self):
        return iter(range(self.order))

    def gen(self) -> FieldElement:
        """The class of t."""
        return FieldElement(self, self._index[self.generic._t])


@functools.lru_cache(maxsize=32)
def parse_field_spec(spec: str) -> Field:
    """Build a field from its descriptor string (see module docstring).  The
    field is kept per spec string, so a process builds each field once."""
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
        field = ExtensionField(base, [base._parse(c) for c in coeff_text.split(",")])
        if field.order is not None and field.order <= TABLE_ORDER:
            return TabulatedField(field)
        return field
    raise MalformedSpec(f"unrecognized field spec: {spec!r}")

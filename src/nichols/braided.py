"""The rank-2 free braided algebra: words, graded elements, bicharacter,
skew derivations, the adjoint action of x1, and Lyndon/super-letter machinery.

Words are tuples over {1, 2}; a :class:`GradedElement` is a finite map from
words to nonzero payloads of its field; FieldElements appear only at its API
(the constructor, ``from_word`` and ``scale`` take them, ``coeff`` returns
one).  All operations return new values.
"""

from __future__ import annotations

from typing import Iterable

from .errors import FieldMismatch, NonHomogeneous, NotLyndon
from .fields import Field, FieldElement
from .qcalc import BraidingParams

Word = tuple  # tuple of letters in {1, 2}

ALPHA1 = (1, 0)
ALPHA2 = (0, 1)


def multidegree(word: Word) -> tuple:
    """(number of 1s, number of 2s)."""
    ones = sum(1 for letter in word if letter == 1)
    return (ones, len(word) - ones)


def chi(alpha: tuple, beta: tuple, params: BraidingParams) -> FieldElement:
    """Bicharacter: chi(alpha, beta) = prod q_ij^(a_i b_j).

    Negative components are allowed (entries are units).
    """
    a1, a2 = alpha
    b1, b2 = beta
    return (
        params.q11 ** (a1 * b1)
        * params.q12 ** (a1 * b2)
        * params.q21 ** (a2 * b1)
        * params.q22 ** (a2 * b2)
    )


class GradedElement:
    """A Z^2-graded element of the free algebra on x1, x2 (payload terms)."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict | None = None) -> None:
        self.field = field
        self.terms = {w: field.payload(c) for w, c in (terms or {}).items() if c}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_payloads(cls, field: Field, terms: dict) -> "GradedElement":
        """An element from a word -> payload map; zero payloads are dropped."""
        x = object.__new__(cls)
        x.field = field
        x.terms = {w: v for w, v in terms.items() if not field._is_zero(v)}
        return x

    @classmethod
    def zero(cls, field: Field) -> "GradedElement":
        return cls(field, {})

    @classmethod
    def from_word(
        cls, field: Field, word: Iterable, coeff: FieldElement | None = None
    ) -> "GradedElement":
        return cls(field, {tuple(word): coeff if coeff is not None else field.one})

    @classmethod
    def generator(cls, field: Field, letter: int) -> "GradedElement":
        if letter not in (1, 2):
            raise ValueError(f"letter must be 1 or 2, got {letter}")
        return cls.from_word(field, (letter,))

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {multidegree(w) for w in self.terms}
        return len(degrees) <= 1

    def degree(self) -> tuple:
        """The common multidegree; raises on zero or inhomogeneous input."""
        degrees = {multidegree(w) for w in self.terms}
        if len(degrees) != 1:
            raise NonHomogeneous(f"element has {len(degrees)} distinct multidegrees")
        return next(iter(degrees))

    def key(self) -> tuple:
        """A hashable canonical form (for memo tables)."""
        return tuple(sorted(self.terms.items()))

    def coeff(self, word: Iterable) -> FieldElement:
        field = self.field
        return FieldElement(field, self.terms.get(tuple(word), field._from_int(0)))

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "GradedElement") -> None:
        if other.field != self.field:
            raise FieldMismatch("elements over different fields")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._check(other)
        add = self.field._add
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = add(terms[w], c) if w in terms else c
        return GradedElement.from_payloads(self.field, terms)

    def __neg__(self) -> "GradedElement":
        return self.scale(-1)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def scale(self, scalar) -> "GradedElement":
        field = self.field
        s = field.payload(field.from_int(scalar) if isinstance(scalar, int) else scalar)
        mul = field._mul
        return GradedElement.from_payloads(
            field, {w: mul(s, c) for w, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, GradedElement):
            self._check(other)
            add, mul = self.field._add, self.field._mul
            out: dict = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w, c = w1 + w2, mul(c1, c2)
                    out[w] = add(out[w], c) if w in out else c
            return GradedElement.from_payloads(self.field, out)
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    __hash__ = None  # mutable mapping inside; use key() for memo tables

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.key():
            mono = "".join(f"x{letter}" for letter in w) or "1"
            parts.append(f"({self.field._render(c)})*{mono}")
        return " + ".join(parts)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        render = self.field._render
        return {"terms": [{"word": list(w), "coeff": render(c)} for w, c in self.key()]}

    @classmethod
    def from_json(cls, field: Field, data: dict) -> "GradedElement":
        terms = {tuple(t["word"]): field.parse(t["coeff"]) for t in data["terms"]}
        return cls(field, terms)


# -- skew derivations and the adjoint action ----------------------------------


def skew_derive(i: int, x: GradedElement, params: BraidingParams) -> GradedElement:
    """d_i, extended from d_i(x_j) = delta_ij by the twisted Leibniz rule.

    On a word it removes one occurrence of the letter i at a time, weighted
    by chi(deg of the prefix, alpha_i): the product of q_{letter, i} over
    the letters of the prefix, built up on payloads as the prefix grows.
    """
    field = x.field
    if params.field != field:
        raise FieldMismatch("element and braiding over different fields")
    add, mul = field._add, field._mul
    q_to_i = {a: field.payload(getattr(params, f"q{a}{i}")) for a in (1, 2)}
    out: dict = {}
    for w, factor in x.terms.items():
        for t, letter in enumerate(w):
            if letter == i:
                reduced = w[:t] + w[t + 1 :]
                prev = out.get(reduced)
                out[reduced] = factor if prev is None else add(prev, factor)
            factor = mul(factor, q_to_i[letter])
    return GradedElement.from_payloads(field, out)


def ad_x1(y: GradedElement, params: BraidingParams) -> GradedElement:
    """ad x1 (y) = x1*y - chi(alpha1, deg y) * y * x1, for homogeneous y."""
    if y.is_zero():
        return y
    deg = y.degree()
    x1 = GradedElement.generator(y.field, 1)
    return x1 * y - (chi(ALPHA1, deg, params) * (y * x1))


def ad_x1_pow(m: int, y: GradedElement, params: BraidingParams) -> GradedElement:
    for _ in range(m):
        y = ad_x1(y, params)
    return y


# -- Lyndon words and super-letters --------------------------------------------


def is_lyndon(word: Word) -> bool:
    """Strictly smaller than each proper suffix (prefixes compare smaller)."""
    if not word:
        return False
    return all(word < word[t:] for t in range(1, len(word)))


def shirshov_superletter(word: Word, params: BraidingParams) -> GradedElement:
    """The iterated braided bracket [word] of a Lyndon word.

    Decomposition w = uv with v the lexicographically smallest proper suffix
    (equivalently the longest proper Lyndon suffix); then
    [w] = [u][v] - chi(deg u, deg v) [v][u].
    """
    word = tuple(word)
    if not is_lyndon(word):
        raise NotLyndon(f"{word} is not a Lyndon word")
    field = params.field
    if len(word) == 1:
        return GradedElement.generator(field, word[0])
    v = min(word[t:] for t in range(1, len(word)))
    u = word[: len(word) - len(v)]
    bu = shirshov_superletter(u, params)
    bv = shirshov_superletter(v, params)
    return bu * bv - chi(multidegree(u), multidegree(v), params) * (bv * bu)

"""Core value types for the partic algebra.

Everything here is an immutable value: words in the generators a_1..a_{N-1},
multidegrees (occurrence counts of each generator), normal monomials in
exponent form, and finite linear combinations with exact rational
coefficients.  Index 0 is reserved for the affine variant (``partic.affine``)
and never appears in classical words.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

MIN_RANK = 3

Scalar = int | Fraction


def check_rank(n: int) -> int:
    if not isinstance(n, int) or n < MIN_RANK:
        raise ValueError(f"rank must be an integer >= {MIN_RANK}, got {n!r}")
    return n


def _check_gen(i: int, n: int) -> None:
    """Refuse a generator index outside 1..N-1, or not an int: a float or a bool would index a list."""
    if type(i) is not int:
        raise ValueError(f"generator index {i!r} is not an integer")
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")


def parse_ints(text: str) -> tuple[int, ...]:
    """Parse comma- or whitespace-separated integers ('' gives the empty tuple)."""
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"cannot parse integer sequence from {text!r}") from None


def _json_int(x) -> int:
    """A JSON integer; bools, floats and strings raise TypeError."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _json_ints(xs) -> tuple[int, ...]:
    if not isinstance(xs, list):
        raise TypeError(f"expected a list of integers, got {xs!r}")
    return tuple(_json_int(x) for x in xs)


# the letters 1..N-1 of each rank met up to _SET_RANKS, so that Word checks its letters in one C-level call
_LETTERS: dict[int, frozenset[int]] = {}
_SET_RANKS = 1 << 10


def _letter_set(n: int, letters: tuple) -> frozenset:
    """A set that holds every letter of ``letters`` in 1..n-1 and no other of them: all of 1..n-1, kept in
    ``_LETTERS``, up to rank ``_SET_RANKS``; past it only those of ``letters``, so no rank builds a large set."""
    if n > _SET_RANKS:
        return frozenset(filter(range(1, n).__contains__, letters))
    allowed = _LETTERS[n] = frozenset(range(1, n))
    return allowed


@dataclass(frozen=True, order=True, slots=True)
class Word:
    """A raw monomial in the free algebra: a finite sequence of generator indices.

    The written order is the product order: ``Word(5, (4, 3, 2, 1, 2))`` is
    a_4 a_3 a_2 a_1 a_2.  The empty word is the unit.  A letter must equal
    one of the ints 1..N-1: 1.5, nan and "1" are refused, while True and 2.0,
    which hash and compare as ints, pass.
    """

    n: int
    letters: tuple[int, ...] = ()

    def __init__(self, n: int, letters: Iterable[int] = ()) -> None:
        # a float rank equal to a cached one must not find it: check_rank refuses it
        allowed = _LETTERS.get(n) if type(n) is int else None
        if allowed is None:
            check_rank(n)
            letters = tuple(letters)
            allowed = _letter_set(n, letters)
        elif type(letters) is not tuple:
            letters = tuple(letters)
        if not allowed.issuperset(letters):
            bad = next(a for a in letters if a not in allowed)
            raise ValueError(f"letter {bad!r} out of range 1..{n - 1}")
        _set_n(self, n)
        _set_letters(self, letters)

    @staticmethod
    def parse(n: int, text: str) -> Word:
        return Word(n, parse_ints(text))

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.letters)


# the slots' own setters: like object.__setattr__ they pass the frozen __setattr__ by, in a cheaper call
_set_n, _set_letters = Word.n.__set__, Word.letters.__set__


@dataclass(frozen=True, order=True, slots=True)
class MultiDegree:
    """Occurrence counts of each generator: counts[i-1] counts a_i.

    Every defining relation permutes letters, so the multidegree of a word
    is invariant under rewriting; it is the natural grading.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) < MIN_RANK - 1:
            raise ValueError("a multidegree needs at least 2 components (rank >= 3)")
        if not {*map(type, counts)} <= {int}:
            raise ValueError(f"multidegree components must be integers, got {counts}")
        if min(counts) < 0:
            raise ValueError("multidegree components must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.counts) + 1

    def total(self) -> int:
        return sum(self.counts)

    def bump(self, i: int) -> MultiDegree:
        """The degree with one extra occurrence of a_i."""
        _check_gen(i, self.n)
        c = list(self.counts)
        c[i - 1] += 1
        return MultiDegree(tuple(c))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.counts)


def _check_bound(bound: int, name: str) -> int:
    """Refuse, naming it, a sweep bound that is not a nonnegative int; a bool counts as not one.

    Every bound of the package is refused here and nowhere else.
    """
    if type(bound) is not int:  # 1.5 would never run out, and the odometer never stop
        raise ValueError(f"{name} {bound!r} is not an integer")
    if bound < 0:  # a check would pass having examined nothing
        raise ValueError(f"{name} must be nonnegative, got {bound}")
    return bound


def compositions(parts: int, budget: int, name: str = "budget") -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers with sum <= budget (refused as ``name``), lexicographic."""
    return _odometer(parts, _check_bound(budget, name))  # raised here, not at the first next()


def _odometer(parts: int, budget: int) -> Iterator[tuple[int, ...]]:
    # iterative, so the number of parts is not bounded by the recursion limit
    occ = [0] * parts
    left = budget
    while True:
        yield tuple(occ)
        if left and parts:
            occ[-1] += 1
            left -= 1
            continue
        # the budget is spent: carry from the last nonzero part into the one before it
        j = parts - 1
        while j > 0 and not occ[j]:
            j -= 1
        if j <= 0:
            return
        left += occ[j] - 1
        occ[j] = 0
        occ[j - 1] += 1


_set_counts = MultiDegree.counts.__set__


def multidegrees_up_to(n: int, max_degree: int) -> list[MultiDegree]:
    """All multidegrees of rank n with total degree <= max_degree, by total then lex."""
    check_rank(n)
    # the odometer yields lex order and the sort is stable, so sorting by total alone keeps lex within a total
    combos = sorted(compositions(n - 1, max_degree, "max_degree"), key=sum)
    # each is a tuple of n - 1 >= 2 nonnegative ints, so it goes straight into the slot, as in Word
    degrees = []
    for counts in combos:
        delta = object.__new__(MultiDegree)
        _set_counts(delta, counts)
        degrees.append(delta)
    return degrees


def normal_condition(d: Iterable[int], k: Iterable[int]) -> bool:
    """Exponent condition for normal monomials: d_2 <= k_1 and d_i <= d_{i-1} + k_{i-1}.

    ``d`` lists exponents for generators 2..N-1, ``k`` for 1..N-1.
    """
    d = tuple(d)
    k = tuple(k)
    # k is never empty here; d_1 = 0 makes d_2 <= k_1 the first running comparison
    if len(k) != len(d) + 1 or min(k) < 0 or (d and min(d) < 0):
        return False
    prev = 0
    for dj, kj in zip(d, k):
        if dj > prev + kj:
            return False
        prev = dj
    return True


@dataclass(frozen=True, order=True, slots=True)
class NormalMonomial:
    """Basis monomial a_{N-1}^{d_{N-1}} .. a_2^{d_2} a_1^{k_1} a_2^{k_2} .. a_{N-1}^{k_{N-1}}.

    ``d`` is indexed by generators 2..N-1 (there is no d_1 slot; operations
    use the convention d_1 = 0) and ``k`` by generators 1..N-1.  The tuple
    ordering (d, k) is the canonical term order.
    """

    n: int
    d: tuple[int, ...]
    k: tuple[int, ...]

    def __post_init__(self) -> None:
        check_rank(self.n)
        object.__setattr__(self, "d", tuple(self.d))
        object.__setattr__(self, "k", tuple(self.k))
        if len(self.d) != self.n - 2 or len(self.k) != self.n - 1:
            raise ValueError(
                f"rank {self.n} needs {self.n - 2} descending and {self.n - 1} ascending exponents"
            )
        if any(type(e) is not int for e in self.d + self.k):  # bools too: to_json would write true
            raise ValueError(f"exponents must be integers, got d={self.d} k={self.k}")
        if not normal_condition(self.d, self.k):
            raise ValueError(f"exponents violate the normal-form condition: d={self.d} k={self.k}")

    @staticmethod
    def unit(n: int) -> NormalMonomial:
        check_rank(n)
        return NormalMonomial(n, (0,) * (n - 2), (0,) * (n - 1))

    def to_json(self) -> dict:
        return {"N": self.n, "d": list(self.d), "k": list(self.k)}

    @staticmethod
    def from_json(obj: Mapping) -> NormalMonomial:
        try:
            return NormalMonomial(_json_int(obj["N"]), _json_ints(obj["d"]), _json_ints(obj["k"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed monomial JSON: {exc!r}") from None

    def __str__(self) -> str:
        factors = []
        for i in range(self.n - 1, 1, -1):
            e = self.d[i - 2]
            if e:
                factors.append(f"a{i}" + (f"^{e}" if e > 1 else ""))
        for i in range(1, self.n):
            e = self.k[i - 1]
            if e:
                factors.append(f"a{i}" + (f"^{e}" if e > 1 else ""))
        return " ".join(factors) if factors else "1"


def _refuse_assignment(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# dataclass(frozen=True) refuses a __setattr__ in the class body, and on Python 3.11 the one it
# generates for a slotted class raises a misleading TypeError for a name that is not a field
# (MultiDegree.n among them), as it refers to the class before slots=True rebuilt it.  The
# constructors set their slots through the slot setters or object.__setattr__, so they pass these by.
# particles and affine install them on their value types too
for _cls in (Word, MultiDegree, NormalMonomial):
    _cls.__setattr__, _cls.__delattr__ = _refuse_assignment, _refuse_deletion


def nm_to_word(m: NormalMonomial) -> Word:
    """Expand a normal monomial to its defining word (descending then ascending)."""
    return Word(m.n, _nm_letters(m.d, m.k))


def _nm_letters(d: tuple[int, ...], k: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of :func:`nm_to_word` for the exponents (d, k), unvalidated."""
    letters: list[int] = []
    for i in range(len(k), 1, -1):
        letters += [i] * d[i - 2]
    for i, e in enumerate(k, 1):
        letters += [i] * e
    return tuple(letters)


def _exact(c) -> Fraction:
    """A coefficient as a Fraction; a float, or any type but int and Fraction, raises TypeError."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, got {c!r}")
    return Fraction(c)


class AlgebraElement:
    """Linear combination of normal monomials of one rank, with exact rational coefficients.

    Zero coefficients are never stored, so equality is term-set equality and
    is independent of insertion order.  A coefficient is an ``int`` or a
    ``Fraction``: a float would be stored as its binary expansion, so it
    raises TypeError, in the constructor and in :meth:`scaled` alike.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping | Iterable[tuple] = ()) -> None:
        check_rank(n)
        self.n = n
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[NormalMonomial, Fraction] = {}
        for m, coeff in items:
            if not isinstance(m, NormalMonomial) or m.n != n:
                raise ValueError(f"term keys must be NormalMonomial of rank {n}")
            acc[m] = acc.get(m, 0) + _exact(coeff)
        self.terms = {m: c for m, c in acc.items() if c}

    @staticmethod
    def from_monomial(m: NormalMonomial, coeff: Scalar = 1) -> AlgebraElement:
        return AlgebraElement(m.n, {m: coeff})

    def sorted_terms(self) -> list[tuple[NormalMonomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and other.n == self.n and other.terms == self.terms

    __hash__ = None

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement) or other.n != self.n:
            raise ValueError("can only add elements of the same rank")
        return AlgebraElement(self.n, [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> AlgebraElement:
        return self.scaled(-1)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def scaled(self, c: Scalar) -> AlgebraElement:
        c = _exact(c)
        return AlgebraElement(self.n, {m: c * v for m, v in self.terms.items()})

    __rmul__ = scaled

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            from .normal_form import element_product

            return element_product(self, other)
        return self.scaled(other)

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, coeff in self.sorted_terms():
            if coeff == 1:
                parts.append(str(m))
            elif coeff == -1:
                parts.append(f"-{m}")
            else:
                parts.append(f"{coeff}*{m}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.n}, {self.pretty()})"

"""Routes to the certified facts that do not go through the partic package.

Nothing here imports partic. The particle movers, the greedy labelling and
the counting formulas are written from the definitions in the package README,
so the benchmark's checks never call the code they certify. Configurations
are plain tuples: on the line, counts at positions 1..N-1 then the deposit;
on the circle, counts at positions 1..N.
"""
from __future__ import annotations

from itertools import product
from math import comb, factorial, prod

Letters = tuple[int, ...]


def move(occ: tuple[int, ...], letters: Letters) -> tuple[int, ...] | None:
    """Act on a line configuration, rightmost letter first; None if annihilated.

    a_i moves one particle from position i to i+1, and from N-1 into the
    deposit, which is stored right after position N-1.
    """
    cur = list(occ)
    for a in reversed(letters):
        if cur[a - 1] == 0:
            return None
        cur[a - 1] -= 1
        cur[a] += 1
    return tuple(cur)


def cyclic_move(occ: tuple[int, ...], t: int, letters: Letters) -> tuple[tuple[int, ...], int] | None:
    """Act on a circle configuration with wraparound exponent t; None if annihilated.

    a_i (1 <= i <= N-1) moves a particle from position i to i+1; a_0 moves
    one from position N to position 1 and raises t by one.
    """
    n = len(occ)
    cur = list(occ)
    for a in reversed(letters):
        src = (a - 1) % n
        if cur[src] == 0:
            return None
        cur[src] -= 1
        cur[a] += 1
        t += a == 0
    return tuple(cur), t


def greedy_label(n: int, letters: Letters) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(output, minimal input) of a word on the line, found by simulation.

    Letters act rightmost first; whenever the source position is empty one
    particle is added to the input there. The particle flows do not depend
    on the input, so this gives the componentwise smallest input the word
    does not annihilate, and the output is its image.
    """
    need = [0] * n
    cur = [0] * n
    for a in reversed(letters):
        if cur[a - 1] == 0:
            need[a - 1] += 1
            cur[a - 1] += 1
        cur[a - 1] -= 1
        cur[a] += 1
    return tuple(cur), tuple(need)


def words_up_to(n: int, max_len: int) -> list[Letters]:
    return [w for length in range(max_len + 1) for w in product(range(1, n), repeat=length)]


def sweep_size(n: int, max_len: int) -> int:
    """Number of words of length <= max_len in N-1 letters: sum of (N-1)^l."""
    return sum((n - 1) ** length for length in range(max_len + 1))


def line_configurations(n: int, particles: int, deposit: int) -> list[tuple[int, ...]]:
    """At most ``particles`` on positions 1..N-1, deposit 0..``deposit``."""
    return [
        body + (dep,)
        for body in product(range(particles + 1), repeat=n - 1)
        if sum(body) <= particles
        for dep in range(deposit + 1)
    ]


def line_config_count(n: int, particles: int, deposit: int) -> int:
    """C(P+N-1, N-1) * (deposit+1): the size of ``line_configurations``."""
    return comb(particles + n - 1, n - 1) * (deposit + 1)


def circle_configurations(n: int, particles: int) -> list[tuple[int, ...]]:
    return [c for c in product(range(particles + 1), repeat=n) if sum(c) <= particles]


def circle_config_count(n: int, particles: int) -> int:
    """C(P+N, N): the size of ``circle_configurations``."""
    return comb(particles + n, n)


def degrees_up_to(n: int, max_total: int) -> list[tuple[int, ...]]:
    return [c for c in product(range(max_total + 1), repeat=n - 1) if sum(c) <= max_total]


def degrees_of_total(n: int, total: int) -> list[tuple[int, ...]]:
    return [c for c in degrees_up_to(n, total) if sum(c) == total]


def multinomial(counts: tuple[int, ...]) -> int:
    """Number of words with the given letter counts."""
    return factorial(sum(counts)) // prod(factorial(c) for c in counts)


def basis_size(counts: tuple[int, ...]) -> int:
    """Partic classes in one multidegree: the product of min(delta_{i-1}, delta_i) + 1."""
    return prod(min(a, b) + 1 for a, b in zip(counts, counts[1:]))


def degree_of_exponents(d: tuple[int, ...], k: tuple[int, ...]) -> tuple[int, ...]:
    """Letter counts of a_{N-1}^d .. a_2^d a_1^k .. a_{N-1}^k (d indexed from a_2)."""
    return (k[0],) + tuple(ki + di for ki, di in zip(k[1:], d))


def monomial_word(d: tuple[int, ...], k: tuple[int, ...]) -> Letters:
    """The defining word of a normal monomial: descending part, then ascending."""
    n = len(k) + 1
    desc = [i for i in range(n - 1, 1, -1) for _ in range(d[i - 2])]
    asc = [i for i in range(1, n) for _ in range(k[i - 1])]
    return tuple(desc + asc)


def bumped(counts: tuple[int, ...], i: int) -> tuple[int, ...]:
    return counts[: i - 1] + (counts[i - 1] + 1,) + counts[i:]


def center_dimension(counts: tuple[int, ...]) -> int:
    """1 at r*(1,...,1), else 0: the graded center the paper predicts."""
    return 1 if len(set(counts)) == 1 else 0


def center_shape(counts: tuple[int, ...]) -> tuple[int, int]:
    """(rows, cols) of the stacked commutator matrix of one multidegree."""
    rows = sum(basis_size(bumped(counts, i)) for i in range(1, len(counts) + 1))
    return rows, basis_size(counts)


def candidate_exponents(n: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Normal form of (a_{N-1} ... a_1)^r: every d_i = r, k = (r, 0, ..., 0)."""
    return (r,) * (n - 2), (r,) + (0,) * (n - 2)


def descending_cycle(n: int, r: int) -> Letters:
    return tuple(range(n - 1, 0, -1)) * r

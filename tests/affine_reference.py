"""Reference route for ``partic.affine._relation_stream``, kept with the tests that compare against it."""
from itertools import product

from partic.core import check_rank


def relation_pairs_eager(n, m_max, k_max):
    """Every (lhs, rhs) letter pair of the cyclic relation families, listed first, then deduplicated."""
    check_rank(n)
    if m_max < 0 or k_max < 0:
        raise ValueError("bounds must be nonnegative")
    pairs = []
    # distant commutation: a_i a_j = a_j a_i for i - j != +-1 mod N
    for i in range(n):
        for j in range(i + 1, n):
            if (j - i) % n not in (1, n - 1):
                pairs.append(((i, j), (j, i)))
    # a_i a_{i-1} a_i = a_i a_i a_{i-1}
    for i in range(n):
        im1 = (i - 1) % n
        pairs.append(((i, im1, i), (i, i, im1)))
    # a_i a_{i+1} a_i = a_{i+1} a_i a_i
    for i in range(n):
        ip1 = (i + 1) % n
        pairs.append(((i, ip1, i), (ip1, i, i)))
    # a_i a_{i-1} a_{i+1} a_i = a_{i+1} a_i a_{i-1} a_i, for N >= 4 only
    if n >= 4:
        for i in range(n):
            im1, ip1 = (i - 1) % n, (i + 1) % n
            pairs.append(((i, im1, ip1, i), (ip1, i, im1, i)))
    # the two parametrized families
    for i in range(n):
        im1 = (i - 1) % n
        middle_positions = [(i + s) % n for s in range(1, n - 1)]
        mids = [
            tuple(p for p, e in zip(middle_positions, ks) for _ in range(e))
            for ks in product(range(k_max + 1), repeat=n - 2)
        ]
        for m in range(m_max + 1):
            head, tail = (i,) * m, (im1,) * m
            for mp in range(m_max + 1):
                for mid in mids:
                    pairs.append(((im1,) * mp + head + mid + tail, head + (im1,) * mp + mid + tail))
                    pairs.append((head + mid + tail + (i,) * mp, head + mid + (i,) * mp + tail))
    return list(dict.fromkeys(pairs))

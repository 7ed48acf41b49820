"""The scan form of ``partic.core.normal_condition``, kept with the test that compares against it."""


def normal_condition_scan(d, k) -> bool:
    d = tuple(d)
    k = tuple(k)
    if len(k) != len(d) + 1:
        return False
    if any(x < 0 for x in d) or any(x < 0 for x in k):
        return False
    if d and d[0] > k[0]:
        return False
    for j in range(1, len(d)):
        # d_{j+2} <= d_{j+1} + k_{j+1}
        if d[j] > d[j - 1] + k[j]:
            return False
    return True

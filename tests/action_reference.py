"""Brute-force references for the particle action: the ``action-factoring`` check, and the action of algebra elements."""
from itertools import product

from partic import normal_form
from partic.core import AlgebraElement, Word, nm_to_word
from partic.normal_form import normalize
from partic.particles import ANNIHILATED, act_word, configurations, word_label


def _words(n: int, max_len: int):
    # enumerated here, not by the pass under test, so a word that pass skips is still checked
    for length in range(max_len + 1):
        yield from product(range(1, n), repeat=length)


def action_factoring_bruteforce(n: int, max_len: int, max_deposit: int):
    """Act each word and its normal form on every configuration within the bounds.

    Configurations hold at most ``max_len`` particles on the line and at most
    ``max_deposit`` in the deposit.
    """
    configs = list(configurations(n, max_len, max_deposit))
    for letters in _words(n, max_len):
        w = Word(n, letters)
        nf_word = nm_to_word(normalize(w))
        for c in configs:
            if act_word(w, c) != act_word(nf_word, c):
                return False, f"word {letters} and its normal form act differently on {c}"
    return True, None


def action_factoring_label_sweep(n: int, max_len: int, fold=None):
    """(passed, first word whose label differs from that of its normal form's expansion).

    Shortest words first, then lexicographic.  ``fold`` gives the normal form;
    by default ``normal_form.normalize``, looked up at call time.
    """
    fold = fold or normal_form.normalize
    for letters in _words(n, max_len):
        w = Word(n, letters)
        if word_label(w) != word_label(nm_to_word(fold(w))):
            return False, letters
    return True, None


def act(e: AlgebraElement, v: dict) -> dict:
    """Bilinear extension of the word action to a ``{Configuration: coefficient}`` sum.

    Annihilated terms drop out, and so do coefficients that sum to zero.
    """
    out = {}
    for m, cm in e.terms.items():
        w = nm_to_word(m)
        for c, cv in v.items():
            image = act_word(w, c)
            if image is not ANNIHILATED:
                out[image] = out.get(image, 0) + cm * cv
    return {c: x for c, x in out.items() if x}

"""Word-by-word sweep for the ``fold-agreement`` check, kept with the tests that compare against it."""
from action_reference import _words
from partic import normal_form
from partic.core import Word


def fold_agreement_sweep(n: int, max_len: int):
    """(passed, first word on which the folds disagree), shortest words first, then lexicographic.

    The folds are looked up at call time, so rules patched into ``normal_form`` are used.
    """
    for letters in _words(n, max_len):
        w = Word(n, letters)
        if normal_form.normalize(w) != normal_form.normalize_right_to_left(w):
            return False, letters
    return True, None

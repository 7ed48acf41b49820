"""The ``action-factoring`` check against its brute-force reference."""
import pytest

import action_reference
from partic import normal_form, particles, verify
from partic.core import Word
from partic.verify import VerifyConfig


@pytest.mark.parametrize("n", [3, 4, 5])
def test_action_factoring_agrees_with_reference(n):
    cfg = VerifyConfig(n, max_len=4)
    reference = action_reference.action_factoring_bruteforce(cfg)
    assert verify._check_action_factoring(cfg) == reference == (True, None)


def _normalize_mapping(letters, image):
    real = normal_form.normalize

    def broken(w):
        return real(Word(w.n, image) if w.letters == letters else w)

    return broken


@pytest.mark.parametrize(
    "letters, image",
    [
        ((1, 2), (2, 1)),  # minimal inputs (1,1,0) and (1,0,0): a1 a2 annihilates (1,0,0)
        ((1,), (2, 1)),  # both minimal inputs (1,0,0), outputs (0,1,0) and (0,0,1)
    ],
)
def test_broken_normalize_fails_both_routes_on_the_same_word(monkeypatch, letters, image):
    broken = _normalize_mapping(letters, image)
    monkeypatch.setattr(verify, "normalize", broken)
    monkeypatch.setattr(action_reference, "normalize", broken)
    cfg = VerifyConfig(3, max_len=3)
    prefix = f"word {letters} and its normal form act differently on "
    reference = action_reference.action_factoring_bruteforce(cfg)
    for passed, counterexample in (verify._check_action_factoring(cfg), reference):
        assert not passed
        assert counterexample.startswith(prefix)


def test_labels_that_tell_apart_words_acting_alike_fail_the_check(monkeypatch):
    # a wrong labelling must fail the check, not pass it
    real = particles.word_label
    monkeypatch.setattr(verify, "word_label", lambda w: (w.letters, real(w)[1]))
    passed, counterexample = verify._check_action_factoring(VerifyConfig(3, max_len=3))
    assert not passed
    assert "differ, yet act alike" in counterexample

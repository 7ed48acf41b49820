"""The four benchmark workloads: their inputs, the timed calls into partic, and the checks.

A workload is built from the seed and then runs whole rounds. Inside a
round only the calls into the program are timed, through ``Clock.program``
(see ``clock.py``). Every check runs outside that region and compares the
program's output with a route from ``routes`` or with a property of the
result, never with stored output. The ``check_*`` functions take plain data so that tests can feed
them doctored results.

The certificates are exhaustive sweeps fixed by their bounds, so the seed
cannot change what ``words`` and ``center`` hand to the program. On
``oracle`` it fixes the order of the multidegrees, and on ``affine`` it picks
the instances re-checked with the benchmark's own cyclic mover.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field

from partic import affine, cli, core, normal_form, particles, rewriting

import routes
from clock import Clock

N = 5
VERIFY_CHECKS = ("action-factoring", "basis-count", "faithfulness", "fold-agreement", "grading", "normal-form")


@dataclass
class Outcome:
    """What one round attempted, how many operations failed, and what was wrong."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0


def call_cli(clock: Clock, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with clock.program(), contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cli_round(clock: Clock, argv: list[str], attempted: int) -> tuple[Outcome, int, str | None]:
    """One CLI call as a round; if it raises, every operation of the round failed."""
    out = Outcome(attempted=attempted)
    try:
        rc, text = call_cli(clock, argv)
    except Exception:
        out.failed = attempted
        return out, 2, None
    out.output_bytes = len(text.encode())
    return out, rc, text


def parse_payload(rc: int, text: str, command: str) -> tuple[dict | None, list[str]]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None, [f"{command}: output is not JSON (exit {rc})"]
    problems = []
    if payload.get("schema") != 1 or payload.get("command") != command:
        problems.append(f"{command}: unexpected schema or command in the output")
    return payload, problems


# words ------------------------------------------------------------------

WORDS_MAX_LEN = 6
WORDS_DEPOSIT = 1  # the CLI's default --max-deposit


def check_verify_output(rc: int, text: str, n: int, max_len: int) -> list[str]:
    payload, problems = parse_payload(rc, text, "verify")
    if payload is None:
        return problems
    checks = payload.get("checks", [])
    names = tuple(c.get("name") for c in checks)
    if names != VERIFY_CHECKS:
        problems.append(f"verify ran checks {names}, expected {VERIFY_CHECKS}")
    for c in checks:
        if c.get("passed") is not True or c.get("counterexample") is not None:
            problems.append(f"verify check {c.get('name')} failed: {c.get('counterexample')}")
        params = c.get("params", {})
        if params.get("N") != n or params.get("max_len") != max_len:
            problems.append(f"verify check {c.get('name')} ran at {params}")
    if payload.get("passed") is not True or rc != 0:
        problems.append(f"verify verdict is not a pass (exit {rc})")
    return problems


def check_word_labels(n: int, words, label_of) -> list[str]:
    """``label_of(letters)`` must equal the greedy (output, minimal input) on every word."""
    problems = []
    for letters in words:
        got = label_of(letters)
        want = routes.greedy_label(n, letters)
        if got != want:
            problems.append(f"label of word {letters}: program {got}, greedy route {want}")
            if len(problems) >= 5:
                break
    return problems


def program_label(n: int, letters):
    """The program's (output, minimal input) label of the normal form of a word."""
    lab = particles.io_label(normal_form.normalize(core.Word(n, letters)))
    return lab.i_out.occ, lab.j_in.occ


class Words:
    """``partic verify --N 5 --max-len 6 --json``: the six word-sweep checks."""

    def __init__(self, seed: int) -> None:
        self.argv = ["verify", "--N", str(N), "--max-len", str(WORDS_MAX_LEN), "--json"]

    def run_round(self, clock: Clock) -> Outcome:
        out, rc, text = cli_round(clock, self.argv, len(VERIFY_CHECKS))
        if text is None:
            return out
        out.problems += check_verify_output(rc, text, N, WORDS_MAX_LEN)
        words = routes.words_up_to(N, WORDS_MAX_LEN)
        if len(words) != routes.sweep_size(N, WORDS_MAX_LEN):
            out.problems.append("word sweep size differs from sum of (N-1)^l")
        out.problems += check_word_labels(N, words, lambda w: program_label(N, w))
        n_configs = sum(1 for _ in particles.configurations(N, WORDS_MAX_LEN, WORDS_DEPOSIT))
        if n_configs != routes.line_config_count(N, WORDS_MAX_LEN, WORDS_DEPOSIT):
            out.problems.append(f"configurations() yields {n_configs}, closed form disagrees")
        return out



# oracle -----------------------------------------------------------------

ORACLE_TOTAL = 8


def check_partition(counts, partic_classes, forms, plactic_classes) -> list[str]:
    """Check one multidegree's partitions and the normal forms of its partic classes.

    ``forms[i]`` lists the (d, k) exponents the program gave each member of
    ``partic_classes[i]``.
    """
    problems = []
    size = routes.multinomial(counts)
    letters = range(1, len(counts) + 1)
    owner: dict[tuple, int] = {}
    for idx, cls in enumerate(partic_classes):
        for w in cls:
            if tuple(w.count(a) for a in letters) != counts:
                problems.append(f"degree {counts}: word {w} has another multidegree")
            if owner.setdefault(w, idx) != idx:
                problems.append(f"degree {counts}: word {w} lies in two partic classes")
    if sum(len(cls) for cls in partic_classes) != size or len(owner) != size:
        problems.append(f"degree {counts}: partic class sizes do not sum to {size}")
    if len(partic_classes) != routes.basis_size(counts):
        problems.append(
            f"degree {counts}: {len(partic_classes)} partic classes, expected {routes.basis_size(counts)}"
        )
    seen_forms: set = set()
    for idx, fs in enumerate(forms):
        distinct = set(fs)
        if len(distinct) != 1 or len(fs) != len(partic_classes[idx]):
            problems.append(f"degree {counts}: class {idx} has {len(distinct)} normal forms")
            continue
        form = distinct.pop()
        if form in seen_forms:
            problems.append(f"degree {counts}: two classes share the normal form {form}")
        seen_forms.add(form)
        if routes.degree_of_exponents(*form) != counts:
            problems.append(f"degree {counts}: normal form {form} has another multidegree")
    seen: set = set()
    for cls in plactic_classes:
        if not seen.isdisjoint(cls):
            problems.append(f"degree {counts}: plactic classes overlap")
        seen |= cls
        if len({owner.get(w) for w in cls}) != 1:
            problems.append(f"degree {counts}: a plactic class meets several partic classes")
    if len(seen) != size or not seen <= owner.keys():
        problems.append(f"degree {counts}: plactic classes do not cover the {size} words")
    return problems


class Oracle:
    """``congruence_partition`` at every multidegree of total 8, N=5, under both rule sets."""

    def __init__(self, seed: int) -> None:
        self.degrees = [core.MultiDegree(c) for c in routes.degrees_of_total(N, ORACLE_TOTAL)]
        random.Random(seed).shuffle(self.degrees)
        self.partic = rewriting.partic_rules(N)
        self.plactic = rewriting.plactic_rules(N)

    def run_round(self, clock: Clock) -> Outcome:
        out = Outcome(attempted=2 * len(self.degrees))
        for delta in self.degrees:
            try:
                with clock.program():
                    partic_classes = rewriting.congruence_partition(delta, self.partic)
                    forms = [[normal_form.normalize(core.Word(N, w)) for w in cls] for cls in partic_classes]
                    plactic_classes = rewriting.congruence_partition(delta, self.plactic)
            except Exception:
                out.failed += 2
                continue
            exponents = [[(m.d, m.k) for m in fs] for fs in forms]
            out.problems += check_partition(delta.counts, partic_classes, exponents, plactic_classes)
        return out


# center -----------------------------------------------------------------

CENTER_MAX_DEGREE = 10
CENTER_PARTICLES = 6


def check_center_output(rc: int, text: str, n: int, max_degree: int) -> tuple[list[str], list[tuple]]:
    """Check the graded dimensions; return the problems and (r, d, k) for each basis vector."""
    payload, problems = parse_payload(rc, text, "center")
    if payload is None:
        return problems, []
    entries = payload.get("degrees", [])
    want_degrees = routes.degrees_up_to(n, max_degree)
    if sorted(tuple(e["degree"]) for e in entries) != sorted(want_degrees):
        problems.append(f"center covered {len(entries)} degrees, expected {len(want_degrees)}")
    vectors = []
    for e in entries:
        counts = tuple(e["degree"])
        want = routes.center_dimension(counts)
        if e["dimension"] != want or len(e["basis"]) != want:
            problems.append(f"degree {counts}: dimension {e['dimension']}, expected {want}")
            continue
        if want:
            d, k = routes.candidate_exponents(n, counts[0])
            expected = [[["1", {"N": n, "d": list(d), "k": list(k)}]]]
            if e["basis"] != expected:
                problems.append(f"degree {counts}: basis {e['basis']} is not the central candidate")
            for coeff, mono in e["basis"][0]:
                vectors.append((counts[0], tuple(mono["d"]), tuple(mono["k"])))
    if sum(e["dimension"] for e in entries) != max_degree // (n - 1) + 1:
        problems.append("center: wrong number of nonzero degrees")
    if payload.get("mismatch") is not None or rc != 0:
        problems.append(f"center reports a mismatch at {payload.get('mismatch')} (exit {rc})")
    return problems, vectors


def check_commutes_on_module(n: int, r: int, d, k, particles: int) -> list[str]:
    """The monomial with exponents (d, k) acts as (a_{N-1}..a_1)^r and commutes with every a_i."""
    problems = []
    word = routes.monomial_word(d, k)
    cycle = routes.descending_cycle(n, r)
    acted = 0
    for c in routes.line_configurations(n, particles, particles):
        image = routes.move(c, word)
        if image != routes.move(c, cycle):
            problems.append(f"r={r}: {word} and the descending cycle act differently on {c}")
            break
        acted += image is not None
        for i in range(1, n):
            if routes.move(c, word + (i,)) != routes.move(c, (i,) + word):
                problems.append(f"r={r}: {word} does not commute with a{i} on {c}")
                return problems
    if not acted:
        problems.append(f"r={r}: the candidate annihilates every configuration checked")
    return problems


class Center:
    """``partic center --N 5 --max-degree 10 --expect-theorem --json``: 1,001 graded components."""

    def __init__(self, seed: int) -> None:
        self.argv = ["center", "--N", str(N), "--max-degree", str(CENTER_MAX_DEGREE), "--expect-theorem", "--json"]
        self.n_degrees = len(routes.degrees_up_to(N, CENTER_MAX_DEGREE))

    def run_round(self, clock: Clock) -> Outcome:
        out, rc, text = cli_round(clock, self.argv, self.n_degrees)
        if text is None:
            return out
        problems, vectors = check_center_output(rc, text, N, CENTER_MAX_DEGREE)
        out.problems += problems
        for r, d, k in vectors:
            out.problems += check_commutes_on_module(N, r, d, k, CENTER_PARTICLES)
        return out


# affine -----------------------------------------------------------------

AFFINE_PARTICLES = 6
AFFINE_SAMPLE = 40
# a_0 a_2 a_1 a_0 = a_1 a_0 a_2 a_0 is the exchange rule on a 3-cycle, where
# it does not hold: the program must find a witness
NEGATIVE_CONTROL = (3, (0, 2, 1, 0), (1, 0, 2, 0))


def check_affine_output(rc: int, text: str, n_instances: int) -> list[str]:
    payload, problems = parse_payload(rc, text, "affine-verify")
    if payload is None:
        return problems
    if payload.get("passed") is not True or rc != 0:
        problems.append(f"affine-verify failed: {payload} (exit {rc})")
    elif payload.get("instances") != n_instances:
        problems.append(f"affine-verify checked {payload.get('instances')} instances, expected {n_instances}")
    return problems


def check_negative_control(witness) -> list[str]:
    """``witness`` is the configuration the program found for the false relation, or None."""
    n, lhs, rhs = NEGATIVE_CONTROL
    if witness is None:
        return ["affine: no witness for the exchange rule on a 3-cycle, which fails there"]
    if len(witness) != n or routes.cyclic_move(witness, 0, lhs) == routes.cyclic_move(witness, 0, rhs):
        return [f"affine: the witness {witness} does not separate {lhs} and {rhs}"]
    return []


def check_relations_hold(n: int, pairs, particles: int) -> list[str]:
    """Each (lhs, rhs) pair acts alike, annihilation and t included, on every small configuration."""
    configs = routes.circle_configurations(n, particles)
    for lhs, rhs in pairs:
        for c in configs:
            if routes.cyclic_move(c, 0, lhs) != routes.cyclic_move(c, 0, rhs):
                return [f"affine: {lhs} and {rhs} act differently on {c}"]
    return []


class Affine:
    """``partic affine-verify --N 5 --particles 6 --json``: the cyclic relation families."""

    def __init__(self, seed: int) -> None:
        self.argv = ["affine-verify", "--N", str(N), "--particles", str(AFFINE_PARTICLES), "--json"]
        self.seed = seed
        self.sample: list[tuple] | None = None
        self.n_instances = 0

    def _instances(self) -> None:
        # the CLI's default families, m <= 2 and k <= 1
        instances = [(l.letters, r.letters) for l, r in affine.affine_relation_instances(N, 2, 1)]
        self.n_instances = len(instances)
        self.sample = random.Random(self.seed).sample(instances, AFFINE_SAMPLE)

    def run_round(self, clock: Clock) -> Outcome:
        if self.sample is None:
            self._instances()
        out, rc, text = cli_round(clock, self.argv, self.n_instances)
        if text is None:
            return out
        out.problems += check_affine_output(rc, text, self.n_instances)
        n, lhs, rhs = NEGATIVE_CONTROL
        witness = affine.find_relation_counterexample(
            affine.AffineWord(n, lhs), affine.AffineWord(n, rhs), AFFINE_PARTICLES
        )
        out.problems += check_negative_control(None if witness is None else witness.occ)
        out.problems += check_relations_hold(N, self.sample, AFFINE_PARTICLES)
        return out


WORKLOADS = {"words": Words, "oracle": Oracle, "center": Center, "affine": Affine}

"""Per-layer tracing of the partic modules, installed from outside the package.

``Tracer.install`` replaces every public function of the eight package
modules, at each name a caller looks it up by (the defining module and every
partic module that imported it), with a wrapper that records a span while
``Tracer.active`` is set. The ``__init__`` of the value types is wrapped the
same way, so their spans count constructions and time their validation. Spans are aggregated in
memory per function (calls, self time) and per caller edge; nothing is
written until the benchmark ends.

A function's self time is its spans' durations minus the part covered by the
spans of the traced functions it called. Private helpers are not wrapped, so
their time counts toward the public function that called them.

Hooks record work counts after selected calls. Where the count has a closed
form (words, configurations, pairs, BFS words closed, matrix shapes and
ranks) the hook computes it with ``routes`` from the call's arguments rather
than reading it from the program.
"""
from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import routes
from workloads import VERIFY_CHECKS

LAYERS = ("core", "normal_form", "rewriting", "particles", "center", "affine", "verify", "cli")
VALUE_TYPES = (("core", "Word"), ("core", "NormalMonomial"), ("particles", "Configuration"))
ROOT = "<program>"


def _normalize(counts, args, result):
    counts["normal_form.normalize.letters"] += len(args[0].letters)


def _enumerate_basis(counts, args, result):
    counts["normal_form.enumerate_basis.monomials"] += len(result)


def _congruence_partition(counts, args, result):
    counts["rewriting.words_closed"] += routes.multinomial(args[0].counts)
    counts["rewriting.classes"] += len(result)


def _center_basis_in_degree(counts, args, result):
    delta = args[1].counts
    rows, cols = routes.center_shape(delta)
    kernel = routes.center_dimension(delta)
    counts["center.matrix.rows"] += rows
    counts["center.matrix.cols"] += cols
    counts["center.matrix.max_cells"] = max(counts["center.matrix.max_cells"], rows * cols)
    counts["center.kernel_dim"] += kernel
    counts["center.rank"] += cols - kernel


def _affine_relation_instances(counts, args, result):
    counts["affine.instances"] += len(result)


def _find_relation_counterexample(counts, args, result):
    # a relation that holds is acted on every configuration within the bound
    if result is None:
        counts["affine.pairs"] += routes.circle_config_count(args[0].n, args[2])


def _run_verify(counts, args, report):
    cfg = args[0]
    configs = routes.line_config_count(cfg.n, cfg.max_len, cfg.max_deposit)
    counts["particles.configurations"] += configs
    counts["particles.pairs"] += routes.sweep_size(cfg.n, cfg.max_len) * configs
    for check in report.checks:
        counts[f"verify.{check.name}.s"] += check.seconds


HOOKS = {
    "normal_form.normalize": _normalize,
    "normal_form.enumerate_basis": _enumerate_basis,
    "rewriting.congruence_partition": _congruence_partition,
    "center.center_basis_in_degree": _center_basis_in_degree,
    "affine.affine_relation_instances": _affine_relation_instances,
    "affine.find_relation_counterexample": _find_relation_counterexample,
    "verify.run_verify": _run_verify,
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self._patched: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        # the wrappers hold these objects, so reset() clears them in place
        self._inner = [0.0]
        self._names = [ROOT]

    def reset(self) -> None:
        for table in (self.calls, self.self_s, self.edges, self.counts):
            table.clear()
        self._inner[:] = [0.0]
        self._names[:] = [ROOT]

    def _wrap(self, name, f):
        inner, names, calls, self_s, edges = self._inner, self._names, self.calls, self.self_s, self.edges
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return f(*args, **kwargs)
            inner.append(0.0)
            names.append(name)
            t0 = perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                names.pop()
                inner_s = inner.pop()
                inner[-1] += dt
                calls[name] += 1
                self_s[name] += dt - inner_s
                edges[names[-1], name] += 1
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def _wrap_generator(self, name, f):
        tracer = self

        def traced(*args, **kwargs):
            gen = f(*args, **kwargs)
            if not tracer.active:
                return gen
            tracer.calls[name] += 1
            tracer.edges[tracer._names[-1], name] += 1
            return tracer._timed(name, gen)

        return traced

    def _timed(self, name, gen):
        # each resumption of the generator is a span of its own
        inner, names = self._inner, self._names
        while True:
            inner.append(0.0)
            names.append(name)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                dt = perf_counter() - t0
                names.pop()
                inner_s = inner.pop()
                inner[-1] += dt
                self.self_s[name] += dt - inner_s
            yield item

    def install(self) -> None:
        """Wrap the package's public functions at every name they are bound to."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"partic.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    make = self._wrap_generator if inspect.isgeneratorfunction(obj) else self._wrap
                    wrappers[obj] = make(name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "partic" and not modname.startswith("partic."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))
        for layer, cls_name in VALUE_TYPES:
            cls = getattr(sys.modules[f"partic.{layer}"], cls_name)
            original = cls.__dict__.get("__init__")
            if original is None:  # a type built another way reads 0 constructions
                continue
            cls.__init__ = self._wrap(f"{layer}.{cls_name}.__init__", original)
            self._patched.append((cls, "__init__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Aggregated spans of the calls traced since the last reset."""
        return {
            "functions": {
                name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                for name in sorted(set(self.calls) | set(self.self_s))
            },
            "edges": {f"{parent} > {child}": n for (parent, child), n in sorted(self.edges.items())},
            "counts": dict(sorted(self.counts.items())),
        }


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer metrics of one traced round, by name.

    Layers a workload does not reach read 0 calls and 0 seconds.
    """
    fns = snap["functions"]
    counts = snap["counts"]

    def calls(*names):
        return sum(fns.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum((fns.get(n, {}).get("self_s", 0.0) for n in names), 0.0)

    mul_gen = ("normal_form.left_mul_gen", "normal_form.right_mul_gen")
    out: dict[str, float] = {}
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = counts.get(f"verify.{check}.s", 0.0)
    out |= {
        "particles.act_word.calls": calls("particles.act_word"),
        "particles.act_word.s": self_s("particles.act_word"),
        "particles.pairs": counts.get("particles.pairs", 0),
        "particles.configurations": counts.get("particles.configurations", 0),
        "normal_form.normalize.calls": calls("normal_form.normalize"),
        "normal_form.normalize.letters": counts.get("normal_form.normalize.letters", 0),
        "normal_form.normalize.s": self_s("normal_form.normalize"),
        "normal_form.normalize_right_to_left.s": self_s("normal_form.normalize_right_to_left"),
        "normal_form.enumerate_basis.calls": calls("normal_form.enumerate_basis"),
        "normal_form.enumerate_basis.monomials": counts.get("normal_form.enumerate_basis.monomials", 0),
        "normal_form.enumerate_basis.s": self_s("normal_form.enumerate_basis"),
        "normal_form.mul_gen.calls": calls(*mul_gen),
        "normal_form.mul_gen.s": self_s(*mul_gen),
        "rewriting.congruence_partition.calls": calls("rewriting.congruence_partition"),
        "rewriting.congruence_partition.s": self_s("rewriting.congruence_partition"),
        "rewriting.words_closed": counts.get("rewriting.words_closed", 0),
        "rewriting.classes": counts.get("rewriting.classes", 0),
        "rewriting.one_step_rewrites.calls": calls("rewriting.one_step_rewrites"),
        "rewriting.one_step_rewrites.s": self_s("rewriting.one_step_rewrites"),
        "center.nullspace.calls": calls("center.nullspace"),
        "center.nullspace.s": self_s("center.nullspace"),
        "center.matrix.rows": counts.get("center.matrix.rows", 0),
        "center.matrix.cols": counts.get("center.matrix.cols", 0),
        "center.matrix.max_cells": counts.get("center.matrix.max_cells", 0),
        "center.rank": counts.get("center.rank", 0),
        "center.kernel_dim": counts.get("center.kernel_dim", 0),
        "center.build.s": self_s("center.center_basis_in_degree"),
        "affine.instances": counts.get("affine.instances", 0),
        "affine.relation_instances.s": self_s("affine.affine_relation_instances"),
        "affine.act_word.calls": calls("affine.affine_act_word"),
        "affine.act_word.s": self_s("affine.affine_act_word"),
        "affine.pairs": counts.get("affine.pairs", 0),
        "core.NormalMonomial.created": calls("core.NormalMonomial.__init__"),
        "core.Word.created": calls("core.Word.__init__"),
        "particles.Configuration.created": calls("particles.Configuration.__init__"),
        "cli.main.s": self_s("cli.main"),
    }
    for layer in LAYERS:
        names = [n for n in fns if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = calls(*names)
        out[f"{layer}.self_s"] = self_s(*names)
    return out

"""Spans and counts at the layer boundaries of qmhlab, recorded from outside.

``Tracer.install()`` replaces each listed function (and each method) with a
wrapper, in every qmhlab module that holds it, so calls made inside the
program (``qmci`` calling its imported ``build_transition_matrix``, say) are
seen too.  ``uninstall()`` puts the originals back.  Spans carry the id of
the operation and of their parent span; a span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("markov", "perturbation", "qsim", "annealing", "qmci", "inference")

# (module, attribute path): one span per call
SPANNED = [
    ("markov", "build_transition_matrix"),
    ("markov", "run_mh"),
    ("markov", "mixing_bound_check"),
    ("perturbation", "acceptance_error_check"),
    ("perturbation", "spectral_gap_perturbation_check"),
    ("perturbation", "tv_perturbation_check"),
    ("qsim", "build_walk_operator"),
    ("qsim", "verify_phase_gap"),
    ("annealing", "QpePhaseGate.__init__"),
    ("annealing", "pi3_amplify"),
    ("annealing", "qsa_schedule"),
    ("annealing", "qsa_generate"),
    ("annealing", "nae_overlap"),
    ("qmci", "estimate_nll"),
    ("qmci", "internal_accuracy"),
    ("qmci", "approx_acceptance_table"),
    ("qmci", "approx_walk_operator"),
    ("qmci", "qsa_with_qmci"),
    ("inference", "cdf_qmci"),
    ("inference", "credible_bound_search"),
    ("inference", "classical_credible"),
    ("inference", "synth_gw_instance"),
]

# counted only: called too often, or too cheaply, for a span each
COUNTED = [
    ("qmci", "qmci_mean"),
    ("annealing", "ExactPhaseGate.apply"),
    ("annealing", "ExactPhaseGate.apply_inverse"),
    ("annealing", "QpePhaseGate.apply"),
    ("annealing", "QpePhaseGate.apply_inverse"),
    ("annealing", "QueryLedger.charge"),
]

PERTURBATION_CHECKS = ("acceptance_error_check", "spectral_gap_perturbation_check",
                       "tv_perturbation_check")

# the layers with a time metric; the umbrella functions that only call them
# (qsa_with_qmci, qsa_generate, approx_acceptance_table, the searches) are not
# listed, so their own work counts against the coverage
LISTED = {"markov.build_transition_matrix", "markov.run_mh", "markov.mixing_bound_check",
          "qsim.build_walk_operator", "qsim.verify_phase_gap", "annealing.QpePhaseGate",
          "annealing.pi3_amplify", "annealing.qsa_schedule", "annealing.nae_overlap",
          "qmci.estimate_nll", "qmci.internal_accuracy", "qmci.approx_walk_operator",
          "inference.cdf_qmci"} | {f"perturbation.{c}" for c in PERTURBATION_CHECKS}


def _short(module, path):
    return f"{module}.{path.replace('.__init__', '')}"


class Tracer:
    def __init__(self):
        self.mods = {m: importlib.import_module(f"qmhlab.{m}") for m in MODULES}
        self.spans: list[dict] = []
        self.counts: dict = defaultdict(float)     # (op, name) -> count or sum
        self.op = -1                               # -1: set-up
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching
    def _targets(self, module, path):
        """(owner, attribute, original) for every place the callable lives."""
        mod = self.mods[module]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            return [(cls, attr, cls.__dict__[attr])]
        orig = getattr(mod, path)
        return [(m, path, orig) for m in self.mods.values() if getattr(m, path, None) is orig]

    def install(self):
        if self._patches:
            return
        for spanned, table in ((True, SPANNED), (False, COUNTED)):
            for module, path in table:
                name = _short(module, path)
                for owner, attr, orig in self._targets(module, path):
                    wrapper = (self._span_wrapper if spanned else self._count_wrapper)(name, orig)
                    self._patches.append((owner, attr, orig))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------ wrappers
    def _span_wrapper(self, name, orig):
        sig = inspect.signature(orig)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"op": tracer.op, "id": len(tracer.spans), "name": name,
                    "parent": parent["id"] if parent else None, "child_s": 0.0}
            tracer.spans.append(span)
            tracer._stack.append(span)
            before = tracer._before(name, sig, args, kwargs)
            span["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                duration = span["end"] - span["start"]
                span["self_s"] = duration - span["child_s"]
                if parent is not None:
                    parent["child_s"] += duration
            tracer._after(name, sig, args, kwargs, result, before, duration)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _count_wrapper(self, name, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.op, name + ".calls")] += 1
            if name == "annealing.QueryLedger.charge":
                n = args[1] if len(args) > 1 else kwargs.get("n", 0)
                tracer.counts[(tracer.op, "annealing.walk_applications")] += int(n)
            return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    def _before(self, name, sig, args, kwargs):
        if name == "qmci.approx_walk_operator":
            return sig.bind(*args, **kwargs).arguments["oracle"].queries
        if name == "annealing.qsa_schedule":
            return self.counts[(self.op, "annealing.nae_overlap.calls")]
        return None

    def _after(self, name, sig, args, kwargs, result, before, duration):
        op, c = self.op, self.counts
        c[(op, name + ".calls")] += 1
        c[(op, name + ".s")] += duration
        if name == "markov.run_mh":
            a = sig.bind(*args, **kwargs).arguments
            c[(op, "markov.run_mh.steps")] += int(a["n_b"]) + int(a["n"])
        elif name == "qsim.build_walk_operator":
            dim = sig.bind(*args, **kwargs).arguments["layout"].total_dim
            c[(op, "qsim.total_dim")] = max(c[(op, "qsim.total_dim")], dim)
        elif name == "qmci.approx_walk_operator":
            oracle = sig.bind(*args, **kwargs).arguments["oracle"]
            c[(op, "qmci.approx_walk_operator.queries")] += oracle.queries - before
        elif name == "qmci.qsa_with_qmci":
            c[(op, "qmci.qsa_with_qmci.queries")] += result.oracle_queries
        elif name == "inference.credible_bound_search":
            c[(op, "inference.search_found")] += int(result.found)
        elif name == "annealing.qsa_schedule":
            c[(op, "annealing.schedule_kept")] += len(result.betas) - 1
            c[(op, "annealing.schedule_nae")] += c[(op, "annealing.nae_overlap.calls")] - before

    # ------------------------------------------------------------ reduction
    def total(self, key, ops):
        return sum(self.counts.get((op, key), 0.0) for op in ops)

    def layer_metrics(self, ops, op_seconds) -> dict:
        """Per-operation means over the traced operations ``ops``.

        ``inference.synth_gw_instance.s`` is the exception: it is spent in
        set-up, so it is given for the run's one set-up.
        """
        n = max(1, len(ops))
        t = lambda key: self.total(key, ops)            # noqa: E731
        per = lambda key: t(key) / n                    # noqa: E731
        dim = max((self.counts.get((op, "qsim.total_dim"), 0) for op in ops), default=0)
        run_mh_s = t("markov.run_mh.s")
        nae_in_schedule = t("annealing.schedule_nae")
        searches = t("inference.credible_bound_search.calls")
        opset = set(ops)
        listed = sum(s["self_s"] for s in self.spans if s["op"] in opset and s["name"] in LISTED)
        m = {
            "markov.build_transition_matrix.s": (per("markov.build_transition_matrix.s"), "s"),
            "markov.build_transition_matrix.calls": (per("markov.build_transition_matrix.calls"), "count"),
            "markov.run_mh.s": (per("markov.run_mh.s"), "s"),
            "markov.run_mh.steps_per_s": (t("markov.run_mh.steps") / run_mh_s if run_mh_s else 0.0, "1/s"),
            "markov.mixing_bound_check.s": (per("markov.mixing_bound_check.s"), "s"),
            "perturbation.checks.s": (sum(per(f"perturbation.{c}.s") for c in PERTURBATION_CHECKS), "s"),
            "qsim.build_walk_operator.s": (per("qsim.build_walk_operator.s"), "s"),
            "qsim.build_walk_operator.calls": (per("qsim.build_walk_operator.calls"), "count"),
            "qsim.verify_phase_gap.s": (per("qsim.verify_phase_gap.s"), "s"),
            "qsim.total_dim": (float(dim), "count"),
            "qsim.dense_operator_mb": (16.0 * dim**2 / 2**20, "MB"),
            "annealing.QpePhaseGate.s": (per("annealing.QpePhaseGate.s"), "s"),
            "annealing.pi3_amplify.s": (per("annealing.pi3_amplify.s"), "s"),
            "annealing.gate_applications": (sum(per(f"annealing.{g}.calls") for g in (
                "ExactPhaseGate.apply", "ExactPhaseGate.apply_inverse",
                "QpePhaseGate.apply", "QpePhaseGate.apply_inverse")), "count"),
            "annealing.qsa_schedule.s": (per("annealing.qsa_schedule.s"), "s"),
            "annealing.nae_overlap.calls": (per("annealing.nae_overlap.calls"), "count"),
            "annealing.nae_overlap.s": (per("annealing.nae_overlap.s"), "s"),
            "annealing.schedule_keep_ratio": (
                t("annealing.schedule_kept") / nae_in_schedule if nae_in_schedule else 0.0, "ratio"),
            "annealing.walk_applications": (per("annealing.walk_applications"), "count"),
            "qmci.qmci_mean.calls": (per("qmci.qmci_mean.calls"), "count"),
            "qmci.estimate_nll.s": (per("qmci.estimate_nll.s"), "s"),
            "qmci.internal_accuracy.s": (per("qmci.internal_accuracy.s"), "s"),
            "qmci.approx_walk_operator.s": (per("qmci.approx_walk_operator.s"), "s"),
            "qmci.approx_walk_operator.queries": (per("qmci.approx_walk_operator.queries"), "queries"),
            "qmci.qsa_with_qmci.queries": (per("qmci.qsa_with_qmci.queries"), "queries"),
            "inference.cdf_qmci.calls": (per("inference.cdf_qmci.calls"), "count"),
            "inference.cdf_qmci.s": (per("inference.cdf_qmci.s"), "s"),
            "inference.search_found_ratio": (
                t("inference.search_found") / searches if searches else 0.0, "ratio"),
            "inference.synth_gw_instance.s": (self.total("inference.synth_gw_instance.s", [-1]), "s"),
            "trace.self_time_coverage": (listed / op_seconds if op_seconds else 0.0, "ratio"),
        }
        return m

    def self_times(self, ops) -> dict:
        """Self seconds per operation of every spanned function."""
        ops, n = set(ops), max(1, len(ops))
        out: dict = defaultdict(float)
        for s in self.spans:
            if s["op"] in ops:
                out[s["name"]] += s["self_s"] / n
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

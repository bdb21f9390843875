"""Outside-in tracing of the library's layers, installed from the benchmark.

install() wraps the public functions listed in TARGETS.  A wrapped module
function is rebound in every refleq.* module that holds it by name (for
example relations imports poly_gcd and embed_on_slots), and a wrapped method
is replaced on its class under every name that holds it.  Each
call records a span (name, start, end, parent, check id); spans stay in
memory in flat arrays and are written out by dump() when the pass ends.

Self time is a span's duration minus the durations of its direct children,
so the self times of all spans under one check add up to that check's time.
The wrapper's own bookkeeping falls into the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute or Class.method, span name, layer group)
TARGETS = (
    ("field", "poly_gcd", "field.poly_gcd", "field"),
    ("field", "poly_div_exact", "field.poly_div_exact", "field"),
    ("field", "Poly.__mul__", "field.poly_mul", "field"),
    ("field", "RatFunc.__init__", "field.ratfunc_new", "field"),
    ("field", "RatFunc.eval", "field.ratfunc_eval", "field"),
    ("matrix", "LabeledMatrix.__mul__", "matrix.matmul", "matrix"),
    ("matrix", "LabeledMatrix.inverse", "matrix.inverse", "matrix"),
    ("matrix", "LabeledMatrix.eval_entries", "matrix.eval_entries", "matrix"),
    ("matrix", "embed_on_slots", "matrix.embed_on_slots", "matrix"),
    ("matrix", "verify_identity", "matrix.verify_identity", "matrix"),
    *(
        ("rkmat", name, f"rkmat.{name}", "rkmat.build")
        for name in (
            "yang_r", "r_bullet_sigma", "r_bullet_sigma_opposite", "k_matrix",
            "k_matrix_opposite_placement", "sigma_matrix", "cross_r", "cross_r_flipped",
            "sigma_sigma_r", "constant_term_matrix", "monodromy_t", "twisted_monodromy",
            "s_matrix", "s_matrix_via_transfer",
        )
    ),
    ("relations", "check_ybe", "relations.ybe", "relations"),
    ("relations", "check_reflection", "relations.reflection", "relations"),
    ("relations", "check_monodromy_exchange", "relations.monodromy_exchange", "relations"),
    ("relations", "check_chain_reflection", "relations.chain_reflection", "relations"),
    ("relations", "check_boundary_factorization", "relations.boundary_factorization", "relations"),
    ("relations", "check_boundary_constant_term", "relations.boundary_constant_term", "relations"),
    ("relations", "check_r_unitarity", "relations.r_unitarity", "relations"),
    ("relations", "check_k_unitarity", "relations.k_unitarity", "relations"),
    ("relations", "check_twisted_plain_derivation", "relations.twisted_plain_derivation", "relations"),
    ("relations", "reflection_sides", "relations.reflection_sides", "relations"),
    ("relations", "make_scenario", "relations.make_scenario", "relations"),
    ("polarization", "build_instance", "polarization.build_instance", "polarization"),
    ("polarization", "solve", "polarization.solve", "polarization"),
    ("polarization", "check_choice", "polarization.check_choice", "polarization"),
    ("polarization", "replay_certificate", "polarization.replay_certificate", "polarization"),
    ("tableaux", "enumerate_instanton", "tableaux.enumerate_instanton", "tableaux"),
    ("tableaux", "charge", "tableaux.charge", "tableaux"),
    ("tableaux", "sp_charge", "tableaux.sp_charge", "tableaux"),
    ("tableaux", "so_charge", "tableaux.so_charge", "tableaux"),
    ("tableaux", "charge_pair_counts", "tableaux.charge_pair_counts", "tableaux"),
    ("tableaux", "tangent_dimension", "tableaux.tangent_dimension", "tableaux"),
    ("tableaux", "poincare_polynomial", "tableaux.poincare_polynomial", "tableaux"),
    ("tableaux", "betti_report", "tableaux.betti_report", "tableaux"),
    ("tableaux", "so_component_report", "tableaux.so_component_report", "tableaux"),
    ("tableaux", "flag_fixed_points", "tableaux.flag_fixed_points", "tableaux"),
    *(
        ("kclass", name, f"kclass.{name}", "kclass")
        for name in (
            "u_class", "reflect_step", "longest_reflection_transform",
            "longest_transform_summary", "framing_permutation", "w0_summary_dict",
        )
    ),
    *(
        ("dynkin", name, f"dynkin.{name}", "dynkin")
        for name in (
            "adjacency", "neighbors", "cartan_matrix", "coxeter_number", "invast",
            "positive_roots", "longest_word", "weight_action", "info_dict",
        )
    ),
    ("acceptance", "run_criterion", "acceptance.run_criterion", "acceptance"),
)

CHECK_SPAN = "bench.check"
RELATIONS_CHECKS = {
    "relations.ybe", "relations.reflection", "relations.monodromy_exchange",
    "relations.chain_reflection", "relations.boundary_factorization",
    "relations.boundary_constant_term",
}


def _binding_scopes():
    """Every refleq.* module and every class defined in one of them."""
    modules = [m for name, m in list(sys.modules.items()) if name == "refleq" or name.startswith("refleq.")]
    classes = [
        c for m in modules for c in vars(m).values()
        if inspect.isclass(c) and c.__module__ == m.__name__
    ]
    return modules + classes


class Tracer:
    """Span store, per-name aggregates and the counters the hooks update."""

    def __init__(self):
        self.names = [CHECK_SPAN]
        self.groups = {CHECK_SPAN: "bench"}
        self._name_id = {CHECK_SPAN: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_check = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.checks = []
        self.check = -1
        self._stack = []
        self._child = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counters = Counter()
        self._points_pending = 0
        self._originals = []
        self.wrapped = {}

    # -- spans --------------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_check.append(self.check)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        return idx, start

    def _close(self, idx, name_id, start):
        end = perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        dur = end - start
        self.self_s[name_id] += dur - self._child.pop()
        self.incl_s[name_id] += dur
        self.calls[name_id] += 1
        if self._child:
            self._child[-1] += dur
        return dur

    def run_check(self, check_id, fn):
        """Run fn() as one check under a root span; returns (result, seconds)."""
        self.check = len(self.checks)
        self.checks.append(check_id)
        idx, start = self._open(0)
        try:
            result = fn()
        finally:
            seconds = self._close(idx, 0, start)
            self.check = -1
        return result, seconds

    def self_times(self):
        """Per-span self time, recomputed from the stored spans."""
        out = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                out[parent] -= self.span_end[i] - self.span_start[i]
        return out

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, span, hook):
        name_id = self._name_id.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, start = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = close(idx, name_id, start)
            if hook is not None:
                hook(self, args, kwargs, result, dur)
            return result

        return wrapper

    def install(self):
        import refleq.cli  # noqa: F401  (every library module is loaded)

        scopes = _binding_scopes()
        for mod_name, attr, span, group in TARGETS:
            mod = sys.modules[f"refleq.{mod_name}"]
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = vars(owner)[method]
            wrapper = self._wrap(original, span, HOOKS.get(span))
            self.groups[span] = group
            self.wrapped[original] = wrapper
            for target in scopes:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._originals.append((target, key, original))
                        setattr(target, key, wrapper)
        return self

    def uninstall(self):
        for target, key, original in reversed(self._originals):
            setattr(target, key, original)
        self._originals.clear()

    def unwrapped_bindings(self):
        """(module, name) pairs that still hold an original wrapped function."""
        originals = {id(f) for f in self.wrapped}
        stale = []
        for target in _binding_scopes():
            for key, value in vars(target).items():
                if id(value) in originals:
                    stale.append((getattr(target, "__qualname__", target.__name__), key))
        return stale

    # -- output -------------------------------------------------------------

    def aggregates(self):
        by_name = {
            self.names[i]: {"calls": self.calls[i], "self_s": self.self_s[i], "incl_s": self.incl_s[i]}
            for i in self.calls
        }
        return {"spans": by_name, "groups": dict(self.groups), "counters": dict(self.counters)}

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(
                {
                    "names": self.names,
                    "checks": self.checks,
                    "columns": ["name", "parent", "check", "start", "end"],
                    "spans": list(zip(self.span_name, self.span_parent, self.span_check,
                                      self.span_start, self.span_end)),
                },
                f,
                separators=(",", ":"),
            )


# ---------------------------------------------------------------------------
# counters taken from return values


def _gcd_hook(tracer, args, kwargs, result, dur):
    if not result.is_const():
        tracer.counters["field.poly_gcd.nontrivial"] += 1


def _verify_identity_hook(tracer, args, kwargs, result, dur):
    if result.get("mode") == "multipoint":
        tracer._points_pending += result.get("points", 0)


def _relations_check_hook(tracer, args, kwargs, verdict, dur):
    # only the outermost relations check of a span stack books grid points
    if any(tracer.names[tracer.span_name[i]] in RELATIONS_CHECKS for i in tracer._stack):
        return
    points = verdict.get("gridSize", tracer._points_pending)
    tracer._points_pending = 0
    tracer.counters["matrix.grid_points"] += points
    if verdict.get("mode") == "multipoint":
        tracer.counters["multipoint_check_s"] += dur


def _solve_hook(tracer, args, kwargs, result, dur):
    tracer.counters[f"polarization.solve.{result['method']}_s"] += dur
    tracer.counters["polarization.certificate_steps"] += len(result["certificate"] or ())


def _enumerate_hook(tracer, args, kwargs, result, dur):
    tracer.counters["tableaux.tableaux_built"] += len(result)


def _flag_hook(tracer, args, kwargs, result, dur):
    points, diagnostics = result
    if diagnostics:
        return
    from refleq import tableaux

    bound = inspect.signature(tableaux.flag_fixed_points).bind(*args, **kwargs).arguments
    built = bound["l"] ** (bound["w"] // 2)
    tracer.counters["tableaux.tableaux_built"] += built
    tracer.counters["tableaux.flag_built"] += built
    tracer.counters["tableaux.flag_kept"] += len(points)


HOOKS = {
    "field.poly_gcd": _gcd_hook,
    "matrix.verify_identity": _verify_identity_hook,
    **{name: _relations_check_hook for name in RELATIONS_CHECKS},
    "polarization.solve": _solve_hook,
    "tableaux.enumerate_instanton": _enumerate_hook,
    "tableaux.flag_fixed_points": _flag_hook,
}

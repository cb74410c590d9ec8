"""Layer tracer that wraps openmap's public functions from outside.

``Tracer.enable()`` replaces every target function in *every* ``openmap``
module namespace that holds it (modules import helpers by name, so
``openness.truncated_svd`` and ``numcore.truncated_svd`` are separate
references to one function), and ``disable()`` puts each original back.

Rules:

* every call of a target is counted, including nested and recursive ones;
* a call of a span target opens a span only when the innermost open span
  belongs to a different group, so recursion (``to_jsonable``) and
  re-entry within one group (``rank`` -> ``singular_values``) yield a
  single span at the outermost call;
* count-only targets (``objective``, ``gradient``, ``NetworkPoint``) never
  open spans: they run tens of thousands of times per second inside
  gradient descent and their time stays in the caller's self time;
* a span's self time is its duration minus that of its child spans, and
  is summed per group.  Self times are accumulated online; only the first
  ``SPAN_CAP`` spans are kept as records.

Statistics go to the current phase: ``"program"`` while the benchmark runs
CLI commands, ``"check"`` while it verifies outputs (the oracles call
openmap functions too, and must not count as program work).
"""

import time
from collections import defaultdict

# (module, attribute, group, opens_span); the layer is the group's first
# dotted component.  Attribute "NetworkPoint.__post_init__" patches the
# class, so every construction is counted whichever namespace built it.
TARGETS = (
    ("numcore", "svd", "numcore", True),
    ("numcore", "singular_values", "numcore", True),
    ("numcore", "rank", "numcore", True),
    ("numcore", "rank_is_ambiguous", "numcore", True),
    ("numcore", "null_space", "numcore", True),
    ("numcore", "column_space", "numcore", True),
    ("numcore", "intersection_dim", "numcore", True),
    ("numcore", "bounded_basis", "numcore", True),
    ("numcore", "truncated_svd", "numcore", True),
    ("openness", "check_openness", "openness.check_openness", True),
    ("openness", "null_completion", "openness.null_completion", True),
    ("openness", "construct_witnesses", "openness.construct_witnesses", True),
    ("openness", "sample_feasible_target", "openness.sample_feasible_target", True),
    ("openness", "gauss_newton_recover", "openness.gauss_newton_recover", True),
    ("openness", "probe_openness", "openness.probe_openness", True),
    ("realization", "realize", "realization.realize", True),
    ("realization", "measure_delta_ratio", "realization.measure_delta_ratio", True),
    ("symmetric", "solve_p", "symmetric.solve_p", True),
    ("symmetric", "sym_realize", "symmetric.sym_realize", True),
    ("symmetric", "certify_bm_transfer", "symmetric.certify_bm_transfer", True),
    ("symmetric", "gauss_newton_sym_recover", "symmetric.gauss_newton_sym_recover", True),
    ("landscape", "classify", "landscape.classify", True),
    ("landscape", "local_min_probe", "landscape.local_min_probe", True),
    ("landscape", "run_gradient_descent", "landscape.run_gradient_descent", True),
    ("landscape", "global_value", "landscape.global_value", True),
    ("landscape", "counterexample_factory", "landscape.counterexample_factory", True),
    ("landscape", "objective", "landscape.objective", False),
    ("landscape", "gradient", "landscape.gradient", False),
    ("landscape", "NetworkPoint.__post_init__", "landscape.network_point", False),
    ("cli", "main", "cli", True),
    ("matrixio", "load_matrix", "matrixio.load", True),
    ("matrixio", "load_matrices", "matrixio.load", True),
    ("matrixio", "to_jsonable", "matrixio.serialize", True),
    ("matrixio", "dump_json", "matrixio.serialize", True),
)

SPAN_CAP = 200_000  # span records kept; self times count every span

LAYERS = ("numcore", "openness", "realization", "symmetric", "landscape", "cli", "matrixio")


def target_name(module, attr):
    """Metric name of a target: ``landscape.network_point`` for the
    ``NetworkPoint`` constructor hook, ``<module>.<function>`` otherwise."""
    if attr == "NetworkPoint.__post_init__":
        return "landscape.network_point"
    return f"{module}.{attr}"


class Stats:
    """Counters of one phase."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)  # outermost-call time per target
        self.nested = defaultdict(int)  # (active target, called target) -> calls
        self.self_time = defaultdict(float)  # per group
        self.refusals = defaultdict(int)
        self.extra = defaultdict(float)  # values read off results


def _record_result(stats, name, result):
    if name == "landscape.run_gradient_descent":
        stats.extra["gd.iterations"] += result.iterations
        stats.extra["gd.converged"] += bool(result.converged)
    elif name == "openness.gauss_newton_recover":
        stats.extra["gn.trials"] += len(result["success"])
        stats.extra["gn.successes"] += int(result["success"].sum())
    elif name == "landscape.classify":
        stats.extra[f"classify.status.{result.status}"] += 1
    elif name == "matrixio.dump_json":
        stats.extra["payload_bytes"] += len(result)


class Tracer:
    def __init__(self):
        self.phases = {"program": Stats(), "check": Stats()}
        self.stats = self.phases["program"]
        self.spans = []  # [name, start, end, parent index, item, phase]
        self.spans_dropped = 0
        self.item = -1
        self._stack = []  # open spans: [record index, group, start, child time]
        self._active = []  # span targets inside their outermost call
        self._refusal = None
        self._patched = []  # (namespace, attribute, original)
        self.wrappers = {}  # name -> wrapper
        self.originals = {}  # name -> original
        self.t0 = time.perf_counter()

    # -- patching --------------------------------------------------------

    def enable(self):
        import sys

        import openmap.errors
        import openmap.landscape

        if self._patched:
            raise RuntimeError("tracer is already enabled")
        self._refusal = openmap.errors.DomainRefusal
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "openmap" or n.startswith("openmap."))]
        for module, attr, group, opens_span in TARGETS:
            name = target_name(module, attr)
            if attr == "NetworkPoint.__post_init__":
                cls = openmap.landscape.NetworkPoint
                orig = cls.__dict__["__post_init__"]
                wrapper = self._wrap(orig, name, group, opens_span)
                self._patch(cls, "__post_init__", orig, wrapper)
            else:
                orig = getattr(sys.modules[f"openmap.{module}"], attr)
                wrapper = self._wrap(orig, name, group, opens_span)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapper)
            self.originals[name] = orig
            self.wrappers[name] = wrapper

    def _patch(self, namespace, key, orig, wrapper):
        setattr(namespace, key, wrapper)
        self._patched.append((namespace, key, orig))

    def disable(self):
        for namespace, key, orig in reversed(self._patched):
            setattr(namespace, key, orig)
        self._patched.clear()

    def __enter__(self):
        self.enable()
        return self

    def __exit__(self, *exc):
        self.disable()
        return False

    def set_phase(self, phase):
        self.stats = self.phases[phase]

    # -- the wrapper -----------------------------------------------------

    def _wrap(self, orig, name, group, opens_span):
        active = self._active
        stack = self._stack
        clock = time.perf_counter
        refusal = self._refusal

        def wrapper(*args, **kwargs):
            stats = self.stats
            stats.calls[name] += 1
            for outer in active:
                stats.nested[(outer, name)] += 1
            if not opens_span:
                return orig(*args, **kwargs)
            outermost = name not in active
            span = not stack or stack[-1][1] != group
            start = clock()
            if outermost:
                active.append(name)
            if span:
                stack.append([self._reserve(name, start), group, start, 0.0])
            try:
                result = orig(*args, **kwargs)
            except refusal:
                stats.refusals[name] += 1
                raise
            else:
                _record_result(stats, name, result)
                return result
            finally:
                end = clock()
                if outermost:
                    active.pop()
                    stats.incl[name] += end - start
                if span:
                    index, _, _, child = stack.pop()
                    dur = end - start
                    stats.self_time[group] += dur - child
                    if stack:
                        stack[-1][3] += dur
                    if index is not None:
                        self.spans[index][2] = end - self.t0

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.perfbench_target = name
        return wrapper

    def _reserve(self, name, start):
        if len(self.spans) >= SPAN_CAP:
            self.spans_dropped += 1
            return None
        parent = self._stack[-1][0] if self._stack else None
        phase = "program" if self.stats is self.phases["program"] else "check"
        self.spans.append([name, start - self.t0, None, parent, self.item, phase])
        return len(self.spans) - 1

    # -- reading ---------------------------------------------------------

    def layer_self_times(self, phase="program"):
        out = dict.fromkeys(LAYERS, 0.0)
        for group, seconds in self.phases[phase].self_time.items():
            out[group.split(".")[0]] += seconds
        return out

    def write_spans(self, path):
        import json

        with open(path, "w") as fh:
            for name, start, end, parent, item, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item,
                                     "phase": phase}))
                fh.write("\n")

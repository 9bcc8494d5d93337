"""Per-module spans and counters for a traced benchmark run.

The tracer wraps cqmlab's public entry points and a few named module
attributes from outside the package; nothing under ``src/`` changes.
Every wrapped cqmlab call is a span; a layer's self time is the wall
time of its spans minus the time of the spans nested inside them, so
the cqmlab layers' self times (plus ``trace.unattributed_s``, the
benchmark's own code) partition the pass.  The ``numerics.eig`` hooks
on numpy's ``eigh``/``eigvalsh`` are leaves beneath that partition:
their time is also part of the self time of the cqmlab layer that made
the call, and ``numerics.eig.self_s`` shows the eigensolver's share
across all layers.  Counters are recorded at the same boundaries, so
ratios are measured where the work happens.

A hook whose target no longer exists (a refactor removed or renamed a
private helper) marks its metrics ``absent`` instead of failing.  A
hook that exists but never fired during the traced passes marks its
metrics ``n/a``.  Both report the value 0 and carry the status next to
the value.  Untraced runs never import this module.
"""

import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass

# name -> (unit, better).  The traced run reports every one of these.
METRICS = {
    "numerics.eigh.matrices": ("count", "lower"),
    "numerics.eigvalsh.matrices": ("count", "lower"),
    "numerics.eig.self_s": ("s", "lower"),
    "numerics.eig.bytes_computed": ("B", "lower"),
    "group_action.lip_seminorm.calls": ("count", "lower"),
    "group_action.lip_seminorm.self_s": ("s", "lower"),
    "group_action.lip_seminorms.rows": ("count", "lower"),
    "group_action.lip_seminorms.self_s": ("s", "lower"),
    "group_action.kernel_size": ("count", "lower"),
    "group_action.quadrature.self_s": ("s", "lower"),
    "cqms.smoothed_seminorm.evals": ("count", "lower"),
    "cqms.smoothed_seminorm.self_s": ("s", "lower"),
    "cqms.support_max.calls": ("count", "lower"),
    "cqms.support_max.self_s": ("s", "lower"),
    "cqms.support_max.lbfgs_stages": ("count", "lower"),
    "cqms.support_max.lbfgs_nit": ("count", "lower"),
    "cqms.support_max.lbfgs_unconverged": ("count", "lower"),
    "cqms.support_max.unconverged_ratio": ("ratio", "lower"),
    "cqms.radius.calls": ("count", "lower"),
    "cqms.radius.cache_hits": ("count", "higher"),
    "cqms.radius.self_s": ("s", "lower"),
    "cqms.state_metric.calls": ("count", "lower"),
    "cqms.state_metric.self_s": ("s", "lower"),
    "cqms.state_diameter.self_s": ("s", "lower"),
    "cqms.ball_net.calls": ("count", "lower"),
    "cqms.ball_net.cache_hits": ("count", "higher"),
    "cqms.ball_net.points": ("count", "lower"),
    "cqms.ball_net.cap_hits": ("count", "lower"),
    "cqms.ball_net.incomplete": ("count", "lower"),
    "cqms.ball_net.self_s": ("s", "lower"),
    "cqms.stack_norms.matrices": ("count", "lower"),
    "cqms.stack_norms.self_s": ("s", "lower"),
    "distoq.dist_oq_upper.calls": ("count", "lower"),
    "distoq.dist_oq_upper.self_s": ("s", "lower"),
    "distoq.dist_oq_lower.calls": ("count", "lower"),
    "distoq.dist_oq_lower.self_s": ("s", "lower"),
    "distoq.pairwise_norms.matrices": ("count", "lower"),
    "distoq.pairwise_norms.self_s": ("s", "lower"),
    "distoq.glue_descend.lbfgs_nit": ("count", "lower"),
    "distoq.glue_descend.self_s": ("s", "lower"),
    "distoq.measure.self_s": ("s", "lower"),
    "finmetric.gh_lower_bound.self_s": ("s", "lower"),
    "finmetric.universal_embed.self_s": ("s", "lower"),
    "examples.build.self_s": ("s", "lower"),
    "cli.run_scenario.self_s": ("s", "lower"),
    "cli.render_json.self_s": ("s", "lower"),
    "cli.jobs": ("count", "higher"),
    "cli.job_errors": ("count", "lower"),
    # the benchmark's own accounting of a traced pass
    "trace.pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def _matrices(a) -> int:
    shape = getattr(a, "shape", ())
    count = 1
    for n in shape[:-2]:
        count *= n
    return count


def _from_cqmlab(args, kwargs) -> bool:
    """True when the wrapped numpy function was called from cqmlab code."""
    # frame 0 is this function, 1 the wrapper, 2 the caller of the wrapped name
    return sys._getframe(2).f_globals.get("__name__", "").startswith("cqmlab")


@dataclass
class Hook:
    """One wrapped attribute: ``target`` is "module:Attr" or "module:Class.attr"."""

    target: str
    metrics: tuple
    span: str | None = None        # layer name whose self time the call adds to
    leaf: bool = False             # time the call without nesting it in the span tree
    before: object = None          # (tracer, args, kwargs) -> state
    after: object = None           # (tracer, args, kwargs, result, state) -> None
    when: object = None            # (args, kwargs) -> bool; untraced call if False
    available: bool = True         # False when the hook cannot be built at all


class Tracer:
    """Install with :meth:`install`, then time passes with :meth:`trace_pass`."""

    def __init__(self):
        self._values: dict = {}
        self._fired: set = set()
        self._absent: set = set()
        self._open: list = []           # nested-span time of each open span
        self._patches: list = []        # (owner, attr, original)
        self.active = False

    # -- accounting -------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self._values[name] = self._values.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self._values[name] = max(self._values.get(name, 0), value)

    def mark_absent(self, name: str) -> None:
        self._absent.add(name)

    def trace_pass(self, fn):
        """Run ``fn`` traced; return (result, {metric: value}, fired metrics).

        Values of one pass: counters are totals over the pass, self
        times are sums of span self times within it.
        """
        self._values, self._fired = {}, set()
        self._open = [0.0]
        self.active = True
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            self.active = False
        nested = self._open.pop()
        values = dict(self._values)
        values["trace.pass_s"] = elapsed
        values["trace.unattributed_s"] = elapsed - nested
        stages = values.get("cqms.support_max.lbfgs_stages", 0)
        if stages:
            values["cqms.support_max.unconverged_ratio"] = (
                values.get("cqms.support_max.lbfgs_unconverged", 0) / stages)
        return result, values, set(self._fired)

    def status(self, fired_by_pass: list) -> dict:
        """Metric name -> "absent" / "n/a" for metrics that were not measured."""
        fired = set().union(*fired_by_pass) if fired_by_pass else set()
        fired |= {"trace.pass_s", "trace.overhead_s", "trace.unattributed_s"}
        out = {}
        for name in METRICS:
            if name in self._absent:
                out[name] = "absent"
            elif name not in fired:
                out[name] = "n/a"
        return out

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, hook: Hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (hook.when is not None and not hook.when(args, kwargs)):
                return fn(*args, **kwargs)
            tracer._fired.update(hook.metrics)
            state = hook.before(tracer, args, kwargs) if hook.before else None
            if hook.span is None:
                result = fn(*args, **kwargs)
            elif hook.leaf:
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.add(hook.span + ".self_s", time.perf_counter() - start)
            else:
                tracer._open.append(0.0)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    nested = tracer._open.pop()
                    tracer._open[-1] += elapsed
                    tracer.add(hook.span + ".self_s", elapsed - nested)
            if hook.after:
                hook.after(tracer, args, kwargs, result, state)
            return result

        return traced

    def _resolve(self, target: str):
        """(owner, attr, value) for "module:Dotted.path", or None if missing."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        value = inspect.getattr_static(owner, parts[-1], None)
        if value is None:
            return None
        return owner, parts[-1], value

    def install(self) -> None:
        for hook in default_hooks():
            found = self._resolve(hook.target)
            if found is None or not hook.available:
                self._absent.update(hook.metrics)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(fn, hook)
            owners = [owner]
            # a cqmlab function imported by name elsewhere in the package
            # (``from .finmetric import gh_lower_bound``) is rebound there too
            if inspect.ismodule(owner) and getattr(fn, "__module__", "") == owner.__name__ \
                    and owner.__name__.startswith("cqmlab"):
                owners += [m for name, m in list(sys.modules.items())
                           if name.startswith("cqmlab") and m is not owner
                           and vars(m).get(attr) is fn]
            for o in owners:
                self._patches.append((o, attr, fn))
                setattr(o, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# the hook table: one entry per wrapped attribute


def _count(name, amount=lambda args, kwargs: 1):
    def before(tracer, args, kwargs):
        tracer.add(name, amount(args, kwargs))
    return before


def _eig_before(kind):
    def before(tracer, args, kwargs):
        a = args[0]
        tracer.add(f"numerics.{kind}.matrices", _matrices(a))
        tracer.add("numerics.eig.bytes_computed", getattr(a, "nbytes", 0))
    return before


def _kernel_after(tracer, args, kwargs, result, state):
    tracer.peak("group_action.kernel_size", len(result[0]))


def _lbfgs_after(prefix, stages):
    def after(tracer, args, kwargs, result, state):
        tracer.add(prefix + ".lbfgs_nit", int(getattr(result, "nit", 0)))
        if stages:
            tracer.add(prefix + ".lbfgs_stages", 1)
            tracer.add(prefix + ".lbfgs_unconverged", 0 if result.success else 1)
    return after


_MISSING = object()


def _radius_before(tracer, args, kwargs):
    tracer.add("cqms.radius.calls", 1)
    cached = getattr(args[0], "_radius", _MISSING)
    if cached is _MISSING:
        tracer.mark_absent("cqms.radius.cache_hits")
    elif cached is not None:
        tracer.add("cqms.radius.cache_hits", 1)


def _ball_net_hooks():
    from cqmlab import cqms
    fn = inspect.getattr_static(getattr(cqms, "Cqms", None), "ball_net", None)
    signature = inspect.signature(fn) if fn is not None else None

    def before(tracer, args, kwargs):
        tracer.add("cqms.ball_net.calls", 1)
        cache = getattr(args[0], "net_cache", None)
        return None if cache is None else len(cache)

    def after(tracer, args, kwargs, net, cached_before):
        if cached_before is None:
            tracer.mark_absent("cqms.ball_net.cache_hits")
        elif len(args[0].net_cache) == cached_before:
            tracer.add("cqms.ball_net.cache_hits", 1)
            return
        tracer.add("cqms.ball_net.points", net.points.shape[0])
        tracer.add("cqms.ball_net.incomplete", 0 if net.complete else 1)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        cap = bound.arguments.get("max_points")
        if cap is None:
            tracer.mark_absent("cqms.ball_net.cap_hits")
        else:
            tracer.add("cqms.ball_net.cap_hits", 1 if net.points.shape[0] >= cap else 0)

    return before, after


def _descend_when():
    """Predicate selecting ``SumNorm.value(..., descend=True)`` calls."""
    from cqmlab import distoq
    fn = inspect.getattr_static(getattr(distoq, "SumNorm", None), "value", None)
    if fn is None or "descend" not in inspect.signature(fn).parameters:
        return None
    signature = inspect.signature(fn)
    return lambda args, kwargs: bool(signature.bind(*args, **kwargs).arguments.get("descend"))


def _run_scenario_after(tracer, args, kwargs, result, state):
    jobs = result[0].get("jobs", [])
    tracer.add("cli.jobs", len(jobs))
    tracer.add("cli.job_errors", sum(1 for j in jobs if j.get("status") != "ok"))


def default_hooks() -> list:
    net_before, net_after = _ball_net_hooks()
    when_descend = _descend_when()
    quadrature = ("group_action.quadrature.self_s",)
    build = ("examples.build.self_s",)
    return [
        Hook("numpy.linalg:eigh", ("numerics.eigh.matrices", "numerics.eig.self_s",
                                   "numerics.eig.bytes_computed"),
             span="numerics.eig", leaf=True, before=_eig_before("eigh"),
             when=_from_cqmlab),
        Hook("numpy.linalg:eigvalsh", ("numerics.eigvalsh.matrices", "numerics.eig.self_s",
                                       "numerics.eig.bytes_computed"),
             span="numerics.eig", leaf=True, before=_eig_before("eigvalsh"),
             when=_from_cqmlab),
        Hook("cqmlab.group_action:lip_seminorm",
             ("group_action.lip_seminorm.calls", "group_action.lip_seminorm.self_s"),
             span="group_action.lip_seminorm",
             before=_count("group_action.lip_seminorm.calls")),
        Hook("cqmlab.group_action:lip_seminorms",
             ("group_action.lip_seminorms.rows", "group_action.lip_seminorms.self_s"),
             span="group_action.lip_seminorms",
             before=_count("group_action.lip_seminorms.rows",
                           lambda args, kwargs: len(args[1]))),
        Hook("cqmlab.group_action:UnitaryAction.seminorm_kernel",
             ("group_action.kernel_size",), after=_kernel_after),
        Hook("cqmlab.group_action:ergodicity_check", quadrature,
             span="group_action.quadrature"),
        Hook("cqmlab.group_action:action_traces", quadrature, span="group_action.quadrature"),
        Hook("cqmlab.group_action:multiplicity", quadrature, span="group_action.quadrature"),
        Hook("cqmlab.cqms:Cqms._smoothed_seminorm",
             ("cqms.smoothed_seminorm.evals", "cqms.smoothed_seminorm.self_s"),
             span="cqms.smoothed_seminorm", before=_count("cqms.smoothed_seminorm.evals")),
        Hook("cqmlab.cqms:Cqms._support_max",
             ("cqms.support_max.calls", "cqms.support_max.self_s"),
             span="cqms.support_max", before=_count("cqms.support_max.calls")),
        Hook("cqmlab.cqms:minimize",
             ("cqms.support_max.lbfgs_stages", "cqms.support_max.lbfgs_nit",
              "cqms.support_max.lbfgs_unconverged", "cqms.support_max.unconverged_ratio"),
             after=_lbfgs_after("cqms.support_max", stages=True)),
        Hook("cqmlab.cqms:Cqms.radius",
             ("cqms.radius.calls", "cqms.radius.cache_hits", "cqms.radius.self_s"),
             span="cqms.radius", before=_radius_before),
        Hook("cqmlab.cqms:Cqms.state_metric",
             ("cqms.state_metric.calls", "cqms.state_metric.self_s"),
             span="cqms.state_metric", before=_count("cqms.state_metric.calls")),
        Hook("cqmlab.cqms:Cqms.state_diameter", ("cqms.state_diameter.self_s",),
             span="cqms.state_diameter"),
        Hook("cqmlab.cqms:Cqms.ball_net",
             ("cqms.ball_net.calls", "cqms.ball_net.cache_hits", "cqms.ball_net.points",
              "cqms.ball_net.cap_hits", "cqms.ball_net.incomplete", "cqms.ball_net.self_s"),
             span="cqms.ball_net", before=net_before, after=net_after),
        Hook("cqmlab.cqms:_stack_norms",
             ("cqms.stack_norms.matrices", "cqms.stack_norms.self_s"),
             span="cqms.stack_norms",
             before=_count("cqms.stack_norms.matrices",
                           lambda args, kwargs: _matrices(args[0]))),
        Hook("cqmlab.distoq:dist_oq_upper",
             ("distoq.dist_oq_upper.calls", "distoq.dist_oq_upper.self_s"),
             span="distoq.dist_oq_upper", before=_count("distoq.dist_oq_upper.calls")),
        Hook("cqmlab.distoq:dist_oq_lower",
             ("distoq.dist_oq_lower.calls", "distoq.dist_oq_lower.self_s"),
             span="distoq.dist_oq_lower", before=_count("distoq.dist_oq_lower.calls")),
        Hook("cqmlab.distoq:_pairwise_norms",
             ("distoq.pairwise_norms.matrices", "distoq.pairwise_norms.self_s"),
             span="distoq.pairwise_norms",
             before=_count("distoq.pairwise_norms.matrices",
                           lambda args, kwargs: len(args[0]) * len(args[1]))),
        Hook("cqmlab.distoq:SumNorm.value", ("distoq.glue_descend.self_s",),
             span="distoq.glue_descend", when=when_descend,
             available=when_descend is not None),
        Hook("cqmlab.distoq:minimize", ("distoq.glue_descend.lbfgs_nit",),
             after=_lbfgs_after("distoq.glue_descend", stages=False)),
        Hook("cqmlab.distoq:ComparisonMap.measure", ("distoq.measure.self_s",),
             span="distoq.measure"),
        Hook("cqmlab.finmetric:gh_lower_bound", ("finmetric.gh_lower_bound.self_s",),
             span="finmetric.gh_lower_bound"),
        Hook("cqmlab.finmetric:universal_embed", ("finmetric.universal_embed.self_s",),
             span="finmetric.universal_embed"),
        Hook("cqmlab.examples:fuzzy_torus", build, span="examples.build"),
        Hook("cqmlab.examples:fuzzy_sphere", build, span="examples.build"),
        Hook("cqmlab.examples:commutative_cycle", build, span="examples.build"),
        Hook("cqmlab.examples:scalar_cqms", build, span="examples.build"),
        Hook("cqmlab.examples:ExampleDescriptor.build", build, span="examples.build"),
        Hook("cqmlab.cli:run_scenario", ("cli.run_scenario.self_s", "cli.jobs",
                                         "cli.job_errors"),
             span="cli.run_scenario", after=_run_scenario_after),
        Hook("cqmlab.cli:render_json", ("cli.render_json.self_s",), span="cli.render_json"),
    ]


def summarize(per_pass: list, untraced_pass_s: list) -> dict:
    """Median over traced passes of each metric; overhead = traced - untraced."""
    out = {}
    for name in METRICS:
        values = [p.get(name, 0) for p in per_pass]
        out[name] = statistics.median(values) if values else 0
    if per_pass and untraced_pass_s:
        out["trace.overhead_s"] = (statistics.median(p["trace.pass_s"] for p in per_pass)
                                   - statistics.median(untraced_pass_s))
    return out

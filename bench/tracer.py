"""Per-layer tracing of gfstack from outside the library.

The tracer replaces public functions of gfstack's modules with wrappers that
open a span (wall-clock start and end) or only count calls.  A module that
imported a function by name holds its own binding, so every module whose
attribute *is* the original function gets the wrapper; ``convex`` itself
looks ``prox`` and ``moreau_envelope`` up as module globals, which is how the
nested Moreau envelopes reach the wrapped ``prox``.

Spans are kept per thread, because ``bound_suite`` runs its tasks on a
thread pool.  A span opened on a thread with no open span of its own is a
child of the outermost span open on any thread (the runner that submitted
the task).  A span's self time is its duration minus the part of that
interval its child spans cover (the union of the child intervals, since
children on two threads overlap).  Self times are wall-clock per thread, so
on a two-thread runner the layers' self times can add up to more than the
operation's duration.

Nothing is wrapped until ``install``; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


def _covered(kids) -> float:
    """Length of the union of (start, end) intervals."""
    if len(kids) == 1:
        return kids[0][1] - kids[0][0]
    kids.sort()
    total = 0.0
    lo, hi = kids[0]
    for s, e in kids[1:]:
        if s > hi:
            total += hi - lo
            lo, hi = s, e
        elif e > hi:
            hi = e
    return total + hi - lo


# hooks: read what a layer did from its arguments and results ---------------


def _prox_call(sums, args, kwargs):
    phi = args[0] if args else kwargs["phi"]
    if phi.prox_closed_form is None:
        sums["convex.prox.generic_calls"] += 1


def _iterate_call(sums, args, kwargs):
    # n explicit resolvent applications, or one call of the closed-form iterate
    R = args[0] if args else kwargs["R"]
    n = args[2] if len(args) > 2 else kwargs["n"]
    sums["semigroup.resolvent_applications"] += n if R.resolve_iterated is None else 1


def _cl_return(sums, maxes, out):
    cert = out[1]
    sums["semigroup.resolvent_steps"] += cert.n
    sums["semigroup.certified"] += bool(cert.certified)


def _transport_call(sums, args, kwargs):
    C = args[2] if len(args) > 2 else kwargs["C"]
    m, n = C.shape
    sums["transport.cells"] += m * n


def _transport_return(sums, maxes, out):
    import numpy as np

    sums["transport.plan_support"] += int(np.count_nonzero(out[0]))


def _marginal_return(sums, maxes, out):
    err = max(out)
    if err > maxes["transport.max_marginal_err"]:
        maxes["transport.max_marginal_err"] = err


# (module, attribute, span name, on_call, on_return).  A span name
# accumulates <name>.calls, <name>.total_s and <name>.self_s; several
# functions share one span name when the layer reports them together.
SPANS = [
    ("gfstack.experiments", "run_experiment", "experiments.runner", None, None),
    ("gfstack.experiments", "build_heat_instances", "experiments.build_heat_instances",
     None, None),
    ("gfstack.experiments", "rows_to_csv", "experiments.rows_to_csv", None, None),
    ("gfstack.convex", "prox", "convex.prox", _prox_call, None),
    ("gfstack.semigroup", "crandall_liggett", "semigroup.crandall_liggett", None, _cl_return),
    ("gfstack.flow", "gradient_flow", "flow.gradient_flow", None, None),
    ("gfstack.flow", "energy_bound_check", "flow.checks", None, None),
    ("gfstack.flow", "decay_rate_check", "flow.checks", None, None),
    ("gfstack.energies", "graph_prox", "energies.graph_prox", None, None),
    ("gfstack.energies", "GraphEnergy.to_functional", "energies.to_functional", None, None),
    ("gfstack.energies", "p0_convexity_check", "energies.p0_checks", None, None),
    ("gfstack.energies", "counterexample_demo", "energies.p0_checks", None, None),
    ("gfstack.transport", "solve_transport", "transport.solve_transport",
     _transport_call, _transport_return),
    ("gfstack.transport", "tlp_distance", "transport.wrapper", None, None),
    ("gfstack.transport", "wasserstein", "transport.wrapper", None, None),
    ("gfstack.stacking", "check_stacking_axioms", "stacking.probes", None, None),
    ("gfstack.stacking", "gamma_liminf_check", "stacking.probes", None, None),
    ("gfstack.stacking", "recovery_sequence", "stacking.probes", None, None),
    ("gfstack.stacking", "equicoercivity_probe", "stacking.probes", None, None),
]

# Counted, not timed: these run too often for a span each.
# (module, attribute, counter name, on_call, on_return)
COUNTERS = [
    ("gfstack.convex", "ProperFunctional.evaluate", "convex.evaluate", None, None),
    ("gfstack.convex", "moreau_envelope", "convex.moreau_envelope", None, None),
    ("gfstack.semigroup", "resolvent_iterate", "semigroup.resolvent_iterate",
     _iterate_call, None),
    ("gfstack.transport", "TransportPlan.marginal_errors", "transport.marginal_errors",
     None, _marginal_return),
]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads = []  # (sums, maxes) of every thread that recorded
        self._root = None  # outermost open span frame, on any thread
        self._patches = []  # (owner, attribute, original)

    # per-thread state ------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.sums, local.maxes, local.stack
        except AttributeError:
            local.sums, local.maxes, local.stack = defaultdict(int), defaultdict(float), []
            self._threads.append((local.sums, local.maxes))  # list.append is atomic
            return local.sums, local.maxes, local.stack

    def collect(self):
        """Merge and reset what every thread recorded since the last collect."""
        sums, maxes = defaultdict(int), defaultdict(float)
        for s, m in self._threads:
            for k, v in list(s.items()):
                sums[k] += v
            for k, v in list(m.items()):
                maxes[k] = max(maxes[k], v)
            s.clear()
            m.clear()
        return sums, maxes

    # wrappers --------------------------------------------------------------

    def _span(self, name, fn, on_call, on_return):
        tracer = self
        calls, self_s, total_s = name + ".calls", name + ".self_s", name + ".total_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sums, maxes, stack = tracer._state()
            sums[calls] += 1
            if on_call is not None:
                on_call(sums, args, kwargs)
            parent = stack[-1] if stack else tracer._root
            kids = []
            frame = (kids,)
            if parent is None:
                tracer._root = frame
            stack.append(frame)
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                sums[total_s] += end - start
                sums[self_s] += (end - start) - (_covered(kids) if kids else 0.0)
                if parent is None:
                    tracer._root = None
            if on_return is not None:
                on_return(sums, maxes, out)
            if parent is not None:
                # the hook's cost is hidden from both self times
                parent[0].append((start, _clock()))
            return out

        return wrapper

    def _counter(self, name, fn, on_call, on_return):
        tracer = self
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sums, maxes, _ = tracer._state()
            sums[calls] += 1
            if on_call is not None:
                on_call(sums, args, kwargs)
            out = fn(*args, **kwargs)
            if on_return is not None:
                on_return(sums, maxes, out)
            return out

        return wrapper

    # installation ----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gfstack" or name.startswith("gfstack."))]
        for mod, attr, name, on_call, on_return in SPANS:
            self._install(modules, mod, attr,
                          functools.partial(self._span, name, on_call=on_call, on_return=on_return))
        for mod, attr, name, on_call, on_return in COUNTERS:
            self._install(modules, mod, attr,
                          functools.partial(self._counter, name, on_call=on_call,
                                            on_return=on_return))

    def _install(self, modules, mod, attr, make):
        owner = sys.modules[mod]
        if "." in attr:  # a method: patch its class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            self._patch(cls, meth, make(getattr(cls, meth)))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, binding, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

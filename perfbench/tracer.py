"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each ``quadstab`` module and
records, per layer group, how many calls it took and how much time it spent
in itself.  Self time is a span's duration minus the durations of the wrapped
spans it caused, so the self times of all groups plus the time spent outside
any wrapped span add up to the traced run time.

Spans are aggregated in memory as they close (count, self time, and for the
check runners the inclusive time per check) and written out when the run
ends.  Nothing in ``src/`` is
changed: functions imported by name into other modules are replaced in
every module namespace that holds them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from dataclasses import replace

from speed import CLOCK

# group -> targets.  A target is "module:function" for a module-level
# function, "module:Class.attr" for a method, static method or property.
LAYERS: dict[str, tuple[str, ...]] = {
    "geometry.chow_mul": ("geometry:Geometry.chow_mul",),
    "geometry.hrr_euler": ("geometry:Geometry.hrr_euler",),
    "geometry.chern_character": ("geometry:Geometry.chern_character", "geometry:Geometry.todd_class"),
    "geometry.cohomology": (
        "geometry:Geometry.threefold_cohomology",
        "geometry:Geometry.surface_cohomology",
        "geometry:Geometry.pushforward_decomposition",
    ),
    "lattice.euler_pairing": ("lattice:KTheory.euler_pairing",),
    "lattice.coordinates": ("lattice:KTheory.coordinates",),
    "lattice.class_ops": (
        "lattice:KTheory.serre_class",
        "lattice:KTheory.mutate_class_left",
        "lattice:KTheory.mutate_class_right",
        "lattice:KTheory.from_coordinates",
        "lattice:KTheory.line_class",
        "lattice:KTheory.pushforward_class",
        "lattice:KTheory.tensor_line",
    ),
    "lattice.normal_forms": (
        "lattice:hnf_with_transform",
        "lattice:integer_kernel",
        "lattice:smith_normal_form",
        "lattice:quotient",
        "lattice:lattice_from",
        "lattice:IntegerLattice.__init__",
        "lattice:IntegerLattice.member",
        "lattice:IntegerLattice.intersection",
        "lattice:IntegerLattice.contains_lattice",
        "lattice:IntegerLattice.basis_coordinates",
    ),
    "lattice.rational": (
        "lattice:rational_inverse",
        "lattice:rational_determinant",
        "lattice:solve_rational",
    ),
    "expressions.parse": ("expressions:parse_object",),
    "expressions.pretty": ("expressions:pretty",),
    "calculus.rhom": ("calculus:Calculus.rhom",),
    "calculus.normalize": ("calculus:Calculus.normalize",),
    "calculus.class_of": ("calculus:Calculus.class_of",),
    "calculus.mutate": ("calculus:Calculus.mutate_left", "calculus:Calculus.mutate_right"),
    "calculus.predicates": (
        "calculus:Calculus.is_exceptional",
        "calculus:Calculus.is_semiorthogonal",
        "calculus:Calculus.is_ext_exceptional",
        "calculus:Calculus.is_spherical",
        "calculus:Calculus.verify_identity",
    ),
    "stability.hearts": ("stability:make_heart", "stability:tilt_at"),
    "stability.descend": ("stability:descend",),
    "stability.axioms": (
        "stability:check_weak_stability_condition",
        "stability:check_stability_function",
        "stability:check_support",
        "stability:hn_filtration",
        "stability:slope",
    ),
    "harness.context": (
        "harness:HarnessConfig.from_text",
        "harness:validate_config",
        "harness:Context.__init__",
        "harness:Context.names",
        "harness:Context.hearts",
        "harness:Context.charges",
    ),
    "harness.cli": ("cli:main", "harness:emit_report"),
}
CHECK_GROUP = "harness.checks"
# groups whose call arguments are kept to measure the share of distinct calls
DISTINCT = ("lattice.euler_pairing", "calculus.rhom")


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.check_s: dict[str, float] = defaultdict(float)
        self.args: dict[str, list] = {g: [] for g in DISTINCT}
        self.ambiguous = 0
        self._stack: list[list] = []  # [child seconds] per open span
        self._root_s = 0.0

    def reset(self) -> None:
        """Forget everything recorded so far; call outside any span.

        The containers are cleared in place: the wrappers hold them.
        """
        for table in (self.calls, self.self_s, self.check_s, *self.args.values()):
            table.clear()
        self.ambiguous = 0
        self._root_s = 0.0

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, group: str, label: str | None = None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = CLOCK
        args_log = self.args.get(group)
        is_rhom = group == "calculus.rhom"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if args_log is not None:
                    args_log.append(args[1:3])
                if is_rhom and out.status == "ambiguous":
                    tracer.ambiguous += 1
                return out
            finally:
                took = clock() - start
                stack.pop()
                calls[group] += 1
                self_s[group] += took - frame[0]
                if label is not None:
                    tracer.check_s[label] += took
                if stack:
                    stack[-1][0] += took
                else:
                    tracer._root_s += took

        return wrapper

    def install(self) -> None:
        """Wrap every target in LAYERS and every registered check runner."""
        import quadstab.cli
        import quadstab.harness as harness

        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "quadstab"]
        for group, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = sys.modules[f"quadstab.{module_name}"]
                if "." in attr:
                    self._wrap_member(module, attr, group)
                else:
                    original = getattr(module, attr)
                    wrapped = self._wrap(original, group)
                    for m in modules:
                        for name, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, name, wrapped)
        harness.REGISTRY = tuple(
            replace(c, runner=self._wrap(c.runner, CHECK_GROUP, c.name)) for c in harness.REGISTRY
        )

    def _wrap_member(self, module, attr: str, group: str) -> None:
        cls_name, member = attr.split(".")
        cls = getattr(module, cls_name)
        raw = inspect.getattr_static(cls, member)
        if isinstance(raw, staticmethod):
            setattr(cls, member, staticmethod(self._wrap(raw.__func__, group)))
        elif isinstance(raw, property):
            setattr(cls, member, property(self._wrap(raw.fget, group), raw.fset, raw.fdel))
        else:
            setattr(cls, member, self._wrap(raw, group))

    # -- results ----------------------------------------------------------

    def group_self(self, group: str) -> float:
        return self.self_s.get(group, 0.0)

    def summary(self, run_s: float) -> dict:
        """Per-layer metrics for a region that took ``run_s`` seconds."""
        out: dict[str, float] = {}
        for group in (*LAYERS, CHECK_GROUP):
            out[f"{group}.calls"] = self.calls.get(group, 0)
            out[f"{group}.self_s"] = self.self_s.get(group, 0.0)
        for group, log in self.args.items():
            out[f"{group}.distinct_share"] = len(set(log)) / len(log) if log else 0.0
        rhom_calls = self.calls.get("calculus.rhom", 0)
        out["calculus.rhom.ambiguous_share"] = self.ambiguous / rhom_calls if rhom_calls else 0.0
        out["trace.run_s"] = run_s
        out["trace.unattributed_s"] = run_s - self._root_s
        return out

    def check_times(self) -> dict[str, float]:
        return dict(self.check_s)


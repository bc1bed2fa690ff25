"""Spans and counts at the public boundary of every toricbundles module.

The package binds names with ``from .linalg import intersect``, so a
function is replaced in every ``toricbundles.*`` namespace that holds it,
and methods are replaced on their class. Each wrapper opens a span on entry
and closes it on exit. Spans are folded into per-name aggregates as they
close (calls, inclusive time of the outermost span of that name, self time
= span time minus the time its child spans cover), because the scaling
workload makes millions of linear-algebra calls and keeping every span
would cost more memory than the program itself.
"""
from __future__ import annotations

import importlib
import pkgutil
import time

# (module, attribute) of every wrapped public function; "Class.method" for
# methods. Leaf helpers called inside inner loops (vector, dot, reduce) stay
# unwrapped: their time counts as self time of the caller.
BOUNDARY = {
    "linalg": ("span", "intersect", "subspace_sum", "nullspace", "matrix_rank",
               "det", "solve_rational_system", "solve_integer_system",
               "integer_kernel_basis", "orthogonal_lattice_basis",
               "Subspace.contains"),
    "fan": ("validate_fan", "walls", "wall_normal", "positively_spans"),
    "bundle": ("check_compatibility", "associated_characters", "tangent_bundle",
               "direct_sum", "twist_by_divisor", "twist_by_character",
               "line_bundle"),
    "matroid": ("build_lattice", "ground_set", "bundle_ground_set", "closure",
                "enumerate_flats", "proper_nonzero_flats", "is_compatible_flat",
                "is_subbundle"),
    "polytopes": ("HPolytope.vertices", "HPolytope.lattice_points",
                  "newton_polytope"),
    "parliament": ("parliament", "is_globally_generated",
                   "reconstruct_filtrations", "polytope_of", "average_polytope"),
    "stability": ("check_stability", "slope", "c1", "weights_from_divisor",
                  "validate_polarization", "restrict_to_curve",
                  "compare_average_polytopes", "tangent_weight_condition"),
    "io": ("parse_document", "load_document", "dumps_report"),
    "svg": ("render_svg",),
    "cli": ("main",),
}

MODULES = tuple(BOUNDARY)

# results whose length is a count the benchmark reports
RESULT_COUNTS = {
    "matroid.enumerate_flats": "matroid.flats_found",
    "polytopes.HPolytope.lattice_points": "polytopes.lattice_points_found",
}


class Tracer:
    """Per-name aggregates of spans, plus per-command durations of cli.main."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.found: dict[str, int] = {key: 0 for key in RESULT_COUNTS.values()}
        self.commands: dict[str, list[float]] = {}
        self._children: list[float] = []  # child time covered, one per open span
        self._active: dict[str, int] = {}

    def wrap(self, name, fn):
        clock = time.perf_counter
        children = self._children
        active = self._active
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        calls[name] = 0
        inclusive[name] = self_time[name] = 0.0
        active[name] = 0
        found_key = RESULT_COUNTS.get(name)
        found = self.found
        commands = self.commands if name == "cli.main" else None

        def traced(*args, **kwargs):
            children.append(0.0)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[name] -= 1
                covered = children.pop()
                if children:
                    children[-1] += elapsed
                calls[name] += 1
                self_time[name] += elapsed - covered
                if not active[name]:
                    inclusive[name] += elapsed
                if commands is not None:
                    argv = args[0] if args else kwargs.get("argv")
                    commands.setdefault(argv[0], []).append(elapsed)
            if found_key is not None:
                found[found_key] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every boundary function in every toricbundles namespace."""
        package = importlib.import_module("toricbundles")
        namespaces = [package] + [
            importlib.import_module(f"toricbundles.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module_name, attrs in BOUNDARY.items():
            home = importlib.import_module(f"toricbundles.{module_name}")
            for attr in attrs:
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, method, self.wrap(name, getattr(cls, method)))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)

    def module_self(self, module):
        return sum(t for name, t in self.self_time.items()
                   if name.split(".", 1)[0] == module)

"""Per-layer spans around needle_iso's public functions, installed from outside.

A :class:`Tracer` rebinds each traced function at every place it is
reachable (the defining module, every ``needle_iso`` module that imported
the name, and the package namespace) and patches methods on their classes.
No file of the library changes, and :meth:`Tracer.uninstall` restores every
binding.

Each call opens a span on a stack; its parent is the span below it.  Self
time is a span's duration minus the time of its child spans.  A call is
counted only when its parent span belongs to another key, so recursion and
re-entry through a sibling entry point (``normalize`` rebuilding a density)
count once.  An exception is counted against a layer when it leaves the
layer, i.e. when the parent span belongs to another module or there is none.

A target that no longer exists is skipped; a key none of whose targets
exist is reported as absent rather than as zero.
"""

import functools
import importlib
import sys
import time

LAYERS = ("densities", "separation", "needle_bound", "cross_spaces", "solver",
          "cli", "sampling", "quadrature", "concavity", "oracles")
SUITES = ("density", "separation", "needle", "spaces", "solver")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(x):
    shape = getattr(x, "shape", None)
    if shape is not None:
        n = 1
        for d in shape:
            n *= d
        return n
    return len(x) if hasattr(x, "__len__") else 1


def _cross_needles(args, kwargs, result):
    """Size of the (m, k) grid: every pair with dim - 1 <= m + k <= the top power
    the call reports having used (the admissibility floor is the paper's)."""
    if result is None:
        return 0
    low = max(_arg(args, kwargs, 0, "space").dim - 1, 1)
    top = int(result.params["max_total_power"])
    return sum(t + 1 for t in range(low, top + 1))


# key -> (targets "module:qualname", counters {name: fn(args, kwargs, result)})
TARGETS = {
    "densities.quantile": (
        ["needle_iso.densities:_DensityBase.quantile"],
        {"points": lambda a, kw, r: _size(_arg(a, kw, 1, "q"))},
    ),
    "densities.cdf": (
        ["needle_iso.densities:_DensityBase.cdf"],
        {"points": lambda a, kw, r: _size(_arg(a, kw, 1, "t"))},
    ),
    "densities.build": (
        [
            "needle_iso.densities:TrigDensity.__post_init__",
            "needle_iso.densities:SinAffineDensity.__post_init__",
            "needle_iso.densities:TabulatedDensity.__post_init__",
            "needle_iso.densities:normalize",
        ],
        {},
    ),
    "separation.sep_1d": (["needle_iso.separation:sep_1d"], {}),
    "separation.bruteforce": (["needle_iso.separation:sep_1d_bruteforce"], {}),
    "needle_bound.cross": (
        ["needle_iso.needle_bound:cross_needle_bound"],
        {"needles": _cross_needles},
    ),
    "needle_bound.sphere": (["needle_iso.needle_bound:sphere_needle_bound"], {}),
    "needle_bound.affine_search": (
        ["needle_iso.needle_bound:optimize_affine_family"],
        {"samples": lambda a, kw, r: int(_arg(a, kw, 3, "samples"))},
    ),
    "cross_spaces.enlarged_volume": (["needle_iso.cross_spaces:enlarged_volume"], {}),
    "cross_spaces.radial_density": (["needle_iso.cross_spaces:radial_density"], {}),
    "solver.solve": (
        [
            "needle_iso.solver:solve_isoperimetric",
            "needle_iso.solver:solve_with_complement_reduction",
        ],
        {},
    ),
    "solver.profile": (
        ["needle_iso.solver:isoperimetric_profile_curve"],
        {
            "rows": lambda a, kw, r: len(_arg(a, kw, 2, "v_grid")),
            "crossovers": lambda a, kw, r: len(r["crossovers"]) if r is not None else 0,
        },
    ),
    "cli.main": (["needle_iso.cli:main"], {}),
    "sampling.mc_cap_mass": (
        ["needle_iso.sampling:mc_cap_mass"],
        {"samples": lambda a, kw, r: int(_arg(a, kw, 2, "samples"))},
    ),
    "quadrature.integrate": (["needle_iso.quadrature:integrate"], {}),
    "concavity": (
        [
            "needle_iso.concavity:is_sin_concave",
            "needle_iso.concavity:check_comparison_lemma",
            "needle_iso.concavity:binomial_decompose",
        ],
        {},
    ),
    "oracles": (["needle_iso.oracles:run_property_suite"], {}),
}


def _resolve(target):
    """(owner, attribute, original, is_method) or None when the target is gone."""
    mod_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    if len(parts) > 1:
        if attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr], True
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original, False)


class Tracer:
    """Span stack plus per-key counters for one traced pass."""

    def __init__(self, targets=TARGETS, spent=lambda: 0.0):
        """``spent()`` reads the time a sampler has taken from this thread so far;
        spans exclude it."""
        self.targets = targets
        self._spent = spent
        self.stats = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.present = set()
        self._stack = []  # frames: [key, child_seconds]
        self._profile_depth = 0
        self._profile_evals = 0
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        for key, (targets, counters) in self.targets.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr, original, is_method = found
                wrapper = self._wrap(key, original, counters)
                self.present.add(key)
                if is_method:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod_name, module in list(sys.modules.items()):
                    if module is None or not (mod_name == "needle_iso" or mod_name.startswith("needle_iso.")):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, key, fn, counters):
        tracer = self
        is_oracle = key == "oracles"
        is_profile = key == "solver.profile"
        is_eval = key == "cross_spaces.enlarged_volume"
        is_cli = key == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_key = f"oracles.{_arg(args, kwargs, 0, 'suite')}" if is_oracle else key
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [span_key, 0.0]
            stack.append(frame)
            if is_profile:
                tracer._profile_depth += 1
            if is_eval and tracer._profile_depth:
                tracer._profile_evals += 1
            out_start = _stdout_pos() if is_cli else None
            result = None
            s0 = tracer._spent()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                layer = span_key.split(".")[0]
                if parent is None or parent.split(".")[0] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0 - (tracer._spent() - s0)
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                if is_profile:
                    tracer._profile_depth -= 1
                st = tracer.stats.setdefault(span_key, {"calls": 0, "self_s": 0.0})
                st["self_s"] += elapsed - frame[1]
                if parent != span_key:
                    st["calls"] += 1
                    for name, count in counters.items():
                        st[name] = st.get(name, 0) + count(args, kwargs, result)
                    if is_cli and out_start is not None:
                        st["out_bytes"] = st.get("out_bytes", 0) + _stdout_pos() - out_start

        return wrapper

    # -- report -----------------------------------------------------------

    def metrics(self, scale=1.0):
        """Per-layer metrics by name; keys without a live target are omitted.

        Self times are multiplied by ``scale`` (a host-speed normalization).
        """
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def stat(key, field):
            return self.stats.get(key, {}).get(field, 0)

        for key, (_, counters) in self.targets.items():
            if key not in self.present:
                continue
            if key == "oracles":
                for suite in SUITES:
                    put(f"oracles.{suite}.self_ms", stat(f"oracles.{suite}", "self_s") * 1e3 * scale, "ms")
                continue
            put(f"{key}.calls", stat(key, "calls"), "count")
            put(f"{key}.self_ms", stat(key, "self_s") * 1e3 * scale, "ms")
            for name in counters:
                put(f"{key}.{name}", stat(key, name), "count")
        if "densities.quantile" in self.present:
            calls = stat("densities.quantile", "calls")
            put("densities.quantile.points_per_call",
                stat("densities.quantile", "points") / calls if calls else 0.0, "count")
        if {"cross_spaces.enlarged_volume", "cross_spaces.radial_density"} <= self.present:
            evals = stat("cross_spaces.enlarged_volume", "calls")
            put("cross_spaces.builds_per_eval",
                stat("cross_spaces.radial_density", "calls") / evals if evals else 0.0, "count")
        if "solver.profile" in self.present:
            rows = stat("solver.profile", "rows")
            put("solver.profile.evals_per_row", self._profile_evals / rows if rows else 0.0, "count")
        if "cli.main" in self.present:
            put("cli.main.out_bytes", stat("cli.main", "out_bytes"), "bytes")
        for layer in LAYERS:
            put(f"{layer}.errors", self.errors[layer], "count")
        return out


def _stdout_pos():
    try:
        return len(sys.stdout.getvalue().encode())
    except AttributeError:
        return 0

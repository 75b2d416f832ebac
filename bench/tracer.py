"""Per-layer tracing from outside the package.

The tracer wraps public functions of the ``takagi`` modules inside the
benchmark process; nothing under ``src/`` knows about it.  Each wrapped call
is a span whose parent is the innermost wrapped call (or the item root span)
that was open when it started.  Spans are not stored one by one: count, self
time and total time are aggregated per (parent, function), so memory stays
flat however hot a kernel is.  Self time is a span's duration minus the
durations of its wrapped children.

``oracle`` is deliberately not wrapped: it is the independent checker and is
not a layer of the program under measurement.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# Layer -> public functions whose calls and self time are reported.  A dotted
# name is a method, wrapped on its class.
LAYERS = {
    "intpoly": (
        "sturm_chain",
        "pseudo_rem",
        "primitive",
        "sign_at_dyadic",
        "sign_variations_at_dyadic",
        "eval_interval_dyadic",
        "poly_gcd",
        "sign_at",
    ),
    "littlewood": ("scan",),
    "scalars": ("scalar_sign", "scalar_enclosure", "scalar_mul", "scalar_pow", "algebraic"),
    "evaluate": ("Geometric.weight", "eval_periodic", "eval_series", "eval_from_rademacher", "rademacher_of"),
    "step_engine": ("classify_extrema", "build_rho"),
    "landsberg": ("maxima", "tau_point", "classify_alpha"),
    "cli": ("report_to_dict",),
}

FUNCTIONS = tuple("%s.%s" % (layer, fn) for layer, fns in LAYERS.items() for fn in fns)
SCALAR_KINDS = ("rational", "algebraic", "interval")


class Tracer:
    """Installs wrappers on a freshly imported ``takagi`` and aggregates spans."""

    def __init__(self, modules):
        self.modules = modules
        self.stack: list[list] = []  # frames: [name, child_ns]
        self.table = defaultdict(lambda: [0, 0, 0])  # (parent, fn) -> [calls, self_ns, total_ns]
        self.sign_kinds: Counter = Counter()
        self.alg_sign_depth = 0
        self.sign_at_under_alg_sign = 0
        self.roots: list[dict] = []  # one per root span: id, wall_ns, wrapped self_ns
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items() if name == "takagi" or name.startswith("takagi.")]
        for full in FUNCTIONS:
            layer, _, attr = full.partition(".")
            module = getattr(self.modules, layer)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(full, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(full, orig)
            # Modules bind names with `from .x import f`, so every namespace
            # holding this function object gets the wrapper.
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._rebind(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _rebind(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        stack, table = self.stack, self.table
        is_sign = name == "scalars.scalar_sign"
        is_sign_at = name == "intpoly.sign_at"
        algebraic_type = self.modules.scalars.AlgebraicScalar
        interval_type = self.modules.scalars.IntervalScalar

        def wrapper(*args, **kwargs):
            alg = False
            if is_sign:
                a = args[0] if args else kwargs.get("a")
                kind = "algebraic" if isinstance(a, algebraic_type) else "interval" if isinstance(a, interval_type) else "rational"
                self.sign_kinds[kind] += 1
                alg = kind == "algebraic"
                self.alg_sign_depth += alg
            elif is_sign_at and self.alg_sign_depth:
                self.sign_at_under_alg_sign += 1
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                rec = table[(parent, name)]
                rec[0] += 1
                rec[1] += dur - frame[1]
                rec[2] += dur
                if stack:
                    stack[-1][1] += dur
                self.alg_sign_depth -= alg

        wrapper.__wrapped__ = fn
        return wrapper

    # -- root spans ---------------------------------------------------------

    def self_by_function(self) -> dict:
        out = dict.fromkeys(FUNCTIONS, 0)
        for (_parent, fn), rec in self.table.items():
            out[fn] += rec[1]
        return out

    def root(self, item_id, fn, *args):
        """Run fn(*args) as a root span; record and check its accounting."""
        before = self.self_by_function()
        frame = ["item", 0]
        self.stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            wall = perf_counter_ns() - t0
            self.stack.pop()
            after = self.self_by_function()
            deltas = [after[k] - before[k] for k in FUNCTIONS]
            self.roots.append(
                {
                    "id": str(item_id),
                    "wall_ns": wall,
                    "wrapped_self_ns": sum(deltas),
                    "ok": min(deltas) >= 0 and sum(deltas) <= wall,
                }
            )

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_ns = dict.fromkeys(FUNCTIONS, 0)
        for (_parent, fn), rec in self.table.items():
            calls[fn] += rec[0]
            self_ns[fn] += rec[1]
        out = {}
        for fn in FUNCTIONS:
            out[fn + ".calls"] = (calls[fn], "count")
            out[fn + ".self_s"] = (self_ns[fn] / 1e9, "s")
        for kind in SCALAR_KINDS:
            out["scalars.scalar_sign.calls." + kind] = (self.sign_kinds[kind], "count")
        alg = self.sign_kinds["algebraic"]
        out["scalars.sign_at_per_alg_sign"] = (self.sign_at_under_alg_sign / alg if alg else 0.0, "ratio")
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                {"parent": parent, "function": fn, "calls": rec[0], "self_ns": rec[1], "total_ns": rec[2]}
                for (parent, fn), rec in sorted(self.table.items())
            ],
            "scalar_sign_kinds": dict(self.sign_kinds),
            "sign_at_under_algebraic_scalar_sign": self.sign_at_under_alg_sign,
            "roots": self.roots,
        }

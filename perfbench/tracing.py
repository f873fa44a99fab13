"""Outside-in layer tracing of the catalankit package.

`Tracer.install()` wraps the public functions of the nine package
modules, plus the methods of `exact.Polynomial` and
`exact.RationalFunction`, and rebinds every module attribute that holds
one of them: `cli`, `catalan2`, `functional` and `qfunc` import by name,
so patching the defining module alone would miss their calls. Nothing
under `src/` changes. `remove()` restores every binding and
`assert_clean()` checks that no wrapper is left.

Each call becomes a span (name, start, end, parent span, point id).
Self time (duration minus child spans) and the per-name counters are
folded in as spans close, so they are exact however many spans there
are; the spans themselves are kept in memory up to `SPAN_CAP` and written
out at the end.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array
from fractions import Fraction
from pathlib import Path

LAYERS = ("cli", "reporting", "catalan2", "functional", "qfunc", "hyper", "series",
          "quad", "exact")
TRACED_CLASSES = {"exact": ("Polynomial", "RationalFunction")}
SPAN_CAP = 500_000
_MARK = "__perfbench_wrapped__"


def bits(x) -> int:
    """Largest numerator/denominator bit size of a number or of the
    coefficients of a Polynomial, RationalFunction or PowerSeries."""
    if isinstance(x, bool):
        return 0
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if hasattr(x, "coeffs"):
        return max((bits(c) for c in x.coeffs), default=0)
    if hasattr(x, "num") and hasattr(x, "den"):
        return max(bits(x.num), bits(x.den))
    return 0


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


# Per-name observers: (result, args) -> (variant suffix or "", counters).
# A counter named `bits_max` keeps its maximum, every other one its sum.
def _gf(result, args):
    exact = result.exact
    return ("exact" if exact else "float"), {
        "coeffs": result.order, "bits_max": bits(result) if exact else 0}


def _pfq(result, args):
    return ("exact" if _is_exact(result) else "float"), {}


def _cf_series(result, args):
    desc = result.branch == "descending"
    return "", {"terms": result.terms, "descending": int(desc),
                "descending_terms": result.terms if desc else 0}


def _ratfun_init(result, args):
    return "", {"bits_max": bits(args[0])}


OBSERVERS = {
    "series.gf_catalan2": _gf,
    "hyper.pfq_series": _pfq,
    "qfunc.q_series_with_terms": lambda r, a: ("", {"terms": r[1]}),
    "functional.cf_series_detailed": _cf_series,
    "exact.rising_factorial": lambda r, a: ("", {"bits_max": bits(r)}),
    "exact.RationalFunction.__init__": _ratfun_init,
    "quad.integrate_halfline": lambda r, a: ("", {"evals": r.evaluations}),
    "reporting.render_report": lambda r, a: ("", {"bytes": len(r.encode())}),
}


class Stat:
    __slots__ = ("calls", "self_s", "failed", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.counters: dict[str, float] = {}


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"catalankit.{name}") for name in LAYERS}
        self.package = importlib.import_module("catalankit")
        self.stats: dict[str, Stat] = {}
        self.point = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Five numbers per span: name id, parent span, point id, start,
        # end. One extend() per span, so an alarm cannot tear a record.
        self.spans = array("d")
        self.spans_total = 0
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def begin_point(self, index: int) -> None:
        """Start attributing spans to point `index`. Frames that a
        deadline left open in the previous point are dropped."""
        self.point = index
        self._stack.clear()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)
        stack, perf = self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = -1
            start = perf()
            if tracer.spans_total < SPAN_CAP:
                idx = len(tracer.spans) // 5
                tracer.spans.extend((-1, parent, tracer.point, start, 0.0))
            tracer.spans_total += 1
            frame = [idx, start, 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf()
                if stack and stack[-1] is frame:
                    stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                full, counters = name, None
                if ok and observe is not None:
                    variant, counters = observe(result, args)
                    if variant:
                        full = f"{name}.{variant}"
                stat = tracer.stats.get(full)
                if stat is None:
                    stat = tracer.stats[full] = Stat()
                stat.calls += 1
                stat.self_s += duration - frame[2]
                if not ok:
                    stat.failed += 1
                if counters:
                    c = stat.counters
                    for key, value in counters.items():
                        if key == "bits_max":
                            c[key] = max(c.get(key, 0), value)
                        else:
                            c[key] = c.get(key, 0) + value
                if idx >= 0:
                    tracer.spans[5 * idx] = tracer._name_id(full)
                    tracer.spans[5 * idx + 4] = end

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # ---------------------------------------------------------- patching

    def _targets(self):
        """(qualified name, original) for every public function."""
        for mod_name, mod in self.modules.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value) or hasattr(value, "cache_info"):
                    yield f"{mod_name}.{attr}", value

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(fn, name) for name, fn in self._targets()}
        for mod in (*self.modules.values(), self.package):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for mod_name, classes in TRACED_CLASSES.items():
            for cls_name in classes:
                cls = getattr(self.modules[mod_name], cls_name)
                for attr, value in list(vars(cls).items()):
                    if inspect.isfunction(value) and attr != "__repr__":
                        self._patched.append((cls, attr, value))
                        setattr(cls, attr, self._wrap(value, f"{mod_name}.{cls_name}.{attr}"))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def assert_clean(self) -> None:
        """Raise if any module or traced class still binds a wrapper."""
        owners = [*self.modules.values(), self.package]
        owners += [getattr(self.modules[m], c) for m, cs in TRACED_CLASSES.items() for c in cs]
        left = [f"{getattr(o, '__name__', o)}.{attr}" for o in owners
                for attr, value in vars(o).items() if hasattr(value, _MARK)]
        if left:
            raise RuntimeError(f"tracing wrappers still bound: {left}")

    # ------------------------------------------------------------- output

    def dump(self, path: Path, meta: dict) -> None:
        """Spans as gzipped JSON lines: a header, then one
        [name, parent, point, start, end] per span, in opening order.
        A span a deadline cut short has name -1 and end 0."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            header = dict(meta, names=self.names, spans_kept=len(self.spans) // 5,
                          spans_total=self.spans_total)
            fh.write(json.dumps(header) + "\n")
            for i in range(0, len(self.spans), 5):
                name, parent, point, start, end = self.spans[i: i + 5]
                fh.write(json.dumps([int(name), int(parent), int(point),
                                     round(start, 7), round(end, 7)]) + "\n")


# --------------------------------------------------------------- metrics

C2_ROUTES = ("c2_double_factorial_sum", "c2_hyp_closed", "c2_jacobi", "c2_quadrature",
             "c2_gf_coefficient", "c2_hyp_unbounded", "c2_legendre")


def _merge(stats: dict[str, Stat], prefix: str) -> Stat:
    """One Stat over `prefix` itself and every name below it."""
    out = Stat()
    for name, s in stats.items():
        if name == prefix or name.startswith(prefix + "."):
            out.calls += s.calls
            out.self_s += s.self_s
            out.failed += s.failed
            for key, value in s.counters.items():
                if key == "bits_max":
                    out.counters[key] = max(out.counters.get(key, 0), value)
                else:
                    out.counters[key] = out.counters.get(key, 0) + value
    return out


def layer_metrics(tracer: Tracer, traced_wall: float, plain_wall: float,
                  polylog_hit_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def get(prefix: str) -> Stat:
        return _merge(tracer.stats, prefix)

    def put_self(prefix: str) -> None:
        m[f"{prefix}.self_s"] = (get(prefix).self_s, "s")

    def put_calls(prefix: str) -> None:
        m[f"{prefix}.calls"] = (get(prefix).calls, "count")

    def put_counter(prefix: str, key: str, unit: str = "count") -> None:
        m[f"{prefix}.{key}"] = (get(prefix).counters.get(key, 0), unit)

    for v in ("exact", "float"):
        put_self(f"series.gf_catalan2.{v}")
        put_self(f"hyper.pfq_series.{v}")
    put_counter("series.gf_catalan2", "coeffs")
    put_counter("series.gf_catalan2", "bits_max", "bits")
    put_calls("cli.main")
    put_self("cli.main")
    put_self("hyper.jacobi_p")
    put_self("hyper.assoc_legendre_p")
    for route in C2_ROUTES:
        put_self(f"catalan2.{route}")
    m["catalan2.failed"] = (get("catalan2").failed, "count")

    put_self("qfunc.q_series_with_terms")
    put_counter("qfunc.q_series_with_terms", "terms")
    put_calls("qfunc.series_tail_bound")
    put_self("qfunc.series_tail_bound")
    put_self("functional.cf_series_detailed")
    put_counter("functional.cf_series_detailed", "terms")
    cf = get("functional.cf_series_detailed")
    m["functional.cf_series_detailed.descending_share"] = (
        cf.counters.get("descending", 0) / cf.calls if cf.calls else 0.0, "1")
    terms = (get("qfunc.q_series_with_terms").counters.get("terms", 0)
             + cf.counters.get("descending_terms", 0))
    m["qfunc.tail_checks_per_term"] = (
        get("qfunc.series_tail_bound").calls / terms if terms else 0.0, "1")
    put_calls("exact.rising_factorial")
    put_self("exact.rising_factorial")
    put_counter("exact.rising_factorial", "bits_max", "bits")

    for route in ("q_recurrence_value", "q_polylog", "q_stirling", "q_hyp"):
        put_self(f"qfunc.{route}")
    put_calls("exact.RationalFunction")
    put_self("exact.RationalFunction")
    put_counter("exact.RationalFunction", "bits_max", "bits")
    put_self("exact.Polynomial")
    m["exact.polylog_neg.hit_ratio"] = (polylog_hit_ratio, "1")

    quad = get("quad.integrate_halfline")
    put_calls("quad.integrate_halfline")
    put_self("quad.integrate_halfline")
    put_counter("quad.integrate_halfline", "evals")
    m["quad.integrate_halfline.evals_per_call"] = (
        quad.counters.get("evals", 0) / quad.calls if quad.calls else 0.0, "count")
    m["quad.integrate_halfline.failed"] = (quad.failed, "count")
    for route in ("cf_quadrature", "cf_double_sum", "cf_via_q"):
        put_self(f"functional.{route}")
    put_self("reporting.render_report")
    put_counter("reporting.render_report", "bytes", "bytes")

    for layer in LAYERS:
        put_self(layer)
    accounted = sum(s.self_s for s in tracer.stats.values())
    m["trace.coverage_frac"] = (accounted / traced_wall, "1")
    m["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "1")
    m["trace.spans"] = (tracer.spans_total, "count")
    return m

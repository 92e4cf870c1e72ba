"""Per-layer spans recorded from the benchmark's side of each layer boundary.

``install`` wraps each layer's functions on every module attribute through
which a caller reaches them (``constructions`` imports ``classify``,
``min_star_colors`` and ``color_degree_profile`` by name, ``verify`` and
``fileio`` import coloring helpers by name), so a call is recorded however
it is reached.  No file of the package changes; ``uninstall`` puts every
original back.  Spans stay in memory and carry parent ids; a span's self
time is its duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

LAYER_FUNCTIONS = {
    "cli": ("main",),
    "formulas": ("classify", "general_bounds"),
    "constructions": ("witness_coloring", "build_recipe"),
    "coloring": ("one_factorization", "near_one_factorization", "color_degree_profile"),
    "verify": ("validate", "min_star_colors", "check_certificate", "_offending_star",
               "sample_upper_check"),
    "fileio": ("serialize_coloring", "parse_coloring", "read_coloring"),
    "oracle": ("ramsey_value", "max_min_star_colors"),
}

RECIPE_TAGS = ("cyclic", "partitioned-factorization", "regular", "near-regular",
               "three-color-balanced", "matching-classes")


@dataclass
class Span:
    sid: int
    parent: int | None
    root: int               # id of the outermost span of the same request
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _edges(coloring) -> int:
    p = getattr(coloring, "p", None)
    return p * (p - 1) // 2 if isinstance(p, int) else 0


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Counts taken at the boundary, small enough to keep for every span."""
    if name == "constructions.build_recipe":
        return {"tag": getattr(args[0], "tag", "?"), "edges": _edges(result[0])}
    if name in ("coloring.one_factorization", "coloring.near_one_factorization"):
        k = args[0]
        return {"edges": k * (k - 1) // 2}
    if name in ("coloring.color_degree_profile", "verify.validate", "verify.min_star_colors",
                "verify.check_certificate", "verify._offending_star"):
        return {"edges": _edges(args[0])}
    if name == "fileio.serialize_coloring":
        return {"edges": _edges(args[0]), "bytes": len(result)}
    if name == "fileio.parse_coloring":
        return {"edges": _edges(result), "bytes": len(args[0])}
    if name == "verify.sample_upper_check":
        ran = result.trials if result.passed else result.trial_index + 1
        return {"trials": ran}
    if name == "oracle.ramsey_value":
        st = result.stats
        return {"nodes": st.nodes, "skips": st.canonical_skips, "prunes": st.bound_prunes,
                "threads": kwargs.get("threads", 1)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = 0
        self._local = threading.local()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = self._ids
            self._ids += 1
            parent = stack[-1] if stack else None
            root = stack[0] if stack else sid
            stack.append(sid)
            span = Span(sid, parent, root, name, time.perf_counter(), 0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            else:
                span.attrs = _attrs(name, args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
        return traced


@contextlib.contextmanager
def active(tracer: Tracer):
    """Record spans into ``tracer`` inside the block."""
    patched = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patched)


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every layer function on every package module that holds it."""
    patched = []
    for layer, names in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"starramsey.{layer}")
        for fname in names:
            original = getattr(module, fname, None)
            if original is None:
                continue
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for modname, mod in list(sys.modules.items()):
                if modname != "starramsey" and not modname.startswith("starramsey."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


# --------------------------------------------------------------------------
# Baseline rows: fixed inputs, run once untraced and once traced


def baseline_rows() -> list[tuple[str, float, object]]:
    """(label, seconds, summary) for each fixed layer measurement.

    Functions are reached through module attributes, so an installed
    tracer sees every call.  ``summary`` is a small value that must not
    change between the untraced and the traced run.
    """
    from starramsey import coloring, constructions, fileio, formulas, oracle, verify

    rows = []

    def row(label, fn, summarize=lambda r: r):
        t0 = time.perf_counter()
        result = fn()
        rows.append((label, time.perf_counter() - t0, summarize(result)))
        return result

    grid = [(n, t, s) for t in range(2, 9) for s in (t - 1, t - 2) if s >= 1
            for n in range(1, 101)]
    row(f"classify x{len(grid)}",
        lambda: [formulas.classify(*a).value for a in grid], lambda r: sum(r))
    bgrid = [(n, t, l) for t in range(3, 9) for l in range(1, t // 2 + 1)
             for n in range(2, 101)]
    row(f"general_bounds x{len(bgrid)}",
        lambda: [formulas.general_bounds(*a).upper for a in bgrid], lambda r: sum(r))
    c, _ = row("witness_coloring (600, 8, 6) -> K_798",
               lambda: constructions.witness_coloring(600, 8, 6),
               lambda r: (r[0].p, r[0].t, r[1].describe()))
    row("profile K_798", lambda: coloring.color_degree_profile(c),
        lambda r: hashlib.sha256(repr(r).encode()).hexdigest())
    row("min_star_colors K_798", lambda: verify.min_star_colors(c, 600))
    row("validate K_798", lambda: verify.validate(c), len)
    text = row("serialize K_798", lambda: fileio.serialize_coloring(c),
               lambda r: hashlib.sha256(r.encode()).hexdigest())
    row("parse K_798", lambda: fileio.parse_coloring(text),
        lambda r: (r.p, r.t, r.colors == c.colors))
    row("check_certificate K_798 s=6", lambda: verify.check_certificate(c, 600, 6),
        lambda r: (r.passed, r.min_colors))
    del c, text
    for n, t, s, p_max in ((4, 2, 1, 8), (3, 4, 2, 6)):
        for threads in (1, 2):
            row(f"oracle ({n}, {t}, {s}) p_max {p_max} threads {threads}",
                lambda: oracle.ramsey_value(n, t, s, p_max, threads=threads),
                lambda r: (r.value, r.stats.nodes, r.stats.canonical_skips,
                           r.stats.bound_prunes))
    row("sampler 10^4 trials K_10 (5, 2, 1)",
        lambda: verify.sample_upper_check(10, 5, 2, 1, 10_000, 0),
        lambda r: (r.passed, r.trials))
    return rows


# --------------------------------------------------------------------------
# Spans to metrics


def self_times(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    child = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.seconds
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for sp in spans:
        row = out[sp.name]
        row[0] += 1
        row[1] += sp.seconds
        row[2] += sp.seconds - child[sp.sid]
    return {k: tuple(v) for k, v in out.items()}


def layer_metrics(spans: list[Span], interpreter_s: float, import_s: float) -> dict:
    """Per-layer metrics as name -> (value, unit)."""
    by = defaultdict(list)
    for sp in spans:
        by[sp.name].append(sp)
    selfs = self_times(spans)
    spans_by_id = {sp.sid: sp for sp in spans}

    def per_edge_ns(names, self_only=False, top_level=False):
        chosen = [sp for name in names for sp in by[name]
                  if not (top_level and sp.parent is not None
                          and spans_by_id[sp.parent].name in names)]
        edges = sum(sp.attrs.get("edges", 0) for sp in chosen)
        if self_only:
            secs = sum(selfs[name][2] for name in names if name in selfs)
        else:
            secs = sum(sp.seconds for sp in chosen)
        return (1e9 * secs / edges if edges else 0.0, "ns")

    def median_us(name):
        return (1e6 * statistics.median(sp.seconds for sp in by[name]) if by[name] else 0.0, "us")

    m = {
        "cli.interpreter_start_s": (interpreter_s, "s"),
        "cli.import_s": (import_s, "s"),
        "formulas.classify_us": median_us("formulas.classify"),
        "formulas.general_bounds_us": median_us("formulas.general_bounds"),
    }
    attempts = by["constructions.witness_coloring"]
    failed = sum(sp.error == "ConstructionFailedError" for sp in attempts)
    tags = Counter(sp.attrs.get("tag") for sp in by["constructions.build_recipe"]
                   if sp.error is None)
    for tag in sorted(set(RECIPE_TAGS) | set(tags)):
        m[f"constructions.recipe.{tag}"] = (tags[tag], "count")
    m["constructions.attempts"] = (len(attempts), "count")
    m["constructions.failed"] = (failed, "count")
    m["constructions.certified_ratio"] = (
        (len(attempts) - failed) / len(attempts) if attempts else 1.0, "ratio")
    m["constructions.build_ns_per_edge"] = per_edge_ns(["constructions.build_recipe"])
    m["coloring.factorization_ns_per_edge"] = per_edge_ns(
        ["coloring.one_factorization", "coloring.near_one_factorization"], top_level=True)
    m["coloring.profile_ns_per_edge"] = per_edge_ns(["coloring.color_degree_profile"])
    m["fileio.serialize_ns_per_edge"] = per_edge_ns(["fileio.serialize_coloring"])
    m["fileio.parse_ns_per_edge"] = per_edge_ns(["fileio.parse_coloring"])
    io_spans = by["fileio.serialize_coloring"] + by["fileio.parse_coloring"]
    io_edges = sum(sp.attrs.get("edges", 0) for sp in io_spans)
    m["fileio.bytes_per_edge"] = (
        sum(sp.attrs.get("bytes", 0) for sp in io_spans) / io_edges if io_edges else 0.0, "B")
    m["verify.validate_ns_per_edge"] = per_edge_ns(["verify.validate"])
    m["verify.min_star_ns_per_edge"] = per_edge_ns(["verify.min_star_colors"])
    m["verify.check_certificate_self_ns_per_edge"] = per_edge_ns(
        ["verify.check_certificate"], self_only=True)
    samples = by["verify.sample_upper_check"]
    secs = sum(sp.seconds for sp in samples)
    m["verify.sample_trials_per_s"] = (
        sum(sp.attrs.get("trials", 0) for sp in samples) / secs if secs else 0.0, "1/s")
    searches = [sp for sp in by["oracle.ramsey_value"] if sp.error is None]
    nodes = sum(sp.attrs["nodes"] for sp in searches)
    prunes = sum(sp.attrs["prunes"] for sp in searches)
    m["oracle.nodes"] = (nodes, "count")
    m["oracle.canonical_skips"] = (sum(sp.attrs["skips"] for sp in searches), "count")
    m["oracle.bound_prunes"] = (prunes, "count")
    m["oracle.prune_ratio"] = (prunes / nodes if nodes else 0.0, "ratio")
    for threads in (1, 2):
        chosen = [sp for sp in searches if sp.attrs["threads"] == threads]
        secs = sum(sp.seconds for sp in chosen)
        m[f"oracle.nodes_per_s.threads{threads}"] = (
            sum(sp.attrs["nodes"] for sp in chosen) / secs if secs else 0.0, "1/s")
    m["oracle.search_s"] = (sum(sp.seconds for sp in searches), "s")
    return m

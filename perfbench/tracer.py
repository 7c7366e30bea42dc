"""Span tracing of cmkz's public functions, installed from outside the package.

Each traced function is replaced by a wrapper on its defining module and on
every other binding of the same object inside the loaded ``cmkz`` modules
(from-imports such as ``harness.spectral_points`` or ``cli.run_suite``), and
the verification checks are wrapped in ``harness.CHECKS``.  A span records
name, start, end, parent span and thread; parents come from a per-thread
stack, so checks running in the program's thread pool nest correctly.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict

from cmkz.partitions import irrep_dimension

# (module, function) pairs whose calls are timed.  Only public names: the
# private helpers underneath are expected to be rewritten.
TARGETS = (
    ("polyalg", "poly_det"),
    ("wronski", "wronski_fiber"),
    ("wronski", "wronski_map"),
    ("wronski", "fundamental_operator"),
    ("wronski", "psi"),
    ("wronski", "fla_residual"),
    ("wronski", "bivariate_identity_residual"),
    ("master_function", "solve_bethe"),
    ("tensor_gaudin", "singular_basis"),
    ("tensor_gaudin", "gaudin_hamiltonian"),
    ("tensor_gaudin", "generalized_gaudin"),
    ("tensor_gaudin", "joint_eigen"),
    ("tensor_gaudin", "spectral_points"),
    ("tensor_gaudin", "generalized_spectrum"),
    ("tensor_gaudin", "joint_eigenspace_dim"),
    ("calogero_moser", "first_integrals"),
    ("calogero_moser", "l0_residual"),
    ("calogero_moser", "lq_residual"),
    ("calogero_moser", "xi"),
    ("calogero_moser", "rank_one_residual"),
    ("harness", "run_suite"),
    ("harness", "match_points"),
    ("harness", "collision_study"),
    ("serialize", "canonical_json"),
    ("cli", "main"),
)

# The 9 verification checks, by registry id.
CHECK_IDS = (
    "l0-membership",
    "n-independence",
    "closed-forms",
    "bethe-correspondence",
    "lq-membership",
    "wronski-degree",
    "operator-identities",
    "structural-invariants",
    "collision-multiplicity",
)

POLY_DET_SIZES = range(1, 8)


def _poly_det_note(args, kwargs, result):
    return len(args[0] if args else kwargs["mat"])


def _coverage_note(args, kwargs, result):
    lam = args[0] if args else kwargs["lam"]
    return (len(result), irrep_dimension(lam))


# Extra data stored on a span, computed after the timed call returns.
NOTES = {
    "polyalg.poly_det": _poly_det_note,
    "wronski.wronski_fiber": _coverage_note,
    "master_function.solve_bethe": _coverage_note,
}


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = done = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                extra = note(args, kwargs, result) if note and done else None
                spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), extra)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = {
            key[len("cmkz."):]: mod
            for key, mod in list(sys.modules.items())
            if key.startswith("cmkz.") and mod is not None
        }
        for mod_name, fn_name in TARGETS:
            mod = modules.get(mod_name)
            original = getattr(mod, fn_name, None) if mod is not None else None
            if original is None:
                continue
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for other in [sys.modules["cmkz"], *modules.values()]:
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._undo.append((other, attr, original))
                        setattr(other, attr, wrapper)
        checks = getattr(modules.get("harness"), "CHECKS", {})
        for cid, entry in list(checks.items()):
            suite, fn = entry
            self._undo.append((checks, cid, entry))
            checks[cid] = (suite, self.wrap(f"harness.check.{cid}", fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(spans, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers, averaged per traced pass, keyed by metric name.

    Self time is a span's duration minus the durations of its child spans.
    """
    passes = max(1, passes)
    by_id = {s[0]: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    child: dict[int, int] = defaultdict(int)
    det_calls: dict[int, int] = defaultdict(int)
    det_ns: dict[int, int] = defaultdict(int)
    cover_names = ("wronski.wronski_fiber", "master_function.solve_bethe")
    cover: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    fiber_dets = 0
    for sid, name, start, end, parent, _tid, extra in spans:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        if parent:
            child[parent] += dur
        if name == "polyalg.poly_det":
            det_calls[extra] += 1
            det_ns[extra] += dur
            anc = by_id.get(parent)
            while anc is not None and anc[1] != "wronski.wronski_fiber":
                anc = by_id.get(anc[4])
            if anc is not None:
                fiber_dets += 1
        elif extra is not None and name in cover_names:
            cover[name][0] += extra[0]
            cover[name][1] += extra[1]
    self_ns: dict[str, int] = defaultdict(int)
    for sid, name, start, end, *_ in spans:
        self_ns[name] += (end - start) - child.get(sid, 0)

    out: dict[str, tuple[float, str]] = {}
    for mod_name, fn_name in TARGETS:
        key = f"{mod_name}.{fn_name}"
        out[f"{key}.calls"] = (calls[key] / passes, "count")
        out[f"{key}.total_s"] = (total[key] / 1e9 / passes, "s")
        out[f"{key}.self_s"] = (self_ns[key] / 1e9 / passes, "s")
    for k in POLY_DET_SIZES:
        out[f"polyalg.poly_det.n{k}.calls"] = (det_calls[k] / passes, "count")
        per_call = det_ns[k] / det_calls[k] / 1e3 if det_calls[k] else 0.0
        out[f"polyalg.poly_det.n{k}.us_per_call"] = (per_call, "us")
    for key in cover_names:
        found, expected = cover[key]
        out[f"{key}.coverage"] = (found / expected if expected else 0.0, "frac")
    out["wronski.wronski_fiber.poly_det_calls"] = (fiber_dets / passes, "count")
    check_ns = 0
    for cid in CHECK_IDS:
        ns = total[f"harness.check.{cid}"]
        check_ns += ns
        out[f"harness.check.{cid}.total_s"] = (ns / 1e9 / passes, "s")
    suite_ns = total["harness.run_suite"]
    out["harness.pool_overlap"] = (check_ns / suite_ns if suite_ns else 0.0, "ratio")
    return out


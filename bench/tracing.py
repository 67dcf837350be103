"""Spans around the calls into each layer of pdmbubble, recorded from the
benchmark's own files.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper, in every pdmbubble module that binds it (so ``cli.assemble`` is traced
as well as ``spectral.assemble``), and ``uninstall`` puts the originals back.
Spans (name, start, end, parent) are kept in memory and written out when the
run ends.  Each span also keeps the scale to the reference machine speed that
the run set for its case (calibrate.py); per-layer times are scaled by it.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from time import perf_counter

LAYERS = ("algebra", "parsing", "weyl", "susy", "pointmass", "ordering",
          "helium", "spectral", "cli")
# Per-point scalar helpers that potential_profile calls once per grid point:
# a span each would cost more than the work it times.
UNTRACED = {"helium.v_sys", "helium.v_inverse_square"}


def operator_terms(value) -> int:
    """Polynomial terms in a returned operator (DiffOp, PolyX or a result
    object holding one); 0 for anything else."""
    for attr in ("op", "V", "W"):
        inner = getattr(value, attr, None)
        if inner is not None:
            return operator_terms(inner)
    terms = getattr(value, "terms", None)
    if not isinstance(terms, tuple):
        return 0
    if terms and isinstance(terms[0][1], int):  # DiffOp: (PolyX, order)
        return sum(len(poly.terms) for poly, _ in terms)
    return len(terms)


def _size(name, args):
    if name == "spectral.assemble":
        return args[1].points
    if name == "spectral.eigenvalues":
        return args[1]
    if name == "helium.potential_profile":
        return len(args[2])
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, tag, size, terms, scale]
        self.tag = ""
        self.scale = 1.0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tag,
                    _size(name, args), 0, self.scale]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if span[3] == -1:
                span[6] = operator_terms(result)
            return result

        return traced

    def install(self):
        modules = {f"pdmbubble.{layer}": sys.modules[f"pdmbubble.{layer}"]
                   for layer in LAYERS}
        modules["pdmbubble"] = sys.modules["pdmbubble"]
        wrappers = {}
        for modname, module in modules.items():
            if modname == "pdmbubble":
                continue
            for attr, fn in vars(module).items():
                name = f"{modname.split('.')[1]}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == modname
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[fn] = self._wrap(name, fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "workload", "size", "terms",
                "scale")
        return [dict(zip(keys, span)) for span in self.spans]


def _duration(span) -> float:
    """Seconds at the reference machine speed."""
    return (span[2] - span[1]) * span[7]


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def layer_rows(spans, versions: dict) -> list[dict]:
    """ROADMAP rows {layer, case, size, median_s, p90_s, repeats, ...}, one per
    (span name, workload)."""
    groups = {}
    for s in spans:
        groups.setdefault((s[0], s[4]), []).append(s)
    rows = []
    for (name, workload), group in sorted(groups.items()):
        durations = [_duration(s) for s in group]
        sizes = [s[5] for s in group if s[5] is not None]
        rows.append({
            "layer": name, "case": workload,
            "size": statistics.median(sizes) if sizes else None,
            "median_s": statistics.median(durations), "p90_s": _p90(durations),
            "repeats": len(group), **versions,
        })
    return rows


# Per-layer metric -> span name; the value is the median ms per call.
TIMED = {
    "algebra.expand_sandwich_ms": "algebra.expand_sandwich",
    "susy.ladder_operator_ms": "susy.ladder_operator",
    "susy.commutator_check_ms": "susy.commutator_check",
    "susy.partner_potential_ms": "susy.partner_potential",
    "pointmass.transform_diffop_ms": "pointmass.transform_diffop",
    "pointmass.unit_measure_restore_ms": "pointmass.unit_measure_restore",
    "ordering.kinetic_family_coefficient_ms": "ordering.kinetic_family_coefficient",
    "ordering.match_orderings_ms": "ordering.match_orderings",
    "parsing.parse_hamiltonian_ms": "parsing.parse_hamiltonian",
    "weyl.weyl_order_ms": "weyl.weyl_order",
    "weyl.hermiticity_check_ms": "weyl.hermiticity_check",
    "spectral.assemble_ms": "spectral.assemble",
    "helium.potential_profile_ms": "helium.potential_profile",
    "helium.derived_params_ms": "helium.derived_params",
    "spectral.eigenvalues_ms": "spectral.eigenvalues",
    "cli.run_ms": "cli.run",
}
PER_UNIT = {  # metric -> (span name, scale of duration / size)
    "spectral.assemble_ns_per_point": ("spectral.assemble", 1e9),
    "helium.profile_ns_per_point": ("helium.potential_profile", 1e9),
    "spectral.eigenvalues_us_per_level": ("spectral.eigenvalues", 1e6),
}


def layer_metrics(spans, own: str, own_rounds: int) -> dict:
    """Median per-call values from the spans of workload ``own``.  A layer that
    ``own`` never reaches is measured on the complement: one traced round of
    each other workload, in the order they ran.  So every metric has a measured
    value, and the rows file says which workload gave it."""
    by_tag = {}
    for s in spans:
        by_tag.setdefault(s[4], []).append(s)

    def pick(keep):
        """(matching spans, rounds they came from) from the first workload
        that has any: ``own`` first, then the complement rounds."""
        for tag in [own] + [t for t in by_tag if t != own]:
            chosen = [s for s in by_tag.get(tag, ()) if keep(s)]
            if chosen:
                return chosen, own_rounds if tag == own else 1
        return [], 1

    def named(name):
        return pick(lambda s: s[0] == name)[0]

    def median(values, scale=1.0):
        return statistics.median(values) * scale if values else 0.0

    metrics = {}
    for metric, name in TIMED.items():
        metrics[metric] = (median([_duration(s) for s in named(name)], 1e3), "ms")
    for metric, (name, scale) in PER_UNIT.items():
        unit = "ns/point" if scale == 1e9 else "us/level"
        metrics[metric] = (
            median([_duration(s) * scale / s[5] for s in named(name)]), unit)

    index = {id(s): i for i, s in enumerate(spans)}
    child_time = {}
    for s in spans:
        if s[3] >= 0 and spans[s[3]][0] == "cli.run":
            child_time[s[3]] = child_time.get(s[3], 0.0) + _duration(s)
    metrics["cli.self_ms"] = (median(
        [_duration(s) - child_time.get(index[id(s)], 0.0)
         for s in named("cli.run")], 1e3), "ms")

    def per_round(keep, value):
        chosen, rounds = pick(keep)
        return sum(value(s) for s in chosen) / rounds

    metrics["algebra.operator_terms"] = (
        per_round(lambda s: s[3] == -1 and s[6] > 0, lambda s: s[6]), "count")
    metrics["spectral.grid_points"] = (
        per_round(lambda s: s[0] == "spectral.assemble", lambda s: s[5]), "count")
    metrics["spectral.levels"] = (
        per_round(lambda s: s[0] == "spectral.eigenvalues", lambda s: s[5]),
        "count")
    return metrics


def import_times(stderr: str) -> tuple[float, float]:
    """(scipy.linalg ms, rest of ``import pdmbubble.cli`` ms) from the
    ``-X importtime`` report of a cold child.

    scipy's share is the cumulative time of every outermost ``scipy*`` import,
    wherever pdmbubble triggers it, so a lazy import shows as 0.
    """
    entries = []  # (depth, module, cumulative us)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(module) - len(module.lstrip())) // 2
        entries.append((depth, module.strip(), int(cumulative)))
    scipy_us = pdm_us = 0
    for i, (depth, module, cum) in enumerate(entries):
        parent = next((m for d, m, _ in entries[i + 1:] if d < depth), None)
        if module.split(".")[0] == "scipy" and not (
                parent and parent.split(".")[0] == "scipy"):
            scipy_us += cum
        if module.split(".")[0] == "pdmbubble" and parent is None:
            pdm_us += cum
    return scipy_us / 1e3, (pdm_us - scipy_us) / 1e3

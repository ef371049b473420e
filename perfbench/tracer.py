"""Per-layer spans and counters for a traced benchmark pass.

Spans wrap only coarse public entry points of each stringcoh module (a
parse, an AP build, an exactness check, a cup table, one elimination),
never per-element helpers such as ``PathBasis.mult``, which run millions
of times.  The wrappers are installed from the benchmark's own files by
replacing the attributes in the loaded modules, so the program under test
is unchanged.  An entry point that a later version removes or renames is
skipped: its metrics are absent from the output instead of crashing the run.

A span's inclusive time counts only its outermost activation; its self
time is its duration minus the time of the spans it caused.  Counters run
after the wrapped call returns and their cost is excluded from every open
span (it still shows in the traced pass's wall time, i.e. in the tracing
overhead).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _count_basis(basis):
    return {"presentation.basis_dim": basis.dim}


def _count_ap(res):
    return {
        "resolution.ap_elements": sum(len(layer) for layer in res.ap),
        "resolution.top": res.top,
    }


def _count_complex(res):
    degrees = list(res.degrees())
    nnz = res.mu_matrix().nnz() + sum(
        res.d_matrix(n).nnz() for n in degrees if n >= 1)
    return {
        "resolution.bimodule_dim": sum(
            len(res.bimodule_space(n)[0]) for n in degrees),
        "resolution.d_nnz": nnz,
    }


def _count_cochains(cx):
    return {
        "hochschild.pairs": sum(len(cx.pairs(n)) for n in range(cx.top + 1)),
        "hochschild.cochain_nnz": sum(
            cx.matrix(n).nnz() for n in range(1, cx.top + 2)),
    }


def _count_cup(report):
    return {
        "cup.products": report.pairs_checked,
        "cup.solved_lifts": len(report.solved_lift_degrees),
    }


# (span, module, attribute, counter).  A counter is (function, what it
# reads, the names it produces).  It reads the call's result, its first
# argument ("self"), or its first argument once per object and command
# ("once"), because that entry point may run several times on one tower.
HOOKS = [
    ("presentation.parse", "stringcoh.presentation", "parse", None),
    ("presentation.validate", "stringcoh.presentation", "validate", None),
    ("presentation.basis", "stringcoh.presentation", "basis_P",
     (_count_basis, "result", ("presentation.basis_dim",))),
    ("resolution.ap", "stringcoh.resolution", "Resolution.__init__",
     (_count_ap, "self", ("resolution.ap_elements", "resolution.top"))),
    ("resolution.op_ap", "stringcoh.resolution", "Resolution.op_ap_sets", None),
    ("resolution.exact", "stringcoh.resolution", "Resolution.homology_dims",
     (_count_complex, "once",
      ("resolution.bimodule_dim", "resolution.d_nnz"))),
    ("resolution.d_squared", "stringcoh.resolution",
     "Resolution.d_squared_is_zero", None),
    ("hochschild.hh", "stringcoh.hochschild", "CochainComplex.hh_table",
     (_count_cochains, "once",
      ("hochschild.pairs", "hochschild.cochain_nnz"))),
    ("hochschild.ker_im", "stringcoh.hochschild",
     "CochainComplex.ker_im_audit", None),
    ("cup.chain_map_audit", "stringcoh.cup", "chain_map_audit", None),
    ("cup.table", "stringcoh.cup", "cup_table",
     (_count_cup, "result", ("cup.products", "cup.solved_lifts"))),
    ("linalg.elim", "stringcoh.linalg", "RationalMatrix.rank", None),
    ("linalg.elim", "stringcoh.linalg", "RationalMatrix.nullspace", None),
    ("linalg.elim", "stringcoh.linalg", "RationalMatrix.in_column_space", None),
    ("linalg.elim", "stringcoh.linalg", "RationalMatrix.solve_matrix", None),
    ("linalg.elim", "stringcoh.linalg", "RationalMatrix.pivot_columns", None),
    ("linalg.matmul", "stringcoh.linalg", "RationalMatrix.__matmul__", None),
    ("linalg.matmul", "stringcoh.linalg", "RationalMatrix.__eq__", None),
    ("checks.run_all", "stringcoh.checks", "Auditor.run_all", None),
    ("report.json", "stringcoh.report", "to_json", None),
]

# Spans reported by call count rather than only by time.
CALL_COUNTS = {"linalg.elim": "linalg.eliminations",
               "linalg.matmul": "linalg.matmul_calls"}


class Tracer:
    """Aggregates spans and counters over the traced commands of a run."""

    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: set[str] = set()        # spans whose entry point exists
        self.counters: set[str] = set()     # counters that have not failed
        self.broken: set[str] = set()
        self._stack: list[list] = []        # [name, child seconds, excluded at start]
        self._excluded = 0.0                # seconds spent inside counters
        self._counted: dict[tuple[str, int], object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every hook target that exists in the loaded package."""
        for span, module_name, attr, counter in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(span, original, counter)
            if owner_name:
                self._patch(owner, name, wrapper)
            else:
                # functions imported by name live in several modules
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "stringcoh":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            self.spans.add(span)
            if counter is not None:
                self.counters.update(counter[2])

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, span, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [span, 0.0, tracer._excluded]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (tracer._excluded - frame[2])
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                tracer.self_time[span] += elapsed - frame[1]
                if all(f[0] != span for f in stack):
                    tracer.inclusive[span] += elapsed
                tracer.calls[span] += 1
            if counter is not None:
                tracer._run_counter(counter, args, result)
            return result

        return traced

    def _run_counter(self, counter, args, result):
        fn, source, names = counter
        target = result if source == "result" else args[0]
        if source == "once":
            key = (fn.__name__, id(target))
            if key in self._counted:
                return
            self._counted[key] = target     # keeps id() unique this command
        start = perf_counter()
        try:
            values = fn(target)
        except (AttributeError, TypeError, KeyError, IndexError):
            # the layer's shape changed; report the metric as absent
            self.broken.update(names)
            values = {}
        for name, value in values.items():
            self.counts[name] += value
        self._excluded += perf_counter() - start

    def end_command(self):
        self._counted.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass averages: seconds by span, counts by counter."""
        out: dict[str, tuple[float, str]] = {}
        for span in sorted(self.spans):
            out[f"{span}_s"] = (self.inclusive[span] / passes, "s")
            if span in CALL_COUNTS:
                out[CALL_COUNTS[span]] = (self.calls[span] / passes, "count")
            else:
                out[f"{span}_self_s"] = (self.self_time[span] / passes, "s")
        for name in sorted(self.counters - self.broken):
            out[name] = (self.counts[name] / passes, "count")
        return out

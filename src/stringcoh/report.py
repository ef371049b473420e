"""Report assembly and stable JSON serialization.

The JSON schema is fixed: top-level keys "presentation", "validation",
"ap", "hh", "cup", "properties"; dimensions are arrays indexed by degree
and partition counts appear per degree so both summands of the counting
formula stay visible.  Identical input gives byte-identical JSON except
for the elapsed_ms field.
"""

from __future__ import annotations

import json

from .hochschild import COUNT_KEYS, HHTable
from .presentation import PathBasis, Presentation, ValidationReport
from .resolution import Resolution


def presentation_section(pres: Presentation, basis: PathBasis | None) -> dict:
    return {
        "vertices": pres.quiver.num_vertices,
        "arrows": pres.quiver.num_arrows,
        "relations": len(pres.relations),
        "dim_algebra": basis.dim if basis is not None else None,
    }


def validation_section(report: ValidationReport) -> dict:
    return {
        "passed": report.passed,
        "checks": [
            {"name": name, "passed": ok, "detail": detail}
            for name, ok, detail in report.checks
        ],
    }


def ap_section(res: Resolution, include_elements: bool = False,
               max_degree: int | None = None) -> dict:
    layers = res.ap
    if max_degree is not None:
        layers = layers[: max_degree + 1]
    out = {
        "top": res.top,
        "counts": [len(layer) for layer in layers],
    }
    if include_elements:
        degrees = []
        for n, layer in enumerate(layers):
            fmt = res.quiver.format_word
            rows = [{"support": fmt(e.word, e.source),
                     "chain": [fmt(r) for r in e.chain],
                     "op_chain": [fmt(r) for r in e.op_chain]}
                    for e in layer]
            degrees.append({"degree": n, "elements": rows})
        out["degrees"] = degrees
    return out


def hh_section(table: HHTable) -> dict:
    return {
        "agree": table.agree,
        "dims": table.dims_matrix,
        "dims_formula": table.dims_formula,
        "rows": [
            {
                "degree": r.degree,
                "formula": r.dim_formula,
                "matrix": r.dim_matrix,
                "agree": r.agree,
                "counts": {k: r.counts[k] for k in COUNT_KEYS},
            }
            for r in table.rows
        ],
    }


def cup_section(report) -> dict:
    return {
        "all_zero": report.all_zero,
        "pairs_checked": report.pairs_checked,
        "positive_class_dims": {
            str(m): d for m, d in sorted(report.class_dims.items())
        },
        "odd_divisor_positions_max": report.odd_positions_max,
        "failures": [
            {
                "degrees": [e.deg_g, e.deg_f],
                "representatives": [e.idx_g, e.idx_f],
            }
            for e in report.failures()
        ],
    }


def properties_section(results) -> dict:
    return {
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }


def to_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"

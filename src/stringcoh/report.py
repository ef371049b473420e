"""Report assembly and stable JSON serialization.

The JSON schema is fixed: top-level keys "presentation", "validation",
"ap", "hh", "cup", "properties"; dimensions are arrays indexed by degree
and partition counts appear per degree so both summands of the counting
formula stay visible.  "validation" and "properties" share one shape,
written by verdict_section: "passed" and a list of {name, passed,
detail} entries.  Identical input gives byte-identical JSON except
for the elapsed_ms field.

to_json writes the document in one pass, byte for byte equal to
json.dumps(obj, sort_keys=True, indent=2) plus a newline.  It takes the
values the sections build: dict with str keys, list, str, int, bool and
None; any other value raises TypeError.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .hochschild import COUNT_KEYS, HHTable
from .presentation import CheckResult, PathBasis, Presentation
from .resolution import Resolution


def presentation_section(pres: Presentation, basis: PathBasis | None) -> dict:
    return {
        "vertices": pres.quiver.num_vertices,
        "arrows": pres.quiver.num_arrows,
        "relations": len(pres.relations),
        "dim_algebra": basis.dim if basis is not None else None,
    }


def verdict_section(checks: list[CheckResult]) -> dict:
    """The validation or the properties section of these verdicts."""
    return {
        "passed": all(ok for _, ok, _ in checks),
        "checks": [
            {"name": name, "passed": ok, "detail": detail}
            for name, ok, detail in checks
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


def to_json(obj: dict) -> str:
    out: list[str] = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, put) -> None:
    """Pass value's JSON text to put, piece by piece; newline is the line
    break and indent of the line value starts on."""
    kind = type(value)
    if kind is str:
        put(_quote(value))
    elif kind is int:
        put(int.__repr__(value))
    elif kind is dict:
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(
                    f"to_json takes str keys, not {type(key).__name__}")
            put(sep + _quote(key) + ": ")
            _write(value[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    elif kind is list:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif value is None:
        put("null")
    else:
        raise TypeError(f"to_json cannot write type {kind.__name__}")

"""Regenerate reference.json: the mathematical content of every input.

    python3 perfbench/make_reference.py

For each input of each workload this runs the workload's own command once
on the input as generated (no renaming) and stores what the benchmark's
gate compares: AP sizes, HH dimensions and, for ``check``, the cup table's
``pairs_checked`` and class dimensions.  It also records the realized size
of each input (vertices, arrows, relations, top degree), because the
generator does not produce exact sizes.  Bytes and timings are not stored.
Rerun it only when the mathematics is meant to change; a run of the
benchmark against a stale reference counts every changed input as failed.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil

import run


def build(workloads: dict) -> dict:
    """Reference entries, keyed by recipe, for the given workloads."""
    cli, generate = run.import_program()
    workdir = run.WORK / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "input.quiver"
    inputs = {}
    try:
        for name, workload in workloads.items():
            for recipe in workload.recipes:
                path.write_text(recipe.text(generate.generate_dsl),
                                encoding="utf-8")
                _, code, out = run.run_command(cli, workload.command, str(path))
                doc = json.loads(out)
                entry = {
                    "workload": name,
                    "command": workload.command,
                    "exit": code,
                    "vertices": doc["presentation"]["vertices"],
                    "arrows": doc["presentation"]["arrows"],
                    "relations": doc["presentation"]["relations"],
                    "top": doc["ap"]["top"],
                    "ap_counts": doc["ap"]["counts"],
                    "hh_dims": doc["hh"]["dims"],
                }
                if workload.command == "check":
                    entry["cup_pairs_checked"] = doc["cup"]["pairs_checked"]
                    entry["cup_class_dims"] = doc["cup"]["positive_class_dims"]
                inputs[recipe.key] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    return inputs


def main() -> None:
    inputs = build(run.WORKLOADS)
    run.REFERENCE.write_text(
        json.dumps({"inputs": inputs}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()

"""The CLI output on three corpora, the ``hh``, ``cup`` and ``check``
output on four larger inputs, and the ``validate``/``hh``/``ap`` output on a few invalid
inputs, pinned by one SHA-256 per (command, input).  Each digest covers
the exit code, stderr and stdout of one ``main`` call, with the value of
``elapsed_ms`` blanked.  A change that
should not move any output, such as a faster route to the same tables,
keeps every digest.  The text of every generated input is pinned too,
under ``text <input>``, so a generator change shows as moved text digests
rather than only as moved outputs.

To record the digests of the current code (only when an output change
is intended, and say so where the change is described)::

    PYTHONPATH=src python tests/test_cli_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

from conftest import CORPUS_SIZE, a_n_text
from stringcoh.cli import main
from stringcoh.generate import generate_dsl

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "cli_digests.json")

# the text output of hh and cup prints what their JSON holds; that of ap
# adds the chains of each element
RUNS = [(command, "--json") for command in ("hh", "ap", "cup", "check")]
RUNS += [("check",), ("ap",)]
# the larger inputs, where supports are long and pairs many, and the
# splitting and Leibniz tables of the lifts are large
LARGE_RUNS = [(command, "--json") for command in ("hh", "cup", "check")]
# the parse errors and the validation details of invalid inputs
INVALID_RUNS = [("validate",), ("validate", "--json"), ("hh", "--json"),
                ("ap",)]

_LINE = "vertex 0 1 2 3\narrow a 0 1\narrow b 1 2\narrow c 2 3\n"
INVALID_INPUTS = {
    "invalid(non-composable)": _LINE + "relation a c\n",
    "invalid(duplicate-relation)": _LINE + "relation a b\nrelation a b\n",
    "invalid(unknown-arrow)": _LINE + "relation a d\n",
    "invalid(non-minimal)": _LINE + "relation b c\nrelation a b c\n",
    "invalid(S2)": _LINE + "arrow e 1 3\narrow f 0 1\nrelation b c\n",
    "invalid(cycle)": "vertex 0 1\narrow a 0 1\narrow b 1 0\n"
                      "relation a b\n",
}

_ELAPSED = re.compile(r'("elapsed_ms": )-?\d+')


def inputs() -> dict[str, str]:
    """Input name -> presentation text: generate(0..99), the 24/48
    generated corpus and the two-lane lines a_n(1..12)."""
    out = {f"generate({s})": generate_dsl(s) for s in range(CORPUS_SIZE)}
    out.update((f"generate_dsl({s}, 24, 48)",
                generate_dsl(s, max_vertices=24, max_arrows=48))
               for s in range(13))
    out.update((f"a_n({n})", a_n_text(n)) for n in range(1, 13))
    return out


def large_inputs() -> dict[str, str]:
    """Input name -> presentation text: a_n(20), a_n(40) and
    generate_dsl(0|2, max_vertices=120, max_arrows=240)."""
    out = {f"a_n({n})": a_n_text(n) for n in (20, 40)}
    out.update((f"generate_dsl({s}, 120, 240)",
                generate_dsl(s, max_vertices=120, max_arrows=240))
               for s in (0, 2))
    return out


def run(argv: tuple, path: str) -> str:
    """The SHA-256 of the exit code, stderr and stdout of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], path, *argv[1:]])
    stdout = _ELAPSED.sub(r"\g<1>0", out.getvalue())
    blob = f"{code}\n{err.getvalue()}\n{stdout}"
    return hashlib.sha256(blob.encode()).hexdigest()


def text_digests() -> dict[str, str]:
    """``text <input>`` -> the SHA-256 of each generated input's text."""
    return {f"text {name}": hashlib.sha256(text.encode()).hexdigest()
            for texts in (inputs(), large_inputs())
            for name, text in texts.items() if name.startswith("generate")}


def digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.quiver")
        for texts, runs in ((inputs(), RUNS), (large_inputs(), LARGE_RUNS),
                            (INVALID_INPUTS, INVALID_RUNS)):
            for name, text in texts.items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                for argv in runs:
                    out[" ".join(argv + (name,))] = run(argv, path)
    return out


def _recorded(texts: bool) -> dict[str, str]:
    """The recorded text digests, or the recorded output digests."""
    with open(DIGESTS, encoding="utf-8") as fh:
        return {key: value for key, value in json.load(fh).items()
                if key.startswith("text ") == texts}


def test_cli_output_matches_recorded_digests():
    want = _recorded(texts=False)
    got = digests()
    assert got.keys() == want.keys()
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{len(moved)} outputs changed, first: {moved[:5]}"


def test_generated_inputs_match_recorded_digests():
    want = _recorded(texts=True)
    got = text_digests()
    assert len(got) == CORPUS_SIZE + 13 + 2
    assert got.keys() == want.keys()
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{len(moved)} inputs changed, first: {moved[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(text_digests() | digests(), fh, indent=0, sort_keys=True)
        fh.write("\n")

"""Golden CLI runs: stdout bytes, exit codes and written files must not change.

``golden_cli.json`` holds the recorded output of every command in ``CASES``:
the README examples plus the sweeps, pipelines and witnesses that refactors
of the global map, the decision and the sweep driver could disturb.  Record
it again, only on purpose, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from revca.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden_cli.json")

D7_SWAP = "340111023729231447919146791488223903744"
D9_SWAP = ("13407756780092600172768152534861612529027868302555360512417893338497639"
           "153447220423114454451367820581341151161400152215869548203590697745058844"
           "392204288000")

# (argv, index of the case whose stdout is piped into this one, or None)
CASES = [
    (["gen-patterns", "--left", "1", "--right", "3"], None),
    (["gen-patterns", "-d", "10"], None),
    (["gen-extended", "-d", "5"], None),
    (["counts", "-n", "10", "--json"], None),
    (["induce", "0X011", "--verify"], None),
    (["induce", "10X111", "a0X10a", "--verify"], None),
    (["induce", "0X011", "0X110"], None),
    (["induce", "0X011"], None),
    (["verify", "-d", "3", "-w", "240"], None),
    (["verify", "-d", "3", "-w", "90"], None),
    (["verify", "-d", "3", "-w", "204", "--max-period", "8"], None),
    (["verify", "-d", "3", "-w", "204", "--max-period", "25"], None),
    (["verify", "-d", "7", "-w", D7_SWAP], None),
    (["verify", "-d", "9", "-w", D9_SWAP], None),
    (["enumerate", "-d", "3"], None),
    (["enumerate", "-d", "4"], None),
    (["enumerate", "-d", "4", "--exclude-trivial"], None),
    (["enumerate", "-d", "6"], None),
    (["simulate", "--pattern", "0X011", "--init", "00011", "--steps", "2"], None),
    (["simulate", "-d", "3", "-w", "110", "--anchor", "1", "--init", "00010000",
      "--steps", "8", "--pbm", "out.pbm"], None),
    (["gen-patterns", "-d", "6"], None),
    (["induce", "--stdin", "--verify"], 20),
]


def run_case(argv, stdin_text):
    """(exit code, stdout, {written file: text}) of one in-process CLI run,
    in the current directory."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    files = {name: Path(name).read_text() for name in ("out.pbm",) if os.path.exists(name)}
    return code, out.getvalue(), files


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(a)[:48] for a, _ in CASES])
def test_cli_output_unchanged(index, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, source = CASES[index]
    record = golden[index]
    assert record["argv"] == argv
    stdin_text = golden[source]["stdout"] if source is not None else ""
    code, out, files = run_case(argv, stdin_text)
    assert code == record["exit"]
    assert out == record["stdout"]
    assert files == record["files"]


if __name__ == "__main__":
    import tempfile

    records = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for argv, source in CASES:
            stdin_text = records[source]["stdout"] if source is not None else ""
            code, out, files = run_case(argv, stdin_text)
            for name in files:
                os.remove(name)
            records.append({"argv": argv, "exit": code, "stdout": out, "files": files})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")

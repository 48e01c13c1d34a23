#!/usr/bin/env python3
"""List the ``posecorrect`` functions that no command, compared script or
benchmark workload calls, with their line counts.

    python3 scripts/reachability.py [--seconds 2]

The checkout's ``src``, ``tests/data``, ``perfbench`` and
``BENCHMARK.json`` are copied to a temporary directory, and a
``sitecustomize.py`` goes into the copy's ``src``.  Python imports it at
start-up in every process that has that ``src`` on ``PYTHONPATH``; it
records each function called, through ``sys.setprofile`` and
``threading.setprofile``, and writes the package's ones out at exit.  On
the copy the script then runs:

* ``scripts/compare_outputs.py`` with the copy on both sides: every
  command of its ``command_set()``, the scripts it runs in process
  (``repeated-updates`` and the KITTI inputs) among them, twice;
* ``perfbench/run.py --size tiny`` on each workload that
  ``BENCHMARK.json`` names, set-up included, for ``--seconds`` each.

It then parses each module of the package and prints every function and
method that recorded no call, with its line count (a nested function is
counted in the unreached function that holds it), and the total.  The
run takes about a minute.  It checks nothing and is not run in CI.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Records the (file, first line, name) of every function called in this
# process and, at exit, writes those under the package to its own file.
HOOK = """
import atexit
import os
import sys
import threading

_CALLED = set()


def _profile(frame, event, arg):
    if event == "call":
        _CALLED.add(frame.f_code)


def _write():
    sys.setprofile(None)
    package = os.path.join(os.path.dirname(os.path.abspath(__file__)), "posecorrect")
    rows = sorted({f"{c.co_filename}\\t{c.co_firstlineno}\\t{c.co_name}"
                   for c in _CALLED if c.co_filename.startswith(package)})
    path = os.path.join(os.environ["REACHABILITY_OUT"], f"{os.getpid()}.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(row + "\\n" for row in rows))


if os.environ.get("REACHABILITY_OUT"):
    atexit.register(_write)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
"""


def copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    for part in ("src", "tests/data", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    (dest / "src" / "sitecustomize.py").write_text(HOOK, encoding="utf-8")


def run_everything(copy: Path, records: Path, seconds: float) -> None:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), REACHABILITY_OUT=str(records))
    compare = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
         "--parent", str(copy), "--change", str(copy)],
        env=env, capture_output=True, text=True,
    )
    print("compare_outputs: " + (compare.stdout.strip().splitlines() or ["no output"])[-1],
          file=sys.stderr)
    spec = json.loads((copy / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        bench = subprocess.run(
            [sys.executable, str(copy / "perfbench" / "run.py"), "--workload", workload,
             "--size", "tiny", "--seconds", str(seconds)],
            env=env, capture_output=True, text=True,
        )
        print(f"perfbench {workload}: exit {bench.returncode}", file=sys.stderr)


def called(records: Path) -> set[tuple[str, int, str]]:
    found = set()
    for path in records.glob("*.tsv"):
        for line in path.read_text(encoding="utf-8").splitlines():
            filename, lineno, name = line.split("\t")
            found.add((Path(filename).name, int(lineno), name))
    return found


def unreached(package: Path, reached: set[tuple[str, int, str]]):
    """``(module, qualified name, first line, line count)`` of every function
    of ``package`` that is not in ``reached`` and is not inside another
    such function."""
    def visit(module: str, node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object starts at its first decorator.
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                name = prefix + child.name
                if (module, first, child.name) in reached:
                    yield from visit(module, child, name + ".")
                else:
                    yield module, name, first, child.end_lineno - first + 1
            elif isinstance(child, ast.ClassDef):
                yield from visit(module, child, prefix + child.name + ".")
            else:  # a def inside an if, a with or a loop
                yield from visit(module, child, prefix)

    for path in sorted(package.glob("*.py")):
        yield from visit(path.name, ast.parse(path.read_text(encoding="utf-8")), "")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=2.0,
                   help="timed run of each perfbench workload, after its set-up")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        copy, records = Path(tmp) / "checkout", Path(tmp) / "records"
        records.mkdir()
        copy_checkout(copy)
        run_everything(copy, records, args.seconds)
        reached = called(records)
    rows = list(unreached(ROOT / "src" / "posecorrect", reached))
    for module, name, first, lines in rows:
        print(f"{module}:{first} {name} ({lines} lines)")
    print(f"{len(rows)} functions unreached, {sum(r[3] for r in rows)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())

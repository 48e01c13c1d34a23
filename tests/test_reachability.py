"""Tests of scripts/reachability.py's parts: the call-recording hook, the
record reader and the walk that lists the functions no call reached."""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("reachability", ROOT / "scripts" / "reachability.py")
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

MODULE = textwrap.dedent("""\
    import functools


    def called():
        return 1


    def uncalled():
        def inner():
            return 2
        return inner()


    @functools.lru_cache
    def decorated():
        return 3


    def outer():
        def used():
            return 4

        def unused():
            return 5
        return used()


    class Table:
        def method(self):
            return 6

        def other(self):
            return 7


    if True:
        def in_if():
            return 8
    """)


def write_package(root: Path) -> Path:
    package = root / "posecorrect"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    return package


def first_lines() -> dict[str, int]:
    lines = MODULE.splitlines()
    return {name: next(i for i, line in enumerate(lines, 1) if line.lstrip().startswith(head))
            for name, head in (("called", "def called"), ("uncalled", "def uncalled"),
                               ("inner", "def inner"),
                               ("decorated", "@functools"), ("outer", "def outer"),
                               ("used", "def used"), ("unused", "def unused"),
                               ("method", "def method"), ("other", "def other"),
                               ("in_if", "def in_if"))}


def listed(package: Path, reached_names) -> dict[str, tuple[int, int]]:
    first = first_lines()
    reached = {("mod.py", first[name], name) for name in reached_names}
    return {name: (line, count)
            for module, name, line, count in reachability.unreached(package, reached)
            if module == "mod.py"}


ALL = {"called", "uncalled", "inner", "decorated", "outer", "used", "unused", "method", "other",
       "in_if"}


def test_uncalled_function_listed_with_its_line_count(tmp_path):
    rows = listed(write_package(tmp_path), ALL - {"uncalled", "inner"})
    # The nested inner() is counted in uncalled(), not listed on its own.
    assert rows == {"uncalled": (first_lines()["uncalled"], 4)}


def test_decorated_function_matched_at_its_first_decorator(tmp_path):
    package = write_package(tmp_path)
    assert "decorated" not in listed(package, ALL)
    rows = listed(package, ALL - {"decorated"})
    assert rows == {"decorated": (first_lines()["decorated"], 3)}


def test_unreached_nested_function_of_a_reached_one_named_through_it(tmp_path):
    rows = listed(write_package(tmp_path), ALL - {"unused"})
    assert rows == {"outer.unused": (first_lines()["unused"], 2)}


def test_unreached_function_hides_its_nested_ones(tmp_path):
    rows = listed(write_package(tmp_path), ALL - {"outer", "used", "unused"})
    assert rows == {"outer": (first_lines()["outer"], 7)}


def test_method_named_with_its_class(tmp_path):
    rows = listed(write_package(tmp_path), ALL - {"other"})
    assert rows == {"Table.other": (first_lines()["other"], 2)}


def test_function_defined_inside_an_if_is_walked(tmp_path):
    rows = listed(write_package(tmp_path), ALL - {"in_if"})
    assert rows == {"in_if": (first_lines()["in_if"], 2)}


def test_called_merges_every_record_by_file_name(tmp_path):
    (tmp_path / "1.tsv").write_text("/a/posecorrect/mod.py\t3\tcalled\n")
    (tmp_path / "2.tsv").write_text("/b/posecorrect/mod.py\t3\tcalled\n"
                                    "/b/posecorrect/io.py\t10\tread\n")
    (tmp_path / "notes.txt").write_text("/c/posecorrect/mod.py\t1\tignored\n")
    assert reachability.called(tmp_path) == {("mod.py", 3, "called"), ("io.py", 10, "read")}


def run_hooked(src: Path, code: str, records: Path | None) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("REACHABILITY_OUT", None)
    if records is not None:
        env["REACHABILITY_OUT"] = str(records)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_hook_records_calls_in_the_main_thread_and_in_others(tmp_path):
    src, records = tmp_path / "src", tmp_path / "records"
    package = write_package(src)
    (src / "sitecustomize.py").write_text(reachability.HOOK)
    records.mkdir()
    run_hooked(src, "import threading\n"
                    "from posecorrect import mod\n"
                    "mod.called()\n"
                    "t = threading.Thread(target=mod.Table().method)\n"
                    "t.start(); t.join()\n", records)
    reached = reachability.called(records)
    first = first_lines()
    assert {("mod.py", first["called"], "called"), ("mod.py", first["method"], "method")} <= reached
    # Functions of other packages are left out of the record.
    assert {module for module, _, _ in reached} <= {"mod.py", "__init__.py"}
    rows = {name for _, name, _, _ in reachability.unreached(package, reached)}
    assert "called" not in rows and "Table.method" not in rows
    assert {"uncalled", "decorated", "outer", "Table.other", "in_if"} <= rows


def test_hook_records_nothing_without_its_output_directory(tmp_path):
    src = tmp_path / "src"
    write_package(src)
    (src / "sitecustomize.py").write_text(reachability.HOOK)
    run_hooked(src, "from posecorrect import mod\nmod.called()\n", None)
    assert list(tmp_path.rglob("*.tsv")) == []

"""Outside-in span tracing of posecorrect's public functions.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent) in memory.  The wrapper replaces the binding in every
``posecorrect`` module that holds the function, because ``cli``, ``io`` and
``evaluate`` import ``associate``, ``snap_to_gt`` and ``from_world_poses``
by name; patching only the defining module would silently miss those
calls.  A listed function that no longer exists, or that records no call,
is reported as missing and never fails the run, so a later change that
replaces one still runs this benchmark unchanged.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

TRACED = (
    ("io", "read_tum"),
    ("io", "read_keyframe_index"),
    ("io", "write_tum"),
    ("trajectory", "from_world_poses"),
    ("trajectory", "snap_to_gt"),
    ("trajectory", "associate"),
    ("evaluate", "run_protocol"),
    ("evaluate", "correct_trajectory"),
    ("evaluate", "frame_errors"),
    ("evaluate", "write_report_csv"),
    ("evaluate", "write_frame_errors_csv"),
    ("evaluate", "write_diagnostics_csv"),
    ("correction", "correct_segment"),
    ("correction", "correct_terminal_segment"),
    ("baseline", "interp_correct_segment"),
    ("cli", "main"),
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _segment_frames(counter: str):
    return lambda args, kwargs, result: {counter: len(_arg(args, kwargs, 0, "seg").rels)}


def _written(args, kwargs, result):
    return {
        "io.frames_written": len(_arg(args, kwargs, 1, "poses")),
        "io.bytes_written": os.path.getsize(_arg(args, kwargs, 0, "path")),
    }


def _diagnostics(args, kwargs, result):
    diag = result[1]
    return {
        "diag.singular_hits": diag.singular_hits,
        "diag.gimbal_hits": diag.gimbal_hits,
        "diag.degenerate_segments": diag.degenerate_segments,
    }


# Counts taken at the traced boundaries: function -> (args, kwargs, result)
# -> {counter: increment}.  A hook that no longer fits the function's
# signature or result is dropped and its counters report as missing.
COUNTERS = {
    "trajectory.associate": lambda a, k, r: {
        "trajectory.associate.ref_items": len(_arg(a, k, 1, "reference"))
    },
    "correction.correct_segment": _segment_frames("correction.frames"),
    "correction.correct_terminal_segment": _segment_frames("correction.frames"),
    "baseline.interp_correct_segment": _segment_frames("baseline.frames"),
    "io.read_tum": lambda a, k, r: {"io.frames_read": len(r)},
    "io.write_tum": _written,
    "evaluate.correct_trajectory": _diagnostics,
}


def _posecorrect_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "posecorrect" or name.startswith("posecorrect."))
    ]


class Tracer:
    """Installs span wrappers and aggregates them per operation.

    Span ``i`` is ``span_name[i]``, ``span_start[i]``, ``span_end[i]``
    (ns) and ``span_parent[i]``, the index of the enclosing traced call or
    -1.  Columns of atoms rather than a row object per span keep tracing
    from feeding the cyclic garbage collector, whose passes would be
    charged to the traced code.
    """

    def __init__(self, targets=TRACED):
        self.targets = tuple(targets)
        self.names = [f"{mod}.{fn}" for mod, fn in self.targets]
        self.span_name: list[str] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self.broken_counters: set[str] = set()
        self._stack: list[int] = []
        self._patches = None
        self._op_start = (0, {})

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; the bindings are found on first use."""
        if self._patches is None:
            self._patches = self._find_bindings()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches or ()):
            setattr(module, attr, original)

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        patches = []
        for (mod_name, fn_name), name in zip(self.targets, self.names):
            try:
                module = importlib.import_module(f"posecorrect.{mod_name}")
            except ImportError:
                self.missing.add(name)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for m in _posecorrect_modules():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        patches.append((m, attr, original, wrapper))
        return patches

    def _wrap(self, name: str, fn):
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        stack = self._stack
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if count is not None and name not in self.broken_counters:
                try:
                    for key, inc in count(args, kwargs, result).items():
                        self.counts[key] += inc
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.broken_counters.add(name)
            return result

        return traced

    # -- per-operation aggregation ----------------------------------------------

    def begin_op(self) -> None:
        self._op_start = (len(self.span_name), dict(self.counts))

    def end_op(self) -> dict:
        """Self seconds and calls per traced function, plus counter deltas,
        over the spans recorded since :meth:`begin_op`."""
        lo, counts_before = self._op_start
        hi = len(self.span_name)
        durations = [e - s for s, e in zip(self.span_start[lo:hi], self.span_end[lo:hi])]
        child_ns = [0] * len(durations)
        for parent, d in zip(self.span_parent[lo:hi], durations):
            if parent >= lo:
                child_ns[parent - lo] += d
        out = {}
        for name in self.names:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for name, d, children in zip(self.span_name[lo:hi], durations, child_ns):
            out[f"{name}.self_s"] += (d - children) / 1e9
            out[f"{name}.calls"] += 1
        for key, value in self.counts.items():
            out[key] = value - counts_before.get(key, 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            rows = zip(self.span_parent, self.span_name, self.span_start, self.span_end)
            for i, (parent, name, start, end) in enumerate(rows):
                fh.write(f"{i},{parent},{name},{start},{end}\n")

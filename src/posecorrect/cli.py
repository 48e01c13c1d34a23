"""Batch command-line front end.

Subcommands:

* ``correct``  - apply one correction method to a trajectory after a
  keyframe update, writing the corrected trajectory and diagnostics.
* ``evaluate`` - run the keyframe-snap protocol for a set of methods
  against ground truth, writing the report and per-frame error tables.
* ``simulate`` - generate a synthetic scene and its derived trajectory /
  ground-truth / keyframe-index files (optionally a displaced estimate).
* ``bench``    - time each method's ``correct_trajectory`` on a seeded
  101-frame trajectory.

Each subcommand takes only the flags it reads.  All take ``--out`` and
``--config``; ``correct``, ``evaluate`` and ``bench`` take the method flags
``--methods``, ``--trans-space``, ``--rot-space``, ``--scale-squared`` and
``--raw-division``; ``correct`` and ``evaluate`` also take ``--assoc-tol``
and ``--format``; only ``simulate`` takes ``--seed``.

Flag values override config-file values which override defaults.  Config
values are checked like flag values; keys the subcommand does not take are
ignored.  The effective configuration is echoed into the output directory.
The env var ``POSECORRECT_LOG`` selects the log level.  Exit codes: 0
success, 2 for any input/validation failure, 1 for unexpected errors.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import fixtures
from . import io as trajio
from . import synth
from .baseline import RotSpace, TransSpace
from .floatfmt import write_columns
from .trajectory import (
    AssociationError,
    KeyframeUpdates,
    Trajectory,
    associate,
    from_world_poses,
    rebase,
    snap_to_gt,
)

log = logging.getLogger("posecorrect.cli")


class CliError(ValueError):
    """Input or configuration problem; maps to exit code 2."""


def _read_trajectory_file(path, fmt: str = "auto"):
    path = Path(path)
    if not path.exists():
        raise CliError(f"input file does not exist: {path}")
    if fmt == "auto":
        fmt = _sniff_format(path)
    if fmt == "tum":
        return trajio.read_tum(path)
    if fmt == "kitti":
        return trajio.read_kitti(path)
    raise CliError(f"unknown trajectory format {fmt!r} (expected tum or kitti)")


def _sniff_format(path: Path) -> str:
    for _, text in trajio.data_lines(path):
        n = len(text.split())
        if n == 8:
            return "tum"
        if n == 12:
            return "kitti"
        raise CliError(
            f"{path}: first data line has {n} fields; expected 8 (TUM) or 12 (KITTI)"
        )
    raise CliError(f"{path}: no data lines")


def _parse_methods(text: str) -> list[str]:
    names = [m.strip() for m in text.split(",") if m.strip()]
    if not names:
        raise CliError("no methods requested")
    if names == ["all"]:
        return list(ev.METHODS)
    for k, name in enumerate(names):
        if name not in ev.METHODS:
            raise CliError(f"unknown method {name!r}; choose from {', '.join(ev.METHODS)}")
        if name in names[:k]:
            raise CliError(f"--methods names {name!r} more than once")
    return names


def _method_config(name: str, args) -> ev.MethodConfig:
    return ev.MethodConfig(
        name=name,
        trans_space=TransSpace(args.trans_space),
        rot_space=RotSpace(args.rot_space),
        scale_squared=args.scale_squared,
        raw_division=args.raw_division,
    )


def _echo_config(args, out_dir: Path) -> None:
    skip = {"func", "command", "config"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_trajectory(args) -> Trajectory:
    frames = _read_trajectory_file(args.traj, args.format)
    if not Path(args.kf_index).exists():
        raise CliError(f"keyframe index file does not exist: {args.kf_index}")
    positions = trajio.read_keyframe_index(args.kf_index, frames)
    return from_world_poses(frames, positions)


def _associate_updates(traj: Trajectory, old_file, new_file, tol: float, fmt: str):
    """Updates per keyframe from (old, new) pose files.

    Keyframes found in both files get that update; keyframes in neither
    ride along unchanged; a keyframe in exactly one of the files is an
    error (the pair is meaningless without both sides).
    """
    stamps = traj.kf.stamps
    poses = []
    for path in (old_file, new_file):
        table = _read_trajectory_file(path, fmt)
        rows = associate(stamps, table, tol, allow_missing=True)
        found = rows >= 0
        q, t = traj.kf.q.copy(), traj.kf.t.copy()
        q[found], t[found] = table.q[rows[found]], table.t[rows[found]]
        poses.append((found, q, t))
    (old_found, old_q, old_t), (new_found, new_q, new_t) = poses
    mismatch = old_found != new_found
    if mismatch.any():
        k = int(np.argmax(mismatch))
        missing = "--kf-new" if not new_found[k] else "--kf-old"
        raise CliError(f"keyframe at t={stamps[k]:.6f} has no match in {missing}")
    return KeyframeUpdates(old_q, old_t, new_q, new_t)


@contextmanager
def _raw_division_errors(cfg: ev.MethodConfig):
    """Report the math domain error that an infinite angle raises under
    ``--raw-division`` as an input error naming the flag and the method."""
    try:
        yield
    except ValueError as exc:
        if not cfg.raw_division or str(exc) != "math domain error":
            raise
        raise CliError(
            f"method {cfg.name}: --raw-division gave an infinite angle, which no "
            "rotation represents (math domain error); run without --raw-division"
        ) from None


def cmd_correct(args) -> int:
    methods = _parse_methods(args.methods)
    if len(methods) != 1:
        raise CliError("correct takes exactly one method (e.g. --methods proposed)")
    out = _out_dir(args)
    traj = _build_trajectory(args)
    updates = _associate_updates(traj, args.kf_old, args.kf_new, args.assoc_tol, args.format)

    # Relative poses must be anchored to the *old* keyframe poses; rebase
    # when the update files disagree with the trajectory's own keyframes.
    traj = rebase(traj, updates.old_q, updates.old_t)

    cfg = _method_config(methods[0], args)
    with _raw_division_errors(cfg):
        world, diagnostics = ev.correct_trajectory(traj, updates, cfg)
    del traj  # and the correction geometry it keeps, before the writer's buffers
    trajio.write_tum(out / "corrected.tum", world)
    ev.write_diagnostics_csv(out / "diagnostics.csv", diagnostics)
    _echo_config(args, out)
    log.info("wrote %s", out / "corrected.tum")
    return 0


def cmd_evaluate(args) -> int:
    methods = _parse_methods(args.methods)
    out = _out_dir(args)
    traj = _build_trajectory(args)
    gt = _read_trajectory_file(args.gt, args.format)
    sequence = Path(args.traj).stem
    # Every method runs before any file is written, so a run that fails
    # leaves no partial output.
    protocol = ev.SnapProtocol(traj, gt, args.assoc_tol)
    results = []
    for name in methods:
        cfg = _method_config(name, args)
        with _raw_division_errors(cfg):
            results.append(protocol.run(cfg))
    del protocol, traj  # the run and score caches and the memo, before the writer's buffers
    ev.write_frame_errors_csv(
        [(out / f"frame_errors_{name}.csv", errors) for name, (_, errors) in zip(methods, results)]
    )
    ev.write_report_csv(out / "report.csv", [(sequence, report) for report, _ in results])
    _echo_config(args, out)
    log.info("wrote %s", out / "report.csv")
    return 0


def cmd_simulate(args) -> int:
    spec = synth.SceneSpec(
        shape=args.shape,
        n_keyframes=args.n_keyframes,
        rels_per_segment=args.rels_per_segment,
        n_landmarks=args.n_landmarks,
        pixel_noise=args.pixel_noise,
        seed=args.seed,
    )
    try:
        scene = synth.generate_scene(spec)
    except MemoryError:
        raise CliError("the scene does not fit in memory; use a smaller --n-keyframes, "
                       "--rels-per-segment or --n-landmarks") from None
    frames = scene.gt_world_poses()
    positions = synth.keyframe_positions(spec)
    est = frames
    if args.drift > 0.0:
        try:
            with np.errstate(over="ignore"):  # the angle's norm overflows to inf
                est = fixtures.displaced_estimate(frames, positions, seed=args.seed,
                                                  magnitude=args.drift)
        except ValueError as exc:
            if str(exc) != "math domain error":
                raise
            raise CliError(
                f"--drift {args.drift!r} gives an infinite rotation offset, which no rotation "
                "represents (math domain error); use a smaller --drift"
            ) from None
    # Every file's contents are computed before the output directory is made,
    # so a bad flag leaves no directory behind.
    out = _out_dir(args)
    synth.save_scene(scene, out / "scene.txt")
    trajio.write_tum(out / "gt.tum", frames)
    with open(out / "kf_index.txt", "wb") as fh:
        fh.write(b"# keyframe frame indices\n")
        write_columns([(fh, [frames.indices[positions]])], ["\n"])
    trajio.write_tum(out / "est.tum", est)
    _echo_config(args, out)
    log.info("wrote scene and trajectory files to %s", out)
    return 0


def cmd_bench(args) -> int:
    methods = _parse_methods(args.methods)
    out = _out_dir(args)
    traj, gt = fixtures.noisy_fixture(0)
    updates = snap_to_gt(traj, gt)
    rows = []
    for name in methods:
        cfg = _method_config(name, args)
        stats = ev.bench(
            lambda upd, cfg=cfg: ev.correct_trajectory(traj, upd, cfg),
            [updates],
            repetitions=args.repetitions,
        )
        rows.append((name, stats))
        log.info("%s: %s ms", name, stats.format())
    with open(out / "timing.csv", "wb") as fh:
        fh.write(b"method,mean_ms,std_ms,median_ms,count\n")
        write_columns([(fh, [
            [name.encode() for name, _ in rows],
            *np.array([(s.mean, s.std, s.median) for _, s in rows], dtype=float).reshape(-1, 3).T,
            np.array([s.count for _, s in rows], dtype=np.int64),
        ])], [","] * 4 + ["\n"])
    _echo_config(args, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posecorrect",
        description="Correct relative-frame poses after keyframe updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    correct = sub.add_parser("correct", help="correct a trajectory after a keyframe update")
    correct.add_argument("--traj", required=True, help="full trajectory (world poses)")
    correct.add_argument("--kf-index", required=True, help="keyframe index/timestamp file")
    correct.add_argument("--kf-old", required=True, help="keyframe poses before the update")
    correct.add_argument("--kf-new", required=True, help="keyframe poses after the update")
    correct.set_defaults(func=cmd_correct)

    evaluate = sub.add_parser("evaluate", help="run the GT-snap evaluation protocol")
    evaluate.add_argument("--traj", required=True, help="estimated trajectory")
    evaluate.add_argument("--kf-index", required=True)
    evaluate.add_argument("--gt", required=True, help="ground-truth trajectory")
    evaluate.set_defaults(func=cmd_evaluate)

    simulate = sub.add_parser("simulate", help="generate a synthetic scene + files")
    simulate.add_argument("--shape", default="forward", choices=sorted(synth.PATHS))
    simulate.add_argument("--n-keyframes", type=int, default=8)
    simulate.add_argument("--rels-per-segment", type=int, default=4)
    simulate.add_argument("--n-landmarks", type=int, default=150)
    simulate.add_argument("--pixel-noise", type=float, default=0.0)
    simulate.add_argument("--drift", type=float, default=0.0,
                          help="displace the estimate from GT by this magnitude (0 = none)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=cmd_simulate)

    bench = sub.add_parser(
        "bench", help="time each method's correct_trajectory on a seeded 101-frame trajectory"
    )
    bench.add_argument("--repetitions", type=int, default=300)
    bench.set_defaults(func=cmd_bench)

    for p in (correct, evaluate, bench):
        p.add_argument("--methods", default="proposed",
                       help="comma-separated method names, or 'all'")
        p.add_argument("--trans-space", default="xyz", choices=[s.value for s in TransSpace],
                       help="translation space for rotation-baseline methods")
        p.add_argument("--rot-space", default="quat", choices=[s.value for s in RotSpace],
                       help="rotation space for translation-baseline methods")
        p.add_argument("--scale-squared", action="store_true",
                       help="use the squared-norm baseline ratio")
        p.add_argument("--raw-division", action="store_true",
                       help="disable the interpolation singularity guard")
    for p in (correct, evaluate):
        p.add_argument("--assoc-tol", type=float, default=0.01,
                       help="timestamp association tolerance, seconds")
        p.add_argument("--format", default="auto", choices=["auto", "tum", "kitti"],
                       help="trajectory file format (auto-detected by field count)")
    for p in (correct, evaluate, simulate, bench):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override its values")
    parser.subcommand_parsers = sub.choices  # name -> parser, for --config
    return parser


def _config_value(path: Path, key: str, value, action: argparse.Action):
    """``value`` checked against the flag's type and choices, as argparse
    checks a value given on the command line."""
    kind = bool if action.nargs == 0 else (action.type or str)
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise CliError(f"{path}: config key {key!r} must be a {kind.__name__}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise CliError(f"{path}: config key {key!r} must be in {action.choices}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # float() of an integer past 1e308
        raise CliError(f"{path}: config key {key!r} must be a finite float, got {value!r}") from None


def _apply_config_file(subparser: argparse.ArgumentParser, path: Path) -> None:
    """Install the JSON config file's values as the subcommand's defaults;
    keys the subcommand does not take are ignored."""
    if not path.exists():
        raise CliError(f"config file does not exist: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, or an integer of over 4300 digits
            raise CliError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: config must be a JSON object")
    actions = {a.dest: a for a in subparser._actions}
    for key, value in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is not None:
            subparser.set_defaults(**{action.dest: _config_value(path, key, value, action)})


def _check_flags(args) -> None:
    """Range-check numeric flags (argparse and the config loader check
    only their type).  Compared, not converted: ``math.isfinite`` of an
    integer past 1e308 overflows.  ``timing.csv`` writes the repetition
    count as an int64."""
    for dest, low, high in (("assoc_tol", 0, math.inf), ("drift", 0, math.inf),
                            ("repetitions", 1, 2**63)):
        value = getattr(args, dest, low)
        if not low <= value < high:
            flag = "--" + dest.replace("_", "-")
            bound = "finite" if high == math.inf else f"< {high}"
            raise CliError(f"{flag} must be {bound} and >= {low}, got {value!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    level = os.environ.get("POSECORRECT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config_file(parser.subcommand_parsers[args.command], Path(args.config))
            args = parser.parse_args(argv)
        _check_flags(args)
        return args.func(args)
    except (
        CliError,
        AssociationError,
        trajio.TrajectoryParseError,
        synth.GenerationError,
        OSError,
    ) as exc:
        print(f"posecorrect: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failure path
        log.exception("unexpected failure")
        print(f"posecorrect: unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

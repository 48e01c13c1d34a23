"""Batch command-line front end.

Subcommands:

* ``correct``  - apply one correction method to a trajectory after a
  keyframe update, writing the corrected trajectory and diagnostics.
* ``evaluate`` - run the keyframe-snap protocol for a set of methods
  against ground truth, writing the report and per-frame error tables.
* ``simulate`` - generate a synthetic scene and its derived trajectory /
  ground-truth / keyframe-index files (optionally a displaced estimate).
* ``bench``    - time per-segment corrections per method.

Flag values override config-file values which override defaults; the
effective configuration is echoed into the output directory.  The env var
``POSECORRECT_LOG`` selects the log level.  Exit codes: 0 success, 2 for
any input/validation failure, 1 for unexpected errors.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import evaluate as ev
from . import fixtures
from . import io as trajio
from . import synth
from .baseline import RotSpace, TransSpace
from .trajectory import (
    AssociationError,
    Keyframe,
    KeyframeUpdate,
    RelativeFrame,
    Trajectory,
    associate,
    from_world_poses,
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
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
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
    for name in names:
        if name not in ev.METHODS:
            raise CliError(f"unknown method {name!r}; choose from {', '.join(ev.METHODS)}")
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
    if args.kf_index is None:
        raise CliError("--kf-index is required")
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
    stamps = [kf.id.stamp for kf in traj.keyframes]
    olds = associate(stamps, _read_trajectory_file(old_file, fmt), tol, allow_missing=True)
    news = associate(stamps, _read_trajectory_file(new_file, fmt), tol, allow_missing=True)
    updates = []
    for i, (kf, old, new) in enumerate(zip(traj.keyframes, olds, news)):
        if (old is None) != (new is None):
            missing = "--kf-new" if new is None else "--kf-old"
            raise CliError(
                f"keyframe at t={kf.id.stamp:.6f} has no match in {missing}"
            )
        if old is None:
            updates.append(KeyframeUpdate(i, kf.world_pose, kf.world_pose))
        else:
            updates.append(KeyframeUpdate(i, old[1], new[1]))
    return updates


def cmd_correct(args) -> int:
    methods = _parse_methods(args.methods)
    if len(methods) != 1:
        raise CliError("correct takes exactly one method (e.g. --methods proposed)")
    if args.kf_old is None or args.kf_new is None:
        raise CliError("correct needs --kf-old and --kf-new")
    out = _out_dir(args)
    traj = _build_trajectory(args)
    updates = _associate_updates(traj, args.kf_old, args.kf_new, args.assoc_tol, args.format)

    # Relative poses must be anchored to the *old* keyframe poses; rebase
    # when the update files disagree with the trajectory's own keyframes.
    rebased_keyframes = [
        Keyframe(kf.id, upd.old_pose) for kf, upd in zip(traj.keyframes, updates)
    ]
    rebased_rels = []
    for seg in traj.segments:
        base_old = updates[seg.index].old_pose.inverse()
        world_base = traj.keyframes[seg.index].world_pose
        for rel in seg.rels:
            world = world_base * rel.rel_pose
            rebased_rels.append(RelativeFrame(rel.id, rel.parent, base_old * world))
    traj = Trajectory(tuple(rebased_keyframes), tuple(rebased_rels))

    cfg = _method_config(methods[0], args)
    world, diagnostics = ev.correct_trajectory(traj, updates, cfg, threads=args.threads)
    trajio.write_tum(out / "corrected.tum", world)
    ev.write_diagnostics_csv(out / "diagnostics.csv", diagnostics)
    _echo_config(args, out)
    log.info("wrote %s", out / "corrected.tum")
    return 0


def cmd_evaluate(args) -> int:
    methods = _parse_methods(args.methods)
    if args.gt is None:
        raise CliError("evaluate needs --gt")
    out = _out_dir(args)
    traj = _build_trajectory(args)
    gt = _read_trajectory_file(args.gt, args.format)
    sequence = Path(args.traj).stem
    rows = []
    for name in methods:
        cfg = _method_config(name, args)
        report, errors = ev.run_protocol(
            traj, gt, cfg, tol=args.assoc_tol, threads=args.threads
        )
        rows.append((sequence, report))
        ev.write_frame_errors_csv(out / f"frame_errors_{name}.csv", errors)
    ev.write_report_csv(out / "report.csv", rows)
    _echo_config(args, out)
    log.info("wrote %s", out / "report.csv")
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    spec = synth.SceneSpec(
        shape=args.shape,
        n_keyframes=args.n_keyframes,
        rels_per_segment=args.rels_per_segment,
        n_landmarks=args.n_landmarks,
        pixel_noise=args.pixel_noise,
        seed=args.seed,
    )
    scene = synth.generate_scene(spec)
    synth.save_scene(scene, out / "scene.txt")
    frames = scene.gt_world_poses()
    trajio.write_tum(out / "gt.tum", frames)
    positions = synth.keyframe_positions(spec)
    with open(out / "kf_index.txt", "w", encoding="utf-8") as fh:
        fh.write("# keyframe frame indices\n")
        for p in positions:
            fh.write(f"{frames[p][0].index}\n")
    if args.drift > 0.0:
        est = fixtures.displaced_estimate(frames, positions, seed=args.seed, magnitude=args.drift)
    else:
        est = frames
    trajio.write_tum(out / "est.tum", est)
    _echo_config(args, out)
    log.info("wrote scene and trajectory files to %s", out)
    return 0


def cmd_bench(args) -> int:
    methods = _parse_methods(args.methods)
    out = _out_dir(args)
    seg, upd_a, upd_b = fixtures.bench_segment()
    rows = []
    for name in methods:
        cfg = _method_config(name, args)

        def run(fixture, cfg=cfg):
            seg, upd_a, upd_b = fixture
            return ev._correct_one_segment(seg, upd_a, upd_b, cfg)

        stats = ev.bench(run, [(seg, upd_a, upd_b)], repetitions=args.repetitions)
        rows.append((name, stats))
        log.info("%s: %s ms", name, stats.format())
    with open(out / "timing.csv", "w", encoding="utf-8") as fh:
        fh.write("method,mean_ms,std_ms,median_ms,count\n")
        for name, stats in rows:
            fh.write(f"{name},{stats.mean!r},{stats.std!r},{stats.median!r},{stats.count}\n")
    _echo_config(args, out)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="out", help="output directory")
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
    p.add_argument("--assoc-tol", type=float, default=0.01,
                   help="timestamp association tolerance, seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="per-segment parallelism (1 = deterministic reference)")
    p.add_argument("--format", default="auto", choices=["auto", "tum", "kitti"],
                   help="trajectory file format (auto-detected by field count)")
    p.add_argument("--config", default=None,
                   help="JSON config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posecorrect",
        description="Correct relative-frame poses after keyframe updates.",
    )
    parser.subcommand_parsers = []  # populated below; used by the config loader
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correct", help="correct a trajectory after a keyframe update")
    parser.subcommand_parsers.append(p)
    p.add_argument("--traj", required=True, help="full trajectory (world poses)")
    p.add_argument("--kf-index", required=True, help="keyframe index/timestamp file")
    p.add_argument("--kf-old", required=True, help="keyframe poses before the update")
    p.add_argument("--kf-new", required=True, help="keyframe poses after the update")
    _add_common(p)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("evaluate", help="run the GT-snap evaluation protocol")
    parser.subcommand_parsers.append(p)
    p.add_argument("--traj", required=True, help="estimated trajectory")
    p.add_argument("--kf-index", required=True)
    p.add_argument("--gt", required=True, help="ground-truth trajectory")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="generate a synthetic scene + files")
    parser.subcommand_parsers.append(p)
    p.add_argument("--shape", default="forward", choices=sorted(synth.PATHS))
    p.add_argument("--n-keyframes", type=int, default=8)
    p.add_argument("--rels-per-segment", type=int, default=4)
    p.add_argument("--n-landmarks", type=int, default=150)
    p.add_argument("--pixel-noise", type=float, default=0.0)
    p.add_argument("--drift", type=float, default=0.0,
                   help="displace the estimate from GT by this magnitude (0 = none)")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="time per-segment corrections")
    parser.subcommand_parsers.append(p)
    p.add_argument("--repetitions", type=int, default=300)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Pre-scan for --config and install its values as parser defaults."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return argv
    path = Path(known.config)
    if not path.exists():
        raise CliError(f"config file does not exist: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: config must be a JSON object")
    defaults = {key.replace("-", "_"): value for key, value in cfg.items()}
    for subparser in parser.subcommand_parsers:
        known = {a.dest for a in subparser._actions}
        subparser.set_defaults(**{k: v for k, v in defaults.items() if k in known})
    return argv


def _check_flags(args) -> None:
    """Range-check numeric flags (argparse checks only their type, and
    config-file values bypass even that)."""
    tol = args.assoc_tol
    if not isinstance(tol, (int, float)) or not (math.isfinite(tol) and tol >= 0):
        raise CliError(f"--assoc-tol must be a finite number >= 0, got {tol!r}")
    for flag in ("threads", "repetitions"):
        value = getattr(args, flag, 1)
        if not isinstance(value, int) or value < 1:
            raise CliError(f"--{flag} must be an integer >= 1, got {value!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    level = os.environ.get("POSECORRECT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
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

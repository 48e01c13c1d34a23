"""Command-line interface: subcommand workflows, exit codes, config
precedence and determinism."""

import csv
import hashlib
import inspect
import io
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecorrect import evaluate as ev
from posecorrect import fixtures, floatfmt
from posecorrect import io as trajio
from posecorrect.cli import main
from posecorrect.liegeom import pose_arrays
from posecorrect.synth import SceneSpec, keyframe_positions, path_world_poses
from posecorrect.trajectory import from_world_poses, snap_to_gt, world_poses
from reference_kernels import columns_of, reference_correct, rotation_angle_deg_scalar, update_rows

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main([
        "simulate", "--shape", "forward", "--seed", "5", "--drift", "1.0",
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def singular_dir(tmp_path_factory):
    """``fixtures.singular_fixture`` as estimate, ground-truth and keyframe
    index files."""
    out = tmp_path_factory.mktemp("singular")
    traj, gt = fixtures.singular_fixture()
    trajio.write_tum(out / "est.tum", world_poses(traj))
    trajio.write_tum(out / "gt.tum", gt)
    (out / "kf_index.txt").write_text("".join(f"{kf.id.index}\n" for kf in traj.keyframes))
    return out


def evaluate_args(scene_dir, out, *extra):
    return [
        "evaluate", "--traj", str(scene_dir / "est.tum"), "--gt", str(scene_dir / "gt.tum"),
        "--kf-index", str(scene_dir / "kf_index.txt"), "--methods", "all", "--out", str(out),
        *extra,
    ]


def zero_yaw_keyframes_args(tmp_path, command):
    """``correct`` or ``evaluate`` arguments, without ``--methods``, for
    keyframes at t=0 and t=1 with zero yaw and a frame between them with
    yaw 0.3, after an update that turns the second keyframe's yaw to 0.1.
    Under ``--raw-division`` the Euler factor 0.3 / 0 makes the yaw
    infinite."""

    def tum_line(stamp, x, yaw):
        return f"{stamp} {x} 0 0 0 0 {math.sin(yaw / 2)!r} {math.cos(yaw / 2)!r}\n"

    (tmp_path / "traj.tum").write_text(
        tum_line(0, 0, 0) + tum_line(0.5, 0.5, 0.3) + tum_line(1, 1, 0)
    )
    (tmp_path / "kf_index.txt").write_text("0\n2\n")
    (tmp_path / "kf_new.tum").write_text(tum_line(0, 0, 0) + tum_line(1, 1, 0.1))
    (tmp_path / "gt.tum").write_text(
        tum_line(0, 0, 0) + tum_line(0.5, 0.5, 0.3) + tum_line(1, 1, 0.1)
    )
    inputs = {
        "correct": ["--kf-old", str(tmp_path / "traj.tum"),
                    "--kf-new", str(tmp_path / "kf_new.tum")],
        "evaluate": ["--gt", str(tmp_path / "gt.tum")],
    }[command]
    return [
        command, "--traj", str(tmp_path / "traj.tum"),
        "--kf-index", str(tmp_path / "kf_index.txt"), *inputs, "--out", str(tmp_path / "out"),
    ]


def csv_writer_of_repr(errors) -> bytes:
    """A per-frame error table as ``csv.writer`` rows of ``repr`` cells, the
    writer's reference form."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(("stamp", "index", "translation_cm", "rotation_deg"))
    writer.writerows(zip(
        map(repr, errors.stamps.tolist()),
        errors.indices.tolist(),
        map(repr, errors.translation_cm.tolist()),
        map(repr, errors.rotation_deg.tolist()),
    ))
    return text.getvalue().encode("utf-8")


def scalar_oracle_methods(scene_dir):
    """``evaluate.METHODS`` with every batched kernel but no-correction's
    pass-through replaced by a kernel that corrects one segment at a time
    through ``reference_correct``, the scalar reference of each method, on
    the keyframes of ``scene_dir``'s estimate snapped to its ground truth."""
    frames = trajio.read_tum(scene_dir / "est.tum")
    traj = from_world_poses(frames, trajio.read_keyframe_index(scene_dir / "kf_index.txt", frames))
    updates = update_rows(snap_to_gt(traj, trajio.read_tum(scene_dir / "gt.tum")))

    def scalar_kernel(batch, pairs, cfg):
        results = [reference_correct(batch, k, updates, cfg) for k in range(len(batch.index))]
        q, t = pose_arrays(pose for poses, _ in results for pose in poses)
        return q, t, columns_of([record for _, record in results])

    return {
        name: method if method.kernel is ev._unchanged else method._replace(kernel=scalar_kernel)
        for name, method in ev.METHODS.items()
    }


def make_update_files(sim_dir, out_dir):
    est = trajio.read_tum(sim_dir / "est.tum")
    gt = trajio.read_tum(sim_dir / "gt.tum")
    rows = [
        int(line)
        for line in (sim_dir / "kf_index.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    old = out_dir / "kf_old.tum"
    new = out_dir / "kf_new.tum"
    trajio.write_tum(old, [est[i] for i in rows])
    trajio.write_tum(new, [gt[i] for i in rows])
    return old, new


class TestSimulate:
    def test_outputs_written(self, sim_dir):
        for name in ("scene.txt", "gt.tum", "est.tum", "kf_index.txt", "config.json"):
            assert (sim_dir / name).exists()

    def test_deterministic_for_equal_seed(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main([
            "simulate", "--shape", "forward", "--seed", "5", "--drift", "1.0",
            "--out", str(out2),
        ]) == 0
        for name in ("scene.txt", "gt.tum", "est.tum", "kf_index.txt"):
            assert (sim_dir / name).read_bytes() == (out2 / name).read_bytes()


class TestCorrect:
    def test_identity_update_reproduces_input(self, sim_dir, tmp_path):
        old, _ = make_update_files(sim_dir, tmp_path)
        out = tmp_path / "corr"
        code = main([
            "correct", "--traj", str(sim_dir / "est.tum"),
            "--kf-index", str(sim_dir / "kf_index.txt"),
            "--kf-old", str(old), "--kf-new", str(old),
            "--methods", "proposed", "--out", str(out),
        ])
        assert code == 0
        original = trajio.read_tum(sim_dir / "est.tum")
        corrected = trajio.read_tum(out / "corrected.tum")
        for (fa, pa), (fb, pb) in zip(original, corrected):
            assert abs(fa.stamp - fb.stamp) < 1e-9
            assert np.linalg.norm(pa.translation - pb.translation) < 1e-9
            assert rotation_angle_deg_scalar(pa.rotation, pb.rotation) < 1e-9

    def test_keyframe_in_one_update_file_names_the_other(self, sim_dir, tmp_path, capsys):
        old, new = make_update_files(sim_dir, tmp_path)
        kf_stamp = trajio.read_tum(old).stamps[-1]
        short = tmp_path / "short.tum"
        trajio.write_tum(short, trajio.read_tum(old)[:-1])
        for kf_old, kf_new, missing in ((old, short, "--kf-new"), (short, new, "--kf-old")):
            assert main([
                "correct", "--traj", str(sim_dir / "est.tum"),
                "--kf-index", str(sim_dir / "kf_index.txt"),
                "--kf-old", str(kf_old), "--kf-new", str(kf_new), "--out", str(tmp_path / "x"),
            ]) == 2
            assert f"t={kf_stamp:.6f} has no match in {missing}" in capsys.readouterr().err

    def test_diagnostics_written(self, sim_dir, tmp_path):
        old, new = make_update_files(sim_dir, tmp_path)
        out = tmp_path / "corr2"
        assert main([
            "correct", "--traj", str(sim_dir / "est.tum"),
            "--kf-index", str(sim_dir / "kf_index.txt"),
            "--kf-old", str(old), "--kf-new", str(new),
            "--methods", "proposed", "--out", str(out),
        ]) == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("segment,terminal,s,")
        assert len(lines) == 1 + 8  # 7 full segments + terminal

    def test_missing_keyframe_file_exit_two(self, sim_dir, tmp_path, capsys):
        code = main([
            "correct", "--traj", str(sim_dir / "est.tum"),
            "--kf-index", str(sim_dir / "kf_index.txt"),
            "--kf-old", "/does/not/exist.tum", "--kf-new", str(sim_dir / "gt.tum"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "/does/not/exist.tum" in capsys.readouterr().err

    def test_multiple_methods_rejected(self, sim_dir, tmp_path, capsys):
        code = main([
            "correct", "--traj", str(sim_dir / "est.tum"),
            "--kf-index", str(sim_dir / "kf_index.txt"),
            "--kf-old", str(sim_dir / "gt.tum"), "--kf-new", str(sim_dir / "gt.tum"),
            "--methods", "proposed,xyz", "--out", str(tmp_path / "x"),
        ])
        assert code == 2


class TestEvaluate:
    def test_gt_as_estimate_zero_report(self, sim_dir, tmp_path):
        out = tmp_path / "ev0"
        assert main([
            "evaluate", "--traj", str(sim_dir / "gt.tum"),
            "--gt", str(sim_dir / "gt.tum"),
            "--kf-index", str(sim_dir / "kf_index.txt"),
            "--methods", "all", "--out", str(out),
        ]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 7
        for row in rows:
            fields = row.split(",")
            assert float(fields[2]) < 1e-9  # t_mean_cm
            assert float(fields[5]) < 1e-9  # r_mean_deg

    def test_unknown_method_exit_two(self, sim_dir, tmp_path, capsys):
        code = main([
            "evaluate", "--traj", str(sim_dir / "est.tum"),
            "--gt", str(sim_dir / "gt.tum"),
            "--kf-index", str(sim_dir / "kf_index.txt"),
            "--methods", "bspline", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "bspline" in capsys.readouterr().err

    def test_malformed_input_exit_two_with_line(self, tmp_path, capsys):
        code = main([
            "evaluate", "--traj", str(DATA / "malformed.tum"),
            "--gt", str(DATA / "valid.tum"),
            "--kf-index", str(DATA / "valid.tum"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed.tum:3" in err

    def test_repeat_runs_byte_identical(self, sim_dir, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"run_{run}"
            assert main([
                "evaluate", "--traj", str(sim_dir / "est.tum"),
                "--gt", str(sim_dir / "gt.tum"),
                "--kf-index", str(sim_dir / "kf_index.txt"),
                "--methods", "all", "--out", str(out),
            ]) == 0
            outs.append(out)
        names = [p.name for p in outs[0].iterdir() if p.name != "config.json"]
        assert "report.csv" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


    @pytest.mark.parametrize("scene,extra", [
        ("sim", ()),
        ("sim", ("--trans-space", "se3-v", "--rot-space", "euler")),
        ("sim", ("--trans-space", "se3-v", "--rot-space", "so3")),
        ("singular", ("--raw-division",)),
        ("sim", ("--trans-space", "xyz", "--rot-space", "euler")),
        ("sim", ("--trans-space", "xyz", "--rot-space", "so3")),
        ("sim", ("--trans-space", "se3-v", "--rot-space", "quat")),
        ("sim", ("--scale-squared",)),
    ])
    def test_batched_kernels_match_scalar_oracles_byte_for_byte(
        self, sim_dir, singular_dir, tmp_path, monkeypatch, scene, extra
    ):
        scene_dir = sim_dir if scene == "sim" else singular_dir
        batched, scalar = tmp_path / "batched", tmp_path / "scalar"
        assert main(evaluate_args(scene_dir, batched, *extra)) == 0
        oracles = scalar_oracle_methods(scene_dir)
        assert sum(m.kernel is not ev.METHODS[n].kernel for n, m in oracles.items()) == 6
        monkeypatch.setattr(ev, "METHODS", oracles)
        assert main(evaluate_args(scene_dir, scalar, *extra)) == 0
        names = sorted(p.name for p in batched.iterdir() if p.name != "config.json")
        assert len(names) == 8
        assert names == sorted(p.name for p in scalar.iterdir() if p.name != "config.json")
        for name in names:
            assert (batched / name).read_bytes() == (scalar / name).read_bytes(), name

    @pytest.mark.parametrize("scene,extra", [
        ("sim", ()),
        ("sim", ("--trans-space", "se3-v", "--rot-space", "so3")),
        ("sim", ("--methods", "euler")),
        # euler is left out, as --raw-division stops it here; xyz, se3-v,
        # quat and so3 give nan cells.
        ("zero-yaw", ("--methods", "no-correction,xyz,se3-v,quat,so3,proposed", "--raw-division")),
    ])
    def test_frame_errors_files_equal_csv_writer_of_repr(
        self, sim_dir, tmp_path, monkeypatch, scene, extra
    ):
        written = []
        write = ev.write_frame_errors_csv

        def recording_write(files):
            files = list(files)
            written.extend(files)
            write(files)

        monkeypatch.setattr(ev, "write_frame_errors_csv", recording_write)
        if scene == "sim":
            argv = evaluate_args(sim_dir, tmp_path / "out", *extra)
        else:
            argv = [*zero_yaw_keyframes_args(tmp_path, "evaluate"), *extra]
        assert main(argv) == 0
        assert len(written) == len(list((tmp_path / "out").glob("frame_errors_*.csv")))
        for path, errors in written:
            assert path.read_bytes() == csv_writer_of_repr(errors), path.name
        if scene == "zero-yaw":
            assert b"nan" in written[1][0].read_bytes()

    def test_report_quotes_a_sequence_as_csv_writer_does(self, sim_dir, tmp_path):
        traj = tmp_path / 'e,"q".tum'
        traj.write_bytes((sim_dir / "est.tum").read_bytes())
        argv = evaluate_args(sim_dir, tmp_path / "out", "--methods", "proposed")
        argv[argv.index("--traj") + 1] = str(traj)
        assert main(argv) == 0
        rows = (tmp_path / "out" / "report.csv").read_bytes().split(b"\r\n")
        assert rows[1].startswith(b'"e,""q""",proposed,')
        assert list(csv.reader([rows[1].decode()]))[0][0] == 'e,"q"'

    def test_frame_errors_writer_shares_only_equal_columns(self, tmp_path):
        stamps, indices = np.array([0.5, -0.0, 2.0]), np.array([1, 2, 3])
        rng = np.random.default_rng(6)
        long = rng.normal(size=3 * floatfmt.BLOCK + 5) * 10.0 ** rng.integers(-6, 6, 1)
        limits = np.array([-1, 2**53 + 1, np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0])
        tables = [
            ev.FrameErrors(stamps, indices, np.array([math.inf, 0.0, 1e-300]),
                           np.array([math.nan, -math.inf, 3.0])),
            ev.FrameErrors(stamps, indices, np.array([-0.0, 0.0, 1e-300]),
                           np.array([math.nan, -math.inf, 3.0])),
            ev.FrameErrors(np.array([0.5, 0.0, 2.0]), indices, np.array([-0.0, 0.0, 1e-300]),
                           np.array([1.0, 2.0, 3.0])),
            ev.FrameErrors(stamps, np.array([1, 2, 4]), np.array([1.0, 2.0, 3.0]),
                           np.array([0.1, 0.2, 0.3])),
            ev.FrameErrors(stamps, indices, np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.2, 0.3])),
            ev.FrameErrors(stamps, indices, np.array([math.inf, 0.0, 1e-300]),
                           np.array([0.1, 0.2, 0.3])),
            # Files of other lengths: none, fewer and more rows than a block.
            ev.FrameErrors(np.empty(0), np.empty(0, np.int64), np.empty(0), np.empty(0)),
            ev.FrameErrors(limits * 0.5, limits, limits * 1e-3, np.array([0.1, 0.2, 0.3, 3.0, 0.0])),
            ev.FrameErrors(long, np.arange(len(long)) - 7, long[::-1].copy(), np.abs(long)),
            ev.FrameErrors(long[:-3], np.arange(len(long) - 3) - 7, long[:-3] * 2.0, long[3:]),
        ]
        files = [(tmp_path / f"{k}.csv", errors) for k, errors in enumerate(tables)]
        ev.write_frame_errors_csv(files)
        for path, errors in files:
            assert path.read_bytes() == csv_writer_of_repr(errors), path.name
        assert b"-9223372036854775808," in files[7][0].read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5)), min_size=1, max_size=6),
           st.data())
    def test_frame_errors_writer_equals_csv_writer_of_repr(self, tmp_path_factory, shapes, data):
        # Tables of any length; a pool of columns makes files share some.
        floats = st.floats(width=64) | st.sampled_from([0.0, -0.0, math.inf, math.nan])
        ints = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
        pool = {}

        def column(length, pick, elements, dtype):
            if (length, pick, dtype) not in pool:
                pool[length, pick, dtype] = np.array(
                    data.draw(st.lists(elements, min_size=length, max_size=length)), dtype=dtype)
            return pool[length, pick, dtype]

        tables = [
            ev.FrameErrors(column(n, k % 2, floats, float), column(n, 0, ints, np.int64),
                           column(n, k, floats, float), column(n, k // 2, floats, float))
            for n, k in shapes
        ]
        out = tmp_path_factory.mktemp("errors")
        files = [(out / f"{k}.csv", errors) for k, errors in enumerate(tables)]
        ev.write_frame_errors_csv(files)
        for path, errors in files:
            assert path.read_bytes() == csv_writer_of_repr(errors), path.name

    @pytest.mark.parametrize("extra,merged", [
        ((), ("xyz", "quat")),
        (("--trans-space", "se3-v"), ("se3-v", "quat")),
        (("--trans-space", "se3-v", "--rot-space", "euler"), ("se3-v", "euler")),
        (("--rot-space", "so3", "--raw-division"), ("xyz", "so3")),
    ])
    def test_evaluate_runs_each_kernel_config_once(self, sim_dir, tmp_path, monkeypatch,
                                                   extra, merged):
        # At any space pair one translation-space baseline and one
        # rotation-space baseline interpolate in the same two spaces.
        calls = []

        def counted(kernel):
            def run(batch, pairs, cfg):
                calls.append(cfg.name)
                return kernel(batch, pairs, cfg)
            return run

        wrapped = {kernel: counted(kernel) for kernel in {m.kernel for m in ev.METHODS.values()}}
        monkeypatch.setattr(ev, "METHODS", {
            name: method._replace(kernel=wrapped[method.kernel])
            for name, method in ev.METHODS.items()
        })
        assert main(evaluate_args(sim_dir, tmp_path / "out", *extra)) == 0
        assert calls == [name for name in ev.METHODS if name != merged[1]]
        first, second = ((tmp_path / "out" / f"frame_errors_{name}.csv").read_bytes()
                         for name in merged)
        assert first == second

    def test_failing_method_leaves_no_partial_output(self, tmp_path, capsys):
        # euler fails under --raw-division after no-correction, xyz and
        # se3-v succeeded; none of their files may be written.
        argv = [*zero_yaw_keyframes_args(tmp_path, "evaluate"), "--methods", "all", "--raw-division"]
        assert main(argv) == 2
        assert "method euler" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not list(out.glob("frame_errors_*.csv")) and not (out / "report.csv").exists()

    @pytest.mark.parametrize("command", ["correct", "evaluate"])
    def test_raw_division_infinite_euler_angle_exit_two(self, tmp_path, capsys, command):
        argv = [*zero_yaw_keyframes_args(tmp_path, command), "--methods", "euler"]
        assert main(argv) == 0
        assert main([*argv, "--raw-division"]) == 2
        err = capsys.readouterr().err
        assert "method euler" in err and "--raw-division" in err

    @pytest.mark.parametrize("command", ["correct", "evaluate"])
    def test_raw_division_nan_tangent_passes_without_float_warning(self, tmp_path, command):
        # The se(3)-v translation maps the NaN tangent of the unguarded
        # division through the left Jacobian; the NaN passes through
        # without a numpy floating-point warning, which the test
        # configuration turns into an error.
        argv = [*zero_yaw_keyframes_args(tmp_path, command), "--methods", "so3",
                "--trans-space", "se3-v", "--raw-division"]
        assert main(argv) == 0

    def test_raw_division_warns_of_non_finite_frames(self, singular_dir, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="posecorrect.evaluate"):
            assert main(evaluate_args(singular_dir, tmp_path / "raw", "--raw-division")) == 0
        warnings = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.WARNING]
        assert warnings == [
            f"method {name}: 90 of 90 corrected frames are not finite"
            for name in ("xyz", "se3-v", "euler", "quat", "so3")
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="posecorrect.evaluate"):
            assert main(evaluate_args(singular_dir, tmp_path / "guarded")) == 0
        assert not caplog.records


class TestBench:
    def test_timing_csv_equals_its_per_value_form(self, tmp_path, monkeypatch):
        stats = iter([ev.ErrorStats(0.1, 1e-17, 2.5, 30), ev.ErrorStats(-0.0, math.nan, 1e16, 7)])
        monkeypatch.setattr(ev, "bench", lambda *args, **kwargs: next(stats))
        out = tmp_path / "bench"
        assert main(["bench", "--methods", "proposed,so3", "--out", str(out)]) == 0
        want = "method,mean_ms,std_ms,median_ms,count\n" + "".join(
            f"{name},{s.mean!r},{s.std!r},{s.median!r},{s.count}\n"
            for name, s in zip(["proposed", "so3"], [ev.ErrorStats(0.1, 1e-17, 2.5, 30),
                                                     ev.ErrorStats(-0.0, math.nan, 1e16, 7)]))
        assert (out / "timing.csv").read_bytes() == want.encode()

    def test_timing_csv_written(self, tmp_path):
        out = tmp_path / "bench"
        assert main([
            "bench", "--methods", "proposed,so3", "--repetitions", "30",
            "--out", str(out),
        ]) == 0
        lines = (out / "timing.csv").read_text().splitlines()
        assert lines[0] == "method,mean_ms,std_ms,median_ms,count"
        assert len(lines) == 3
        med = float(lines[1].split(",")[3])
        assert 0.0 < med < 100.0

    def test_times_whole_trajectory_per_method(self, tmp_path, monkeypatch):
        # Every timed and warm-up call corrects the whole seeded 101-frame
        # trajectory through evaluate.correct_trajectory.
        calls = []
        correct_trajectory = ev.correct_trajectory

        def counted(traj, updates, cfg):
            calls.append((cfg.name, traj.frame_count))
            return correct_trajectory(traj, updates, cfg)

        monkeypatch.setattr(ev, "correct_trajectory", counted)
        out = tmp_path / "bench"
        assert main([
            "bench", "--methods", "no-correction,so3", "--repetitions", "4",
            "--out", str(out),
        ]) == 0
        warmup = inspect.signature(ev.bench).parameters["warmup"].default
        assert calls == [("no-correction", 101)] * (warmup + 4) + [("so3", 101)] * (warmup + 4)
        rows = (out / "timing.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["no-correction", "so3"]


class TestConfigPrecedence:
    def test_config_file_supplies_defaults_flags_override(self, sim_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"methods": "xyz", "assoc-tol": 0.02}))
        out = tmp_path / "ev_cfg"
        assert main([
            "evaluate", "--traj", str(sim_dir / "est.tum"),
            "--gt", str(sim_dir / "gt.tum"),
            "--kf-index", str(sim_dir / "kf_index.txt"),
            "--config", str(cfg_path),
            "--methods", "proposed",  # flag wins over config
            "--out", str(out),
        ]) == 0
        effective = json.loads((out / "config.json").read_text())
        assert effective["methods"] == "proposed"
        assert effective["assoc_tol"] == 0.02

    def test_effective_config_echoed(self, sim_dir, tmp_path):
        out = tmp_path / "ev_echo"
        assert main([
            "evaluate", "--traj", str(sim_dir / "est.tum"),
            "--gt", str(sim_dir / "gt.tum"),
            "--kf-index", str(sim_dir / "kf_index.txt"),
            "--out", str(out),
        ]) == 0
        effective = json.loads((out / "config.json").read_text())
        assert "threads" not in effective
        assert effective["trans_space"] == "xyz"

    def test_bad_config_json_exit_two(self, sim_dir, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        # The integer is past Python's 4,300-digit conversion limit.
        for text in ("{not json", '{"seed": 1' + "0" * 5000 + "}"):
            cfg_path.write_text(text)
            code = main([
                "evaluate", "--traj", str(sim_dir / "est.tum"),
                "--gt", str(sim_dir / "gt.tum"),
                "--kf-index", str(sim_dir / "kf_index.txt"),
                "--config", str(cfg_path),
                "--out", str(tmp_path / "x"),
            ])
            assert code == 2
            assert f"{cfg_path}: invalid JSON" in capsys.readouterr().err

    def test_config_not_utf8_exit_two_naming_file(self, sim_dir, tmp_path, capsys):
        cfg_path = tmp_path / "latin1.json"
        cfg_path.write_bytes(b'{"methods": "caf\xe9"}')
        code = main([*evaluate_args(sim_dir, tmp_path / "x"), "--config", str(cfg_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg_path}: invalid JSON" in err and "unexpected error" not in err


class TestLogging:
    def test_env_var_sets_level(self, tmp_path, monkeypatch, caplog):
        import logging

        monkeypatch.setenv("POSECORRECT_LOG", "INFO")
        with caplog.at_level(logging.INFO):
            assert main([
                "simulate", "--shape", "line", "--n-keyframes", "3",
                "--out", str(tmp_path / "logged"),
            ]) == 0
        assert any("wrote scene" in rec.message for rec in caplog.records)


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "posecorrect.cli", "simulate", "--shape", "line",
             "--n-keyframes", "3", "--out", str(tmp_path / "cli_sim")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "cli_sim" / "scene.txt").exists()

    def test_evaluate_does_not_import_numpy_ma(self, sim_dir, tmp_path):
        # np.median imports numpy.ma (about 1 MB of RSS) for its NaN check.
        script = (
            "import sys\n"
            "from posecorrect.cli import main\n"
            f"assert main({evaluate_args(sim_dir, tmp_path / 'ev')!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr

    @pytest.mark.parametrize("command", ["evaluate", "correct", "simulate"])
    def test_commands_do_not_import_csv(self, sim_dir, tmp_path, command):
        # Every text output goes through floatfmt.write_columns.
        argv = {
            "evaluate": evaluate_args(sim_dir, tmp_path / "ev"),
            "correct": ["correct", "--traj", str(sim_dir / "est.tum"),
                        "--kf-index", str(sim_dir / "kf_index.txt"),
                        "--kf-old", str(sim_dir / "est.tum"), "--kf-new", str(sim_dir / "gt.tum"),
                        "--out", str(tmp_path / "corr")],
            "simulate": ["simulate", "--drift", "1.0", "--out", str(tmp_path / "sim")],
        }[command]
        script = (
            "import sys\n"
            "from posecorrect.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('csv' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr

    def test_kitti_input_accepted(self, tmp_path):
        out = tmp_path / "ev_kitti"
        kf_path = tmp_path / "kf.txt"
        kf_path.write_text("0\n2\n")
        code = main([
            "evaluate", "--traj", str(DATA / "valid.kitti"),
            "--gt", str(DATA / "valid.kitti"),
            "--kf-index", str(kf_path),
            "--methods", "no-correction", "--out", str(out),
        ])
        assert code == 0


def readme_quick_start_commands():
    """Arguments of each ``posecorrect ...`` command in the README's quick
    start block, with backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("posecorrect ")]


class TestReadme:
    def test_quick_start_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = readme_quick_start_commands()
        assert commands
        for argv in commands:
            assert main(argv) == 0, argv


class TestInputValidation:
    """Out-of-range flags and bad input files exit 2 and name the flag or
    the file and line."""

    def evaluate(self, sim_dir, tmp_path, *extra, traj=None, kf_index=None):
        return main([
            "evaluate", "--traj", str(traj or sim_dir / "est.tum"),
            "--gt", str(sim_dir / "gt.tum"),
            "--kf-index", str(kf_index or sim_dir / "kf_index.txt"),
            "--out", str(tmp_path / "x"), *extra,
        ])

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_assoc_tol_out_of_range(self, sim_dir, tmp_path, capsys, value):
        assert self.evaluate(sim_dir, tmp_path, "--assoc-tol", value) == 2
        assert "--assoc-tol" in capsys.readouterr().err

    def test_assoc_tol_from_config_checked_too(self, sim_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"assoc-tol": -0.5}))
        assert self.evaluate(sim_dir, tmp_path, "--config", str(cfg_path)) == 2
        assert "--assoc-tol" in capsys.readouterr().err

    def test_evaluate_repeated_method_rejected(self, sim_dir, tmp_path, capsys):
        assert self.evaluate(sim_dir, tmp_path, "--methods", "proposed,proposed,xyz") == 2
        err = capsys.readouterr().err
        assert "--methods" in err and "'proposed'" in err
        assert not (tmp_path / "x").exists()

    def test_bench_repeated_method_rejected(self, tmp_path, capsys):
        out = tmp_path / "bench_twice"
        assert main(["bench", "--methods", "so3,proposed,so3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--methods" in err and "'so3'" in err
        assert not out.exists()

    def test_bench_repetitions_zero_rejected(self, tmp_path, capsys):
        out = tmp_path / "bench0"
        cfg_path = tmp_path / "cfg.json"
        # An integer past 1e308 is compared as an integer, not converted.
        for value in ("0", "1" + "0" * 400):
            assert main(["bench", "--repetitions", value, "--out", str(out)]) == 2
            assert "--repetitions" in capsys.readouterr().err
            cfg_path.write_text(f'{{"repetitions": {value}}}')
            assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 2
            assert "--repetitions" in capsys.readouterr().err
        assert not (out / "timing.csv").exists()

    @pytest.mark.parametrize(
        "cfg, key",
        [({"methods": 5}, "'methods'"), ({"rot-space": "bogus"}, "'rot-space'"),
         ({"scale-squared": "no"}, "'scale-squared'"),
         ({"assoc-tol": 10**400}, "'assoc-tol'")],  # an integer no float holds
    )
    def test_config_values_checked_like_flags(self, sim_dir, tmp_path, capsys, cfg, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert self.evaluate(sim_dir, tmp_path, "--config", str(cfg_path)) == 2
        assert key in capsys.readouterr().err

    def test_config_keys_of_other_subcommands_ignored(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 7, "methods": 5, "rot-space": "bogus"}))
        out = tmp_path / "sim_cfg"
        assert main([
            "simulate", "--shape", "line", "--n-keyframes", "3",
            "--config", str(cfg_path), "--out", str(out),
        ]) == 0
        effective = json.loads((out / "config.json").read_text())
        assert effective["seed"] == 7 and "methods" not in effective

    @pytest.mark.parametrize(
        "command, flag",
        [("evaluate", "--seed"), ("correct", "--seed"), ("simulate", "--methods"),
         ("simulate", "--threads"), ("bench", "--assoc-tol"), ("bench", "--seed"),
         ("evaluate", "--threads"), ("correct", "--threads")],
    )
    def test_flag_a_subcommand_does_not_read_rejected(self, sim_dir, tmp_path, capsys,
                                                      command, flag):
        inputs = {
            "evaluate": ["--traj", str(sim_dir / "est.tum"), "--gt", str(sim_dir / "gt.tum"),
                         "--kf-index", str(sim_dir / "kf_index.txt")],
            "correct": ["--traj", str(sim_dir / "est.tum"), "--kf-index",
                        str(sim_dir / "kf_index.txt"), "--kf-old", str(sim_dir / "gt.tum"),
                        "--kf-new", str(sim_dir / "gt.tum")],
        }.get(command, [])
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, flag, "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--n-keyframes", "1", "n_keyframes"), ("--n-keyframes", "0", "n_keyframes"),
         ("--rels-per-segment", "-1", "rels_per_segment"), ("--drift", "nan", "--drift"),
         ("--pixel-noise", "nan", "pixel_noise"), ("--n-landmarks", "-5", "n_landmarks"),
         ("--n-landmarks", "0", "n_landmarks"), ("--seed", "-1", "seed"),
         # Past float range: the sizes are compared as integers.
         ("--n-keyframes", "9" * 400, "n_keyframes"),
         ("--rels-per-segment", "9" * 400, "rels_per_segment"),
         ("--n-landmarks", "9" * 400, "n_landmarks"),
         # In range, but petabytes of array: numpy refuses them before allocating.
         ("--n-keyframes", "1" + "0" * 15, "--n-keyframes"),
         ("--rels-per-segment", "1" + "0" * 15, "--rels-per-segment"),
         ("--n-landmarks", "1" + "0" * 15, "--n-landmarks"),
         # Finite, but the estimate's rotation offsets overflow to an infinite angle.
         ("--drift", "1e160", "--drift")],
    )
    def test_simulate_out_of_range_flags(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "sim_bad"
        assert main(["simulate", flag, value, "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_large_finite_drift_writes_a_finite_estimate(self, tmp_path):
        # Below the overflow that --drift 1e160 meets, the estimate is written.
        out = tmp_path / "sim_far"
        assert main(["simulate", "--drift", "1e154", "--out", str(out)]) == 0
        est = trajio.read_tum(out / "est.tum")
        assert len(est) == len(trajio.read_tum(out / "gt.tum"))
        assert np.isfinite(est.q).all() and np.isfinite(est.t).all()

    def test_overflowing_drift_fails_with_the_error_simulate_reports(self):
        # simulate turns exactly this error into exit 2 and re-raises any other.
        frames = trajio.read_tum(DATA / "valid.tum")
        with np.errstate(over="ignore"), pytest.raises(ValueError) as info:
            fixtures.displaced_estimate(frames, [0], seed=0, magnitude=1e160)
        assert str(info.value) == "math domain error"

    def test_non_finite_estimate_names_file_and_line(self, sim_dir, tmp_path, capsys):
        lines = (sim_dir / "est.tum").read_text().splitlines()
        fields = lines[3].split()
        fields[1] = "nan"
        lines[3] = " ".join(fields)
        est = tmp_path / "est_nan.tum"
        est.write_text("\n".join(lines) + "\n")
        assert self.evaluate(sim_dir, tmp_path, traj=est) == 2
        assert "est_nan.tum:4" in capsys.readouterr().err

    def test_repeated_keyframe_names_file_and_line(self, sim_dir, tmp_path, capsys):
        kf_index = tmp_path / "kf_dup.txt"
        text = (sim_dir / "kf_index.txt").read_text()
        first = next(line for line in text.splitlines() if not line.startswith("#"))
        kf_index.write_text(text + first + "\n")
        line = len(text.splitlines()) + 1
        assert self.evaluate(sim_dir, tmp_path, kf_index=kf_index) == 2
        assert f"kf_dup.txt:{line}" in capsys.readouterr().err


# Every input role of ``correct`` and ``evaluate``, with the ten-frame files
# that fill the roles a run does not vary.
ROLES = {
    "correct": {"--traj": "tabs.tum", "--kf-index": "ten_frames_kf_index.txt",
                "--kf-old": "tabs.tum", "--kf-new": "crlf.tum"},
    "evaluate": {"--traj": "tabs.tum", "--kf-index": "ten_frames_kf_index.txt",
                 "--gt": "crlf.tum"},
}
SWEEP = [(command, role, path.name) for command, roles in ROLES.items() for role in roles
         for path in sorted(DATA.iterdir())]
SWEEP_IDS = [f"{command}-{role[2:]}-{name}" for command, role, name in SWEEP]


def reflected_kitti(path, rotation: str, comment: bool) -> int:
    """A copy of the ten-frame ``crlf.kitti`` at ``path`` whose fifth frame
    has the rotation block ``rotation`` (row-major), with a comment line
    before each frame when ``comment`` (so only the line reader takes it);
    returns the line of that frame."""
    lines = (DATA / "crlf.kitti").read_text().splitlines()
    fields = lines[4].split()
    fields[0:3], fields[4:7], fields[8:11] = (rotation.split()[k:k + 3] for k in (0, 3, 6))
    lines[4] = " ".join(fields)
    if comment:
        lines = [text for line in lines for text in ("# frame", line)]
    path.write_text("\n".join(lines) + "\n")
    return 10 if comment else 5


def overflow_ladder(d: Path, fmt: str, tx: str, comment: bool) -> int:
    """The 91-frame ``mav`` inputs of ``scripts/bench_record.py``'s ladder in
    ``d``, with the estimate as ``est.tum`` or ``est.kitti`` (and the ground
    truth in the same format) whose fourth data line has the translation x
    field ``tx``; with ``comment`` a comment line follows the first data
    line, so that only the line reader takes the estimate.  Returns the line
    of the edited frame."""
    spec = SceneSpec(shape="mav", n_keyframes=10, rels_per_segment=9, seed=0)
    gt = path_world_poses(spec)
    positions = keyframe_positions(spec)
    est = fixtures.displaced_estimate(gt, positions, seed=0)
    write = trajio.write_tum if fmt == "tum" else trajio.write_kitti
    write(d / f"est.{fmt}", est)
    write(d / f"gt.{fmt}", gt)
    trajio.write_tum(d / "kf_old.tum", est.take(positions))
    trajio.write_tum(d / "kf_new.tum", gt.take(positions))
    (d / "kf_index.txt").write_text("".join(f"{i}\n" for i in gt.indices[positions].tolist()))
    lines = (d / f"est.{fmt}").read_text().splitlines()
    header = int(fmt == "tum")
    fields = lines[header + 3].split()
    fields[1 if fmt == "tum" else 3] = tx
    lines[header + 3] = " ".join(fields)
    if comment:
        lines.insert(header + 1, "# a comment between data lines")
    (d / f"est.{fmt}").write_text("\n".join(lines) + "\n")
    return header + 4 + comment


def output_digest(out: Path) -> str:
    """sha256 of the names and bytes of the files in ``out`` but
    ``config.json``, which echoes the paths."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "config.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# The outputs of each command on the ladder input with tx = 1e150, as the
# readers before the overflow check wrote them; either reader gives them.
OVERFLOW_DIGESTS = {
    ("tum", "correct"): "30ec7179192ca9112f6e415346720bc164528be7004c04dfdf21c216e61ee849",
    ("tum", "evaluate"): "150c3266b967f28ce8a00a89ffd6ad8ed99f6623eb3516b91232cf84152eb44c",
    ("kitti", "correct"): "2e32d7504721d73010666d47ca8dab5977b5e96a73953453f1a9031bfe7badec",
    ("kitti", "evaluate"): "0ebb8d724aa9e3c4a3b9e0f3ec05688b9792be6b66fdb263beb2bff23ff21fa9",
}


class TestExitCodes:
    """No input file makes ``correct`` or ``evaluate`` exit other than 0 or
    2, and a parse error names the file and its line."""

    @pytest.mark.parametrize("command,role,name", SWEEP, ids=SWEEP_IDS)
    def test_every_data_file_in_every_role(self, tmp_path, capsys, monkeypatch, command, role,
                                           name):
        raised = []
        init = trajio.TrajectoryParseError.__init__

        def recording_init(self, path, line, message):
            init(self, path, line, message)
            raised.append(self)

        monkeypatch.setattr(trajio.TrajectoryParseError, "__init__", recording_init)
        inputs = {**ROLES[command], role: name}
        argv = [command, *(a for flag, file in inputs.items() for a in (flag, str(DATA / file)))]
        code = main([*argv, "--methods", "proposed", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert "unexpected error" not in err
        reported = [exc for exc in raised if err == f"posecorrect: error: {exc}\n"]
        if reported:
            exc = reported[0]
            assert exc.path in {str(DATA / file) for file in inputs.values()} and exc.line >= 1
            assert f"{exc.path}:{exc.line}: " in err

    @pytest.mark.parametrize("comment", [False, True], ids=["loadtxt", "line reader"])
    @pytest.mark.parametrize("command", ["correct", "evaluate"])
    @pytest.mark.parametrize("fmt", ["tum", "kitti"])
    @pytest.mark.parametrize("tx", ["1e150", "1e160"])
    def test_translation_whose_length_overflows_exit_two_naming_line(
        self, tmp_path, capsys, tx, fmt, command, comment
    ):
        # Past about 1.3e154 the squared length of a translation overflows,
        # and with it the distances of the proposed correction's blend
        # factor.  Below that the outputs stay as they were.
        line = overflow_ladder(tmp_path, fmt, tx, comment)
        est = tmp_path / f"est.{fmt}"
        assert (trajio._fast_rows(est, 8 if fmt == "tum" else 12)[0] is None) == comment
        argv = [command, "--traj", str(est), "--kf-index", str(tmp_path / "kf_index.txt"),
                "--out", str(tmp_path / "out")]
        if command == "correct":
            argv += ["--kf-old", str(tmp_path / "kf_old.tum"), "--kf-new", str(tmp_path / "kf_new.tum")]
        else:
            argv += ["--gt", str(tmp_path / f"gt.{fmt}"), "--methods", "all"]
        code = main(argv)
        err = capsys.readouterr().err
        if tx == "1e150":
            assert code == 0, err
            assert output_digest(tmp_path / "out") == OVERFLOW_DIGESTS[fmt, command]
        else:
            assert code == 2
            assert err == (f"posecorrect: error: {est}:{line}: "
                           f"{trajio.TRANSLATION_OVERFLOW}\n")

    @pytest.mark.parametrize("comment", [False, True], ids=["loadtxt", "line reader"])
    @pytest.mark.parametrize("rotation", ["1 0 0 0 1 0 0 0 -1", "0 1 0 1 0 0 0 0 1.000001"],
                             ids=["exact", "near"])
    def test_reflection_exit_two_naming_line(self, tmp_path, capsys, rotation, comment):
        path = tmp_path / "reflected.kitti"
        line = reflected_kitti(path, rotation, comment)
        assert (trajio._fast_rows(path, 12)[0] is None) == comment
        code = main(["correct", "--traj", str(path), "--kf-index",
                     str(DATA / "ten_frames_kf_index.txt"), "--kf-old", str(path),
                     "--kf-new", str(DATA / "crlf.kitti"), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}:{line}: rotation block has a negative determinant" in err

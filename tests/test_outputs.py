"""How artifacts reach disk: every file is replaced whole, ``run`` writes its
manifest last, and ``analyze`` computes everything before it writes.

The fault-injection test makes ``os.replace`` fail on the n-th call of a
session of all four commands, for every n, and checks what each failure
leaves behind.
"""

import contextlib
import errno
import io
import os
import shutil
import stat

import pytest

from fedceo import errors
from fedceo.cli import main
from fedceo.errors import DegenerateGradient, write_file

CONFIG = """\
n_total = 6
k_selected = 3
rounds = 2
local_epochs = 1
batch = 16
algorithm = fedceo
interval = 1
eval_every = 2
data.classes = 3
data.dim = 5
data.samples = 120
seed = {seed}
"""

RUN_FILES = ("metrics.csv", "final_model.t3r", "run_manifest.json")
ANALYZE_FILES = ("heatmap.csv", "spectra.csv", "attack_report.json")
GEN_DATA = ["--classes=3", "--dim=2", "--samples=30", "--seed={seed}"]


def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        return main(argv), err.getvalue()


def session(root, seed):
    """The four commands, in order, with their --out under ``root``."""
    config = root / f"seed{seed}.cfg"
    config.write_text(CONFIG.format(seed=seed))
    return [
        ("run", ["run", "--config", str(config), "--out", str(root / "run"),
                 "--threads", "1"]),
        ("analyze", ["analyze", "--run", str(root / "run")]),
        ("sweep", ["sweep", "--config", str(config), "--axis", "dp.sigma",
                   "--values", "0.5", "--seeds", str(seed), "--out", str(root / "sweep")]),
        ("gen-data", ["gen-data", "--out", str(root / "data.ds"),
                      *(flag.format(seed=seed) for flag in GEN_DATA)]),
    ]


def snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    """An earlier session (seed 0), and the files a later one (seed 1) adds
    or replaces when nothing fails."""
    earlier = tmp_path_factory.mktemp("earlier")
    for _, argv in session(earlier, 0):
        assert quiet(argv)[0] == 0
    later = tmp_path_factory.mktemp("later")
    shutil.copytree(earlier, later, dirs_exist_ok=True)
    for _, argv in session(later, 1):
        assert quiet(argv)[0] == 0
    old, new = snapshot(earlier), snapshot(later)
    assert all(old[f"run/{name}"] != new[f"run/{name}"] for name in RUN_FILES + ANALYZE_FILES)
    return earlier, old, new


# Calls of os.replace per command: run 3, analyze 3, sweep 1, gen-data 1.
REPLACES = [("run", 3), ("analyze", 3), ("sweep", 1), ("gen-data", 1)]
CALLS = sum(count for _, count in REPLACES)


def failing_command(fail_at):
    """The command that makes the ``fail_at``-th call, or None."""
    end = 0
    for label, count in REPLACES:
        end += count
        if fail_at <= end:
            return label
    return None


@pytest.mark.parametrize("fail_at", range(1, CALLS + 2))
def test_a_failed_replace_leaves_only_whole_files(tmp_path, monkeypatch, sessions, fail_at):
    earlier, old, new = sessions
    shutil.copytree(earlier, tmp_path, dirs_exist_ok=True)
    calls = []
    real_replace = os.replace

    def faulty(src, dst):
        calls.append(dst)
        if len(calls) == fail_at:
            raise OSError(errno.ENOSPC, "No space left on device", dst)
        real_replace(src, dst)

    monkeypatch.setattr(errors.os, "replace", faulty)
    codes = {}
    for label, argv in session(tmp_path, 1):
        codes[label] = quiet(argv)
        if codes[label][0] != 0:
            break
    monkeypatch.undo()

    # The command that made the failing call exits 2, those before it exit
    # 0, and the session stops there.
    failing = failing_command(fail_at)
    labels = [label for label, _ in REPLACES]
    assert list(codes) == (labels if failing is None else labels[:labels.index(failing) + 1])
    for label, (code, err) in codes.items():
        assert code == (2 if label == failing else 0), (label, err)
        if code == 2:
            assert "No space left on device" in err

    now = snapshot(tmp_path)
    assert not [name for name in now if name.endswith(".tmp")]
    # Every file is whole: its earlier bytes or the later session's.
    for name, blob in now.items():
        assert blob in (old.get(name), new.get(name)), name
    # A manifest sits only beside the two files of its own run.
    if "run/run_manifest.json" in now:
        assert all(now[f"run/{name}"] == new[f"run/{name}"] for name in RUN_FILES)
    else:
        assert failing == "run"
    # analyze writes its files in order, each replaced whole: those before
    # the failing call are new, the rest are the earlier ones.
    done = {name for name in ANALYZE_FILES if now[f"run/{name}"] == new[f"run/{name}"]}
    if failing == "run":
        assert not done
    elif failing == "analyze":
        assert done == set(ANALYZE_FILES[:fail_at - 4])  # run makes calls 1-3
    else:
        assert done == set(ANALYZE_FILES)


def test_a_second_run_that_fails_to_save_its_model_leaves_no_manifest(
        tmp_path, monkeypatch):
    from fedceo import tensor

    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(seed=0))
    out = tmp_path / "run"
    assert quiet(["run", "--config", str(cfg), "--out", str(out)])[0] == 0

    def no_space(path, tensors):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(tensor, "save_tensors", no_space)
    cfg.write_text(CONFIG.format(seed=1))
    code, err = quiet(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2, err
    assert not (out / "run_manifest.json").exists()


def test_analyze_that_fails_writes_nothing(tmp_path, monkeypatch):
    import fedceo.analysis as analysis_mod

    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(seed=0))
    run_dir, diag = tmp_path / "run", tmp_path / "diag"
    assert quiet(["run", "--config", str(cfg), "--out", str(run_dir)])[0] == 0
    before = snapshot(run_dir)

    def degenerate(last_w, seed):
        raise DegenerateGradient("all bias-gradient entries are below 1e-09")

    monkeypatch.setattr(analysis_mod, "_attack_report", degenerate)
    for out in ([], ["--out", str(diag)]):
        code, err = quiet(["analyze", "--run", str(run_dir), *out])
        assert code == 3 and err.startswith("numeric failure:"), err
    assert snapshot(run_dir) == before
    assert not diag.exists()


@pytest.mark.parametrize("umask", [0o022, 0o007])
def test_artifacts_get_the_usual_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        for _, argv in session(tmp_path, 0):
            assert quiet(argv)[0] == 0
    finally:
        os.umask(old)
    files = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".cfg"]
    assert len(files) == len(RUN_FILES + ANALYZE_FILES) + 2
    for path in files:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


def test_gen_data_refuses_an_existing_directory(tmp_path):
    target = tmp_path / "data.ds"
    target.mkdir()
    (target / "keep").write_text("kept\n")
    code, err = quiet(["gen-data", "--out", str(target), *GEN_DATA[:3]])
    assert code == 2
    assert err.startswith("config error:") and "not a regular file" in err
    assert [p.name for p in target.iterdir()] == ["keep"]
    assert (target / "keep").read_text() == "kept\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_write_file_refuses_a_named_pipe(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    with pytest.raises(OSError, match="not a regular file"):
        write_file(fifo, ["never written\n"])
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_symlinked_targets_are_updated_through_the_link(tmp_path):
    real = tmp_path / "elsewhere"
    real.mkdir()
    (real / "data.ds").write_text("old\n")
    (real / "run_manifest.json").write_text("{}\n")
    out = tmp_path / "run"
    out.mkdir()
    (tmp_path / "data.ds").symlink_to(real / "data.ds")
    (out / "run_manifest.json").symlink_to(real / "run_manifest.json")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(seed=0))

    assert quiet(["gen-data", "--out", str(tmp_path / "data.ds"), *GEN_DATA[:3]])[0] == 0
    assert quiet(["run", "--config", str(cfg), "--out", str(out)])[0] == 0
    for link in (tmp_path / "data.ds", out / "run_manifest.json"):
        assert link.is_symlink()
    assert (real / "data.ds").read_text().startswith("2 3 30\n")
    assert '"layer_shapes"' in (real / "run_manifest.json").read_text()
    assert sorted(os.listdir(real)) == ["data.ds", "run_manifest.json"]


def test_write_file_keeps_the_old_file_when_the_chunks_fail(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def chunks():
        yield "partial\n"
        raise ValueError("row 2 is bad")

    with pytest.raises(ValueError, match="row 2"):
        write_file(path, chunks())
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_write_file_takes_str_and_bytes_chunks(tmp_path):
    path = tmp_path / "mixed"
    write_file(path, ["abc", b"\x00\xff", "\n"])
    assert path.read_bytes() == b"abc\x00\xff\n"

import pytest

from suml.atomic import make_dirs, output_dir, write_atomic
from suml.exceptions import DatasetIOError


def test_write_atomic_replaces_the_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    write_atomic(target, lambda fh: fh.write("a\nb\n"))
    assert target.read_bytes() == b"a\nb\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_atomic_onto_a_directory_is_an_io_error(tmp_path):
    target = tmp_path / "dir"
    target.mkdir()
    with pytest.raises(DatasetIOError):
        write_atomic(target, lambda fh: fh.write("x"))
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]


def test_write_atomic_failure_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")

    def fail_midway(fh):
        fh.write("partial")
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_atomic(target, fail_midway)
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_make_dirs_under_a_file_is_an_io_error(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("")
    for path in (afile, afile / "sub"):
        with pytest.raises(DatasetIOError):
            make_dirs(path)


def test_output_dir_removes_only_the_directories_it_created(tmp_path):
    nested = tmp_path / "a" / "b"
    with pytest.raises(RuntimeError):
        with output_dir(nested):
            (nested / "metrics.jsonl").write_text("partial")
            raise RuntimeError("run failed")
    assert list(tmp_path.iterdir()) == []
    # a directory that was there before is left as it was
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "old.txt").write_text("old")
    with pytest.raises(RuntimeError):
        with output_dir(kept / "run"):
            raise RuntimeError("run failed")
    assert [p.name for p in kept.iterdir()] == ["old.txt"]
    with output_dir(kept / "run"):
        pass
    assert (kept / "run").is_dir()

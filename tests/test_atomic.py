import pytest

from suml.atomic import make_dirs, write_atomic
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

import pytest

from suml.atomic import dump_csv, make_dirs, output_dir, write_files
from suml.exceptions import DatasetIOError


def test_write_files_of_one_output_replaces_the_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    write_files([(target, lambda fh: fh.write("a\nb\n"))])
    assert target.read_bytes() == b"a\nb\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_files_of_one_output_onto_a_directory_is_an_io_error(tmp_path):
    target = tmp_path / "dir"
    target.mkdir()
    with pytest.raises(DatasetIOError):
        write_files([(target, lambda fh: fh.write("x"))])
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]


def test_write_files_of_one_output_failing_midway_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")

    def fail_midway(fh):
        fh.write("partial")
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_files([(target, fail_midway)])
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_files_fills_every_file_before_renaming_any(tmp_path):
    seen = []

    def write(text):
        def fill(fh):
            seen.append(sorted(p.name for p in tmp_path.iterdir()))
            fh.write(text)
        return fill

    write_files([(tmp_path / "a.txt", write("a")), (tmp_path / "b.txt", write("b"))])
    # b.txt is filled while a.txt is still a temp file
    assert seen == [["a.txt.tmp"], ["a.txt.tmp", "b.txt.tmp"]]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]
    assert (tmp_path / "b.txt").read_text() == "b"


def test_write_files_failing_to_rename_removes_the_files_already_renamed(tmp_path):
    (tmp_path / "c.txt").mkdir()  # the last rename fails
    outputs = [(tmp_path / name, lambda fh: fh.write("x")) for name in ("a.txt", "b.txt", "c.txt")]
    with pytest.raises(DatasetIOError, match="cannot write .*c.txt"):
        write_files(outputs)
    assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]


def test_write_files_failing_to_fill_a_file_leaves_none(tmp_path):
    def fail(fh):
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_files([(tmp_path / "a.txt", lambda fh: fh.write("a")), (tmp_path / "b.txt", fail)])
    with pytest.raises(DatasetIOError, match="cannot write .*/missing/b.txt"):
        write_files([(tmp_path / "a.txt", lambda fh: fh.write("a")),
                     (tmp_path / "missing" / "b.txt", lambda fh: fh.write("b"))])
    assert list(tmp_path.iterdir()) == []


def test_dump_csv_through_write_files_writes_the_header_then_the_rows(tmp_path):
    target = tmp_path / "out.csv"
    rows = ([i, repr(x), "a,b"] for i, x in enumerate([0.1, 1 / 3]))
    write_files([(target, lambda fh: dump_csv(["index", "value", "note"], rows, fh))])
    assert target.read_bytes() == (
        b'index,value,note\r\n0,0.1,"a,b"\r\n1,0.3333333333333333,"a,b"\r\n'
    )
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_dump_csv_rows_failing_midway_leave_no_file(tmp_path):
    target = tmp_path / "out.csv"

    def rows():
        yield [1, 2]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_files([(target, lambda fh: dump_csv(["a", "b"], rows(), fh))])
    assert list(tmp_path.iterdir()) == []


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

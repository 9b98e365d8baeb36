import ast
import os
import re
import stat
from pathlib import Path

import pytest

from paretopic.errors import DataError, output_file


class TestOutputFile:
    def test_raising_block_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError):
            with output_file(str(path)) as fh:
                fh.write("new contents\n")
                raise RuntimeError
        assert path.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_clean_block_replaces_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"previous\n")
        with output_file(str(path)) as fh:
            fh.write("café\r\nline\n")
        assert path.read_bytes() == "café\r\nline\n".encode("utf-8")  # no newline translation
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "out.txt"
        target.write_bytes(b"previous\n")
        link = tmp_path / "link.txt"
        link.symlink_to(os.path.join("data", "out.txt"))
        with output_file(str(link)) as fh:
            fh.write("new\n")
        assert link.is_symlink() and os.readlink(link) == os.path.join("data", "out.txt")
        assert target.read_bytes() == b"new\n"
        assert sorted(os.listdir(tmp_path)) == ["data", "link.txt"]
        assert os.listdir(tmp_path / "data") == ["out.txt"]

    def test_target_that_is_no_regular_file_is_refused(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)  # as a device such as /dev/null: renaming over it would replace it
        refusal = f"cannot write {fifo}: it is not a regular file"
        with pytest.raises(DataError, match=f"^{re.escape(refusal)}$"):
            with output_file(str(fifo)) as fh:
                fh.write("new\n")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["fifo"]

    def test_unwritable_temporary_file_names_the_given_path(self, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        refusal = f"cannot write {path}: No such file or directory"
        with pytest.raises(DataError, match=f"^{re.escape(refusal)}$"):
            with output_file(str(path)):
                pass


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether call is open(...) with a mode that writes, appends or creates; a mode
    that is not a string literal counts as one that writes."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and set(m.value) <= set("rbt")) for m in modes)


def test_only_errors_module_opens_files_for_writing():
    """Every output goes through errors.output_file, so no other module opens a file
    to write it."""
    src = Path(__file__).resolve().parent.parent / "src" / "paretopic"
    writers = sorted(f"{path.name}:{node.lineno}" for path in src.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Call) and _opens_for_writing(node))
    assert writers and all(w.startswith("errors.py:") for w in writers), writers

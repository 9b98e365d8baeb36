"""Shared exception types, mapped onto CLI exit codes; the readers of input files and
the one writer of output files."""
import json
import os
from contextlib import contextmanager


class ParetopicError(Exception):
    """Base class for all library errors."""


class ConfigError(ParetopicError):
    """Invalid configuration or arguments (CLI exit code 1)."""


class DataError(ParetopicError):
    """Bad input data: files, formats, vocabulary mismatches (CLI exit code 2)."""


class NumericError(ParetopicError):
    """Numeric failure at runtime: non-finite loss, zero norms (CLI exit code 3)."""


def read_lines(path: str, what: str) -> list[tuple[int, str]]:
    """(line number, line) of each nonblank line of the UTF-8 text file path, BOM or not."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()  # one read: line-by-line reading moves glibc's heap thresholds
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]


def read_json(path: str, what: str):
    """The JSON document in the UTF-8 text file path, BOM or not."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def output_file(path: str):
    """A UTF-8 text handle whose contents replace the file at path when the block ends.

    The handle writes to <name>.<pid>.tmp beside the target, renamed over it when the
    block exits cleanly and removed when anything raises, KeyboardInterrupt included:
    an interrupted process leaves the previous file, not a cut-short one. A symlinked
    path is written through to the file it names and stays a link. Lines end as the
    caller writes them (newline=""), so csv rows keep their CRLF. There is no fsync:
    this guards against an interrupted process, not a machine crash. A target that
    exists but is not a regular file (a device, a FIFO) is refused, so it is never
    renamed over.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise DataError(f"cannot write {path}: it is not a regular file")
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)

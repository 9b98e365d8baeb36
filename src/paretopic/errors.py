"""Shared exception types, mapped onto CLI exit codes, and the readers of input files."""
import json


class ParetopicError(Exception):
    """Base class for all library errors."""


class ConfigError(ParetopicError):
    """Invalid configuration or arguments (CLI exit code 1)."""


class DataError(ParetopicError):
    """Bad input data: files, formats, vocabulary mismatches (CLI exit code 2)."""


class NumericError(ParetopicError):
    """Numeric failure at runtime: non-finite loss, zero norms (CLI exit code 3)."""


def read_lines(path: str, what: str) -> list[tuple[int, str]]:
    """(line number, line) of each nonblank line of the UTF-8 text file path."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()  # one read: line-by-line reading moves glibc's heap thresholds
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]


def read_json(path: str, what: str):
    """The JSON document in the UTF-8 text file path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc

"""The package's file boundary: reading series CSV and writing output files.

``read_columns`` reads named numeric columns from a headed CSV.  The header
is parsed with the csv module and matched by stripped, lower-cased name;
other columns, such as a timestamp, are ignored.  The data rows are parsed
by one ``np.loadtxt`` call restricted to the named columns, which accepts
quoted numbers, CRLF line endings and blank lines.  Everything else is
rejected with a ValueError that names the file: a missing header or column,
no data rows, and, by column and data row (1-based, counting the rows that
hold data), a short row, an empty or non-numeric field (``#`` included:
there are no comment lines) and a NaN or infinite value.

``atomic_write`` makes an output file appear whole or not at all: it writes
a unique temporary file in the target's directory, flushes and fsyncs it,
and renames it onto the target; on any error the temporary file is removed
and the target is left as it was.
"""

from __future__ import annotations

import csv
import os
import tempfile
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

__all__ = ["read_columns", "atomic_write"]


def read_columns(path: str | Path, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    """The columns called ``names`` (lower-case; the header is matched
    case-insensitively) as float arrays, in the order given."""
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]), None)
        if not header:
            raise ValueError(f"{path}: missing CSV header")
        index = {name.strip().lower(): i for i, name in enumerate(header)}
        missing = [name for name in names if name not in index]
        if missing:
            raise ValueError(
                f"{path}: need column(s) {', '.join(missing)}, found {header}"
            )
        # np.loadtxt warns rather than raises on an empty body, so look for
        # a data row first; it skips only empty lines, as this check does.
        start = fh.tell()
        if all(line == "\n" for line in iter(fh.readline, "")):
            raise ValueError(f"{path}: no data rows")
        fh.seek(start)
        try:
            data = np.loadtxt(
                fh,
                delimiter=",",
                usecols=[index[name] for name in names],
                ndmin=2,
                comments=None,
                quotechar='"',
            )
        except ValueError as exc:
            fh.seek(start)
            raise ValueError(f"{path}: {_bad_field(fh, index, names) or exc}") from None
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(
            f"{path}: non-finite value {data[row, col]} in column "
            f"{names[col]} at data row {row + 1}"
        )
    # One C-contiguous array per column.
    return tuple(data.T.copy())


def _bad_field(lines, index: dict[str, int], names: Sequence[str]) -> str | None:
    """Where np.loadtxt failed, by this reader's count: the first short row
    or unparseable field in the named columns, with its 1-based data row."""
    row = 0
    for line in lines:
        if line == "\n":
            continue
        row += 1
        fields = next(csv.reader([line]))
        for name in names:
            where = f"in column {name} at data row {row}"
            if index[name] >= len(fields):
                return f"missing field {where}: the row has {len(fields)} field(s)"
            if not _is_number(fields[index[name]]):
                return f"could not convert {fields[index[name]]!r} to float {where}"
    return None


def _is_number(field: str) -> bool:
    # float() also takes underscores and non-ASCII digits; np.loadtxt does not.
    if not field.isascii() or "_" in field:
        return False
    try:
        float(field)
    except ValueError:
        return False
    return True


def atomic_write(path: str | Path, write_fn: Callable[[TextIO], object]) -> None:
    """Call ``write_fn`` on a text handle and make the result ``path``.

    The handle writes newlines untranslated.  The file gets the permissions
    a plain ``open`` would give it, not mkstemp's owner-only mode.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            os.chmod(tmp, 0o666 & ~_umask())
            write_fn(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _umask() -> int:
    # The umask can only be read by setting it.  For the two syscalls in
    # between, the owner-only mask keeps another thread's new files private.
    mask = os.umask(0o077)
    os.umask(mask)
    return mask

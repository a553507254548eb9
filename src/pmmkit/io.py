"""The package's file boundary: series CSV, JSON documents and output files.

``read_columns`` reads named numeric columns from a headed CSV.  The header
is parsed with the csv module and matched by stripped, lower-cased name;
other columns, such as a timestamp, are ignored.  The data rows are parsed
by one ``np.loadtxt`` call restricted to the named columns, which accepts
quoted numbers, CRLF line endings and blank lines.  Everything else is
rejected with a ValueError that names the file: a missing header or column,
a named column that the header holds twice, no data rows, and, by column
and data row (1-based, counting the rows that hold data), a short row, an
empty or non-numeric field (``#`` included: there are no comment lines)
and a NaN or infinite value.

``atomic_write`` makes an output file appear whole or not at all: it writes
a unique temporary file in the target's directory, flushes and fsyncs it,
and renames it onto the target; on any error the temporary file is removed
and the target is left as it was.

JSON documents (parameter files, fitted models and the CLI's summaries)
are read by ``read_json``, which raises a ValueError naming the file for a
document that does not parse, and written by ``write_json``, which never
writes NaN or Infinity.  ``finite_number`` is the one rule for a number in
a document: a finite real number, so not a string, a boolean, null, NaN,
an infinity or an integer too large for a float.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, TextIO

if TYPE_CHECKING:
    import numpy as np

__all__ = ["read_columns", "atomic_write", "read_json", "write_json", "finite_number"]


def read_columns(path: str | Path, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    """The columns called ``names`` (lower-case; the header is matched
    case-insensitively) as float arrays, in the order given."""
    import csv  # here, like numpy, so that the rest of the package's I/O loads neither
    import numpy as np

    with open(path) as fh:
        header = next(csv.reader([fh.readline()]), None)
        if not header:
            raise ValueError(f"{path}: missing CSV header")
        keys = [name.strip().lower() for name in header]
        index = {key: i for i, key in enumerate(keys)}
        missing = [name for name in names if name not in index]
        if missing:
            raise ValueError(
                f"{path}: need column(s) {', '.join(missing)}, found {header}"
            )
        repeated = [name for name in names if keys.count(name) > 1]
        if repeated:
            raise ValueError(
                f"{path}: column {repeated[0]} is named more than once in {header}"
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
    import csv
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


def read_json(path: str | Path):
    """The JSON document in ``path``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # RecursionError: a document nested too deeply for the parser.
            raise ValueError(f"{path}: {exc}") from None


def write_json(fh: TextIO, doc) -> None:
    """Write ``doc`` indented, with a trailing newline; a NaN or an
    infinity raises ValueError before anything is written."""
    fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def finite_number(value) -> float | None:
    """``value`` as a float if it is a finite real number, else None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None

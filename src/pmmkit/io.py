"""The package's file boundary: series CSV, JSON documents and output files.

``read_columns`` reads named numeric columns from a headed CSV, as UTF-8
with any leading byte-order mark ignored.  The header is parsed with the
csv module and matched by stripped, lower-cased name; other columns, such
as a timestamp, are ignored.  The data rows are parsed from the file's
path by one ``np.loadtxt`` call restricted to the named columns, which
reads a path in blocks where it reads an open file a line at a time, and
accepts quoted numbers, CRLF line endings and blank lines.  Everything else
is rejected with a ValueError that names the file: a missing header or
column, a named column that the header holds twice, no data rows, and, by
column and data row (1-based, counting the rows that hold data), a short
row, an empty or non-numeric field (``#`` included: there are no comment
lines) and a NaN or infinite value.  Because numpy opens a path by its
suffix, a name ending in one of COMPRESSED_SUFFIXES is refused, and so is
a file that another one replaced between the header's read and the body's.

``atomic_write`` makes an output file appear whole or not at all: it writes
a unique temporary file in the target's directory, flushes and fsyncs it,
and renames it onto the target; on any error the temporary file is removed
and the target is left as it was.

JSON documents (parameter files, fitted models and the CLI's summaries)
are read by ``read_json``, as UTF-8 with any leading byte-order mark
ignored, which raises a ValueError naming the file for a document that
does not parse, and written by ``write_json``, which never writes NaN or
Infinity.  ``finite_number`` is the one rule for a number in a document:
a finite real number, so not a string, a boolean, null, NaN, an infinity
or an integer too large for a float.

Every CSV the package writes goes through this module, so one rule prints
its numbers: an int or a str as ``str`` prints it, anything else as
``%.12e``.  ``write_rows`` formats rows of Python values without numpy, a
block of WRITE_ROWS rows by one ``%`` operation.  ``write_numbered_floats``
writes float64 arrays behind a row number, laying each block out as bytes
with numpy: for a value v it takes e = floor(log10|v|), s = |v| * 10**(12 -
e) with a correctly rounded power of ten, and the 13 digits of M = rint(s).
Two roundings of relative error at most 2**-53 each keep s within 2.3e-3 of
the exact decimal value while s < 1e13, so wherever |frac(s) - 0.5| > 0.005
and 1e12 <= M < 1e13, M is the correctly rounded mantissa and e the printed
exponent; a wrong e, or a carry into the next decade, puts M outside that
range.  The values that fail this rule (ties and near-ties, decade
carries, zeros: about 1% of a simulated path) are formatted by Python's
``%``, and a block holding a non-finite value or a nonzero one outside
1e-99 <= |v| < 1e99 (a possible three-digit exponent) by ``write_rows``'s
formatter.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import tempfile
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TextIO

if TYPE_CHECKING:
    import numpy as np

__all__ = ["read_columns", "atomic_write", "read_json", "write_json", "finite_number",
           "write_rows", "write_numbered_floats"]

# Rows formatted together by the CSV writers: 3e5 trajectory rows took 52 ms
# at this size, 56-67 ms at 4096 and 56-61 ms at 32768 on a 2-vCPU Xeon VM.
WRITE_ROWS = 16384

# The suffixes numpy's loadtxt decompresses a path by: the keys of
# np.lib._datasource._file_openers other than None, which this must track.
COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_columns(path: str | Path, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    """The columns called ``names`` (lower-case; the header is matched
    case-insensitively) as float arrays, in the order given.

    The header is read through an open handle and the body parsed from the
    path by ``np.loadtxt`` (see the module docstring)."""
    import csv  # here, like numpy, so that the rest of the package's I/O loads neither
    import numpy as np

    if os.path.splitext(path)[1] in COMPRESSED_SUFFIXES:
        raise ValueError(f"{path}: compressed input is not read; decompress it first")
    with open(path, encoding="utf-8-sig") as fh:
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
        # An absolute name, so that a relative one such as a://series.csv
        # is not taken for a URL, joined without normalising, so that the
        # OS resolves it as it resolved path: link/../x follows the link.
        source = os.path.join(os.getcwd(), os.fspath(path))
        try:
            data = np.loadtxt(
                source,
                delimiter=",",
                skiprows=1,
                usecols=[index[name] for name in names],
                ndmin=2,
                comments=None,
                quotechar='"',
                encoding="utf-8-sig",
            )
        except (ValueError, OSError) as exc:
            error = exc
        else:
            error = None
        # numpy opened source again: it must still name the file read here.
        try:
            same = os.path.samestat(os.fstat(fh.fileno()), os.stat(source))
        except OSError:
            same = False
        if not same:
            raise ValueError(f"{path}: the file was replaced while it was read")
        if isinstance(error, OSError):
            raise error
        if error is not None:
            fh.seek(start)
            raise ValueError(f"{path}: {_bad_field(fh, index, names) or error}") from None
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
    """The JSON document in ``path``, UTF-8 with any byte-order mark."""
    with open(path, encoding="utf-8-sig") as fh:
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
    if type(value) is float:  # the common case, without the slow ABC check
        return value if math.isfinite(value) else None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def write_rows(fh: TextIO, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header ``columns``, then one CSV line per row: an int or
    a str as ``str`` prints it, anything else as ``%.12e``."""
    fh.write(",".join(columns) + "\n")
    rows = iter(rows)
    while block := list(islice(rows, WRITE_ROWS)):
        fh.write(_format_rows(block))


def _format_rows(rows: list[Sequence]) -> str:
    """The lines of ``rows`` by one ``%`` operation on their flat values."""
    template = "".join([_row_template(tuple(map(type, row))) for row in rows])
    return template % tuple(chain.from_iterable(rows))


@functools.cache  # one entry per row layout: a handful in a process
def _row_template(types: tuple[type, ...]) -> str:
    return ",".join(["%s" if issubclass(t, (int, str)) else "%.12e" for t in types]) + "\n"


def write_numbered_floats(fh: TextIO, columns: Sequence[str], *arrays: np.ndarray) -> None:
    """Write the header ``columns``, then row t = 1, 2, ... as t and the
    t-th value of each equal-length float64 array, a block of WRITE_ROWS
    rows by one ``fh.write`` (see the module docstring)."""
    import numpy as np

    fh.write(",".join(columns) + "\n")
    n, cols = arrays[0].size, len(arrays)
    width = len(str(n))
    rows = min(n, WRITE_ROWS)
    # A row is t right-aligned in width bytes, the 20-byte word of each
    # value, and "\n".  Spaces stand for the absent leading digits of t and
    # the absent signs, and are removed before the block is written.
    lines = np.empty((rows, width + 20 * cols + 1), np.uint8)
    lines[:, -1] = ord("\n")
    words = np.empty((cols * rows, 5), np.uint32)
    for lo in range(0, n, WRITE_ROWS):
        values = np.stack([a[lo : lo + WRITE_ROWS] for a in arrays], axis=1)
        r = len(values)
        with np.errstate(all="ignore"):
            formatted = _fill_words(words[: cols * r], values.ravel())
        if not formatted:
            fh.write(_format_rows([(lo + i, *row) for i, row in enumerate(values.tolist(), 1)]))
            continue
        block = lines[:r]
        block[:, width:-1] = words[: cols * r].view(np.uint8).reshape(r, 20 * cols)
        t = np.arange(lo + 1, lo + 1 + r, dtype=np.min_scalar_type(n))
        for j in range(width - 1, -1, -1):
            quotient = t // 10
            block[:, j] = t - quotient * 10 + ord("0")
            t = quotient
        for j in range(width - 1):
            # The rows whose t is below 10**(width - 1 - j) come first.
            block[: max(0, 10 ** (width - 1 - j) - lo - 1), j] = ord(" ")
        fh.write(block.tobytes().replace(b" ", b"").decode("ascii"))


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only tables of ``_fill_words``, built on first use, so that
    a command that writes no float arrays builds none:

    - 10**k correctly rounded for k = -87..111; entry 99 - e scales a value
      of decimal exponent e, |e| <= 99, to 13 integer digits;
    - the head word ",", sign (a space for none), lead digit d and ".":
      entry d for a positive value, 10 + d for a negative one;
    - the word of f"{i:04d}" at entry i, i < 10 000;
    - the exponent word "e", sign and two digits, at entry e + 99.
    """
    import numpy as np

    def ascii_words(strings):  # 4-character strings as uint32 words
        return np.frombuffer("".join(strings).encode("ascii"), np.uint32)

    pow10 = np.array([float(f"1e{k}") for k in range(-87, 112)])
    head = ascii_words(f",{sign}{d}." for sign in " -" for d in range(10))
    digits = np.frombuffer(b"0123456789", np.uint8)
    quad = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
    exp = ascii_words(f"e{e:+03d}" for e in range(-99, 100))
    pow10.flags.writeable = quad.flags.writeable = False
    return pow10, head, quad, exp


def _fill_words(words: np.ndarray, values: np.ndarray) -> bool:
    """Write ``f",{v:.12e}"`` of each value into its row of ``words``, five
    words of four bytes with a space for an absent sign, and return True;
    or return False, writing nothing, when a value is non-finite or its
    exponent may take three digits."""
    import numpy as np

    mag = np.abs(values)
    if not np.all((mag < 1e99) & ((mag >= 1e-99) | (mag == 0))):
        return False
    pow10, head, quad, exp_words = _format_tables()
    exp = np.clip(np.floor(np.log10(mag)), -99, 99).astype(np.intp)
    scaled = mag * pow10[99 - exp]
    mantissa = np.rint(scaled)
    # The exactness rule: |frac(scaled) - 0.5| > 0.005 and 13 digits.
    exact = (np.abs(scaled - mantissa) < 0.495) & (mantissa >= 1e12) & (mantissa < 1e13)
    mantissa[~exact] = 1e12  # keeps the table indices below in range
    lead = np.floor(mantissa / 1e12)
    rest = mantissa - lead * 1e12
    high = np.floor(rest / 1e8)
    rest -= high * 1e8
    mid = np.floor(rest / 1e4)
    rest -= mid * 1e4
    words[:, 0] = head[(lead + 10 * np.signbit(values)).astype(np.intp)]
    words[:, 1] = quad[high.astype(np.intp)]
    words[:, 2] = quad[mid.astype(np.intp)]
    words[:, 3] = quad[rest.astype(np.intp)]
    words[:, 4] = exp_words[exp + 99]
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        text = ",%19.12e" * inexact.size % tuple(values[inexact].tolist())
        words[inexact] = np.frombuffer(text.encode("ascii"), np.uint32).reshape(-1, 5)
    return True

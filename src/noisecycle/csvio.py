"""CSV output shared by every command.

Every file has one layout: comment lines start with ``# `` and end in ``\\n``;
the header and the data rows end in ``\\r\\n``, the line terminator of the
``csv`` module's default dialect; numbers carry 17 significant digits
(``%.17g``), so every float64 reads back exactly.  No field is quoted:
numbers and the phase labels never hold a comma, a quote or a line break.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import contextmanager

NUMBER = "%.17g"
TEXT = "%s"
ROW_END = "\r\n"


def row_format(*fields: str) -> str:
    """One ``%``-format for a whole row, e.g. ``row_format(NUMBER, NUMBER, TEXT)``."""
    return ",".join(fields) + ROW_END


@contextmanager
def open_csv(path, header: list[str], comments: Iterable[str] = ()):
    """Open ``path`` for writing, emit the comment lines and the header row, yield the file."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + ROW_END)
        yield fh


def write_rows(fh, fmt: str, rows) -> None:
    """Format each row tuple with ``fmt`` and stream the lines to ``fh``."""
    fh.writelines(map(fmt.__mod__, rows))

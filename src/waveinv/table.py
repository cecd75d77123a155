"""The one layout of every CSV waveinv writes and reads back: ``# key=value``
comment lines, one header row, then one comma-separated row per record.

Readers skip blank lines, comment lines and copies of the header row, strip
whitespace around fields and read CRLF endings as LF; a bad row raises
``ValueError`` prefixed with ``path:line``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def cell(value: float | int | None) -> str:
    """A number's field: empty for None or NaN, an int as an int, any other
    number as the repr of its float."""
    if value is None or value != value:
        return ""
    return repr(value) if isinstance(value, int) else repr(float(value))


def write_table(
    path: str | Path, comments: Iterable[str], header: str | None, rows: Iterable[Sequence[str]]
) -> None:
    """Write ``# `` comment lines, the header row (none if None), each row's
    fields joined by commas and a trailing newline, making the parent
    directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {comment}" for comment in comments] + ([] if header is None else [header])
    lines.extend(map(",".join, rows))
    path.write_text("\n".join(lines) + "\n")


def data_lines(path: str | Path, header: str) -> list[str]:
    """Every line of ``path``, stripped, with "" for each blank line, comment
    line or copy of the comma-separated ``header``: line k is item k - 1."""
    names = header.split(",")
    skip = ("#", names[0])  # one test passes every data row but a header-like one
    return [
        "" if line.startswith(skip) and (line[0] == "#" or [f.strip() for f in line.split(",")] == names) else line
        for line in map(str.strip, Path(path).read_text().splitlines())
    ]


def read_table(path: str | Path, header: str, parse: Callable[..., T]) -> list[T]:
    """``parse(*fields)`` of each data row, fields stripped.  A row with the
    wrong field count, or whose parse raises ``ValueError`` or ``OSError``
    (a file it names), raises ``ValueError`` prefixed with ``path:line``."""
    width, parsed = header.count(",") + 1, []
    for lineno, line in enumerate(data_lines(path, header), start=1):
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            if len(fields) != width:
                raise ValueError(f"expected {width} fields, found {len(fields)}")
            parsed.append(parse(*fields))
        except (ValueError, OSError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return parsed

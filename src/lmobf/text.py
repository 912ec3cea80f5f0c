"""One reader for the line-oriented text formats: programs, keys and
parameter files. Each line starts with the tag the format expects
there, blank lines are skipped, and parse() turns every failure into a
ValueError whose message starts with the 1-based line it is about."""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

T = TypeVar("T")


class LineReader:
    """The non-blank lines of a text, stripped, handed out in order."""

    def __init__(self, text: str) -> None:
        lines = text.splitlines()
        self._lines = [(n, ln.strip()) for n, ln in enumerate(lines, start=1) if ln.strip()]
        self._next = 0
        self._end = len(lines) + 1
        self.line = 0  # the line taken last, the one a ValueError is about

    def has(self, tag: str) -> bool:
        """Whether the next line carries tag."""
        if self._next == len(self._lines):
            return False
        text = self._lines[self._next][1]
        return text == tag or text.startswith(tag + " ")

    def _take(self) -> str:
        self.line, text = self._lines[self._next]
        self._next += 1
        return text

    def rest(self, tag: str) -> str:
        """What follows tag on the next line, which must carry it."""
        if self._next == len(self._lines):
            self.line = self._end
            raise ValueError(f"text ends where {tag!r} was expected")
        tagged, text = self.has(tag), self._take()
        if not tagged:
            raise ValueError(f"expected {tag!r}, found {text!r}")
        return text[len(tag) :].strip()

    def fields(self, tag: str, count: int) -> list[str]:
        """The exactly count fields that follow tag on the next line."""
        parts = self.rest(tag).split()
        if len(parts) != count:
            raise ValueError(f"{tag!r} takes {count} fields, found {len(parts)}")
        return parts

    def number(self, field: str, lo: int, hi: Optional[int] = None) -> int:
        """A field of the line taken last as an int in lo..hi, lo >= 0."""
        value = int(field) if field.isascii() and field.isdigit() else -1
        if value < lo or (hi is not None and value > hi):
            raise ValueError(f"{field!r} out of range {lo}..{'' if hi is None else hi}")
        return value

    def integer(self, tag: str, lo: int, hi: Optional[int] = None) -> int:
        return self.number(self.fields(tag, 1)[0], lo, hi)

    def bits(self, tag: str, width: int) -> str:
        """The one field after tag, a string of width bits."""
        (field,) = self.fields(tag, 1)
        if len(field) != width or not set(field) <= {"0", "1"}:
            raise ValueError(f"expected {width} bits, found {field!r}")
        return field

    def rows(self, width: Optional[int] = None) -> list[str]:
        """The untagged 0/1 lines that follow, each width bits if width is given."""
        rows = []
        while self._next < len(self._lines) and set(self._lines[self._next][1]) <= {"0", "1"}:
            rows.append(self._take())
            if width is not None and len(rows[-1]) != width:
                raise ValueError(f"expected {width} bits, found {rows[-1]!r}")
        return rows


def parse(text: str, read: Callable[[LineReader], T]) -> T:
    """read(LineReader(text)), which must take every line. A ValueError
    raised by read, or by a constructor it calls, is re-raised with the
    line taken last in front of its message."""
    reader = LineReader(text)
    try:
        value = read(reader)
        if reader._next < len(reader._lines):
            raise ValueError(f"unexpected line {reader._take()!r}")
    except ValueError as exc:
        raise ValueError(f"line {reader.line}: {exc}") from exc
    return value

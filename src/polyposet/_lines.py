"""The one reader behind the package's text formats: 'a b' integer lines,
blank lines and '#' comments skipped, an optional header '<tag> <k>' read
only as the first data line.  Errors count every physical line.
"""
from __future__ import annotations


class MalformedLine(ValueError):
    """A line that is neither blank, a comment, nor of its expected form."""

    def __init__(self, line_no: int, line: str, problem: str = "cannot parse"):
        super().__init__(f"line {line_no}: {problem} {line!r}")
        self.line_no = line_no
        self.line = line


def read_pairs(text: str, header: str | None = None, *,
               header_required: bool = False, distinct_first: bool = False,
               ) -> tuple[tuple[int, int] | None, list[tuple[int, int]]]:
    """Parse 'a b' lines, in file order, after an optional header.

    Returns ``(found, pairs)``: ``found`` is ``(line_no, k)`` for a first
    data line '<header> <k>', else None.  ``distinct_first`` rejects a pair
    whose first entry repeats an earlier one, naming the later line.

    >>> read_pairs("# order\\nn 2\\n\\n1 2\\n", "n")
    ((2, 2), [(1, 2)])
    """
    found = None
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        is_header = (header is not None and parts[0] == header
                     and found is None and not pairs)
        if header_required and found is None and not is_header:
            raise MalformedLine(line_no, raw,
                                f"expected a header '{header} <k>', got")
        try:
            values = tuple(map(int, parts[1:] if is_header else parts))
        except ValueError:
            raise MalformedLine(line_no, raw) from None
        if len(values) != (1 if is_header else 2):
            raise MalformedLine(line_no, raw)
        if is_header:
            found = (line_no, values[0])
        elif distinct_first and values[0] in seen:
            raise MalformedLine(line_no, raw, f"repeats index {values[0]}:")
        else:
            seen.add(values[0])
            pairs.append(values)
    if header_required and found is None:
        raise MalformedLine(len(lines) + 1, "",
                            f"expected a header '{header} <k>', got")
    return found, pairs

"""Lexical helpers shared by the analyzers (tm_ct.py, tm_sync.py).

Both analyzers read C++ line by line: they blank comments, strings and
preprocessor lines, match annotation comments, and cut function bodies
into per-line segments. The helpers here are that shared lexical layer;
each analyzer keeps its own function discovery and rules.
"""

from __future__ import annotations

import re


def comment_annotation(line: str, pattern: re.Pattern):
    """Matches `pattern` only right after the line's first `//` opener."""
    idx = line.find("//")
    if idx == -1:
        return None
    return pattern.match(line, idx)


def strip_comments(lines: list[str]) -> list[str]:
    """Per-line copy with comments, strings, and preprocessor blanked
    (callers that need includes read them from the raw lines)."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        if not in_block and line.lstrip().startswith("#"):
            out.append("")
            continue
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            if ch == "/" and line.startswith("//", i):
                break
            if ch == "/" and line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                result.append(quote)
                i += 1
                while i < len(line):
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                result.append(quote)
                i += 1
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


def balanced_args(text: str, open_idx: int) -> str | None:
    """Returns the text between text[open_idx] == '(' and its match."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:i]
    return None


def body_segments(code: list[str], open_line: int, open_col: int
                  ) -> tuple[list[tuple[int, str]], int]:
    """Segments from the '{' at (open_line, open_col) to its match."""
    segments = []
    depth = 0
    line_i = open_line
    start_col = open_col
    body_from = open_col + 1
    while line_i < len(code):
        text = code[line_i]
        for j in range(start_col, len(text)):
            if text[j] == "{":
                depth += 1
                if depth == 1:
                    body_from = j + 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    begin = body_from if line_i == open_line else 0
                    segments.append((line_i, text[begin:j]))
                    return segments, line_i
        begin = open_col + 1 if line_i == open_line else 0
        if depth >= 1:
            segments.append((line_i, text[begin:]))
        line_i += 1
        start_col = 0
    return segments, line_i

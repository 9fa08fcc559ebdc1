"""A naive fixpoint evaluator for bracket programs, written from the rewrite
rule and sharing no code with `bracketc.engine`.

Statements are handled as canonical text ("A [B] [[C] D]").  Each round
replaces the ripe brackets (no bracket inside) of every bracketed statement
with endings of bracket-free statements that start with the bracket's
content, matched against the bracket-free pool as it stood when the round
began.  Brackets with the same content in one statement take the same
ending; the empty content matches every whole statement.  Statements with
more top-level elements than the token bound are dropped.  The evaluator
knows no statement cap, so it is only used on programs whose closure is
small.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Iterable

_TOKEN = re.compile(r"\[|\]|[^\s\[\]]+")
_RIPE = re.compile(r"\[([^\[\]]*)\]")


def render(elements: Iterable[object]) -> str:
    """Canonical text of an element sequence: words are strings, brackets
    are objects with an `elements` attribute."""
    parts = []
    for e in elements:
        parts.append(e if isinstance(e, str) else "[" + render(e.elements) + "]")
    return " ".join(parts)


def canonical(text: str) -> str:
    """Re-space text so that it equals `render` of the same statement."""
    out: list[str] = []
    for tok in _TOKEN.findall(text):
        if out and out[-1] != "[" and tok != "]":
            out.append(" ")
        out.append(tok)
    return "".join(out)


def top_level_count(text: str) -> int:
    """Words and brackets at depth 0: the engine's token count."""
    depth = count = 0
    for tok in _TOKEN.findall(text):
        if tok == "[":
            count += depth == 0
            depth += 1
        elif tok == "]":
            depth -= 1
        else:
            count += depth == 0
    return count


def _endings(content: tuple[str, ...],
             pool: list[tuple[str, ...]]) -> set[tuple[str, ...]]:
    n = len(content)
    return {ws[n:] for ws in pool if ws[:n] == content}


def _expand(text: str, pool: list[tuple[str, ...]]) -> list[str]:
    contents = list(dict.fromkeys(tuple(c.split()) for c in _RIPE.findall(text)))
    choices = [_endings(c, pool) for c in contents]
    if not contents or not all(choices):
        return []
    out = []
    for combo in product(*choices):
        assignment = dict(zip(contents, combo))
        new = _RIPE.sub(lambda m: " ".join(assignment[tuple(m.group(1).split())]),
                        text)
        new = canonical(new)
        if new:
            out.append(new)
    return out


def naive_closure(statements: Iterable[str], max_rounds: int,
                  max_tokens: int) -> tuple[set[str], bool]:
    """Bracket-free texts of the closure, and whether a fixpoint was reached
    within `max_rounds` rounds."""
    known = set(statements)
    for _ in range(max_rounds):
        pool = [tuple(t.split()) for t in known if "[" not in t]
        fresh = set()
        for text in [t for t in known if "[" in t]:
            for new in _expand(text, pool):
                if new not in known and top_level_count(new) <= max_tokens:
                    fresh.add(new)
        if not fresh:
            return {t for t in known if "[" not in t}, True
        known |= fresh
    return {t for t in known if "[" not in t}, False

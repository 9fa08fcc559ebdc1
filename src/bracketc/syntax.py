"""Statements, brackets and programs: parsing, canonical form, sizing.

A statement is a flat sequence of elements; an element is either a word
(plain string, no whitespace, no bracket characters) or a bracket holding
a nested element sequence.  '[' and ']' are reserved and self-delimiting,
everything else splits on whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar, Union

from .errors import BCError, EmptyStatement, UnbalancedBrackets

WORD_RE = re.compile(r"[^\s\[\]]+")
#: What a program's canonical text puts between two statements.
STATEMENT_SEPARATOR = "\n"
_TOKEN_RE = re.compile(rf"\[|\]|{WORD_RE.pattern}")

Element = Union[str, "Bracket"]
_T = TypeVar("_T")


@dataclass(frozen=True)
class Bracket:
    """A bracketed (possibly empty, possibly nested) element sequence; its
    words are not checked, for the reason given at `Statement`."""

    elements: tuple[Element, ...] = ()
    #: No nested bracket inside, so `elements` are the content words.
    ripe: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ripe", _all_words(self.elements))

    def __str__(self) -> str:
        return "[" + " ".join(str(e) for e in self.elements) + "]"


@dataclass(frozen=True)
class Statement:
    """One line of a BC program or corpus: `len(elements)` tokens, a bracket
    counting 1, and at least one, as an empty line neither serialises nor
    parses back.  Words are unchecked (a check per word made closures up to
    2x slower); `parse_statement` and `words` check text."""

    elements: tuple[Element, ...]
    #: No element is a bracket, so `elements` are the words.
    bracket_free: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.elements:
            raise EmptyStatement("a statement needs at least one element")
        object.__setattr__(self, "bracket_free", _all_words(self.elements))

    @property
    def words(self) -> tuple[str, ...]:
        """The words of a bracket-free statement; ValueError otherwise."""
        if not self.bracket_free:
            raise ValueError(f"statement has brackets: {self}")
        return self.elements  # type: ignore[return-value]

    def __hash__(self) -> int:
        # the generated hash builds the tuple `(self.elements,)` per call
        return hash(self.elements)

    def __str__(self) -> str:
        return " ".join(str(e) for e in self.elements)


def _all_words(elements: tuple[Element, ...]) -> bool:
    return all(isinstance(e, str) for e in elements)


def fresh_word(stem: str, taken: set[str], start: int = 0) -> str:
    """The first `stem + k`, for k >= `start`, that is not in `taken`;
    the word joins `taken`, so the next call invents another one."""
    k = start
    while f"{stem}{k}" in taken:
        k += 1
    word = f"{stem}{k}"
    taken.add(word)
    return word


def alias(content: tuple[Element, ...], word: str,
          tail: tuple[Element, ...] = ()) -> tuple[Statement, Bracket]:
    """The alias statement `word *tail [content]` and its bracket
    `[word *tail]`: a prefix of the statement, so it takes the endings of
    `[content]`, in a replacement class of its own, so it varies apart."""
    return Statement((word, *tail, Bracket(content))), Bracket((word, *tail))


def one_word(text: str, line: str, pattern: re.Pattern[str] = WORD_RE) -> str:
    """`text` itself when `pattern` matches all of it; ValueError otherwise."""
    if not pattern.fullmatch(text):
        raise ValueError(f"{text!r} is not one word: {line!r}")
    return text


def words(*texts: str) -> Statement:
    """A bracket-free statement; ValueError for a text that is not one word."""
    return Statement(tuple(one_word(t, " ".join(texts)) for t in texts))


def parse_statement(line: str) -> Statement:
    """Parse one line into a Statement.

    Raises UnbalancedBrackets on mismatched delimiters and EmptyStatement
    when nothing remains at the top level.
    """
    stack: list[list[Element]] = [[]]
    for token in _TOKEN_RE.findall(line):
        if token == "[":
            stack.append([])
        elif token == "]":
            if len(stack) == 1:
                raise UnbalancedBrackets(f"unexpected ']' in {line!r}")
            inner = stack.pop()
            stack[-1].append(Bracket(tuple(inner)))
        else:
            stack[-1].append(token)
    if len(stack) > 1:
        raise UnbalancedBrackets(f"unclosed '[' in {line!r}")
    if not stack[0]:
        raise EmptyStatement(f"no elements in {line!r}")
    return Statement(tuple(stack[0]))


def serialize_statement(s: Statement) -> str:
    """Canonical form; round-trips through parse_statement."""
    return str(s)


class Program:
    """An ordered, duplicate-free sequence of statements.

    Duplicates in the input are dropped uncounted; order is kept, since it
    fixes the engine's deterministic expansion order.  The statements are
    kept once, in a tuple that `in` scans, and the canonical text is built
    once, for `str`, `program_size` and the hash.  A search neighbour that
    deletes or appends one statement is built by `_of`, its text joined
    from its parent's statement texts, so no other statement is turned into
    text again.
    """

    def __init__(self, statements: Iterable[Statement]):
        self.statements: tuple[Statement, ...] = tuple(dict.fromkeys(statements))
        self._text = STATEMENT_SEPARATOR.join(str(s) for s in self.statements)

    @classmethod
    def _of(cls, statements: tuple[Statement, ...], text: str) -> Program:
        """The program of the duplicate-free tuple `statements`, whose
        canonical text is `text`; neither is checked."""
        program = cls.__new__(cls)
        program.statements = statements
        program._text = text
        return program

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self.statements == other.statements

    def __hash__(self) -> int:
        return hash(self._text)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Program({len(self.statements)} statements)"


def program_size(p: Program) -> int:
    """Character count of the canonical serialization (statements joined
    by `STATEMENT_SEPARATOR`)."""
    return len(str(p))


def lines(text: str, comments: tuple[str, ...] = ("#",)) -> Iterator[str]:
    """The stripped lines of `text` that are neither blank nor comments."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(comments):
            yield stripped


def parse_program(text: str) -> Program:
    """Parse a program file body: one statement per line, '#' comments."""
    return Program(map(parse_statement, lines(text)))


def read_text(path: str, parse: Callable[[str], _T]) -> _T:
    """`parse` of the UTF-8 text of the file at `path`, without a leading
    byte-order mark.  Every error in the text names the file: a byte that
    is not UTF-8 raises ValueError with its offset, and an error that
    `parse` raises is raised again, of the same type, after `path: `."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not UTF-8 "
                         f"({exc.reason})") from None
    try:
        return parse(text)
    except (BCError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_program(path: str) -> Program:
    return read_text(path, parse_program)

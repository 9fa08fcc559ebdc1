"""Corpus loading: plain text into canonical bracket-free statements.

split_punctuation defaults on because prefix matching needs punctuation
as separate tokens: "TOM IS A GIRL, NOT!" must tokenize so that the
bracket content "TOM IS A GIRL" is a prefix of the stored statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BracketInCorpus, EmptyCorpus
from .syntax import Statement, lines, read_text

_PUNCT_SPLIT_RE = re.compile(r"[.,!?;:]|[^\s.,!?;:]+")
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+|\n\s*\n")


@dataclass(frozen=True)
class TokenizerOptions:
    split_punctuation: bool = True
    fold_case: bool = False
    one_statement_per_line: bool = True

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, not {value!r}")


def corpus_from_text(text: str,
                     opts: TokenizerOptions = TokenizerOptions()) -> list[Statement]:
    """Tokenize text into an ordered, duplicate-free statement list."""
    if "[" in text or "]" in text:
        raise BracketInCorpus("corpus text contains reserved bracket characters")
    if opts.one_statement_per_line:
        chunks = lines(text, ())
    else:
        chunks = _SENTENCE_SPLIT_RE.split(text)
    seen: dict[Statement, None] = {}
    for chunk in chunks:
        if opts.fold_case:
            chunk = chunk.upper()
        if opts.split_punctuation:
            tokens = _PUNCT_SPLIT_RE.findall(chunk)
        else:
            tokens = chunk.split()
        if tokens:
            seen[Statement(tuple(tokens))] = None
    if not seen:
        raise EmptyCorpus("no statements in corpus text")
    return list(seen)


def load_corpus(path: str,
                opts: TokenizerOptions = TokenizerOptions()) -> list[Statement]:
    return read_text(path, lambda text: corpus_from_text(text, opts))

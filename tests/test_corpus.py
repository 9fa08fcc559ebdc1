import re

import pytest
from hypothesis import given, settings, strategies as st

from bracketc import (BracketInCorpus, EmptyCorpus, Program, TokenizerOptions,
                      corpus_from_text, load_corpus, words)
from oracles import corpus_reference

SENTENCES = TokenizerOptions(one_statement_per_line=False)


def test_punctuation_split_not_example():
    got = corpus_from_text("TOM IS A GIRL, NOT!")
    assert got == [words("TOM", "IS", "A", "GIRL", ",", "NOT", "!")]


@pytest.mark.parametrize("field", ["split_punctuation", "fold_case",
                                   "one_statement_per_line"])
def test_tokenizer_options_reject_a_field_that_is_not_a_bool(field):
    for bad in ("no", 0, 1, None):
        with pytest.raises(ValueError, match=field):
            TokenizerOptions(**{field: bad})


def test_fold_case():
    got = corpus_from_text("Mary was wearing necklace",
                           TokenizerOptions(fold_case=True))
    assert got == [words("MARY", "WAS", "WEARING", "NECKLACE")]


def test_no_punctuation_split():
    got = corpus_from_text("TOM IS A GIRL, NOT!",
                           TokenizerOptions(split_punctuation=False))
    assert got == [words("TOM", "IS", "A", "GIRL,", "NOT!")]


def test_sentence_split():
    got = corpus_from_text("MARY LIKES PONIES. TOM DOES NOT!\nTHE END.",
                           SENTENCES)
    assert words("MARY", "LIKES", "PONIES", ".") in got
    assert words("TOM", "DOES", "NOT", "!") in got


@pytest.mark.parametrize("blank", ["\n \n", "\n\t\n", "\r\n\r\n"],
                         ids=["space", "tab", "crlf"])
def test_sentences_split_at_a_blank_line_that_holds_whitespace(blank):
    got = corpus_from_text(f"MARY LIKES PONIES{blank}TOM DOES NOT", SENTENCES)
    assert got == [words("MARY", "LIKES", "PONIES"), words("TOM", "DOES", "NOT")]


# A whitespace-only line between two newlines: the one place where sentence
# mode no longer reads text as the reference does.
_WHITESPACE_LINE = re.compile(r"\n[^\S\n]+\n")


@settings(max_examples=500, deadline=None)
@given(st.text("ab.!?,; \t\n\r\x0b\u2028\ufeff#", max_size=30),
       st.builds(TokenizerOptions, st.booleans(), st.booleans(), st.booleans()))
def test_corpus_from_text_matches_reference(text, opts):
    def read(reader):
        try:
            return reader(text, opts)
        except EmptyCorpus:
            return EmptyCorpus

    if opts.one_statement_per_line or not _WHITESPACE_LINE.search(text):
        assert read(corpus_from_text) == read(corpus_reference)


def test_duplicate_sentences_are_dropped():
    got = corpus_from_text("A B\nA B\nC D")
    assert got == [words("A", "B"), words("C", "D")]


def test_empty_corpus():
    with pytest.raises(EmptyCorpus):
        corpus_from_text("\n\n   \n")
    with pytest.raises(EmptyCorpus):
        corpus_from_text("\n\n   \n", SENTENCES)


def test_bracket_rejected():
    with pytest.raises(BracketInCorpus):
        corpus_from_text("A [B] C")


def test_closing_bracket_rejected():
    with pytest.raises(BracketInCorpus):
        corpus_from_text("a ] b")


def test_load_idempotent(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("MARY LIKES PONIES\nTOM , NOT !\n", encoding="utf-8")
    first = load_corpus(str(path))
    path2 = tmp_path / "roundtrip.txt"
    path2.write_text(str(Program(first)) + "\n", encoding="utf-8")
    assert load_corpus(str(path2)) == first


def test_round_trip_verbatim_without_punct_split(tmp_path):
    text = "MARY LIKES PONIES\nTOM DOES TOO"
    opts = TokenizerOptions(split_punctuation=False)
    loaded = corpus_from_text(text, opts)
    assert str(Program(loaded)) == text

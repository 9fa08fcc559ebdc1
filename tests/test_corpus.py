import pytest

from bracketc import (BracketInCorpus, EmptyCorpus, Program, TokenizerOptions,
                      corpus_from_text, load_corpus, words)


def test_punctuation_split_not_example():
    got = corpus_from_text("TOM IS A GIRL, NOT!")
    assert got == [words("TOM", "IS", "A", "GIRL", ",", "NOT", "!")]


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
                           TokenizerOptions(one_statement_per_line=False))
    assert words("MARY", "LIKES", "PONIES", ".") in got
    assert words("TOM", "DOES", "NOT", "!") in got


def test_duplicates_dropped():
    got = corpus_from_text("A B\nA B\nC D")
    assert got == [words("A", "B"), words("C", "D")]


def test_empty_corpus():
    with pytest.raises(EmptyCorpus):
        corpus_from_text("\n\n   \n")


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

import random
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from bracketc import (Bracket, EmptyStatement, ExpansionLimits, Program,
                      Statement, UnbalancedBrackets, closure, parse_program,
                      parse_statement, program_size, serialize_statement,
                      words)
from bracketc.syntax import alias, fresh_word

from strategies import PROGRAM, STATEMENT


def test_parse_bracketed():
    s = parse_statement("[GIRL] LIKES PONIES")
    assert s == Statement((Bracket(("GIRL",)), "LIKES", "PONIES"))


def test_parse_plain():
    assert parse_statement("GIRL MARY") == words("GIRL", "MARY")


def test_parse_adjacent_brackets():
    s = parse_statement("A [B][B]")
    assert s == Statement(("A", Bracket(("B",)), Bracket(("B",))))


def test_parse_unbalanced():
    with pytest.raises(UnbalancedBrackets):
        parse_statement("A ]B[")
    with pytest.raises(UnbalancedBrackets):
        parse_statement("A [B")


def test_parse_empty():
    with pytest.raises(EmptyStatement):
        parse_statement("   ")


def test_empty_statement_raises():
    with pytest.raises(EmptyStatement):
        Statement(())
    with pytest.raises(EmptyStatement):
        words()


@pytest.mark.parametrize("text", ["a b", "a\tb", "", "[a]", "a]", "["])
def test_words_rejects_a_text_that_is_not_one_word(text):
    with pytest.raises(ValueError, match="is not one word"):
        words("x", text)


@given(st.lists(st.text(alphabet="ab[] ", max_size=3), min_size=1,
                max_size=3))
def test_words_builds_only_statements_that_round_trip(texts):
    try:
        s = words(*texts)
    except ValueError:
        return
    assert parse_statement(serialize_statement(s)) == s


def test_serialize_round_trip():
    s = Statement((Bracket(("GIRL",)), "LIKES", "PONIES"))
    assert serialize_statement(s) == "[GIRL] LIKES PONIES"
    assert parse_statement(serialize_statement(s)) == s


def test_serialize_empty_bracket():
    assert serialize_statement(Statement(("A", Bracket()))) == "A []"


def test_serialize_is_canonicalization():
    for line in ("A [B][B]", "  A   [ B ]  ", "A [] [[] C]"):
        once = serialize_statement(parse_statement(line))
        again = serialize_statement(parse_statement(once))
        assert once == again


def _random_statement(rng, depth=0):
    elements = []
    for _ in range(rng.randint(1, 4)):
        if depth < 2 and rng.random() < 0.3:
            inner = _random_statement(rng, depth + 1).elements \
                if rng.random() < 0.8 else ()
            elements.append(Bracket(inner))
        else:
            elements.append(rng.choice("WXYZ") + str(rng.randint(0, 9)))
    return Statement(tuple(elements))


def test_parse_serialize_identity_random():
    rng = random.Random(7)
    for _ in range(200):
        s = _random_statement(rng)
        assert parse_statement(serialize_statement(s)) == s


def test_equal_statements_hash_equal_however_built():
    expanded = closure(parse_program("N A\n[N] B"), ExpansionLimits())
    built = (parse_statement("A B"), words("A", "B"),
             expanded.bracket_free[-1])
    assert all(s == built[0] for s in built)
    assert len({hash(s) for s in built}) == 1
    rng = random.Random(5)
    statements = [_random_statement(rng) for _ in range(1_000)]
    distinct = set(statements)
    assert len(distinct) < 1_000  # some were drawn twice
    assert len(distinct) == len({s.elements for s in statements})


def test_program_size():
    assert program_size(Program([])) == 0
    assert program_size(Program([words("GIRL", "MARY")])) == 9
    assert program_size(Program([words("B", "C"), words("B", "D")])) == 7


def test_program_size_monotone():
    rng = random.Random(3)
    p = Program([])
    statements = []
    for i in range(20):
        statements.append(words(f"W{i}", *[rng.choice("AB") for _ in range(3)]))
        bigger = Program(statements)
        assert program_size(bigger) > program_size(p)
        p = bigger


def test_program_deduplicates():
    p = parse_program("A B\n# comment\n\nA   B\nC D")
    assert len(p) == 2
    assert repr(p) == "Program(2 statements)"


def test_program_is_unequal_to_its_text():
    p = parse_program("A B")
    assert p != "A B" and str(p) == "A B"


def test_program_order_preserved():
    p = parse_program("C D\nA B")
    assert [str(s) for s in p] == ["C D", "A B"]


def test_fresh_word_claims_the_word_it_returns():
    taken = {"CAT0", "CAT2"}
    assert fresh_word("CAT", taken) == "CAT1"
    assert fresh_word("CAT", taken) == "CAT3"
    assert fresh_word("CAT", taken, 5) == "CAT5"
    assert taken == {"CAT0", "CAT1", "CAT2", "CAT3", "CAT5"}


def test_alias_statement_and_bracket():
    statement, bracket = alias(("S", "->"), "S1", ("->",))
    assert str(statement) == "S1 -> [S ->]"
    assert bracket == Bracket(("S1", "->"))
    assert statement.elements[:len(bracket.elements)] == bracket.elements
    statement, bracket = alias(("CAT0",), "CAT1")
    assert (str(statement), str(bracket)) == ("CAT1 [CAT0]", "[CAT1]")


def test_words_of_bracketed_statement_raises():
    with pytest.raises(ValueError):
        parse_statement("A [B]").words


def _all_words(elements):
    return all(isinstance(e, str) for e in elements)


def _brackets(elements):
    for e in elements:
        if isinstance(e, Bracket):
            yield e
            yield from _brackets(e.elements)


@given(STATEMENT)
def test_stored_facts_match_elements(s):
    assert s.bracket_free == _all_words(s.elements)
    for b in _brackets(s.elements):
        assert b.ripe == _all_words(b.elements)


@given(PROGRAM, STATEMENT, st.randoms(use_true_random=False))
def test_program_properties(p, s, rng):
    assert parse_program(str(p)) == p
    with_dupes = list(p) + rng.sample(list(p), len(p) // 2)
    again = Program(with_dupes)
    assert again == p and hash(again) == hash(p)
    generated = Program(t for t in with_dupes)
    assert generated == p and hash(generated) == hash(p)
    assert str(generated) == str(p)
    empty = Program(iter(()))
    assert empty == Program([]) and hash(empty) == hash(Program([]))
    assert (empty.statements, str(empty)) == ((), "")
    for probe in (s, *p):
        assert (probe in p) == any(probe == t for t in p.statements)
    assert program_size(p) == len(str(p))


def test_a_program_holds_its_statements_once():
    """Bytes kept per program, over programs that share their statements,
    stay near what its tuple and its canonical text take alone: a second
    copy of the statements, such as a dict beside the tuple, is over."""
    shared = [words(f"W{i}", "X") for i in range(40)]
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        programs = [Program(shared[i % 40:] + shared[:i % 40])
                    for i in range(2_000)]
        per_program = (tracemalloc.get_traced_memory()[0] - before) / 2_000
    finally:
        if not was_tracing:
            tracemalloc.stop()
    alone = sys.getsizeof(programs[0].statements) + sys.getsizeof(str(programs[0]))
    assert per_program <= 1.5 * alone

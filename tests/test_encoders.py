import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from bracketc import (CFG, Atom, ExpansionLimits, HornProgram, HornRule,
                      ReservedSymbolClash, Statement, UnsupportedRule, Var,
                      cfg_enumerate, cfg_to_bc, closure, horn_to_bc,
                      parse_cfg, parse_horn, parse_program)
from bracketc.encoders import cfg_strings_from_closure

from oracles import forward_chain, random_cfg
from strategies import HORN_PROGRAM

PALINDROME = "S -> A S A | B S B | eps"


def strs(statements):
    return {str(s) for s in statements}


# ---------------------------------------------------------------------------
# CFG


def test_parse_cfg_palindrome():
    g = parse_cfg(PALINDROME)
    assert g.start == "S"
    assert g.terminals == {"A", "B"}
    assert ("S", ()) in g.productions


def test_cfg_to_bc_palindrome():
    program = cfg_to_bc(parse_cfg(PALINDROME))
    assert strs(program) == {"S -> A [S ->] A", "S -> B [S ->] B", "S ->"}


def test_cfg_to_bc_numbers_repeats():
    g = CFG(frozenset({"S"}), frozenset({"a"}), "S",
            (("S", ("S", "S")), ("S", ("a",))))
    assert strs(cfg_to_bc(g)) == {
        "S -> [S ->] [S1 ->]", "S -> a", "S1 -> [S ->]"}


def test_cfg_to_bc_alias_clash():
    g = CFG(frozenset({"S", "S1"}), frozenset({"a"}), "S",
            (("S", ("S", "S")), ("S1", ("a",))))
    with pytest.raises(ReservedSymbolClash):
        cfg_to_bc(g)


@pytest.mark.parametrize("text", ["S T -> a", "S -> [a]"])
def test_parse_cfg_rejects_symbol_that_is_not_one_word(text):
    with pytest.raises(ValueError):
        parse_cfg(text)


def test_parse_cfg_rejects_arrow_symbol():
    with pytest.raises(ReservedSymbolClash):
        parse_cfg("S -> x -> y")


def test_cfg_enumerate_small():
    g = parse_cfg(PALINDROME)
    assert cfg_enumerate(g, 2) == {(), ("A", "A"), ("B", "B")}


def test_cfg_enumerate_count():
    # even-length palindromes over {A,B}: 1 + 2 + 4 + 8 up to length 6
    assert len(cfg_enumerate(parse_cfg(PALINDROME), 6)) == 15


def test_cfg_enumerate_nullability():
    g = parse_cfg(PALINDROME)
    assert cfg_enumerate(g, 0) == {()}
    g2 = parse_cfg("S -> a S | a")
    assert cfg_enumerate(g2, 0) == frozenset()


def test_cfg_enumerate_no_terminal_production():
    g = CFG(frozenset({"S"}), frozenset(), "S", (("S", ("S", "S")),))
    assert cfg_enumerate(g, 5) == frozenset()


def _bc_language(g, max_len):
    program = cfg_to_bc(g)
    limits = ExpansionLimits(max_rounds=60, max_statements=200_000,
                             max_tokens_per_statement=max_len + 2)
    result = closure(program, limits)
    assert not result.truncated.rounds and not result.truncated.statements
    return cfg_strings_from_closure(result.bracket_free, g.start, max_len)


def test_cfg_equivalence_palindrome():
    g = parse_cfg(PALINDROME)
    assert _bc_language(g, 8) == cfg_enumerate(g, 8)


def test_cfg_equivalence_random():
    rng = random.Random(2024)
    for _ in range(5):
        g = random_cfg(rng)
        assert _bc_language(g, 8) == cfg_enumerate(g, 8)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 299))
def test_cfg_to_bc_round_trips(seed):
    program = cfg_to_bc(random_cfg(random.Random(seed)))
    assert parse_program(str(program)) == program


# ---------------------------------------------------------------------------
# Horn


def test_horn_fact_only():
    h = HornProgram(facts=(Atom("GIRL", ("MARY",)),))
    program = horn_to_bc(h)
    assert strs(program) == {"GIRL MARY"}
    result = closure(program, ExpansionLimits())
    assert strs(result.bracket_free) == {"GIRL MARY"}


def test_horn_single_variable_rule():
    h = HornProgram(
        facts=(Atom("GIRL", ("MARY",)),),
        rules=(HornRule(Atom("LIKES", (Var("X"), "PONIES")),
                        (Atom("GIRL", (Var("X"),)),)),))
    program = horn_to_bc(h)
    assert strs(program) == {"GIRL MARY", "LIKES [GIRL] PONIES"}
    result = closure(program, ExpansionLimits())
    assert "LIKES MARY PONIES" in strs(result.bracket_free)


def test_horn_sibling_program(sibling_horn):
    program = horn_to_bc(sibling_horn)
    assert "FC2 [FATHER_CHILD TOM]" in strs(program)
    assert "SIBLING [FATHER_CHILD TOM] [FC2]" in strs(program)
    result = closure(program, ExpansionLimits())
    assert len(result.bracket_free) == 24
    got = {s.words for s in result.bracket_free if s.words[0] == "SIBLING"}
    want = {f for f in forward_chain(sibling_horn) if f[0] == "SIBLING"}
    assert got == want


def test_horn_guard_atom():
    h = HornProgram(
        facts=(Atom("NAME", ("MARY",)), Atom("NAME", ("TOM",)),
               Atom("IS_A_GIRL", ("MARY",))),
        rules=(HornRule(Atom("LIKES", (Var("X"), "PONIES")),
                        (Atom("NAME", (Var("X"),)),
                         Atom("IS_A_GIRL", (Var("X"),)))),))
    program = horn_to_bc(h)
    assert "LIKES [NAME] PONIES [IS_A_GIRL [NAME]]" in strs(program)
    result = closure(program, ExpansionLimits())
    produced = {s.words for s in result.bracket_free if s.words[0] == "LIKES"}
    assert produced == {("LIKES", "MARY", "PONIES")}
    assert produced == {f for f in forward_chain(h) if f[0] == "LIKES"}


def test_horn_unbound_head_variable():
    h = HornProgram(rules=(HornRule(Atom("P", (Var("X"),)), ()),))
    with pytest.raises(UnsupportedRule):
        horn_to_bc(h)


def test_horn_non_ending_variable():
    h = HornProgram(
        facts=(Atom("EDGE", ("a", "b")),),
        rules=(HornRule(Atom("SOURCE", (Var("X"),)),
                        (Atom("EDGE", (Var("X"), "b")),)),))
    with pytest.raises(UnsupportedRule):
        horn_to_bc(h)


def test_horn_unused_body_variable():
    # the binder of X would appear nowhere, leaving the unconditional fact H B
    h = parse_horn("r(b, c).\nh(b) :- r(a, X).")
    with pytest.raises(UnsupportedRule):
        horn_to_bc(h)


def test_horn_predicate_with_two_arities():
    # the binder [p] would also match p(b, c) and derive h b c
    h = parse_horn("p(a).\np(b, c).\nh(X) :- p(X).")
    with pytest.raises(UnsupportedRule):
        horn_to_bc(h)


def test_horn_alias_hygiene(sibling_horn):
    vocab = sibling_horn.vocabulary()
    program = horn_to_bc(sibling_horn)
    heads = {s.words[0] for s in program if s.bracket_free}
    alias_heads = {str(s).split()[0] for s in program
                   if not s.bracket_free} - {"SIBLING"}
    assert alias_heads == {"FC2"}
    assert not alias_heads & vocab
    assert not heads & alias_heads


def test_horn_alias_avoids_vocabulary():
    facts = tuple(Atom("FATHER_CHILD", ("TOM", n)) for n in ("A", "B")) + \
        (Atom("FC2", ("TAKEN",)),)
    rule = HornRule(Atom("SIBLING", (Var("X"), Var("Y"))),
                    (Atom("FATHER_CHILD", ("TOM", Var("X"))),
                     Atom("FATHER_CHILD", ("TOM", Var("Y")))))
    program = horn_to_bc(HornProgram(facts, (rule,)))
    aliases = {str(s).split()[0] for s in program if not s.bracket_free}
    assert "FC2" not in aliases - {"SIBLING"}
    assert "FC3" in {str(s).split()[0] for s in program}


@settings(max_examples=100, deadline=None)
@given(HORN_PROGRAM)
def test_horn_to_bc_round_trips(h):
    try:
        program = horn_to_bc(h)
    except UnsupportedRule:
        reject()
    assert parse_program(str(program)) == program


def test_parse_horn_file():
    h = parse_horn("girl(mary).\nlikes(X, ponies) :- girl(X).\n")
    assert h.facts == (Atom("girl", ("mary",)),)
    assert h.rules[0].head == Atom("likes", (Var("X"), "ponies"))


def test_parse_horn_rejects_fact_with_variable():
    with pytest.raises(ValueError):
        parse_horn("girl(X).")


@pytest.mark.parametrize("text", ["p([a]).", "q(b c).", "p q.", "p [q](a).",
                                  "p(a(b)).", "p(a)(b).", "p(a))."])
def test_parse_horn_rejects_term_that_is_not_one_word(text):
    with pytest.raises(ValueError):
        parse_horn(text)


def test_parse_cfg_accepts_parentheses():
    # only Horn terms exclude the atom syntax; balanced parentheses are a
    # natural grammar
    g = parse_cfg("S -> ( S ) S | eps")
    assert g.terminals == {"(", ")"}


def test_empty_bracket_prolog_variant_golden():
    # alternative encoding exhibited in the source formalism: empty brackets
    # plus a guard; only MARY grounds
    program = parse_program("""GIRL MARY
MARY
[] LIKES PONIES [GIRL []]""")
    result = closure(program, ExpansionLimits())
    produced = strs(result.bracket_free) - {"GIRL MARY", "MARY"}
    assert produced == {"MARY LIKES PONIES"}

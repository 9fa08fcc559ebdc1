import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, reject, settings, strategies as st

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
    # S1 is a grammar symbol, so the alias of the second S is the next
    # fresh word, S2
    g = CFG(frozenset({"S", "S1"}), frozenset({"a"}), "S",
            (("S", ("S", "S")), ("S1", ("a",))))
    assert list(map(str, cfg_to_bc(g))) == [
        "S -> [S ->] [S2 ->]", "S1 -> a", "S2 -> [S ->]"]


def test_cfg_to_bc_alias_skips_symbol_of_another_production():
    g = parse_cfg("S -> A A\nA -> a | A1\nA1 -> b")
    assert list(map(str, cfg_to_bc(g))) == [
        "S -> [A ->] [A2 ->]", "A -> a", "A -> [A1 ->]", "A1 -> b",
        "A2 -> [A ->]"]
    assert _bc_language(g, 2) == cfg_enumerate(g, 2) == {
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}


def test_cfg_to_bc_shares_one_alias_across_productions():
    g = parse_cfg("S -> T T | T T b\nT -> a")
    assert list(map(str, cfg_to_bc(g))) == [
        "S -> [T ->] [T1 ->]", "S -> [T ->] [T1 ->] b", "T -> a",
        "T1 -> [T ->]"]


@pytest.mark.parametrize("text", ["S T -> a", "S -> [a]"])
def test_parse_cfg_rejects_symbol_that_is_not_one_word(text):
    with pytest.raises(ValueError):
        parse_cfg(text)


def test_parse_cfg_rejects_arrow_symbol():
    with pytest.raises(ReservedSymbolClash):
        parse_cfg("S -> x -> y")


@pytest.mark.parametrize("text, line", [
    ("S -> eps\neps -> a", "eps -> a"),
    ("eps -> a", "eps -> a"),
    ("S -> a\n  eps -> eps", "eps -> eps"),
])
def test_parse_cfg_rejects_eps_as_left_hand_side(text, line):
    # a nonterminal `eps` could not be told from the empty alternative
    with pytest.raises(ReservedSymbolClash,
                       match=f"'eps' used as a left-hand side: '{line}'"):
        parse_cfg(text)


def test_cfg_object_takes_eps_as_a_word():
    # only the text format reserves `eps`
    g = CFG(frozenset({"S"}), frozenset({"a", "eps"}), "S",
            (("S", ("a", "eps")),))
    assert cfg_enumerate(g, 3) == {("a", "eps")}


@pytest.mark.parametrize("text, message", [
    ("S a", "without '->'"),
    ("", "no productions"),
    ("# a comment only\n\n", "no productions"),
    ("S -> a |", "empty alternative, write eps"),
    ("S -> a | | b", "empty alternative, write eps"),
    ("S ->", "empty alternative, write eps"),
    # read as a terminal, `eps` would make "S -> a eps" derive "a eps"
    ("S -> a eps", "'eps' beside other symbols: 'S -> a eps'"),
    ("S -> eps eps", "'eps' beside other symbols: 'S -> eps eps'"),
    ("S -> b\nS -> eps a", "'eps' beside other symbols: 'S -> eps a'"),
])
def test_parse_cfg_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=message):
        parse_cfg(text)


@pytest.mark.parametrize("nts, terminals, start, productions, message", [
    ({"S"}, {"a"}, "T", (), "start symbol"),
    ({"S"}, {"S"}, "S", (), "overlap"),
    ({"S"}, {"a"}, "S", (("T", ("a",)),), "undeclared nonterminal"),
    ({"S"}, {"a"}, "S", (("S", ("b",)),), "undeclared symbol"),
    # each symbol must be one word, or cfg_to_bc builds a statement that
    # parses back with other elements
    ({"S"}, {"a b"}, "S", (("S", ("a b",)),), "'a b' is not one word"),
    ({"S T"}, {"a"}, "S T", (("S T", ("a",)),), "'S T' is not one word"),
    ({"S"}, {"[a]"}, "S", (("S", ("[a]",)),), "not one word"),
    ({"S"}, {""}, "S", (("S", ("",)),), "not one word"),
])
def test_cfg_rejects_inconsistent_fields(nts, terminals, start, productions,
                                         message):
    with pytest.raises(ValueError, match=message):
        CFG(frozenset(nts), frozenset(terminals), start, productions)


def test_parse_skips_blank_and_comment_lines():
    assert parse_cfg(f"# palindromes\n\n  {PALINDROME}\n# end") == \
        parse_cfg(PALINDROME)
    rules = "girl(mary).\nlikes(X, ponies) :- girl(X)."
    assert parse_horn(f"% facts\n# and rules\n\n{rules}\n  % end") == \
        parse_horn(rules)


def test_parse_cfg_joins_the_lines_of_one_left_side():
    assert parse_cfg("S -> a S\nS -> b") == parse_cfg("S -> a S | b")


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


def test_cfg_strings_from_closure_drops_strings_over_max_len():
    derived = [Statement(("S", "->", "a")), Statement(("S", "->", "a", "b")),
               Statement(("T", "->", "a"))]
    assert cfg_strings_from_closure(derived, "S", 1) == {("a",)}


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


# Seeds 347, 754 and 228 built millions of expansions over the 10-token cap
# before `closure` checked a combination's tokens before building it.
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9_999))
@example(228)
@example(347)
@example(754)
def test_cfg_equivalence_random(seed):
    g = random_cfg(random.Random(seed))
    assert _bc_language(g, 8) == cfg_enumerate(g, 8)


def _clash_prone_cfg(rng):
    """A random grammar over S and one to three of S1, S2, T, T1 and U, so
    that the aliases of a repeated S or T meet nonterminals named alike.

    Each nonterminal derives at most 20 strings of length <= 5, so that no
    statement of the encoding has more than 20**3 expansions."""
    while True:
        nts = ["S", *rng.sample(["S1", "S2", "T", "T1", "U"], rng.randint(1, 3))]
        productions = tuple(
            (rng.choice(nts), tuple(rng.choice(nts if rng.random() < 0.5 else "ab")
                                    for _ in range(rng.randint(0, 3))))
            for _ in range(rng.randint(2, 6)))
        g = CFG(frozenset(nts), frozenset("ab"), "S", productions)
        if all(len(cfg_enumerate(replace(g, start=nt), 5)) <= 20 for nt in nts):
            return g


def _numbered_alias_clashes(g):
    """Whether the k-th occurrence of some X in a right side (k >= 2)
    meets a nonterminal X{k-1}, so that its alias must skip that name."""
    return any(f"{sym}{k}" in g.nonterminals
               for _, rhs in g.productions for sym in set(rhs)
               for k in range(1, rhs.count(sym)))


def test_cfg_to_bc_aliases_avoid_grammar_symbols():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        g = _clash_prone_cfg(rng)
        if not _numbered_alias_clashes(g):
            continue
        program = cfg_to_bc(g)
        assert parse_program(str(program)) == program
        assert _bc_language(g, 5) == cfg_enumerate(g, 5)
        checked += 1


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
    atoms = [*sibling_horn.facts,
             *(a for r in sibling_horn.rules for a in (r.head, *r.body))]
    vocab = {w for a in atoms for w in (a.pred, *a.args) if isinstance(w, str)}
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


@pytest.mark.parametrize("pred, word", [("r", "r2"), ("a__b", "ab2")])
def test_horn_alias_word_of_a_predicate_without_initials(pred, word):
    # `r` has no underscore, so it is its own stem; `a__b`'s empty part
    # adds no initial
    h = parse_horn(f"{pred}(c, d).\nh(X, Y) :- {pred}(c, X), {pred}(c, Y).")
    assert str(horn_to_bc(h)) == \
        f"{pred} c d\n{word} [{pred} c]\nh [{pred} c] [{word}]"


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


def test_parse_horn_underscore_terms_are_variables():
    # each bare _ is a variable of its own, used nowhere else, so the two
    # first rules cannot be encoded (Prolog derives h(a) and h(d) from them)
    for rule in ("h(a) :- q(_).", "h(X) :- q(_), r(_, X)."):
        h = parse_horn("q(b).\nr(c, d).\n" + rule)
        assert all(a.variables() for a in h.rules[0].body)
        with pytest.raises(UnsupportedRule):
            horn_to_bc(h)
    h = parse_horn("q(b).\nr(b, d).\nh(X) :- q(_Y), r(_Y, X).")
    assert h.rules[0].body[0] == Atom("q", (Var("_Y"),))
    program = horn_to_bc(h)
    assert "h [r [q]]" in strs(program)
    result = closure(program, ExpansionLimits())
    assert {s.words for s in result.bracket_free} == forward_chain(h)
    assert ("h", "d") in forward_chain(h)


def test_parse_horn_names_each_underscore_apart():
    h = parse_horn("h(X) :- p(_, _0, _, X).")
    assert h.rules[0].body[0].args == (Var("_1"), Var("_0"), Var("_2"), Var("X"))
    with pytest.raises(ValueError):
        parse_horn("p(_).")


@pytest.mark.parametrize("text, message", [
    ("q(b).\nh(a) :- q(_).",
     "anonymous variable '_' (argument 1 of q) is used nowhere else"),
    ("q(a).\nh(_) :- q(a).",
     "anonymous variable '_' (argument 1 of h) is not bound by the body"),
    ("r(a, b).\nh(X, _) :- r(a, X).",
     "anonymous variable '_' (argument 2 of h) is not bound by the body"),
], ids=["body", "head", "second-head-argument"])
def test_horn_messages_name_anonymous_variable_by_place(text, message):
    with pytest.raises(UnsupportedRule, match=re.escape(message)):
        horn_to_bc(parse_horn(text))


def test_parse_horn_rejects_fact_with_variable():
    with pytest.raises(ValueError):
        parse_horn("girl(X).")


@pytest.mark.parametrize("text", ["p([a]).", "q(b c).", "p q.", "p [q](a).",
                                  "p(a(b)).", "p(a)(b).", "p(a)).", "p(a",
                                  "p(a,).", "h(X) :- q(X), .", "h :- , q.",
                                  "p(a) :- ."])
def test_parse_horn_rejects_term_that_is_not_one_word(text):
    with pytest.raises(ValueError):
        parse_horn(text)


@pytest.mark.parametrize("pred, args", [
    ("p", ("a[b",)), ("p", ("a b",)), ("p", ("a,b", Var("X"))),
    ("p", ("a(b)",)), ("p", ("",)), ("p q", ()), ("p(", ("a",)), ("", ())])
def test_atom_rejects_term_that_is_not_a_horn_term(pred, args):
    # horn_to_bc would build a statement that does not parse back as itself
    with pytest.raises(ValueError, match="is not one word"):
        Atom(pred, args)


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

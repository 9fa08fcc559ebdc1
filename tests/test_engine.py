import gc
import random
from itertools import product

import pytest
from hypothesis import given, reject, settings, strategies as st

import bracketc.engine
from bracketc import (ExpansionLimits, NoBracketedStatements, Program,
                      SearchConfig, Statement, UnsupportedRule, cfg_to_bc,
                      closure, compress, expand_statement, horn_to_bc,
                      match_endings, parse_cfg, parse_program, parse_statement,
                      ripe_contents, sample, serialize_statement, words)
from bracketc.engine import TokenCap, _Support

from oracles import (closure_reference, forward_chain, ground, random_cfg,
                     ripe_contents_reference, sample_reference)
from strategies import (CLOSURE_PROGRAM, CLOSURE_STATEMENT, HORN_PROGRAM,
                        STATEMENT)

LIMITS = ExpansionLimits()


def strs(statements):
    return {str(s) for s in statements}


# ---------------------------------------------------------------------------
# ripe_contents


def test_ripe_contents_nested_guard():
    s = parse_statement("[NAME] LIKES PONIES [[NAME] IS A GIRL]")
    assert ripe_contents(s) == [("NAME",)]


def test_ripe_contents_same_content_once():
    assert ripe_contents(parse_statement("A [B][B]")) == [("B",)]


def test_ripe_contents_empty_class():
    assert ripe_contents(parse_statement("A [] [[] C]")) == [()]


def test_ripe_contents_bracket_free():
    assert ripe_contents(parse_statement("A B")) == []


def test_ripe_contents_lists_a_nested_content_in_text_order():
    s = parse_statement("X [[A] B] [C]")
    assert ripe_contents(s) == ripe_contents_reference(s) == [("A",), ("C",)]


@settings(max_examples=1000, deadline=None)
@given(STATEMENT)
def test_ripe_contents_matches_reference(s):
    assert ripe_contents(s) == ripe_contents_reference(s)


# ---------------------------------------------------------------------------
# match_endings


def test_match_endings_prefix():
    assert match_endings(("GIRL",), [words("GIRL", "MARY")]) == {("MARY",)}


def test_match_endings_multiple():
    pool = [words("B", "C"), words("B", "D")]
    assert match_endings(("B",), pool) == {("C",), ("D",)}


def test_match_endings_removal():
    pool = [words("MARY", "IS", "A", "GIRL"), words("OTHER",)]
    assert match_endings(("MARY", "IS", "A", "GIRL"), pool) == {()}


def test_match_endings_empty_content():
    assert match_endings((), [words("B")]) == {("B",)}


@settings(max_examples=200, deadline=None)
@given(CLOSURE_STATEMENT, CLOSURE_PROGRAM)
def test_a_mixed_pool_matches_like_its_bracket_free_part(s, program):
    free = [t for t in program if t.bracket_free]
    for c in (*ripe_contents(s), ()):
        assert match_endings(c, program) == match_endings(c, free)
    assert expand_statement(s, program) == expand_statement(s, free)


# ---------------------------------------------------------------------------
# expand_statement


def test_expand_same_content_consistent():
    s = parse_statement("A [B][B]")
    pool = [words("B", "C"), words("B", "D")]
    assert strs(expand_statement(s, pool)) == {"A C C", "A D D"}


def test_expand_nested_keeps_guard():
    s = parse_statement("[NAME] LIKES PONIES [[NAME] IS A GIRL]")
    pool = [words("NAME", "MARY"), words("NAME", "TOM")]
    assert strs(expand_statement(s, pool)) == {
        "MARY LIKES PONIES [MARY IS A GIRL]",
        "TOM LIKES PONIES [TOM IS A GIRL]",
    }


def test_expand_empty_brackets_same_way():
    s = parse_statement("A [] [[] C]")
    assert strs(expand_statement(s, [words("B")])) == {"A B [B C]"}


def test_expand_all_or_nothing():
    s = parse_statement("A [B] [Z]")
    assert expand_statement(s, [words("B", "C")]) == []


def test_expand_bracket_free_has_no_expansion():
    # no class to fill, so no expansion, not `s` from the empty product
    s = words("B", "C")
    assert expand_statement(s, [s]) == []
    assert expand_statement(s, (), endings={}) == []


def test_expand_varying_ending_lengths():
    s = parse_statement("X [W][W]")
    pool = [words("W", "a"), words("W", "b"), words("W", "c", "c")]
    assert strs(expand_statement(s, pool)) == {"X a a", "X b b", "X c c c c"}


@settings(max_examples=300, deadline=None)
@given(CLOSURE_STATEMENT.filter(lambda s: not s.bracket_free),
       CLOSURE_PROGRAM, st.data())
def test_expand_with_fresh_endings_drops_only_the_all_old_combinations(
        s, program, data):
    pool = [t for t in program if t.bracket_free]
    endings = {c: sorted(match_endings(c, pool))
               for c in ripe_contents_reference(s)}
    fresh = {c: data.draw(st.sets(st.sampled_from(e))) if e else set()
             for c, e in endings.items()}
    full, with_fresh = [], []
    for combo in product(*endings.values()):
        grounded = ground(s.elements, dict(zip(endings, combo)))
        if grounded:
            full.append(Statement(grounded))
            if any(e in fresh[c] for c, e in zip(endings, combo)):
                with_fresh.append(full[-1])
    assert expand_statement(s, pool) == full
    for given_pool in (pool, ()):  # with `endings`, the pool is not read
        assert expand_statement(s, given_pool, endings=endings) == full
        assert expand_statement(s, given_pool, endings=endings,
                                fresh=fresh) == with_fresh
    # `until` ends the walk at the expansion for which it is true
    stop = data.draw(st.integers(0, len(full)))
    for kw, want in (({}, full), ({"fresh": fresh}, with_fresh)):
        seen = []

        def until(out):
            seen.append(out)
            return len(seen) > stop

        got = expand_statement(s, (), endings=endings, until=until, **kw)
        assert got == seen == want[:stop + 1]


@settings(max_examples=300, deadline=None)
@given(CLOSURE_STATEMENT.filter(lambda s: not s.bracket_free),
       CLOSURE_PROGRAM, st.integers(0, 8), st.data())
def test_expand_with_a_token_cap_builds_exactly_the_expansions_that_fit(
        s, program, limit, data):
    pool = [t for t in program if t.bracket_free]
    endings = {c: sorted(match_endings(c, pool)) for c in ripe_contents(s)}
    fresh = {c: data.draw(st.sets(st.sampled_from(e))) if e else set()
             for c, e in endings.items()}
    full = expand_statement(s, (), endings=endings)
    for kw in ({}, {"fresh": fresh}):
        want = expand_statement(s, (), endings=endings, **kw)
        cap = TokenCap(limit)
        got = expand_statement(s, (), endings=endings, tokens=cap, **kw)
        assert got == [out for out in want if len(out.elements) <= limit]
        # a cut is reported exactly when the full product has an expansion
        # over the limit, whether or not it takes a fresh ending
        assert cap.cut == any(len(out.elements) > limit for out in full)


def test_expand_with_a_token_cap_reports_a_cut_of_only_all_old_combinations():
    # Choosing `a a a` for [A] cuts `X a a a b` and `X a a a c`, and neither
    # takes the fresh ending `a`: the cut drops only all-old combinations,
    # which `fresh` would have skipped, and still sets `cut`
    s = parse_statement("X [A] [B]")
    pool = [words("A", "a"), words("A", "a", "a", "a"), words("B", "b"),
            words("B", "c")]
    endings = {c: sorted(match_endings(c, pool)) for c in ripe_contents(s)}
    cap = TokenCap(3)
    got = expand_statement(s, (), endings=endings,
                           fresh={("A",): {("a",)}, ("B",): set()},
                           tokens=cap)
    assert strs(got) == {"X a b", "X a c"}
    assert cap.cut


@settings(max_examples=300, deadline=None)
@given(CLOSURE_STATEMENT.filter(lambda s: not s.bracket_free),
       CLOSURE_PROGRAM, st.integers(0, 8), st.data())
def test_expand_with_a_table_returns_what_it_builds_without(
        s, program, limit, data):
    pool = [t for t in program if t.bracket_free]
    endings = {c: sorted(match_endings(c, pool)) for c in ripe_contents(s)}
    fresh = {c: data.draw(st.sets(st.sampled_from(e))) if e else set()
             for c, e in endings.items()}
    stop = data.draw(st.integers(0, 4))

    def run(table, fresh=None, until=False, limit=None):
        seen = []
        cap = None if limit is None else TokenCap(limit)
        got = expand_statement(
            s, (), endings=endings, fresh=fresh, tokens=cap, table=table,
            until=(lambda out: seen.append(out) or len(seen) > stop)
            if until else None)
        return got, seen, cap and cap.cut

    table = {}
    modes = [{"fresh": fresh}, {"limit": limit}, {"until": True},
             {"fresh": fresh, "limit": limit, "until": True}, {}]
    for kw in modes * 2:  # the second time, every combination is a hit
        assert run(table, **kw) == run(None, **kw)


def test_expand_with_a_table_builds_each_combination_once(monkeypatch):
    # `A` leaves nothing for [A], and that combination is not built again
    s = parse_statement("[A]")
    pool = [words("A"), words("A", "b")]
    built = []
    substitute = bracketc.engine._substitute
    monkeypatch.setattr(bracketc.engine, "_substitute",
                        lambda *args: built.append(args) or substitute(*args))
    table = {}
    for _ in range(2):
        assert expand_statement(s, pool, table=table) == [words("b")]
    assert len(built) == 2


# ---------------------------------------------------------------------------
# closure


def test_closure_girls_ponies(girls_ponies):
    r = closure(girls_ponies, LIMITS)
    assert strs(r.bracket_free) == {
        "GIRL LINDA", "GIRL MARY", "MARY LIKES PONIES", "LINDA LIKES PONIES"}
    assert not r.truncated.any


def test_closure_same_content(same_content_program):
    r = closure(same_content_program, LIMITS)
    assert strs(r.bracket_free) == {"B C", "B D", "A C C", "A D D"}
    assert strs(r.residual) == {"A [B] [B]"}


def test_closure_partition_disjoint(guard_program):
    r = closure(guard_program, LIMITS)
    assert not (set(r.bracket_free) & set(r.residual))
    for st in guard_program:
        assert (st in r.bracket_free) != (st in r.residual)


def test_closure_not_variant(not_program):
    r = closure(not_program, LIMITS)
    assert {"MARY LIKES PONIES", "TOM LIKES PONIES , NOT !"} <= strs(r.bracket_free)


def test_closure_empty_bracket(empty_bracket_program):
    r = closure(empty_bracket_program, ExpansionLimits(max_rounds=1,
                                                      max_statements=100,
                                                      max_tokens_per_statement=16))
    assert "A B [B C]" in strs(r.residual)


def test_closure_addition(addition_program):
    limits = ExpansionLimits(max_rounds=100, max_statements=100_000,
                             max_tokens_per_statement=7)
    r = closure(addition_program, limits)
    sums = [s.words for s in r.bracket_free
            if len(s.words) == 5 and s.words[1] == "+" and s.words[3] == "="]
    assert ("2", "+", "2", "=", "4") in sums
    for n, _, m, _, k in sums:
        assert int(n) + int(m) == int(k)
    got = {(int(n), int(m)) for n, _, m, _, _ in sums}
    assert got == {(n, m) for n in range(11) for m in range(11) if n + m <= 10}


def test_closure_fixpoint_means_no_new(girls_ponies):
    r = closure(girls_ponies, LIMITS)
    assert not r.truncated.any
    pool = list(r.bracket_free)
    for st in r.residual:
        for out in expand_statement(st, pool):
            assert out in r.bracket_free or out in r.residual


def test_closure_order_insensitive(girls_ponies, same_content_program,
                                   guard_program, not_program,
                                   empty_bracket_program):
    rng = random.Random(11)
    for program in (girls_ponies, same_content_program, guard_program,
                    not_program, empty_bracket_program):
        want = frozenset(closure(program, LIMITS).bracket_free)
        for _ in range(20):
            shuffled = list(program)
            rng.shuffle(shuffled)
            assert frozenset(closure(Program(shuffled), LIMITS).bracket_free) == want


def test_closure_monotone_in_limits(addition_program):
    cases = [
        # enlarge one limit at a time; the others stay non-binding
        (ExpansionLimits(max_rounds=6, max_statements=100_000,
                         max_tokens_per_statement=5),
         ExpansionLimits(max_rounds=12, max_statements=100_000,
                         max_tokens_per_statement=5)),
        (ExpansionLimits(max_rounds=100, max_statements=60,
                         max_tokens_per_statement=7),
         ExpansionLimits(max_rounds=100, max_statements=200,
                         max_tokens_per_statement=7)),
        (ExpansionLimits(max_rounds=6, max_statements=100_000,
                         max_tokens_per_statement=5),
         ExpansionLimits(max_rounds=6, max_statements=100_000,
                         max_tokens_per_statement=7)),
    ]
    for small, bigger in cases:
        a = frozenset(closure(addition_program, small).bracket_free)
        b = frozenset(closure(addition_program, bigger).bracket_free)
        assert a <= b


def test_closure_truncation_flags(addition_program):
    r = closure(addition_program, ExpansionLimits(max_rounds=2,
                                                  max_statements=100_000,
                                                  max_tokens_per_statement=7))
    assert r.truncated.rounds and r.truncated.any
    r = closure(addition_program, ExpansionLimits(max_rounds=100,
                                                  max_statements=30,
                                                  max_tokens_per_statement=7))
    assert r.truncated.statements
    assert len(r.bracket_free) + len(r.residual) <= 30


@pytest.fixture
def expansions(monkeypatch):
    """Each result of `expand_statement` that `closure` gets, in order."""
    results = []
    expand = bracketc.engine.expand_statement

    def recorded(*args, **kwargs):
        results.append(expand(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bracketc.engine, "expand_statement", recorded)
    return results


def test_closure_builds_no_expansion_past_the_statement_cap(expansions):
    # Each of the 4 classes, the prefixes of `W V U`, takes an ending from
    # all 12 pool statements: 12**4 = 20,736 combinations from a program of
    # 13 statements, under a cap of 30.
    program = parse_program("\n".join(
        [f"W V U u{i}" for i in range(12)] + ["X [] [W] [W V] [W V U]"]))
    r = closure(program, ExpansionLimits(max_statements=30))
    built = [len(result) for result in expansions]
    assert r.truncated.statements
    assert sum(built) <= 30 - len(program) + 1


@pytest.mark.parametrize("program,limits,cap", [
    # Dyck words: 39,006 expansions built to keep 393 when built first and
    # tested after
    (cfg_to_bc(parse_cfg("S -> L S R S | eps")),
     ExpansionLimits(100, 200_000, 14), 14),
    # a random grammar that built millions of expansions over the cap
    (cfg_to_bc(random_cfg(random.Random(347))),
     ExpansionLimits(60, 200_000, 10), 10),
])
def test_closure_builds_no_expansion_over_the_token_cap(expansions, program,
                                                        limits, cap):
    r = closure(program, limits)
    built = [out for result in expansions for out in result]
    assert r.truncated.tokens and not r.truncated.statements
    assert built and max(len(out.elements) for out in built) <= cap
    assert set(built) <= set(r.bracket_free) | set(r.residual)


def _same_closure(program, limits):
    got = closure(program, limits)
    want = closure_reference(program, limits)
    assert got.bracket_free == want.bracket_free
    assert got.residual == want.residual
    assert got.truncated == want.truncated
    assert got.rounds_used == want.rounds_used
    return got


@settings(max_examples=200, deadline=None)
@given(CLOSURE_PROGRAM, st.integers(1, 8), st.integers(1, 30),
       st.integers(1, 8))
def test_closure_matches_reference_random(program, rounds, statements,
                                          tokens):
    _same_closure(program, ExpansionLimits(rounds, statements, tokens))


@settings(max_examples=200, deadline=None)
@given(CLOSURE_PROGRAM, st.integers(1, 8), st.integers(1, 30),
       st.integers(1, 8))
def test_closure_with_a_shared_table_matches_closure_without(
        program, rounds, statements, tokens):
    # a program and each of its one-statement deletions, as a search scores
    # them, closed through one table
    limits = ExpansionLimits(rounds, statements, tokens)
    stmts = list(program)
    table = {}
    for p in [program, *(Program(stmts[:i] + stmts[i + 1:])
                         for i in range(len(stmts)))]:
        assert closure(p, limits, table=table) == closure(p, limits)


# The naive `closure_reference` limits this test: it builds every
# combination and then tests its tokens, so on some grammars it builds
# millions of expansions at 10 tokens.  `test_cfg_equivalence_random`
# checks `closure` alone there, on more seeds.
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 299))
def test_closure_matches_reference_cfg(seed):
    program = cfg_to_bc(random_cfg(random.Random(seed)))
    _same_closure(program, ExpansionLimits(40, 200_000, 8))


@settings(max_examples=200, deadline=None)
@given(HORN_PROGRAM)
def test_closure_matches_reference_and_forward_chaining_horn(h):
    try:
        program = horn_to_bc(h)
    except UnsupportedRule:
        reject()
    r = _same_closure(program, LIMITS)
    assert not r.truncated.any
    preds = {a.pred for a in h.facts} | {rule.head.pred for rule in h.rules}
    assert {s.words for s in r.bracket_free
            if s.words[0] in preds} == forward_chain(h)


def test_closure_leaves_the_token_flag_for_a_program_statement_over_the_cap():
    # `X [A] [A]` rebuilds only `X b b`, which is known and over the cap, so
    # the closure skips it unflagged, as the reference does
    program = parse_program("A b\nX b b\nX [A] [A]")
    r = _same_closure(program, ExpansionLimits(100, 100, 2))
    assert not r.truncated.any and r.rounds_used == 1


def test_closure_flags_a_cut_of_only_all_old_combinations():
    # Round 1 cuts `X a a a b` and keeps `A z`; in round 2 the walk of
    # `X [A] [B]` drops only the all-old `(a a a, b)` again, and builds
    # `X z b`, which has the fresh `z`
    program = parse_program("A a\nA a a a\nA [D]\nD z\nB b\nX [A] [B]")
    r = _same_closure(program, ExpansionLimits(100, 1000, 4))
    assert r.truncated.tokens and r.rounds_used == 3


# `X [A] [B]` takes a fresh A ending in round 2 and a fresh B ending in
# round 3; `A [P]` and `Q [R]` have no fresh ending after round 1; the empty
# class of `Y [] [A]` has fresh endings every round until the token cap.
MULTI_ROUND = parse_program(
    "A a0\nB b0\nP a1\nR b1\nA [P]\nQ [R]\nB [Q]\nX [A] [B]\nY [] [A]")


def test_closure_matches_reference_multi_round_at_every_cap():
    r = _same_closure(MULTI_ROUND, ExpansionLimits(100, 100_000, 5))
    assert r.truncated.tokens and r.rounds_used == 5
    assert [str(s) for s in r.bracket_free if s.words[0] == "X"] == [
        "X a0 b0", "X a1 b0", "X a0 b1", "X a1 b1"]
    size = len(r.bracket_free) + len(r.residual)
    for cap in range(len(MULTI_ROUND), size):
        capped = _same_closure(MULTI_ROUND, ExpansionLimits(100, cap, 5))
        assert capped.truncated.statements
    for rounds in range(1, 5):
        assert _same_closure(MULTI_ROUND, ExpansionLimits(
            rounds, 100_000, 5)).truncated.rounds


@pytest.mark.parametrize("limits,flag", [
    (ExpansionLimits(2, 100_000, 7), "rounds"),
    (ExpansionLimits(100, 30, 7), "statements"),
    (ExpansionLimits(100, 100_000, 4), "tokens"),
])
def test_closure_matches_reference_tight_limits(addition_program, limits,
                                                flag):
    r = _same_closure(addition_program, limits)
    assert getattr(r.truncated, flag)


@pytest.mark.parametrize("limits,flag", [
    (ExpansionLimits(100, 30, 7), "statements"),
    (ExpansionLimits(100, 100_000, 4), "tokens"),
])
def test_closure_truncated_any_when_one_cap_trips(addition_program, limits,
                                                  flag):
    flags = closure(addition_program, limits).truncated
    assert flags.any
    assert [name for name in ("rounds", "statements", "tokens")
            if getattr(flags, name)] == [flag]


# ---------------------------------------------------------------------------
# sample


@pytest.mark.parametrize("field", ["max_rounds", "max_statements",
                                   "max_tokens_per_statement"])
def test_expansion_limits_reject_zero(field):
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match=field):
            ExpansionLimits(**{field: bad})


def test_sample_deterministic(girls_ponies):
    a = sample(girls_ponies, LIMITS, seed=5, count=4)
    b = sample(girls_ponies, LIMITS, seed=5, count=4)
    assert a == b


def test_sample_members_of_closure(sibling_horn):
    from bracketc import horn_to_bc
    program = horn_to_bc(sibling_horn)
    pool = frozenset(closure(program, LIMITS).bracket_free)
    out = sample(program, LIMITS, seed=1, count=3)
    assert len(out) == 3
    for st in out:
        assert st in pool


def test_sample_needs_brackets():
    with pytest.raises(NoBracketedStatements):
        sample(parse_program("A B\nC D"), LIMITS, seed=0, count=1)


def test_sample_rejects_negative_count(girls_ponies):
    for bad in (-3, 2.5, True):
        with pytest.raises(ValueError, match="count"):
            sample(girls_ponies, LIMITS, seed=0, count=bad)


def test_sample_rejects_a_seed_that_is_not_an_int(girls_ponies):
    for bad in (None, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            sample(girls_ponies, LIMITS, seed=bad, count=1)


def test_sample_golden(sibling_horn, addition_program):
    program = horn_to_bc(sibling_horn)
    goldens = {
        0: ["SIBLING SALLY ERICA", "SIBLING SALLY SALLY", "SIBLING SALLY POLY",
            "FC2 JAMES", "SIBLING JAMES ERICA"],
        1: ["FC2 ERICA", "SIBLING ERICA SALLY", "SIBLING SALLY SALLY",
            "FC2 ERICA", "SIBLING ERICA SALLY"],
        17: ["SIBLING POLY POLY", "SIBLING JAMES POLY", "FC2 ERICA",
             "FC2 SALLY", "SIBLING POLY POLY"],
    }
    for seed, want in goldens.items():
        assert [str(s) for s in sample(program, LIMITS, seed, 5)] == want
    limits = ExpansionLimits(max_tokens_per_statement=7)
    assert [str(s) for s in sample(addition_program, limits, 3, 8)] == [
        "BEFORE 8 IS 7", "ANOTHER NUMBER 8", "9 + 0 = 9", "1 + 8 = 9",
        "2 + 2 = 4", "NUMBER 10", "ANOTHER NUMBER 0", "ANOTHER NUMBER 6"]


@pytest.mark.parametrize("text, limits", [
    ("A\n[A]", LIMITS),  # [A] takes the empty ending and leaves nothing
    ("A x y z\n[A] [A]", ExpansionLimits(max_tokens_per_statement=4)),
])
def test_sample_drops_a_draw_that_is_empty_or_over_the_token_cap(text, limits):
    assert sample(parse_program(text), limits, 0, 3) == []


@settings(max_examples=200, deadline=None)
@given(CLOSURE_PROGRAM.filter(lambda p: any(not s.bracket_free for s in p)),
       st.integers(1, 8), st.integers(1, 30), st.integers(1, 8),
       st.integers(0, 2**32), st.integers(0, 6))
def test_sample_matches_reference_random(program, rounds, statements, tokens,
                                         seed, count):
    limits = ExpansionLimits(rounds, statements, tokens)
    assert sample(program, limits, seed, count) == sample_reference(
        program, limits, seed, count)


def test_sample_draws_nothing_for_an_ungroundable_statement():
    # Y [A] [NOPE] cannot ground, so picking it draws no ending for [A]
    program = parse_program("A a1\nA a2\nA a3\nA a4\nX [A]\nY [A] [NOPE]")
    assert [str(s) for s in sample(program, LIMITS, 0, 4)] == [
        "X a3", "X a2", "X a1", "X a3"]


# ---------------------------------------------------------------------------
# deletion support (delete and rederive)


def deletion(program, text):
    """`program` less its statement `text`, and that statement."""
    [s] = [st for st in program if str(st) == text]
    return Program(st for st in program if st is not s), s


def lost_in_full(program, child, limits):
    """The bracket-free statements that full closures of `program` and of
    `child` differ by, as `_Support.deleted` names them (elements)."""
    keep = {st.elements for st in closure(child, limits).bracket_free}
    return {st.elements for st in closure(program, limits).bracket_free
            if st.elements not in keep}


def support(program, limits):
    """`program`'s `_Support`, from its closure made through a fresh table
    by `bracketc.engine.closure`, as the search makes it."""
    table = {}
    result = bracketc.engine.closure(program, limits, table=table)
    return _Support(program, result, limits, table)


def test_support_falls_back_for_a_statement_capped_parent():
    program = parse_program("A\nB [A]\nC [B]\nD [C]")
    limits = ExpansionLimits(max_statements=5)
    assert closure(program, limits).truncated.statements
    child, s = deletion(program, "A")
    assert support(program, limits).deleted(s) is None
    assert support(program, LIMITS).deleted(s) == \
        lost_in_full(program, child, LIMITS) == {("A",), ("B",), ("C",),
                                                 ("D",)}


def test_support_falls_back_for_a_program_over_the_statement_cap():
    # the parent derives only `A`, which it holds; its child, at the cap of
    # 2 statements, would have to add `A` again
    program = parse_program("A\nB\n[B] A")
    limits = ExpansionLimits(max_statements=2)
    assert not closure(program, limits).truncated.any
    child, s = deletion(program, "A")
    assert support(program, limits).deleted(s) is None
    assert closure(child, limits).truncated.statements
    assert support(program, ExpansionLimits(max_statements=3)).deleted(
        s) == set()


def test_support_falls_back_for_a_deleted_statement_over_the_token_cap():
    # `A B C D` is over the cap of 3 and derived again from `A [X] C D`:
    # the parent skips it as known, but its child must flag `tokens`
    program = parse_program("X B\nA [X] C D\nA B C D")
    limits = ExpansionLimits(max_tokens_per_statement=3)
    assert not closure(program, limits).truncated.any
    child, s = deletion(program, "A B C D")
    assert support(program, limits).deleted(s) is None
    assert closure(child, limits).truncated.tokens


CHAIN = parse_program("\n".join(
    ["X1", *(f"X{k} [X{k - 1}]" for k in range(2, 9)), "X5"]))


@pytest.mark.parametrize("max_rounds", [7, 8])
def test_support_falls_back_where_a_deletion_may_reach_max_rounds(max_rounds):
    # X5 starts X6..X8 at round 1; deleted, it is derived at round 4 and X8
    # at round 7, so the child is truncated exactly when max_rounds <= 7
    limits = ExpansionLimits(max_rounds=max_rounds)
    parent = closure(CHAIN, limits)
    assert (parent.rounds_used, parent.truncated.any) == (4, False)
    child, s = deletion(CHAIN, "X5")
    full = closure(child, limits)
    lost = support(CHAIN, limits).deleted(s)
    if max_rounds == 7:
        assert lost is None and full.truncated.rounds
    else:
        assert lost == set() == lost_in_full(CHAIN, child, limits)
        assert (full.rounds_used, full.truncated.any) == (8, False)


def test_support_derives_a_deleted_statement_again():
    program = parse_program("A\nB [A]\nB\nC [B]")
    child, s = deletion(program, "B")
    assert support(program, LIMITS).deleted(s) == set() == \
        lost_in_full(program, child, LIMITS)


def test_support_puts_a_program_statement_back_before_it_derives_again():
    # deleting A over-deletes B and C; B, a program statement, is put back
    # at once, and C then has a derivation from it.  `[A]` takes A's empty
    # ending and leaves nothing, which is no derivation.
    program = parse_program("A\n[A]\nB [A]\nB\nC [B]\nD [A]")
    child, s = deletion(program, "A")
    assert support(program, LIMITS).deleted(s) == \
        lost_in_full(program, child, LIMITS) == {("A",), ("D",)}


def test_support_raises_for_a_combination_missing_from_the_table(
        monkeypatch):
    full = bracketc.engine.closure

    def forgetting(p, limits, table):
        result = full(p, limits, table=table)
        for built in table.values():
            built.clear()
        return result

    monkeypatch.setattr(bracketc.engine, "closure", forgetting)
    with pytest.raises(KeyError):
        support(parse_program("A\nB [A]"), LIMITS)


# ---------------------------------------------------------------------------
# round trip


@settings(max_examples=200, deadline=None)
@given(CLOSURE_PROGRAM, st.integers(1, 8), st.integers(1, 30),
       st.integers(1, 8), st.integers(0, 2**32))
def test_closure_and_sample_statements_round_trip(program, rounds, statements,
                                                  tokens, seed):
    limits = ExpansionLimits(rounds, statements, tokens)
    r = closure(program, limits)
    drawn = sample(program, limits, seed, 4) if r.residual else []
    for s in (*r.bracket_free, *r.residual, *drawn):
        assert parse_statement(serialize_statement(s)) == s


# ---------------------------------------------------------------------------
# garbage


def test_closure_sample_and_compress_leave_no_cyclic_garbage(
        addition_program, templated_corpus):
    """A reference cycle keeps what it holds alive until the cyclic
    collector runs, so with the collector off no call may leave one."""
    limits = ExpansionLimits(max_tokens_per_statement=7)
    calls = [lambda: closure(addition_program, limits),
             lambda: sample(addition_program, limits, 0, 4),
             lambda: compress(templated_corpus,
                              SearchConfig(budget_chars=60, max_iterations=2))]
    gc.collect()
    gc.disable()
    try:
        found = []
        for call in calls:
            call()
            found.append(gc.collect())
    finally:
        gc.enable()
    assert found == [0, 0, 0]

import importlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bracketc import (BudgetTooSmall, EmptyCorpus, ExpansionLimits,
                      FrontierPoint, Program, SearchConfig, Statement, closure,
                      compress, evaluate, frontier_sweep, induce_slots,
                      neighbors, parse_program, parse_statement, program_size,
                      reference_points, words)
from bracketc.cli import main
from bracketc.compress import (_candidate, _greedy_prefix, _Search,
                               evaluate_program)
from bracketc.syntax import STATEMENT_SEPARATOR

from oracles import compress_reference
from strategies import CLOSURE_PROGRAM, CORPUS, WORD


def config(budget, **kw):
    kw.setdefault("seed", 1)
    kw.setdefault("max_iterations", 4)
    kw.setdefault("beam_width", 8)
    return SearchConfig(budget_chars=budget, **kw)


# ---------------------------------------------------------------------------
# induce_slots


def test_induce_slots_father_template():
    corpus = [parse_statement(f"TOM IS {n} 'S FATHER")
              for n in ("SALLY", "ERICA", "JAMES")]
    program = induce_slots(corpus)
    assert {str(s) for s in program} == {
        "CAT0 SALLY", "CAT0 ERICA", "CAT0 JAMES",
        "TOM IS [CAT0] 'S FATHER"}


def test_induce_slots_singleton_corpus():
    corpus = [words("ONLY", "ONE", "SENTENCE")]
    assert list(induce_slots(corpus)) == corpus


def test_induce_slots_no_shared_structure():
    corpus = [words("AA", "BB"), words("CC", "DD"), words("EE", "FF")]
    program = induce_slots(corpus)
    assert list(program) == corpus
    result = closure(program, ExpansionLimits())
    report = evaluate(result.bracket_free, corpus, program_size(program))
    assert report.accuracy == 1 and report.completeness == 1


def test_induce_slots_closure_covers_corpus(templated_corpus):
    program = induce_slots(templated_corpus)
    covered = frozenset(closure(program, ExpansionLimits()).bracket_free)
    assert set(templated_corpus) <= covered


def test_induce_slots_category_avoids_vocab():
    corpus = [words("CAT0", "A", "X"), words("CAT0", "A", "Y"),
              words("CAT0", "B", "X")]
    program = induce_slots(corpus)
    # the fresh category word must not collide with the corpus word CAT0
    fresh = {s.words[0] for s in program
             if s.bracket_free and s not in corpus}
    assert fresh and "CAT0" not in fresh


# ---------------------------------------------------------------------------
# neighbors


def test_neighbors_deterministic(templated_corpus):
    cfg = config(200)
    program = induce_slots(templated_corpus)
    a = neighbors(program, templated_corpus, cfg, random.Random(3))
    b = neighbors(program, templated_corpus, cfg, random.Random(3))
    assert [str(p) for p in a] == [str(p) for p in b]


def test_neighbors_delete_shrinks(templated_corpus):
    cfg = config(300)
    program = induce_slots(templated_corpus)
    base_cover = frozenset(closure(program, cfg.limits).bracket_free)
    base_size = program_size(program)
    deletions = [p for p in neighbors(program, templated_corpus, cfg,
                                      random.Random(0))
                 if len(p) == len(program) - 1 and all(s in program for s in p)]
    assert deletions
    for p in deletions:
        assert program_size(p) < base_size
        assert frozenset(closure(p, cfg.limits).bracket_free) <= base_cover


def test_neighbors_add_verbatim_raises_completeness(templated_corpus):
    cfg = config(400)
    half = Program(templated_corpus[:6])
    cand = evaluate_program(half, templated_corpus, cfg)
    n = len(templated_corpus)
    adds = [p for p in neighbors(half, templated_corpus, cfg, random.Random(0))
            if len(p) == len(half) + 1 and all(s in p for s in half)]
    assert adds
    for p in adds:
        after = evaluate_program(p, templated_corpus, cfg)
        gain = after.report.completeness - cand.report.completeness
        assert gain == Fraction(1, n)


def test_neighbors_merge_cross_product():
    corpus = [parse_statement(x) for x in
              ("F SALLY X", "F ERICA X", "G JAMES Y", "G BELLA Y")]
    program = Program([parse_statement(x) for x in
                       ("CAT0 SALLY", "CAT0 ERICA", "F [CAT0] X",
                        "CAT1 JAMES", "CAT1 BELLA", "G [CAT1] Y")])
    cfg = config(300)
    merged = [p for p in neighbors(program, corpus, cfg, random.Random(0))
              if "CAT1" not in str(p)]
    assert merged
    cover = frozenset(closure(merged[0], cfg.limits).bracket_free)
    for name in ("SALLY", "ERICA", "JAMES", "BELLA"):
        assert parse_statement(f"F {name} X") in cover
        assert parse_statement(f"G {name} Y") in cover


def test_neighbors_alias_avoids_words_inside_brackets():
    # CAT1 occurs only in brackets and as the head of a bracketed alias
    # statement; reusing it for the new alias would tie two slots together
    corpus = [words(*t) for t in product("ab", repeat=3)]
    program = parse_program("CAT0 a\nCAT0 b\n[CAT0] [CAT1] a\nCAT1 [CAT0]")
    cfg = config(100)
    out = {str(p) for p in neighbors(program, corpus, cfg, random.Random(0))}
    assert "CAT0 a\nCAT0 b\n[CAT0] [CAT1] [CAT1]\nCAT1 [CAT0]" not in out
    fresh = "CAT0 a\nCAT0 b\n[CAT0] [CAT1] [CAT2]\nCAT1 [CAT0]\nCAT2 [CAT0]"
    assert fresh in out
    report = evaluate_program(parse_program(fresh), corpus, cfg).report
    assert report.completeness == 1


def test_neighbors_alias_a_category_that_a_nested_bracket_holds():
    # [CAT0] inside [[CAT0] Y] is ripe, so the same-content rule would tie
    # a second [CAT0] to it: factoring k into the slot needs an alias too
    program = parse_program(
        "CAT0 a\nCAT0 b\na Y z1\nb Y z2\nX [[CAT0] Y] k\nCAT0 k")
    corpus = [words("X", z, w) for z in ("z1", "z2") for w in "abk"]
    cfg = config(300)
    out = {str(p): p for p in neighbors(program, corpus, cfg, random.Random(0))}
    head = "CAT0 a\nCAT0 b\na Y z1\nb Y z2\n"
    assert head + "X [[CAT0] Y] [CAT0]\nCAT0 k" not in out
    factored = out[head + "X [[CAT0] Y] [CAT1]\nCAT0 k\nCAT1 [CAT0]"]
    assert set(corpus) <= set(closure(factored, cfg.limits).bracket_free)


def test_neighbors_cap_samples_a_sorted_subset(monkeypatch):
    # a verbatim program of 320 sentences: its 320 deletions are its only
    # neighbours, over the cap of 300
    corpus = [words(f"W{i}", "X") for i in range(320)]
    cfg = config(10_000)
    program = Program(corpus)
    capped = neighbors(program, corpus, cfg, random.Random(4))
    assert len(capped) == 300
    assert [str(p) for p in capped] == sorted(str(p) for p in capped)
    assert capped == neighbors(program, corpus, cfg, random.Random(4))
    assert capped != neighbors(program, corpus, cfg, random.Random(5))
    module = importlib.import_module("bracketc.compress")
    monkeypatch.setattr(module, "_MAX_NEIGHBORS", 1_000)
    every = neighbors(program, corpus, cfg, random.Random(4))
    assert len(every) == 320
    assert set(capped) < set(every)


def test_neighbors_widen_only_a_category_slot():
    # [N Y] holds two words and Z heads no statement, so neither is a
    # category that move (d) could widen with N c or Z c
    corpus = [parse_statement(x) for x in
              ("F a X", "F b X", "G c Y X", "H c X")]
    program = parse_program("N a\nF [N] X\nG [N Y] X\nH [Z] X")
    cfg = config(300)
    out = neighbors(program, corpus, cfg, random.Random(0))
    assert any(words("N", "b") in p for p in out)
    assert not any(words("N", "c") in p or words("Z", "c") in p for p in out)


@settings(max_examples=50, deadline=None)
@given(CORPUS)
def test_induced_and_neighbour_programs_round_trip(corpus):
    program = induce_slots(corpus)
    assert parse_program(str(program)) == program
    cfg = config(40)
    for p in neighbors(program, corpus, cfg, random.Random(0)):
        assert parse_program(str(p)) == p


@settings(max_examples=50, deadline=None)
@given(CORPUS, st.integers(1, 40))
def test_neighbours_are_duplicate_free_with_their_canonical_text(corpus,
                                                                  budget):
    cfg = config(40)
    starts = [induce_slots(corpus), _greedy_prefix(corpus, budget)]
    for start in starts:
        for p in neighbors(start, corpus, cfg, random.Random(0)):
            for q in neighbors(p, corpus, cfg, random.Random(0)):
                assert q.statements == tuple(dict.fromkeys(q.statements))
                assert str(q) == STATEMENT_SEPARATOR.join(map(str, q.statements))
                rebuilt = Program(q.statements)
                assert q == rebuilt and hash(q) == hash(rebuilt)


def test_neighbours_of_the_empty_program_add_one_sentence_each():
    corpus = [words("A", "B"), words("C")]
    out = neighbors(Program([]), corpus, config(40), random.Random(0))
    assert out == [Program([s]) for s in corpus]
    assert [str(p) for p in out] == ["A B", "C"]


def test_neighbours_print_each_statement_once(monkeypatch):
    # bracket-free, so no category: moves (a), (d) and (e) emit nothing, and
    # each deletion and addition is joined from texts printed once per call
    corpus = [words(f"W{i}", "X") for i in range(40)]
    program = Program(corpus[:25])
    printed = []
    show = Statement.__str__

    def counted(st):
        printed.append(st)
        return show(st)

    monkeypatch.setattr(Statement, "__str__", counted)
    out = neighbors(program, corpus, config(10_000), random.Random(0))
    assert len(out) == 25 + 15
    assert len(printed) <= len(program) + len(corpus)


# ---------------------------------------------------------------------------
# compress


@settings(max_examples=200, deadline=None)
@given(CORPUS, st.integers(1, 40))
def test_greedy_prefix_picks_as_program_size_of_each_trial_program(corpus,
                                                                   budget):
    picked = []
    for sent in corpus:
        if program_size(Program(picked + [sent])) <= budget:
            picked.append(sent)
    assert _greedy_prefix(corpus, budget) == Program(picked)


def test_compress_budget_too_small(templated_corpus):
    with pytest.raises(BudgetTooSmall):
        compress(templated_corpus, config(3))
    with pytest.raises(EmptyCorpus):
        compress([], config(3))


@settings(max_examples=60, deadline=None)
@given(CORPUS, st.integers(-2, 2))
def test_compress_budget_too_small_iff_no_statement_fits(corpus, offset):
    budget = max(1, min(len(str(s)) for s in corpus) + offset)
    cfg = config(budget, max_iterations=1)
    if any(program_size(Program([s])) <= budget for s in corpus):
        assert program_size(compress(corpus, cfg).program) <= budget
    else:
        with pytest.raises(BudgetTooSmall, match=f"budget {budget} fits no"):
            compress(corpus, cfg)


def test_compress_full_budget(templated_corpus):
    raw = program_size(Program(templated_corpus))
    cand = compress(templated_corpus, config(raw))
    assert cand.report.accuracy == 1 and cand.report.completeness == 1
    assert program_size(cand.program) <= raw


def test_compress_tiny_budget(templated_corpus):
    budget = len(str(templated_corpus[0])) + 1 + len(str(templated_corpus[1]))
    cand = compress(templated_corpus, config(budget))
    assert cand.report.accuracy == 1
    assert cand.report.completeness == Fraction(2, 12)
    assert program_size(cand.program) <= budget


def test_compress_never_over_budget(templated_corpus):
    raw = program_size(Program(templated_corpus))
    for frac in (0.3, 0.6, 1.0):
        cand = compress(templated_corpus, config(int(raw * frac)))
        assert program_size(cand.program) <= int(raw * frac)


def test_evaluate_program_closes_no_program_over_budget(templated_corpus,
                                                        monkeypatch):
    program = Program(templated_corpus)
    cfg = config(program_size(program) - 1)

    def no_closure(*args):
        raise AssertionError("closure called")

    monkeypatch.setattr(importlib.import_module("bracketc.compress"),
                        "closure", no_closure)
    over = evaluate_program(program, templated_corpus, cfg)
    assert over.report is None and over.objective == float("-inf")
    monkeypatch.undo()
    within = evaluate_program(program, templated_corpus,
                              config(program_size(program)))
    assert within.report == evaluate(templated_corpus, templated_corpus,
                                     program_size(program), False)
    assert within.objective == 1.5


def test_compress_beats_starts(templated_corpus):
    cfg = config(160)
    starts = [_greedy_prefix(templated_corpus, cfg.budget_chars),
              induce_slots(templated_corpus)]
    cand = compress(templated_corpus, cfg)
    for start in starts:
        assert cand.objective >= evaluate_program(
            start, templated_corpus, cfg).objective


def test_compress_deterministic(templated_corpus):
    cfg = config(170, seed=9)
    a = compress(templated_corpus, cfg)
    b = compress(templated_corpus, cfg)
    assert str(a.program) == str(b.program)
    assert a.objective == b.objective


def test_compress_report_matches_pipeline(templated_corpus):
    cfg = config(170)
    cand = compress(templated_corpus, cfg)
    result = closure(cand.program, cfg.limits)
    fresh = evaluate(result.bracket_free, templated_corpus,
                     program_size(cand.program), result.truncated.any)
    assert fresh == cand.report


@settings(max_examples=100, deadline=None)
@given(CORPUS, st.integers(10, 60), st.sampled_from((0, 0.5, 2)),
       st.integers(0, 3))
def test_compress_matches_reference(corpus, budget, lam, seed):
    cfg = SearchConfig(budget_chars=budget, lambda_accuracy=lam, seed=seed)
    got = compress(corpus, cfg)
    want = compress_reference(corpus, cfg)
    assert got.program == want.program
    assert got.report == want.report
    assert got.objective == want.objective


def deletion_reports(program, corpus, cfg):
    """(report from the parent's support or None, full report) for each
    deletion of a bracket-free statement of `program`, scored as a search
    scores the neighbours of its beam member `program`."""
    search = _Search(corpus, cfg)
    search._take(program)
    for s in program:
        if s.bracket_free:
            child = Program(st for st in program if st is not s)
            yield (search._deletion(child, program_size(child)),
                   evaluate_program(child, corpus, cfg).report)


@settings(max_examples=150, deadline=None)
@given(CLOSURE_PROGRAM,
       st.lists(st.lists(WORD, min_size=1, max_size=3).map(
           lambda ws: Statement(tuple(ws))), min_size=1, max_size=6),
       st.builds(ExpansionLimits, max_rounds=st.integers(1, 8),
                 max_statements=st.integers(5, 200),
                 max_tokens_per_statement=st.integers(2, 8)))
def test_a_deletion_scored_from_its_parent_equals_its_full_score(
        program, corpus, limits):
    cfg = config(program_size(program), limits=limits)
    for got, want in deletion_reports(program, corpus, cfg):
        assert got is None or got == want


@pytest.mark.parametrize("limits, scored", [
    (ExpansionLimits(), 11), (ExpansionLimits(max_statements=100), 0)])
def test_a_deletion_from_the_addition_program_scores_as_its_closure(
        addition_program, limits, scored):
    # recursive support: every deletion of its 11 facts is scored from the
    # parent's derivations, unless the parent (108 statements) is capped
    pool = closure(addition_program, ExpansionLimits()).bracket_free
    corpus = [*pool[::3], words("NOT", "DERIVED")]
    cfg = config(program_size(addition_program), limits=limits)
    reports = list(deletion_reports(addition_program, corpus, cfg))
    assert len(reports) == 11
    assert sum(got is not None for got, _ in reports) == scored
    for got, want in reports:
        assert got is None or got == want


def bench_shaped_corpus():
    """4 templates x 10 fillers of six-letter words, as the benchmark's
    compress-search corpus is built, the template words sorting first."""
    slots = {f"t{i}": f"AAAA{i}A" for i in range(10)}
    templates = ("{t0} {t1} {x} {t2} {t3}", "{x} {t4} {t5} {t6}",
                 "{t7} {x} {t8}", "{t9} {t1} {t4} {x}")
    return [words(*t.format(x=f"BBBB{j}B", **slots).split())
            for t in templates for j in range(10)]


def test_compress_of_templated_corpora_matches_reference(templated_corpus):
    # the reference closes every program it scores
    for corpus in (templated_corpus, bench_shaped_corpus()):
        raw = program_size(Program(corpus))
        for share in (3, 5, 7):
            cfg = config(raw * share // 10, seed=0, max_iterations=8)
            assert compress(corpus, cfg) == compress_reference(corpus, cfg)


def test_compress_closes_a_deletion_neighbour_only_to_fall_back(
        templated_corpus, monkeypatch):
    # a deletion of a bracket-free statement is scored from its parent's
    # derivations: 81 closures, against 212 when each was closed
    calls = []
    full = closure

    def counting(*args, **kwargs):
        calls.append(args[0])
        return full(*args, **kwargs)

    for module in ("bracketc.compress", "bracketc.engine"):
        monkeypatch.setattr(importlib.import_module(module), "closure",
                            counting)
    compress(templated_corpus, SearchConfig(budget_chars=170))
    assert 0 < len(calls) <= 110


def test_compress_closes_each_beam_member_once(templated_corpus,
                                              monkeypatch):
    # a program is closed at most once to be scored and once as a beam
    # member, whose one closure serves both move (c) and its support
    closed = Counter()
    full = closure

    def counting(*args, **kwargs):
        closed[args[0]] += 1
        return full(*args, **kwargs)

    for module in ("bracketc.compress", "bracketc.engine"):
        monkeypatch.setattr(importlib.import_module(module), "closure",
                            counting)
    compress(templated_corpus, SearchConfig(budget_chars=170))
    assert closed and max(closed.values()) <= 2
    assert sum(closed.values()) <= 85


def test_compress_samples_capped_neighbours_as_the_reference_does(monkeypatch):
    # the verbatim program of 310 sentences has 310 deletions, its only
    # neighbours, over the cap: its one iteration scores the 300 at the
    # indices a fresh Random(seed) samples from their sorted list.  A
    # program is seen scored where its `Candidate` is built, which both the
    # full closure and a deletion scored from its parent pass through.
    corpus = [words(f"W{i}", "X") for i in range(310)]
    program = Program(corpus)
    deletions = sorted((Program(corpus[:i] + corpus[i + 1:])
                        for i in range(310)), key=str)
    scored = []

    def recording(p, *args):
        scored.append(p)
        return _candidate(p, *args)

    module = importlib.import_module("bracketc.compress")
    samples = []
    for seed in (0, 1):
        cfg = config(program_size(program), seed=seed, max_iterations=1)
        scored.clear()
        monkeypatch.setattr(module, "_candidate", recording)
        got = compress(corpus, cfg)
        monkeypatch.undo()
        samples.append(set(scored))
        want = compress_reference(corpus, cfg)
        assert got.program == want.program
        assert got.report == want.report
        assert got.objective == want.objective
        drawn = random.Random(seed).sample(range(310), 300)
        assert samples[-1] == {program, *(deletions[i] for i in drawn)}
    assert samples[0] != samples[1]


def test_compress_draws_a_fresh_sample_for_a_kept_capped_member(monkeypatch):
    # the verbatim program of 310 sentences is kept for a second iteration,
    # where its deletions, over the cap, come from its stored list: the
    # sample drawn from that list must be the one a fresh list gives.  The
    # reference scores through `evaluate_program`, which builds its
    # `Candidate` in the same place, so each search is recorded in turn.
    corpus = [words(f"W{i}", "X") for i in range(310)]
    budget = program_size(Program(corpus))
    module = importlib.import_module("bracketc.compress")

    def recording(scored):
        def candidate(p, *args):
            scored.add(p)
            return _candidate(p, *args)
        return candidate

    for seed in (0, 1):
        cfg = config(budget, seed=seed, max_iterations=2)
        got, want = set(), set()
        monkeypatch.setattr(module, "_candidate", recording(got))
        found = compress(corpus, cfg)
        monkeypatch.setattr(module, "_candidate", recording(want))
        assert found == compress_reference(corpus, cfg)
        monkeypatch.undo()
        assert len(got) > 1 + 300  # the second iteration scored programs
        assert got == want


def test_compress_builds_no_combination_twice(templated_corpus, monkeypatch):
    engine = importlib.import_module("bracketc.engine")
    substitute = engine._substitute
    built = Counter()
    depth = []  # the calls `_substitute` makes itself, for nested brackets

    def counting(elements, assignment):
        if not depth:
            built[elements, tuple(assignment.items())] += 1
        depth.append(elements)
        try:
            return substitute(elements, assignment)
        finally:
            depth.pop()

    monkeypatch.setattr(engine, "_substitute", counting)
    compress(templated_corpus, config(170))
    assert built and max(built.values()) == 1


def test_compress_and_reference_reject_an_empty_corpus():
    for search in (compress, compress_reference):
        with pytest.raises(EmptyCorpus):
            search([], config(10))


# ---------------------------------------------------------------------------
# frontier


def test_reference_points(templated_corpus):
    pts = {p.method_label: p.report for p in reference_points(templated_corpus)}
    assert (pts["a"].accuracy, pts["a"].completeness) == (1, Fraction(1, 2))
    assert (pts["b"].accuracy, pts["b"].completeness) == \
        (Fraction(1, 2), Fraction(1, 2))
    assert (pts["c"].accuracy, pts["c"].completeness) == (1, 1)


def test_frontier_sweep_rows(templated_corpus):
    raw = program_size(Program(templated_corpus))
    pts = frontier_sweep(templated_corpus, [raw], config(raw))
    assert len(pts) == 4
    by_label = {p.method_label for p in pts}
    assert by_label == {"compress", "a", "b", "c"}
    best = next(p for p in pts if p.method_label == "compress")
    assert best.report.accuracy == 1 and best.report.completeness == 1


def test_frontier_sweep_skips_tiny_budget(templated_corpus):
    raw = program_size(Program(templated_corpus))
    pts = frontier_sweep(templated_corpus, [2, raw], config(raw))
    assert len(pts) == 4  # tiny budget skipped, references still present


def test_frontier_sweep_rejects_a_budget_below_one(templated_corpus):
    for budgets in ([60, 0], [], [40, -3]):
        with pytest.raises(ValueError,
                           match="^budgets must be non-empty and positive$"):
            frontier_sweep(templated_corpus, budgets, config(60))


@pytest.mark.parametrize("bad", [True, 2.5, None, "40"])
def test_frontier_sweep_checks_every_budget_before_it_searches(
        templated_corpus, monkeypatch, bad):
    calls = []

    def searching(*args):
        calls.append(args)
        raise BudgetTooSmall("no search in this test")

    monkeypatch.setattr(importlib.import_module("bracketc.compress"),
                        "_Search", searching)
    with pytest.raises(ValueError, match="budgets must be an int"):
        frontier_sweep(templated_corpus, [40, bad], config(40))
    assert calls == []


def test_frontier_sweep_checks_every_type_before_any_value(templated_corpus):
    for budgets in ([0, "40"], [-3, None]):
        with pytest.raises(ValueError, match="budgets must be an int"):
            frontier_sweep(templated_corpus, budgets, config(40))


def _one_search_per_budget(corpus, budgets, cfg):
    """The sweep's compressed points as independent `compress` calls."""
    points = []
    for i, budget in enumerate(budgets):
        try:
            cand = compress(corpus, replace(cfg, budget_chars=budget,
                                            seed=cfg.seed + i))
        except BudgetTooSmall:
            continue
        points.append(FrontierPoint(budget, cand.report, "compress"))
    return points + reference_points(corpus)


# Limits that truncate some closures of CORPUS programs, and the default.
LIMITS = st.builds(ExpansionLimits, max_rounds=st.integers(1, 3),
                   max_statements=st.integers(4, 40),
                   max_tokens_per_statement=st.integers(2, 5)) \
    | st.just(ExpansionLimits())


@settings(max_examples=60, deadline=None)
@given(CORPUS, st.lists(st.integers(1, 40), min_size=2, max_size=4),
       st.booleans(), LIMITS, st.integers(0, 3))
def test_frontier_sweep_equals_one_search_per_budget(corpus, budgets,
                                                     descending, limits, seed):
    # descending, a program scored under a larger budget is over a later,
    # smaller one; the budget just below the smallest statement is skipped
    if descending:
        budgets.sort(reverse=True)
    tiny = min(program_size(Program([s])) for s in corpus) - 1
    if tiny >= 1:
        budgets.insert(1, tiny)
    cfg = config(1, seed=seed, max_iterations=3, beam_width=4, limits=limits)
    assert frontier_sweep(corpus, budgets, cfg) == \
        _one_search_per_budget(corpus, budgets, cfg)


@pytest.mark.parametrize("shares", [(7, 3, 0, 5), (3, 0, 5, 7)],
                         ids=["descending", "ascending"])
def test_frontier_sweep_of_templated_corpus_equals_one_search_per_budget(
        templated_corpus, shares):
    # share 0 is budget 2, which fits no statement; the statement cap
    # truncates closures the search makes and changes the points it finds
    raw = program_size(Program(templated_corpus))
    budgets = [max(2, raw * s // 10) for s in shares]
    limits = ExpansionLimits(max_statements=12)
    for cfg in (config(1), config(1, limits=limits)):
        assert frontier_sweep(templated_corpus, budgets, cfg) == \
            _one_search_per_budget(templated_corpus, budgets, cfg)


def test_frontier_sweep_scores_each_program_once(templated_corpus,
                                                 monkeypatch):
    # counted where every within-budget `Candidate` is built, by a full
    # closure or from a deletion's parent
    scored = Counter()

    def counting(program, report, config):
        if report is not None:
            scored[program] += 1
        return _candidate(program, report, config)

    monkeypatch.setattr(importlib.import_module("bracketc.compress"),
                        "_candidate", counting)
    raw = program_size(Program(templated_corpus))
    frontier_sweep(templated_corpus, [raw * s // 10 for s in (3, 5, 7)],
                   config(1))
    assert scored and max(scored.values()) == 1


def test_search_config_rejects_negative_iterations():
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match="max_iterations"):
            SearchConfig(budget_chars=10, max_iterations=bad)


@pytest.mark.parametrize("field", ["budget_chars", "beam_width", "seed"])
def test_search_config_rejects_zero(field):
    zero = () if field == "seed" else (0,)  # any int is a seed
    for bad in (*zero, 2.5, True, None, "1"):
        kw = {"budget_chars": 10, field: bad}
        with pytest.raises(ValueError, match=field):
            SearchConfig(**kw)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), "0.5", True,
                                 None])
def test_search_config_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda_accuracy"):
        SearchConfig(budget_chars=10, lambda_accuracy=lam)


@pytest.mark.parametrize("limits", [None, {"max_statements": 10}])
def test_search_config_rejects_limits_that_are_not_expansion_limits(limits):
    with pytest.raises(ValueError, match="limits"):
        SearchConfig(budget_chars=10, limits=limits)


def test_frontier_cli_reports_empty_budgets(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("GIRL MARY\n", encoding="utf-8")
    for budgets in ("", "0", "0,-3"):
        assert main(["frontier", str(corpus), "--budgets", budgets,
                     "--csv", "-"]) == 1
        assert "budgets must be non-empty and positive" in \
            capsys.readouterr().err

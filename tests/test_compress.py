import importlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bracketc import (BudgetTooSmall, EmptyCorpus, ExpansionLimits, Program,
                      SearchConfig, closure, compress, evaluate,
                      frontier_sweep, induce_slots, neighbors, parse_program,
                      parse_statement, program_size, reference_points, words)
from bracketc.cli import main
from bracketc.compress import evaluate_program, _greedy_prefix

from oracles import compress_reference
from strategies import CORPUS


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


# ---------------------------------------------------------------------------
# compress


def test_compress_budget_too_small(templated_corpus):
    with pytest.raises(BudgetTooSmall):
        compress(templated_corpus, config(3))
    with pytest.raises(EmptyCorpus):
        compress([], config(3))


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


def test_compress_samples_capped_neighbours_as_the_reference_does(monkeypatch):
    # the verbatim program of 310 sentences has 310 deletions, its only
    # neighbours, over the cap: its one iteration scores the 300 at the
    # indices a fresh Random(seed) samples from their sorted list
    corpus = [words(f"W{i}", "X") for i in range(310)]
    program = Program(corpus)
    deletions = sorted((Program(corpus[:i] + corpus[i + 1:])
                        for i in range(310)), key=str)
    scored = []

    def recording(p, *args):
        scored.append(p)
        return evaluate_program(p, *args)

    module = importlib.import_module("bracketc.compress")
    monkeypatch.setattr(module, "evaluate_program", recording)
    samples = []
    for seed in (0, 1):
        cfg = config(program_size(program), seed=seed, max_iterations=1)
        scored.clear()
        got = compress(corpus, cfg)
        samples.append(set(scored))
        want = compress_reference(corpus, cfg)
        assert got.program == want.program
        assert got.report == want.report
        assert got.objective == want.objective
        drawn = random.Random(seed).sample(range(310), 300)
        assert samples[-1] == {program, *(deletions[i] for i in drawn)}
    assert samples[0] != samples[1]


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
    with pytest.raises(ValueError, match="positive"):
        frontier_sweep(templated_corpus, [60, 0], config(60))


def test_search_config_rejects_negative_iterations():
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match="max_iterations"):
            SearchConfig(budget_chars=10, max_iterations=bad)


@pytest.mark.parametrize("field", ["budget_chars", "beam_width"])
def test_search_config_rejects_zero(field):
    for bad in (0, 2.5, True):
        kw = {"budget_chars": 10, field: bad}
        with pytest.raises(ValueError, match=field):
            SearchConfig(**kw)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_search_config_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError):
        SearchConfig(budget_chars=10, lambda_accuracy=lam)


def test_frontier_cli_reports_empty_budgets(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("GIRL MARY\n", encoding="utf-8")
    for budgets in ("", "0", "0,-3"):
        assert main(["frontier", str(corpus), "--budgets", budgets,
                     "--csv", "-"]) == 1
        assert "budgets must be non-empty and positive" in \
            capsys.readouterr().err

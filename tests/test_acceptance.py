"""End-to-end acceptance suite; each test prints one PASS line on success."""

import random
import time
from fractions import Fraction

from bracketc import (ExpansionLimits, Program, SearchConfig, cfg_enumerate,
                      cfg_to_bc, closure, compress, evaluate, horn_to_bc,
                      neighbors, pareto_filter, parse_cfg, parse_program,
                      program_size, reference_points, sample)
from bracketc.compress import evaluate_program, _greedy_prefix, induce_slots
from bracketc.encoders import cfg_strings_from_closure

from oracles import forward_chain, pareto_oracle, random_cfg
from test_metrics import point

LIMITS = ExpansionLimits()


def strs(statements):
    return {str(s) for s in statements}


def _report(name, started):
    print(f"ACCEPTANCE {name}: PASS ({time.time() - started:.2f}s)")


def test_c01_girls_ponies_golden(girls_ponies):
    t0 = time.time()
    r = closure(girls_ponies, LIMITS)
    assert strs(r.bracket_free) == {
        "GIRL LINDA", "GIRL MARY", "MARY LIKES PONIES", "LINDA LIKES PONIES"}
    assert time.time() - t0 < 1
    _report("01 girls/ponies golden", t0)


def test_c02_variable_consistency_golden(same_content_program):
    t0 = time.time()
    r = closure(same_content_program, LIMITS)
    assert strs(r.bracket_free) == {"B C", "B D", "A C C", "A D D"}
    assert "A C D" not in strs(r.bracket_free)
    assert time.time() - t0 < 1
    _report("02 variable consistency golden", t0)


def test_c03_guard_and_not_golden(guard_program, not_program):
    t0 = time.time()
    r = closure(guard_program, LIMITS)
    new = strs(r.bracket_free) - {str(s) for s in guard_program}
    assert new == {"MARY LIKES PONIES"}
    r2 = closure(not_program, LIMITS)
    assert {"MARY LIKES PONIES", "TOM LIKES PONIES , NOT !"} <= strs(r2.bracket_free)
    assert time.time() - t0 < 1
    _report("03 guard/nested + NOT golden", t0)


def test_c04_empty_bracket_golden(empty_bracket_program):
    t0 = time.time()
    one_round = ExpansionLimits(max_rounds=1, max_statements=1000,
                                max_tokens_per_statement=16)
    r = closure(empty_bracket_program, one_round)
    assert "A B [B C]" in strs(r.residual)
    assert strs(r.bracket_free) == {"B"}
    assert time.time() - t0 < 1
    _report("04 empty bracket golden", t0)


def test_c05_cfg_equivalence():
    t0 = time.time()
    grammars = [parse_cfg("S -> A S A | B S B | eps")]
    rng = random.Random(2024)
    grammars += [random_cfg(rng) for _ in range(5)]
    limits = ExpansionLimits(max_rounds=60, max_statements=200_000,
                             max_tokens_per_statement=10)
    for g in grammars:
        result = closure(cfg_to_bc(g), limits)
        assert not result.truncated.rounds and not result.truncated.statements
        got = cfg_strings_from_closure(result.bracket_free, g.start, 8)
        assert got == cfg_enumerate(g, 8)
    assert time.time() - t0 < 30
    _report("05 CFG equivalence (palindrome + 5 random)", t0)


def test_c06_addition_program(addition_program):
    t0 = time.time()
    limits = ExpansionLimits(max_rounds=100, max_statements=100_000,
                             max_tokens_per_statement=7)
    r = closure(addition_program, limits)
    sums = [s.words for s in r.bracket_free
            if len(s.words) == 5 and s.words[1] == "+" and s.words[3] == "="]
    for n, _, m, _, k in sums:
        assert int(n) + int(m) == int(k), f"incorrect sum {n} + {m} = {k}"
    got = {(int(n), int(m)) for n, _, m, _, _ in sums}
    want = {(n, m) for n in range(11) for m in range(11) if n + m <= 10}
    assert got == want
    assert ("2", "+", "2", "=", "4") in sums
    assert time.time() - t0 < 10
    _report("06 addition program", t0)


def test_c07_sibling_end_to_end(sibling_horn, sibling_corpus):
    t0 = time.time()
    program = horn_to_bc(sibling_horn)
    result = closure(program, LIMITS)
    assert len(result.bracket_free) == 24
    report = evaluate(result.bracket_free, sibling_corpus,
                      program_size(program), result.truncated.any)
    assert report.completeness == 1
    assert report.accuracy == Fraction(16, 24)
    got = {s.words for s in result.bracket_free if s.words[0] == "SIBLING"}
    want = {f for f in forward_chain(sibling_horn) if f[0] == "SIBLING"}
    assert got == want
    assert time.time() - t0 < 1
    _report("07 sibling end-to-end", t0)


def test_c08_reference_points(templated_corpus, sibling_corpus):
    t0 = time.time()
    for corpus in (templated_corpus, sibling_corpus):
        pts = {p.method_label: p.report for p in reference_points(corpus)}
        assert (pts["a"].accuracy, pts["a"].completeness) == (1, Fraction(1, 2))
        assert (pts["b"].accuracy, pts["b"].completeness) == \
            (Fraction(1, 2), Fraction(1, 2))
        assert (pts["c"].accuracy, pts["c"].completeness) == (1, 1)
    assert time.time() - t0 < 1
    _report("08 metrics reference points", t0)


def _exhaustive_best(corpus, config):
    """Independent breadth-first search over the same move grammar."""
    rng = random.Random(config.seed)
    seen = {}

    def score(program):
        key = str(program)
        if key not in seen:
            seen[key] = evaluate_program(program, corpus, config)
        return seen[key]

    frontier = [score(p) for p in
                {str(p): p for p in
                 (_greedy_prefix(corpus, config.budget_chars),
                  induce_slots(corpus))}.values()]
    best = max(frontier, key=lambda c: (c.objective, str(c.program)))
    for _ in range(config.max_iterations):
        fresh = []
        for cand in frontier:
            for prog in neighbors(cand.program, corpus, config, rng):
                if str(prog) not in seen:
                    fresh.append(score(prog))
        if not fresh:
            break
        frontier = fresh
        top = max(fresh, key=lambda c: (c.objective, str(c.program)))
        if top.objective > best.objective:
            best = top
    return best


def test_c09_compression_extremes(templated_corpus):
    t0 = time.time()
    raw = program_size(Program(templated_corpus))

    full = compress(templated_corpus, SearchConfig(
        budget_chars=raw, seed=1, max_iterations=3, beam_width=8))
    assert (full.report.accuracy, full.report.completeness) == (1, 1)

    two = len(str(templated_corpus[0])) + 1 + len(str(templated_corpus[1]))
    tiny = compress(templated_corpus, SearchConfig(
        budget_chars=two, seed=1, max_iterations=3, beam_width=8))
    assert tiny.report.accuracy == 1
    assert tiny.report.completeness == Fraction(2, 12)

    config = SearchConfig(budget_chars=int(raw * 0.6), seed=1,
                          max_iterations=2, beam_width=64)
    best = compress(templated_corpus, config)
    assert best.report.completeness == 1
    assert program_size(best.program) <= config.budget_chars
    oracle = _exhaustive_best(templated_corpus, config)
    assert best.objective == oracle.objective
    assert time.time() - t0 < 60
    _report("09 compression extremes + exhaustive match", t0)


def test_c10_determinism_and_invariants(girls_ponies, same_content_program,
                                        guard_program, not_program,
                                        empty_bracket_program,
                                        addition_program, sibling_horn):
    t0 = time.time()

    # closure order-insensitivity: 5 programs x 20 permutations
    rng = random.Random(99)
    for program in (girls_ponies, same_content_program, guard_program,
                    not_program, empty_bracket_program):
        want = frozenset(closure(program, LIMITS).bracket_free)
        for _ in range(20):
            shuffled = list(program)
            rng.shuffle(shuffled)
            assert frozenset(closure(Program(shuffled), LIMITS).bracket_free) == want

    # monotonicity under limit enlargement
    small = ExpansionLimits(max_rounds=6, max_statements=100_000,
                            max_tokens_per_statement=5)
    for bigger in (
        ExpansionLimits(max_rounds=12, max_statements=100_000,
                        max_tokens_per_statement=5),
        ExpansionLimits(max_rounds=6, max_statements=100_000,
                        max_tokens_per_statement=7),
    ):
        assert frozenset(closure(addition_program, small).bracket_free) <= \
            frozenset(closure(addition_program, bigger).bracket_free)

    # sample reproducibility per seed
    program = horn_to_bc(sibling_horn)
    for seed in (0, 1, 17):
        assert sample(program, LIMITS, seed, 5) == \
            sample(program, LIMITS, seed, 5)

    # pareto_filter equals the O(n^2) oracle on 100 random point clouds
    prng = random.Random(4242)
    for _ in range(100):
        cloud = [point(prng.randint(0, 10) / 10, prng.randint(0, 10) / 10,
                       prng.randint(1, 40))
                 for _ in range(prng.randint(1, 20))]
        got = {id(p) for p in pareto_filter(cloud)}
        want = {id(cloud[i]) for i in pareto_oracle(cloud)}
        assert got == want

    assert time.time() - t0 < 60
    _report("10 determinism and invariants", t0)

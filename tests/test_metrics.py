import random
from fractions import Fraction

import pytest

from bracketc import (EmptyCorpus, ExpansionLimits, FrontierPoint,
                      MetricsReport, Statement, closure, evaluate, horn_to_bc,
                      pareto_filter, program_size, words)

from oracles import pareto_oracle


def corpus(n):
    return [words("SENTENCE", str(i)) for i in range(n)]


def test_identity_point_c():
    c = corpus(6)
    r = evaluate(c, c, size_chars=10)
    assert r.accuracy == 1 and r.completeness == 1


def test_half_point_a():
    c = corpus(6)
    r = evaluate(c[:3], c, size_chars=10)
    assert r.accuracy == 1 and r.completeness == Fraction(1, 2)


def test_mixed_point_b():
    c = corpus(6)
    m = c[:3] + [words("NOISE", str(i)) for i in range(3)]
    r = evaluate(m, c, size_chars=10)
    assert r.accuracy == Fraction(1, 2) and r.completeness == Fraction(1, 2)


def test_empty_m_scores_zero():
    r = evaluate([], corpus(4), size_chars=0)
    assert r.accuracy == 0 and r.completeness == 0


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        evaluate(corpus(2), [], size_chars=0)


def test_duplicates_ignored():
    c = corpus(4)
    r1 = evaluate(c[:2] * 3, c + c, size_chars=5)
    r2 = evaluate(c[:2], c, size_chars=5)
    assert (r1.accuracy, r1.completeness) == (r2.accuracy, r2.completeness)


def test_adding_statements_moves_metrics():
    c = corpus(6)
    m = c[:3]
    base = evaluate(m, c, size_chars=0)
    gained = evaluate(m + [c[4]], c, size_chars=0)
    assert gained.accuracy >= base.accuracy
    assert gained.completeness > base.completeness
    noisy = evaluate(m + [words("NOISE",)], c, size_chars=0)
    assert noisy.accuracy < base.accuracy
    assert noisy.completeness == base.completeness


def test_sibling_metrics(sibling_horn, sibling_corpus):
    program = horn_to_bc(sibling_horn)
    result = closure(program, ExpansionLimits())
    report = evaluate(result.bracket_free, sibling_corpus,
                      program_size(program), result.truncated.any)
    assert report.m_count == 24
    assert report.intersection_count == 16
    assert report.accuracy == Fraction(2, 3)
    assert report.completeness == 1


# ---------------------------------------------------------------------------
# pareto_filter


def point(acc, comp, size):
    report = MetricsReport(Fraction(acc).limit_denominator(1000),
                           Fraction(comp).limit_denominator(1000),
                           size, 1, 1, 1, False)
    return FrontierPoint(size, report, "x")


def test_pareto_singleton():
    p = point(0.5, 0.5, 10)
    assert pareto_filter([p]) == [p]


def test_pareto_strict_domination():
    a, b = point(0.5, 0.5, 10), point(0.6, 0.6, 10)
    assert pareto_filter([a, b]) == [b]


def test_pareto_incomparable_kept():
    a, b = point(0.9, 0.1, 10), point(0.1, 0.9, 10)
    assert set(map(id, pareto_filter([a, b]))) == {id(a), id(b)}


def test_pareto_matches_oracle_random_clouds():
    rng = random.Random(42)
    for _ in range(100):
        cloud = [point(rng.randint(0, 10) / 10, rng.randint(0, 10) / 10,
                       rng.randint(1, 50)) for _ in range(rng.randint(1, 25))]
        got = pareto_filter(cloud)
        want = pareto_oracle(cloud)
        assert {id(p) for p in got} == {id(cloud[i]) for i in want}
        sizes = [(p.report.size_chars, p.report.accuracy) for p in got]
        assert sizes == sorted(sizes)


THIRD = MetricsReport(Fraction(1, 3), Fraction(2, 3), 7, 3, 2, 1, True)


def test_csv_row_format():
    p = point(0.5, 1.0, 7)
    assert p.as_csv_row() == "x,7,7,0.500000,1.000000,1,1,1,false"
    third = FrontierPoint(9, THIRD, "x")
    assert third.as_csv_row() == "x,9,7,0.333333,0.666667,3,2,1,true"


def test_kv_format():
    assert THIRD.as_kv() == (
        "accuracy=0.333333\ncompleteness=0.666667\nsize_chars=7\n"
        "m_count=3\nc_count=2\nintersection_count=1\ntruncated=true")

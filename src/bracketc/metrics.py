"""Accuracy/completeness scoring and Pareto frontier assembly.

ACCURACY = |M ∩ C| / |M| and COMPLETENESS = |M ∩ C| / |C|, where M is the
set of bracket-free statements a program produces and C the reference
corpus.  Both are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EmptyCorpus
from .syntax import Statement

CSV_HEADER = "method,budget,size,accuracy,completeness,m,c,intersection,truncated"


def _format(value: object) -> str:
    """A report value as printed: fractions to six places, bools lower case."""
    if isinstance(value, Fraction):
        return f"{float(value):.6f}"
    return str(value).lower() if isinstance(value, bool) else str(value)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: Fraction
    completeness: Fraction
    size_chars: int
    m_count: int
    c_count: int
    intersection_count: int
    truncated: bool

    def as_kv(self) -> str:
        return "\n".join(f"{f.name}={_format(getattr(self, f.name))}"
                         for f in fields(self))


@dataclass(frozen=True)
class FrontierPoint:
    budget_chars: int
    report: MetricsReport
    method_label: str

    def as_csv_row(self) -> str:
        r = self.report
        return ",".join(map(_format, [
            self.method_label, self.budget_chars, r.size_chars, r.accuracy,
            r.completeness, r.m_count, r.c_count, r.intersection_count,
            r.truncated]))


def evaluate(m: Iterable[Statement], c: Iterable[Statement],
             size_chars: int, truncated: bool = False) -> MetricsReport:
    """Score produced set M against corpus C by exact intersection."""
    m_set = frozenset(m)
    c_set = frozenset(c)
    if not c_set:
        raise EmptyCorpus("reference corpus is empty")
    return _report(len(m_set & c_set), len(m_set), len(c_set), size_chars,
                   truncated)


def _report(inter: int, m_count: int, c_count: int, size_chars: int,
            truncated: bool) -> MetricsReport:
    """The report of |M ∩ C|, |M| and |C| (not 0)."""
    return MetricsReport(
        accuracy=Fraction(inter, m_count) if m_count else Fraction(0),
        completeness=Fraction(inter, c_count),
        size_chars=size_chars,
        m_count=m_count,
        c_count=c_count,
        intersection_count=inter,
        truncated=truncated,
    )


def _dominates(a: FrontierPoint, b: FrontierPoint) -> bool:
    """a dominates b in (accuracy up, completeness up, size down)."""
    ra, rb = a.report, b.report
    ge = (ra.accuracy >= rb.accuracy and ra.completeness >= rb.completeness
          and ra.size_chars <= rb.size_chars)
    gt = (ra.accuracy > rb.accuracy or ra.completeness > rb.completeness
          or ra.size_chars < rb.size_chars)
    return ge and gt


def pareto_filter(points: Sequence[FrontierPoint]) -> list[FrontierPoint]:
    """Non-dominated points, sorted by size then accuracy (stable)."""
    kept = [p for p in points
            if not any(_dominates(q, p) for q in points)]
    return sorted(kept, key=lambda p: (p.report.size_chars, p.report.accuracy))

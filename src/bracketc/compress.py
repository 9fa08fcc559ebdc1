"""Size-bounded loose compression: search for a program whose closure
approximates a corpus under a character budget.

Search is a deterministic beam search over an explicit move grammar
(merge categories, delete, add verbatim, widen a category, factor a
constant into a category slot).  The objective is
completeness + lambda * accuracy with a hard budget constraint; the
frontier sweep exposes the full trade-off so the scalarization choice is
not load-bearing.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field, replace
from itertools import chain, combinations
from typing import Iterable, Sequence

from .engine import ExpansionLimits, check_count, closure, ripe_contents
from .errors import BudgetTooSmall, EmptyCorpus
from .metrics import FrontierPoint, MetricsReport, evaluate
from .syntax import (WORD_RE, Bracket, Element, Program, Statement, alias,
                     fresh_word, program_size)

_MAX_NEIGHBORS = 300


@dataclass(frozen=True)
class SearchConfig:
    budget_chars: int
    lambda_accuracy: float = 0.5
    seed: int = 0
    max_iterations: int = 8
    beam_width: int = 8
    limits: ExpansionLimits = field(default_factory=ExpansionLimits)

    def __post_init__(self) -> None:
        check_count("budget_chars", self.budget_chars, 1)
        check_count("max_iterations", self.max_iterations, 0)
        check_count("beam_width", self.beam_width, 1)
        if not 0 <= self.lambda_accuracy < float("inf"):
            raise ValueError("lambda_accuracy must be finite and >= 0")


@dataclass(frozen=True)
class Candidate:
    program: Program
    #: None for a program over the budget, which is never closed.
    report: MetricsReport | None
    objective: float


# ---------------------------------------------------------------------------
# Slot induction


def _common_prefix(a: Sequence[str], b: Sequence[str]) -> int:
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return n


def _middle(t: tuple[str, ...], prefix: tuple[Element, ...],
            suffix: tuple[Element, ...]) -> tuple[str, ...] | None:
    """The span of `t` between `prefix` and `suffix`, or None unless `t`
    starts with `prefix` and ends with `suffix` without overlap."""
    end = len(t) - len(suffix)
    if end < len(prefix) or t[:len(prefix)] != prefix or t[end:] != suffix:
        return None
    return t[len(prefix):end]


def induce_slots(corpus: Sequence[Statement]) -> Program:
    """Greedy single-slot factoring of a corpus into templates + categories.

    Sentences sharing all tokens except one contiguous span form a group;
    each group of size >= 2 gets a fresh category word and a template with
    the category bracket at the varying span.
    """
    sents = [s.words for s in corpus]
    vocab = {w for s in sents for w in s}

    # candidate (prefix, suffix) signatures from maximal pairwise overlap
    sigs: dict[tuple[tuple[str, ...], tuple[str, ...]], None] = {}
    for a, b in combinations(sents, 2):
        p = _common_prefix(a, b)
        s = _common_prefix(a[::-1], b[::-1])
        s = min(s, min(len(a), len(b)) - p)
        if p + s < 2:
            continue
        sigs[(a[:p], a[len(a) - s:])] = None

    def members(sig: tuple[tuple[str, ...], tuple[str, ...]],
                pool: Iterable[int]) -> list[int]:
        return [i for i in pool if _middle(sents[i], *sig) is not None]

    ordered = sorted(
        sigs,
        key=lambda sig: (-len(members(sig, range(len(sents))))
                         * (len(sig[0]) + len(sig[1])), sig))
    unassigned = list(range(len(sents)))
    statements: list[Statement] = []
    for sig in ordered:
        group = members(sig, unassigned)
        if len(group) < 2:
            continue
        prefix, suffix = sig
        cat = fresh_word("CAT", vocab)
        statements.extend(Statement((cat, *_middle(sents[i], *sig))) for i in group)
        statements.append(Statement(prefix + (Bracket((cat,)),) + suffix))
        unassigned = [i for i in unassigned if i not in group]
    for i in unassigned:
        statements.append(corpus[i])
    return Program(statements)


# ---------------------------------------------------------------------------
# Move grammar


def _categories(prog: Program) -> list[str]:
    """Words that occur both as a one-word bracket content and as the head
    of a bracket-free statement."""
    in_brackets = {c[0] for st in prog for c in ripe_contents(st)
                   if len(c) == 1}
    heads = {st.words[0] for st in prog if st.bracket_free}
    return sorted(in_brackets & heads)


def _rename(elements: Sequence[Element], old: str, new: str) -> tuple[Element, ...]:
    out: list[Element] = []
    for e in elements:
        if isinstance(e, Bracket):
            out.append(Bracket(_rename(e.elements, old, new)))
        elif e == old:
            out.append(new)
        else:
            out.append(e)
    return tuple(out)


def neighbors(program: Program, corpus: Sequence[Statement],
              config: SearchConfig, rng: random.Random) -> list[Program]:
    """All bounded mutations of a program, deterministic order."""
    stmts = list(program)
    cats = _categories(program)
    # every word of the corpus and of the program, inside brackets too
    taken = set(WORD_RE.findall(str(program)))
    taken.update(w for s in corpus for w in s.words)
    alias_word = fresh_word("CAT", taken)
    results: dict[Program, None] = {}

    def emit(statements: Iterable[Statement]) -> None:
        results[Program(statements)] = None

    # (a) merge two categories
    for w1, w2 in combinations(cats, 2):
        emit(Statement(_rename(st.elements, w2, w1)) for st in stmts)

    # (b) delete one statement
    if len(stmts) > 1:
        for i in range(len(stmts)):
            emit(stmts[:i] + stmts[i + 1:])

    # (c) add one uncovered corpus sentence verbatim
    covered = set(closure(program, config.limits).bracket_free)
    for sent in corpus:
        if sent not in covered:
            emit(stmts + [sent])

    # (d) widen a category with a corpus-aligned variant
    for st in stmts:
        slots = [(i, e) for i, e in enumerate(st.elements)
                 if isinstance(e, Bracket)]
        if len(slots) != 1:
            continue
        [(i, br)] = slots
        if len(br.elements) != 1 or br.elements[0] not in cats:
            continue
        cat = br.elements[0]
        for sent in corpus:
            middle = _middle(sent.words, st.elements[:i], st.elements[i + 1:])
            if middle is None:
                continue
            variant = Statement((cat, *middle))
            if variant not in program:
                emit(stmts + [variant])

    # (e) factor a constant token into an existing category slot; the alias
    # device keeps a repeated category independent under the same-content rule
    for idx, st in enumerate(stmts):
        if st.bracket_free:
            continue
        for pos, e in enumerate(st.elements):
            if not isinstance(e, str):
                continue
            for cat in cats:
                if Statement((cat, e)) not in program:
                    continue
                bracket = Bracket((cat,))
                extra: list[Statement] = []
                if bracket in st.elements:
                    statement, bracket = alias((cat,), alias_word)
                    extra.append(statement)
                new_st = Statement(
                    st.elements[:pos] + (bracket,) + st.elements[pos + 1:])
                emit(stmts[:idx] + [new_st] + stmts[idx + 1:] + extra)

    ordered = sorted(results, key=str)
    if len(ordered) > _MAX_NEIGHBORS:
        keep = sorted(rng.sample(range(len(ordered)), _MAX_NEIGHBORS))
        ordered = [ordered[i] for i in keep]
    return ordered


# ---------------------------------------------------------------------------
# Beam search


def evaluate_program(program: Program, corpus: Iterable[Statement],
                     config: SearchConfig) -> Candidate:
    """Score a program by closure + metrics; over the budget, -inf unclosed."""
    size = program_size(program)
    if size > config.budget_chars:
        return Candidate(program, None, float("-inf"))
    result = closure(program, config.limits)
    report = evaluate(result.bracket_free, corpus, size, result.truncated.any)
    return Candidate(program, report, float(report.completeness)
                     + config.lambda_accuracy * float(report.accuracy))


def _greedy_prefix(corpus: Sequence[Statement], budget: int) -> Program:
    picked: list[Statement] = []
    for sent in corpus:
        if program_size(Program(picked + [sent])) <= budget:
            picked.append(sent)
    return Program(picked)


def _rank(c: Candidate) -> tuple[float, str]:
    """Search order: higher objective first, ties by program text."""
    return (-c.objective, str(c.program))


def compress(corpus: Sequence[Statement], config: SearchConfig) -> Candidate:
    """Best within-budget candidate found by beam search.

    Starts from slot induction and from the verbatim greedy prefix (the
    near-100%-accuracy extreme), so a within-budget program always exists.
    """
    corpus = list(dict.fromkeys(corpus))
    if not corpus:
        raise EmptyCorpus("corpus is empty")
    if config.budget_chars < min(len(str(s)) for s in corpus):
        raise BudgetTooSmall(
            f"budget {config.budget_chars} fits no single corpus statement")

    c_set = frozenset(corpus)
    seen: set[Program] = set()

    def score(program: Program) -> Candidate:
        seen.add(program)
        return evaluate_program(program, c_set, config)

    starts = [_greedy_prefix(corpus, config.budget_chars), induce_slots(corpus)]
    beam = heapq.nsmallest(config.beam_width,
                           map(score, dict.fromkeys(starts)), key=_rank)

    rng = random.Random(config.seed)
    for _ in range(config.max_iterations):
        # the new beam keeps the old one's best, so beam[0] is the best yet
        produced = (score(prog) for cand in beam
                    for prog in neighbors(cand.program, corpus, config, rng)
                    if prog not in seen)
        new_beam = heapq.nsmallest(config.beam_width, chain(beam, produced),
                                   key=_rank)
        if new_beam == beam:
            break
        beam = new_beam
    return beam[0]


# ---------------------------------------------------------------------------
# Frontier


def reference_points(corpus: Sequence[Statement]) -> list[FrontierPoint]:
    """The comparison points a (half corpus), b (half plus as many novel
    statements) and c (corpus verbatim)."""
    corpus = list(dict.fromkeys(corpus))
    c_set = frozenset(corpus)
    half = corpus[: len(corpus) // 2]
    taken = {w for s in corpus for w in s.words}
    novel: list[Statement] = []
    for _ in half:
        word = fresh_word("NOVEL", taken)
        novel.append(Statement((word, word)))
    points = []
    for label, m in (("a", half), ("b", half + novel), ("c", corpus)):
        size = program_size(Program(m))
        points.append(FrontierPoint(size, evaluate(m, c_set, size), label))
    return points


def frontier_sweep(corpus: Sequence[Statement], budgets: Sequence[int],
                   config: SearchConfig) -> list[FrontierPoint]:
    """One compressed point per budget plus the three reference points.

    Budgets too small for any program are skipped (and logged by the CLI
    layer); each budget gets an independent seed derived from config.seed.
    """
    if not budgets or any(b < 1 for b in budgets):
        raise ValueError("budgets must be non-empty and positive")
    points: list[FrontierPoint] = []
    for i, budget in enumerate(budgets):
        try:
            cand = compress(corpus, replace(config, budget_chars=budget,
                                            seed=config.seed + i))
        except BudgetTooSmall:
            continue
        points.append(FrontierPoint(budget, cand.report, "compress"))
    points.extend(reference_points(corpus))
    return points

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
import math
import numbers
import random
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

from .engine import (ClosureResult, ExpansionLimits, ExpansionTable, _Support,
                     check_count, closure, ripe_contents)
from .errors import BudgetTooSmall, EmptyCorpus
from .metrics import FrontierPoint, MetricsReport, _report, evaluate
from .syntax import (STATEMENT_SEPARATOR, WORD_RE, Bracket, Element, Program,
                     Statement, alias, fresh_word, program_size)

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
        check_count("seed", self.seed, -math.inf)
        lam = self.lambda_accuracy
        if isinstance(lam, bool) or not isinstance(lam, numbers.Real):
            raise ValueError(f"lambda_accuracy must be a real number, not {lam!r}")
        if not 0 <= lam < math.inf:
            raise ValueError("lambda_accuracy must be finite and >= 0")
        if not isinstance(self.limits, ExpansionLimits):
            raise ValueError(f"limits must be an ExpansionLimits, not "
                             f"{self.limits!r}")


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
        else:
            out.append(new if e == old else e)
    return tuple(out)


def neighbors(program: Program, corpus: Sequence[Statement],
              config: SearchConfig, rng: random.Random) -> list[Program]:
    """All bounded mutations of a program, deterministic order; over
    `_MAX_NEIGHBORS`, a sorted sample that `rng` draws."""
    covered = set(closure(program, config.limits).bracket_free)
    return _capped(_mutations(program, corpus, covered), rng)


def _capped(ordered: list[Program], rng: random.Random) -> list[Program]:
    """`ordered`, or over `_MAX_NEIGHBORS`, a sorted sample `rng` draws."""
    if len(ordered) > _MAX_NEIGHBORS:
        keep = sorted(rng.sample(range(len(ordered)), _MAX_NEIGHBORS))
        return [ordered[i] for i in keep]
    return ordered


def _mutations(program: Program, corpus: Sequence[Statement],
               covered: set[Statement]) -> list[Program]:
    """`neighbors` before the cap, sorted by text; `covered` holds the
    bracket-free statements of the program's closure."""
    stmts, text = program.statements, str(program)
    texts = [str(s) for s in stmts]
    present = set(stmts)
    cats = _categories(program)
    # every word of the corpus and of the program, inside brackets too
    taken = set(WORD_RE.findall(text))
    taken.update(w for s in corpus for w in s.words)
    alias_word = fresh_word("CAT", taken)
    results: dict[Program, None] = {}

    def emit(statements: Iterable[Statement]) -> None:
        results[Program(statements)] = None

    # A deletion, and an addition of a statement that is not in the program,
    # are duplicate-free: each is built from its parent's statement texts.
    head = text + STATEMENT_SEPARATOR if stmts else ""

    def append(new: Statement) -> None:
        results[Program._of(stmts + (new,), head + str(new))] = None

    # (a) merge two categories
    for w1, w2 in combinations(cats, 2):
        emit(Statement(_rename(st.elements, w2, w1)) for st in stmts)

    # (b) delete one statement
    if len(stmts) > 1:
        for i in range(len(stmts)):
            rest = texts[:i] + texts[i + 1:]
            results[Program._of(stmts[:i] + stmts[i + 1:],
                                STATEMENT_SEPARATOR.join(rest))] = None

    # (c) add one uncovered corpus sentence verbatim; `covered` holds every
    # bracket-free statement of the program, so the sentence is new to it
    for sent in corpus:
        if sent not in covered:
            append(sent)

    # (d) widen a category with a corpus-aligned variant that `present`,
    # the program's statements, does not hold
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
            if variant not in present:
                append(variant)

    # (e) factor a constant token into an existing category slot; the alias
    # device keeps a repeated category independent under the same-content rule
    for idx, st in enumerate(stmts):
        if st.bracket_free:
            continue
        contents = ripe_contents(st)  # the rule ties brackets at any depth
        for pos, e in enumerate(st.elements):
            if not isinstance(e, str):
                continue
            for cat in cats:
                if Statement((cat, e)) not in present:
                    continue
                bracket = Bracket((cat,))
                extra: tuple[Statement, ...] = ()
                if (cat,) in contents:
                    statement, bracket = alias((cat,), alias_word)
                    extra = (statement,)
                new_st = Statement(
                    st.elements[:pos] + (bracket,) + st.elements[pos + 1:])
                emit(stmts[:idx] + (new_st,) + stmts[idx + 1:] + extra)

    return sorted(results, key=str)


# ---------------------------------------------------------------------------
# Beam search


def evaluate_program(program: Program, corpus: Iterable[Statement],
                     config: SearchConfig) -> Candidate:
    """Score a program by closure + metrics; over the budget, -inf unclosed."""
    size = program_size(program)
    if size > config.budget_chars:
        return _candidate(program, None, config)
    result = closure(program, config.limits)
    return _candidate(program, evaluate(result.bracket_free, corpus, size,
                                        result.truncated.any), config)


def _candidate(program: Program, report: MetricsReport | None,
               config: SearchConfig) -> Candidate:
    """The one place a `Candidate` is built: its objective is completeness
    plus lambda times accuracy, and -inf without a report."""
    if report is None:
        return Candidate(program, None, float("-inf"))
    return Candidate(program, report, float(report.completeness)
                     + config.lambda_accuracy * float(report.accuracy))


def _greedy_prefix(corpus: Sequence[Statement], budget: int) -> Program:
    """Each sentence of the duplicate-free `corpus` in turn, taken while the
    program of those taken still fits `budget` by `program_size`; the size
    is kept as a running sum, so each sentence is sized once."""
    picked: list[Statement] = []
    size = -len(STATEMENT_SEPARATOR)  # n statements take n - 1 separators
    for sent in corpus:
        grown = size + len(STATEMENT_SEPARATOR) + program_size(Program([sent]))
        if grown <= budget:
            picked.append(sent)
            size = grown
    return Program(picked)


def _rank(c: Candidate) -> tuple[float, str]:
    """Search order: higher objective first, ties by program text."""
    return (-c.objective, str(c.program))


def compress(corpus: Sequence[Statement], config: SearchConfig) -> Candidate:
    """Best within-budget candidate found by beam search.

    Starts from slot induction and from the verbatim greedy prefix (the
    near-100%-accuracy extreme); BudgetTooSmall if that prefix is empty.

    The search's state (see `_Search`) is its own, dropped when it returns.
    """
    return _Search(corpus, config).run(config.budget_chars, config.seed)


class _Search:
    """The searches over one corpus under one config's limits and lambda;
    `run` searches at one budget with one seed.

    Its tables depend on no budget: `table`, every closure's expansion
    table, since the programs are one statement apart; `scores`, each
    program scored within a budget (one over it is -inf, unclosed and not
    stored); `moves`, each beam member's sorted mutations.  `member`, the
    beam member whose neighbours are scored, is closed (`result`) and
    supported at most once each: its closure gives move (c) its bracket-free
    statements, and its `_Support` scores the neighbours that delete one."""

    def __init__(self, corpus: Sequence[Statement],
                 config: SearchConfig) -> None:
        self.corpus = list(dict.fromkeys(corpus))
        if not self.corpus:
            raise EmptyCorpus("corpus is empty")
        self.c_set = frozenset(self.corpus)
        self.c_elements = {st.elements for st in self.corpus}
        self.config = config  # its budget and seed are not read
        self.table: ExpansionTable = {}
        self.scores: dict[Program, Candidate] = {}
        self.moves: dict[Program, list[Program]] = {}
        self._take(None)

    def _take(self, member: Program | None) -> None:
        """Make `member` the beam member, not yet closed; None between."""
        self.member = member
        self.result: ClosureResult | None = None
        # the member's support, with its closure's |M ∩ C| and |M|
        self.support: tuple[_Support, int, int] | None = None

    def _closure(self) -> ClosureResult:
        if self.result is None:
            self.result = closure(self.member, self.config.limits,
                                  table=self.table)
        return self.result

    def _deletion(self, child: Program, size: int) -> MetricsReport | None:
        """`child`'s report, or None unless it deletes a bracket-free
        statement `s` of the member and the support scores it (see
        `_Support.deleted`): |M| falls by the bracket-free statements the
        deletion loses, and |M ∩ C| by those of them in the corpus."""
        a, b = self.member.statements, child.statements
        if len(b) != len(a) - 1:
            return None
        # a deletion keeps its parent's statement objects, so the first one
        # that is not the parent's is where `s` was
        i = next((k for k, x in enumerate(b) if x is not a[k]), len(b))
        s = a[i]
        if a[i + 1:] != b[i:] or not s.bracket_free:
            return None
        if self.support is None:
            support = _Support(self.member, self._closure(),
                               self.config.limits, self.table)
            free = support.free
            self.support = support, len(free & self.c_elements), len(free)
        support, inter, m_count = self.support
        lost = support.deleted(s)
        if lost is None:
            return None
        return _report(inter - len(lost & self.c_elements),
                       m_count - len(lost), len(self.corpus), size, False)

    def _score(self, program: Program, budget: int) -> Candidate:
        size = program_size(program)
        if size > budget:
            return _candidate(program, None, self.config)
        if program not in self.scores:
            report = (None if self.member is None
                      else self._deletion(program, size))
            if report is None:
                result = closure(program, self.config.limits, table=self.table)
                report = evaluate(result.bracket_free, self.c_set, size,
                                  result.truncated.any)
            self.scores[program] = _candidate(program, report, self.config)
        return self.scores[program]

    def run(self, budget: int, seed: int) -> Candidate:
        """`compress` at `budget`, its samples drawn with `seed`; its beam,
        `rng` and set of programs seen are its own."""
        greedy = _greedy_prefix(self.corpus, budget)
        if not greedy:
            raise BudgetTooSmall(
                f"budget {budget} fits no single corpus statement")
        seen: set[Program] = set()
        rng = random.Random(seed)

        def score(program: Program) -> Candidate:
            seen.add(program)
            return self._score(program, budget)

        def scored(member: Program) -> Iterator[Candidate]:
            """`member`'s unseen neighbours, scored; a member found in
            `moves` has its sample drawn again."""
            self._take(member)
            ordered = self.moves.get(member)
            if ordered is None:
                ordered = self.moves[member] = _mutations(
                    member, self.corpus, set(self._closure().bracket_free))
            for prog in _capped(ordered, rng):
                if prog not in seen:
                    yield score(prog)
            self._take(None)

        width = self.config.beam_width
        starts = dict.fromkeys([greedy, induce_slots(self.corpus)])
        beam = heapq.nsmallest(width, map(score, starts), key=_rank)
        for _ in range(self.config.max_iterations):
            # the new beam keeps the old one's best, so beam[0] is the best yet
            produced = chain.from_iterable(scored(c.program) for c in beam)
            new_beam = heapq.nsmallest(width, chain(beam, produced), key=_rank)
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

    Every budget is checked before the first search.  Budgets too small for
    any program are skipped (and logged by the CLI layer); each budget gets
    an independent seed derived from config.seed, its own beam and its own
    `seen` set.  One `_Search`, and so its tables (expansions, candidates,
    mutation lists), serves all the budgets and is dropped on return.
    """
    for b in budgets:  # every type first, so that no str or None is compared
        check_count("budgets", b, -math.inf)
    if not budgets or min(budgets) < 1:
        raise ValueError("budgets must be non-empty and positive")
    search = _Search(corpus, config)
    points: list[FrontierPoint] = []
    for i, budget in enumerate(budgets):
        try:
            cand = search.run(budget, config.seed + i)
        except BudgetTooSmall:
            continue
        points.append(FrontierPoint(budget, cand.report, "compress"))
    points.extend(reference_points(corpus))
    return points

"""Output checks for the benchmark's operations.

Nothing here calls into bracketc: the expected outputs are generated
directly (sums, palindromes, Dyck words, sibling pairs, products of endings)
or by the naive evaluator in `reference.py`.  Each check raises CheckFailed
with a reason when the output is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from reference import naive_closure, render


class CheckFailed(Exception):
    """An operation's output does not match its expected value."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def texts(statements) -> set[str]:
    return {render(s.elements) for s in statements}


def require_fixpoint(result, what: str) -> None:
    t = result.truncated
    require(not t.rounds and not t.statements,
            f"{what}: closure truncated (rounds={t.rounds}, statements={t.statements})")


def require_set(got: set[str], want: set[str], what: str) -> None:
    if got != want:
        missing = sorted(want - got)[:3]
        extra = sorted(got - want)[:3]
        raise CheckFailed(f"{what}: {len(want - got)} missing {missing}, "
                          f"{len(got - want)} unexpected {extra}")


# ---------------------------------------------------------------------------
# closure-recursive


def addition_closure(numerals: Sequence[str], n_max: int) -> set[str]:
    """Every bracket-free statement the addition program derives up to n_max."""
    num = numerals
    out = {f"AFTER {num[n]} IS {num[n + 1]}" for n in range(n_max)}
    out |= {f"NUMBER {num[k]}" for k in range(n_max + 1)}
    out |= {f"ANOTHER NUMBER {num[k]}" for k in range(n_max + 1)}
    out |= {f"BEFORE {num[n]} IS {num[n - 1]}" for n in range(1, n_max + 1)}
    out |= {f"{num[a]} + {num[b]} = {num[a + b]}"
            for a in range(n_max + 1) for b in range(n_max + 1 - a)}
    return out


def check_addition(result, numerals: Sequence[str], n_max: int) -> None:
    require_fixpoint(result, "addition")
    got = texts(result.bracket_free)
    value = {w: i for i, w in enumerate(numerals)}
    pairs = set()
    for t in got:
        ws = t.split()
        if len(ws) == 5 and ws[1] == "+" and ws[3] == "=":
            n, m, k = (value.get(ws[i], -1) for i in (0, 2, 4))
            require(n + m == k and min(n, m, k) >= 0, f"wrong sum {t!r}")
            pairs.add((n, m))
    want_pairs = {(n, m) for n in range(n_max + 1) for m in range(n_max + 1 - n)}
    require(pairs == want_pairs,
            f"addition: {len(pairs)} (n, m) pairs, want {len(want_pairs)}")
    require_set(got, addition_closure(numerals, n_max), "addition")


def check_sample(samples, expected_closure: set[str]) -> None:
    require(len(samples) > 0, "sample returned nothing")
    bad = [t for t in texts(samples) if t not in expected_closure]
    require(not bad, f"sampled statements outside the closure: {bad[:3]}")


def palindromes(a: str, b: str, max_len: int) -> set[tuple[str, ...]]:
    """Even-length palindromes over {a, b} of length <= max_len."""
    out = set()
    for half in range(max_len // 2 + 1):
        for left in product((a, b), repeat=half):
            out.add(left + left[::-1])
    return out


def dyck_words(left: str, right: str, max_len: int) -> set[tuple[str, ...]]:
    """Balanced strings over {left, right} of length <= max_len."""
    out = set()

    def grow(word: tuple[str, ...], opened: int, closed: int) -> None:
        if opened == closed:
            out.add(word)
        if opened < max_len // 2:
            grow(word + (left,), opened + 1, closed)
        if closed < opened:
            grow(word + (right,), opened, closed + 1)

    grow((), 0, 0)
    return out


def check_cfg(result, start: str, language: set[tuple[str, ...]]) -> None:
    """Every derived "X -> w" has a language equal to the start symbol's;
    alias nonterminals of the encoding derive the same strings."""
    require_fixpoint(result, "cfg")
    by_head: dict[str, set[tuple[str, ...]]] = {}
    for t in texts(result.bracket_free):
        ws = tuple(t.split())
        require(len(ws) >= 2 and ws[1] == "->", f"not a derivation: {t!r}")
        by_head.setdefault(ws[0], set()).add(ws[2:])
    require(start in by_head, f"no statement for start symbol {start}")
    for head, strings in by_head.items():
        require_set({" ".join(s) for s in strings},
                    {" ".join(s) for s in language}, f"cfg {head}")


# ---------------------------------------------------------------------------
# closure-fanout


def check_sibling(result, names: Sequence[str]) -> None:
    """k facts, k alias statements ("ALIAS name") and all k*k pairs."""
    require_fixpoint(result, "sibling")
    got = texts(result.bracket_free)
    facts = {f"FATHER_CHILD TOM {n}" for n in names}
    pairs = {f"SIBLING {x} {y}" for x in names for y in names}
    rest = got - facts - pairs
    aliases = {t.split()[0] for t in rest}
    require(len(aliases) == 1, f"sibling: want one alias head, got {sorted(aliases)[:5]}")
    alias = aliases.pop()
    require_set(got, facts | pairs | {f"{alias} {n}" for n in names}, "sibling")


def fanout_facts(classes: dict[str, Sequence[str]]) -> set[str]:
    return {f"{head} {w}" for head, ws in classes.items() for w in ws}


def check_fanout(result, classes: dict[str, Sequence[str]]) -> None:
    """Uncapped: the facts plus the full product of the classes' endings."""
    require_fixpoint(result, "fanout")
    combos = {"X " + " ".join(c) for c in product(*classes.values())}
    require_set(texts(result.bracket_free), fanout_facts(classes) | combos, "fanout")


def check_capped_fanout(result, classes: dict[str, Sequence[str]],
                        cap: int) -> None:
    """Capped: the statement flag is set, the cap holds, the facts are kept
    and every other statement picks one ending from each class in order."""
    require(result.truncated.statements, "capped fanout: statement flag not set")
    kept = len(result.bracket_free) + len(result.residual)
    require(kept <= cap, f"capped fanout: {kept} statements kept, cap {cap}")
    got = texts(result.bracket_free)
    facts = fanout_facts(classes)
    require(facts <= got, "capped fanout: a program fact was dropped")
    for t in got - facts:
        ws = t.split()
        require(len(ws) == 1 + len(classes) and ws[0] == "X"
                and all(w in ends for w, ends in zip(ws[1:], classes.values())),
                f"capped fanout: inconsistent statement {t!r}")


# ---------------------------------------------------------------------------
# compress-search


def program_chars(program) -> int:
    return len("\n".join(render(s.elements) for s in program))


def greedy_objective(corpus: Sequence[str], budget: int, lam: float) -> float:
    """Objective of the verbatim greedy prefix: accuracy 1, completeness
    = share of corpus sentences that fit the budget in corpus order."""
    total = picked = 0
    for sent in corpus:
        extra = len(sent) + (1 if picked else 0)
        if total + extra <= budget:
            picked += 1
            total += extra
    return picked / len(corpus) + lam if picked else 0.0


def require_objective(objective: float, recorded: float, floor: float,
                      what: str) -> None:
    """At least the objective recorded for this input, and at least the
    greedy prefix's, which the benchmark computes itself."""
    require(objective >= recorded - 1e-12,
            f"{what}: objective {objective} below the recorded {recorded}")
    require(objective >= floor,
            f"{what}: objective {objective} below greedy prefix {floor}")


def check_compress(cand, corpus: Sequence[str], budget: int, lam: float,
                   limits, recorded: float) -> None:
    size = program_chars(cand.program)
    require(size <= budget, f"compress: program has {size} chars, budget {budget}")
    require(cand.report.size_chars == size, "compress: reported size is wrong")
    derived, fixpoint = naive_closure(
        (render(s.elements) for s in cand.program),
        limits.max_rounds, limits.max_tokens_per_statement)
    require(fixpoint, "compress: reference evaluator reached no fixpoint")
    c_set = set(corpus)
    inter = len(derived & c_set)
    accuracy = Fraction(inter, len(derived)) if derived else Fraction(0)
    completeness = Fraction(inter, len(c_set))
    require((cand.report.accuracy, cand.report.completeness)
            == (accuracy, completeness),
            f"compress: reported ({cand.report.accuracy}, "
            f"{cand.report.completeness}), reference ({accuracy}, {completeness})")
    objective = float(completeness) + lam * float(accuracy)
    require(abs(cand.objective - objective) < 1e-12,
            f"compress: objective {cand.objective} != {objective}")
    require_objective(cand.objective, recorded,
                      greedy_objective(corpus, budget, lam), "compress")


REFERENCE_ROWS = {"a": (Fraction(1), Fraction(1, 2)),
                  "b": (Fraction(1, 2), Fraction(1, 2)),
                  "c": (Fraction(1), Fraction(1))}


def check_frontier(points, corpus: Sequence[str], budgets: Sequence[int],
                   lam: float, recorded: Sequence[float]) -> None:
    """One point per budget, each within its budget, with consistent
    fractions and at least the recorded and the greedy prefix's objective
    at that budget, plus the reference rows a/b/c at their fixed values."""
    searched = [p for p in points if p.method_label == "compress"]
    require([p.budget_chars for p in searched] == list(budgets),
            f"frontier: budgets {[p.budget_chars for p in searched]}, want {list(budgets)}")
    for p, want in zip(searched, recorded):
        r = p.report
        require(r.size_chars <= p.budget_chars,
                f"frontier: size {r.size_chars} over budget {p.budget_chars}")
        require(r.c_count == len(corpus)
                and r.accuracy == (Fraction(r.intersection_count, r.m_count)
                                   if r.m_count else 0)
                and r.completeness == Fraction(r.intersection_count, len(corpus)),
                f"frontier {p.budget_chars}: fractions disagree with the counts")
        require_objective(float(r.completeness) + lam * float(r.accuracy), want,
                          greedy_objective(corpus, p.budget_chars, lam),
                          f"frontier {p.budget_chars}")
    rows = {p.method_label: (p.report.accuracy, p.report.completeness)
            for p in points if p.method_label in REFERENCE_ROWS}
    require(rows == REFERENCE_ROWS, f"frontier: reference rows {rows}")

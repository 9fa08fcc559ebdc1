"""Expansion engine: closure of a program under resource limits, sampling.

The single rewrite rule: a ripe bracket (content without nested brackets)
is replaced by the ending of a bracket-free statement that starts with the
bracket's content.  Brackets with identical content within one statement
are replaced identically; empty brackets match any full statement and form
one replacement class of their own.

`closure` evaluates rounds semi-naively over a content index: each ripe
content's sorted endings in the pool, extended every round by the endings
the last round's new bracket-free statements add (the fresh endings).  A
statement expanded in an earlier round builds only the combinations that
take a fresh ending.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from itertools import product
from typing import Iterable, Sequence

from .errors import NoBracketedStatements
from .syntax import Bracket, Element, Program, Statement

WordSeq = tuple[str, ...]


def check_count(name: str, value: object, least: int) -> None:
    """Raise ValueError unless value is an int, not a bool, and >= least."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class ExpansionLimits:
    """Hard caps for closure computation; all mandatory because programs
    such as the recursive addition rules generate unboundedly."""

    max_rounds: int = 100
    max_statements: int = 100_000
    max_tokens_per_statement: int = 64

    def __post_init__(self) -> None:
        for f in fields(self):
            check_count(f.name, getattr(self, f.name), 1)


@dataclass
class TruncationFlags:
    rounds: bool = False
    statements: bool = False
    tokens: bool = False

    @property
    def any(self) -> bool:
        return self.rounds or self.statements or self.tokens


@dataclass
class ClosureResult:
    """Partition of all retained statements into bracket-free and residual.

    bracket_free keeps insertion order: program statements first, derived
    ones in derivation order.  truncated.any == False means a true fixpoint.
    """

    bracket_free: tuple[Statement, ...]
    residual: tuple[Statement, ...]
    truncated: TruncationFlags
    rounds_used: int


def ripe_contents(s: Statement) -> list[WordSeq]:
    """Distinct contents of ripe brackets, first-occurrence order.

    The empty content is one distinct class; a bracket-free statement
    yields an empty list.
    """
    out: dict[WordSeq, None] = {}

    def walk(elements: Iterable[Element]) -> None:
        for e in elements:
            if isinstance(e, Bracket):
                if e.ripe:
                    out[e.elements] = None  # type: ignore[index]
                else:
                    walk(e.elements)

    walk(s.elements)
    return list(out)


def match_endings(content: WordSeq, pool: Iterable[Statement]) -> set[WordSeq]:
    """Endings of bracket-free pool statements that start with `content`.

    Bracketed ones are skipped.  Empty content matches every bracket-free
    statement; one equal to the content yields the empty ending (removal).
    """
    endings: set[WordSeq] = set()
    n = len(content)
    for st in pool:
        if st.bracket_free and st.elements[:n] == content:
            endings.add(st.elements[n:])  # type: ignore[arg-type]
    return endings


def _substitute(elements: Sequence[Element],
                assignment: dict[WordSeq, WordSeq]) -> tuple[Element, ...]:
    new: list[Element] = []
    for e in elements:
        if isinstance(e, Bracket):
            if e.ripe:
                new.extend(assignment[e.elements])  # type: ignore[index]
            else:
                new.append(Bracket(_substitute(e.elements, assignment)))
        else:
            new.append(e)
    return tuple(new)


def _endings(contents: Sequence[WordSeq], pool: Iterable[Statement],
             index: dict[WordSeq, list[WordSeq]],
             ) -> dict[WordSeq, list[WordSeq]]:
    """Each content's sorted endings in `pool`, read from `index` or filled."""
    for c in contents:
        if c not in index:
            index[c] = sorted(match_endings(c, pool))
    return {c: index[c] for c in contents}


def expand_statement(s: Statement, pool: Iterable[Statement], *,
                     endings: dict[WordSeq, list[WordSeq]] | None = None,
                     fresh: dict[WordSeq, set[WordSeq]] | None = None,
                     ) -> list[Statement]:
    """All one-step expansions of `s` against `pool`, deterministic order.

    Every ripe bracket of one content class receives the same ending.  If
    any class has no match the statement produces nothing this round
    (all-or-nothing; it may succeed against a richer pool later).

    `endings`, if given, holds each class's sorted endings in the pool, in
    first-occurrence order, and `pool` is not read.  `fresh`, if given,
    maps each class to the endings new since `s` was last expanded: then
    only the combinations that take one of them are built, in the order
    of the full product.
    """
    choices = (_endings(ripe_contents(s), list(pool), {}) if endings is None
               else endings)
    results: list[Statement] = []
    if not choices:
        return results
    new = None if fresh is None else [fresh[c] for c in choices]
    for combo in product(*choices.values()):
        if new is not None and not any(map(set.__contains__, new, combo)):
            continue  # all old: built when `s` was last expanded
        elements = _substitute(s.elements, dict(zip(choices, combo)))
        if elements:  # a lone removed guard could leave nothing
            results.append(Statement(elements))
    return results


def closure(p: Program, limits: ExpansionLimits) -> ClosureResult:
    """Iterate expansion rounds to a fixpoint or a limit.

    The program is split once into `pool` (bracket-free) and `residual`
    (bracketed, with their ripe contents); each round appends what it keeps,
    so the lists are the result, and `known` is their membership set.  Each
    round matches every bracketed statement against the pool as of round
    start, so the result does not depend on within-round processing order.

    Rounds are semi-naive.  `index` holds each ripe content's sorted
    endings in the pool, from `_endings`' scan on first demand and then
    from the statements the last round added (the round's fresh endings).  A
    statement known when the last round began skips the round if no class
    has a fresh ending, and otherwise builds only the combinations that
    take one; the others expand in full.
    """
    known = set(p)
    pool = [st for st in p if st.bracket_free]
    residual = [(st, ripe_contents(st)) for st in p if not st.bracket_free]
    added: list[Statement] = []  # bracket-free, kept by the last round
    old = 0  # residual statements expanded in the last round
    index: dict[WordSeq, list[WordSeq]] = {}
    flags = TruncationFlags()
    rounds_used = 0
    while residual and not flags.rounds:
        # An ending names its pool statement, so no ending of `added` is
        # in the index yet.
        fresh = {c: match_endings(c, added) for c in index}
        for c, got in fresh.items():
            if got:
                index[c] = sorted([*index[c], *got])
        expansions = (out for i, (st, cs) in enumerate(residual)
                      if i >= old or any(fresh[c] for c in cs)
                      for out in expand_statement(
                          st, (), endings=_endings(cs, pool, index),
                          fresh=fresh if i < old else None))
        new = []
        for out in expansions:
            if out in known:
                continue
            if out.token_count() > limits.max_tokens_per_statement:
                flags.tokens = True
                continue
            if len(known) >= limits.max_statements:
                flags.statements = True
                break
            known.add(out)
            new.append(out)
        rounds_used += 1
        added = [st for st in new if st.bracket_free]
        pool += added
        old = len(residual)
        residual += [(st, ripe_contents(st)) for st in new
                     if not st.bracket_free]
        if flags.statements or not new:
            break
        flags.rounds = rounds_used == limits.max_rounds
    return ClosureResult(tuple(pool), tuple(st for st, _ in residual), flags,
                         rounds_used)


def sample(p: Program, limits: ExpansionLimits, seed: int,
           count: int) -> list[Statement]:
    """Randomly ground bracketed program statements; deterministic per seed.

    Endings are drawn uniformly per content class from the closure pool.
    Draws that fail to ground within `max_rounds` steps are skipped; the
    attempt budget caps the total work so degenerate programs terminate.
    """
    check_count("count", count, 0)
    bracketed = [st for st in p if not st.bracket_free]
    if not bracketed:
        raise NoBracketedStatements("program has no bracketed statements")
    pool = closure(p, limits).bracket_free
    index: dict[WordSeq, list[WordSeq]] = {}
    rng = random.Random(seed)
    results: list[Statement] = []
    for _ in range(max(count * 100, 100)):  # the attempt budget
        if len(results) == count:
            break
        st = rng.choice(bracketed)
        for _ in range(limits.max_rounds):
            choices = _endings(ripe_contents(st), pool, index)
            if not all(choices.values()):
                break
            elements = _substitute(
                st.elements, {c: rng.choice(e) for c, e in choices.items()})
            if not elements:
                break
            st = Statement(elements)
            if st.token_count() > limits.max_tokens_per_statement:
                break
            if st.bracket_free:
                results.append(st)
                break
    return results

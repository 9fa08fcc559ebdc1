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

The token cap bounds the work, not only the output: a combination's token
count is known before it is built, so `closure` prunes the product on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from itertools import chain, product
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import NoBracketedStatements
from .syntax import Bracket, Element, Program, Statement

WordSeq = tuple[str, ...]
#: Each statement's expansions by combination (see `expand_statement`).
ExpansionTable = dict[Statement, dict[tuple[WordSeq, ...], Statement | None]]
_Key = tuple[Element, ...]  # a statement, by its elements
_ELEMENTS = attrgetter("elements")


def check_count(name: str, value: object, least: float) -> None:
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


class TokenCap:
    """The `tokens` bound of `expand_statement`: no expansion with more than
    `limit` top-level tokens is built, and `cut` is set once one is skipped,
    whether or not it takes a fresh ending.
    Not a dataclass, whose creation at import took about 0.5 ms on a
    2-core host."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.cut = False


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
    return list(dict.fromkeys(_ripe(s.elements)))


def _ripe(elements: Iterable[Element]) -> Iterator[WordSeq]:
    """Ripe bracket contents in `elements`, depth-first; a module function
    for the reason given at `_walk`."""
    for e in elements:
        if isinstance(e, Bracket):
            if e.ripe:
                yield e.elements  # type: ignore[misc]
            else:
                yield from _ripe(e.elements)


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


def _within(s: Statement, choices: dict[WordSeq, list[WordSeq]],
            cap: TokenCap) -> Iterator[tuple[WordSeq, ...]]:
    """The combinations of `choices` whose expansion of `s` has at most
    `cap.limit` top-level tokens, in the order of their product.

    That count is the top-level elements of `s` that are not ripe brackets,
    plus each class's top-level brackets times its ending's length.  A cut
    that drops any combination sets `cap.cut`.
    """
    lists = list(choices.values())
    if not all(lists):
        return iter(())  # all-or-nothing: no combination at all
    ripe = [e.elements for e in s.elements
            if isinstance(e, Bracket) and e.ripe]
    weights = [ripe.count(c) for c in choices]
    # least[k] and most[k]: what classes k.. add at the fewest and most
    n = len(lists)
    least, most = [0] * (n + 1), [0] * (n + 1)
    for k in reversed(range(n)):
        sizes = [len(e) for e in lists[k]]
        least[k] = least[k + 1] + weights[k] * min(sizes)
        most[k] = most[k + 1] + weights[k] * max(sizes)
    return _walk((lists, weights, least, most, cap), 0,
                 cap.limit - len(s.elements) + len(ripe), ())


def _walk(plan: tuple, k: int, room: int, prefix: tuple[WordSeq, ...],
          ) -> Iterator[tuple[WordSeq, ...]]:
    """`_within`'s combinations that extend `prefix`, the endings of the
    classes before `k`, depth-first: `room` is what classes k.. may add.
    A choice is cut once the classes after it cannot fit, and the plain
    product is yielded once the classes left always fit.  A module function,
    since a recursive nested one is a reference cycle, which would keep the
    endings alive until the cyclic collector runs."""
    lists, weights, least, most, cap = plan
    if most[k] <= room:
        for tail in product(*lists[k:]):
            yield prefix + tail
        return
    for e in lists[k]:
        left = room - weights[k] * len(e)
        if least[k + 1] <= left:
            yield from _walk(plan, k + 1, left, (*prefix, e))
        else:
            cap.cut = True


_UNBUILT = object()  # a combination not in `expand_statement`'s table


def expand_statement(s: Statement, pool: Iterable[Statement], *,
                     endings: dict[WordSeq, list[WordSeq]] | None = None,
                     fresh: dict[WordSeq, set[WordSeq]] | None = None,
                     until: Callable[[Statement], bool] | None = None,
                     tokens: TokenCap | None = None,
                     table: ExpansionTable | None = None,
                     ) -> list[Statement]:
    """All one-step expansions of `s` against `pool`, deterministic order.

    Every ripe bracket of one content class receives the same ending.  If
    any class has no match the statement produces nothing this round
    (all-or-nothing; it may succeed against a richer pool later).

    `endings`, if given, holds each class's sorted endings in the pool, in
    first-occurrence order, and `pool` is not read.  `fresh`, if given,
    maps each class to the endings new since `s` was last expanded: then
    only the combinations that take one of them are built, in the order
    of the full product.  `until`, if given, gets each expansion as it is
    built; a true result ends the walk, so the rest of the product is never
    built, and the list ends with that expansion.  `closure` passes it to
    stop at its statement cap.  `tokens`, if given, bounds the top-level
    tokens of an expansion: a combination over `tokens.limit` is never
    built, and `tokens.cut` is set when the walk drops one, all-old or not;
    the `fresh` filter above is the only rule that reads fresh endings.
    `table`, if given, maps `s` to the statement each combination built, or
    None where it left nothing: a combination found there is not built
    again.  It holds built statements only, so every rule above reads it
    as it would the built ones, and any calls may share it, since
    `endings` keeps the classes in first-occurrence order.
    """
    choices = (_endings(ripe_contents(s), list(pool), {}) if endings is None
               else endings)
    results: list[Statement] = []
    if not choices:
        return results
    new = None if fresh is None else [fresh[c] for c in choices]
    combos = (product(*choices.values()) if tokens is None
              else _within(s, choices, tokens))
    # keyed by the combination, a tuple of word tuples hashed in C
    memo = None if table is None else table.setdefault(s, {})
    for combo in combos:
        if new is not None and not any(map(set.__contains__, new, combo)):
            continue  # all old: built when `s` was last expanded
        out = _UNBUILT if memo is None else memo.get(combo, _UNBUILT)
        if out is _UNBUILT:
            elements = _substitute(s.elements, dict(zip(choices, combo)))
            # a lone removed guard could leave nothing
            out = Statement(elements) if elements else None
            if memo is not None:
                memo[combo] = out
        if out is not None:
            results.append(out)
            if until is not None and until(out):
                break
    return results


def closure(p: Program, limits: ExpansionLimits, *,
            table: ExpansionTable | None = None) -> ClosureResult:
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

    `at_cap` is the `until` of every `expand_statement` call: it keeps each
    new expansion within the token cap, and at the statement cap it ends
    the call and the round, so no combination past the cap is built.

    The token cap bounds the work too.  A statement whose top-level element
    count times `longest` (the longest program or pool statement, raised
    once per round) fits the cap builds its plain product; any other passes
    `cap` as the `tokens` of its call, so no combination over the cap is
    built, and a cut sets `flags.tokens`.  That is exact: a cut choice
    holds only statements over the cap, so none is kept and a stop at the
    statement cap cannot fall inside it.  A cut that drops only all-old
    combinations flags nothing new: each was in the product when the
    statement first met those endings, and was cut or built and flagged
    there.  But a program statement over the cap is known, and a
    combination equal to it is skipped and not flagged, so with one
    (`longest` over the cap) every combination is built and tested in
    `at_cap`.

    `table`, if given, is every call's `expand_statement` table: closures of
    programs that share statements, such as a search's neighbours, then
    build each (statement, combination) once between them.  Within one
    closure none is built twice, so a lone closure passes none.
    """
    known = set(p)
    limit = limits.max_tokens_per_statement
    cap = TokenCap(limit)
    # The longest program or pool statement, raised once per round: over
    # the cap only when a program statement is, and as long as any ending.
    longest = max(map(len, map(_ELEMENTS, p)), default=0)
    pool = [st for st in p if st.bracket_free]
    residual = [(st, ripe_contents(st)) for st in p if not st.bracket_free]
    added: list[Statement] = []  # bracket-free, kept by the last round
    old = 0  # residual statements expanded in the last round
    index: dict[WordSeq, list[WordSeq]] = {}
    flags = TruncationFlags()
    rounds_used = 0

    def at_cap(out: Statement) -> bool:
        if out in known:
            return False
        if len(out.elements) > limit:
            flags.tokens = True
            return False
        if len(known) >= limits.max_statements:
            flags.statements = True
            return True
        known.add(out)
        new.append(out)
        return False

    while residual and not flags.rounds:
        # An ending names its pool statement, so no ending of `added` is
        # in the index yet.
        fresh = {c: match_endings(c, added) for c in index}
        for c, got in fresh.items():
            if got:
                index[c] = sorted([*index[c], *got])
        new: list[Statement] = []  # kept by this round
        for i, (st, cs) in enumerate(residual):
            if i < old and not any(fresh[c] for c in cs):
                continue
            check = longest <= limit < len(st.elements) * longest
            expand_statement(st, (), endings=_endings(cs, pool, index),
                             fresh=fresh if i < old else None, until=at_cap,
                             tokens=cap if check else None, table=table)
            if flags.statements:
                break
        rounds_used += 1
        added = [st for st in new if st.bracket_free]
        pool += added
        longest = max(chain([longest], map(len, map(_ELEMENTS, added))))
        old = len(residual)
        residual += [(st, ripe_contents(st)) for st in new
                     if not st.bracket_free]
        if flags.statements or not new:
            break
        flags.rounds = rounds_used == limits.max_rounds
    flags.tokens |= cap.cut
    return ClosureResult(tuple(pool), tuple(st for st, _ in residual), flags,
                         rounds_used)


class _Support:
    """What each statement of a program's closure, `result`, made under
    `limits` through `table`, is derived from, so that the closure of the
    program less one bracket-free statement is found by delete and rederive
    (DRed: Gupta, Mumick & Subrahmanian 1993) without closing it.

    A derivation is one residual statement and one combination of its
    classes' endings in the final pool: its inputs are the residual and, per
    class, the pool statement `content + ending`; its output is what `table`
    holds for the combination (one that left nothing is no derivation).
    Statements are keyed by their elements.  A closure that is not truncated
    expanded every combination over its final pool, so each is in `table`,
    and one that is not raises KeyError.  None is recorded, and `deleted`
    always falls back, for a truncated closure, and for a program of more
    than `max_statements` statements: its closure derives nothing new, but
    its child may have to derive again what the program held, and reach
    the cap.
    """

    def __init__(self, program: Program, result: ClosureResult,
                 limits: ExpansionLimits, table: ExpansionTable) -> None:
        self.limits, self.rounds_used = limits, result.rounds_used
        #: The elements of the closure's bracket-free statements.
        self.free = set(map(_ELEMENTS, result.bracket_free))
        self.program = set(map(_ELEMENTS, program))
        # each output's derivations, as their inputs; each input's outputs
        self.derivations: dict[_Key, list[tuple[_Key, ...]]] = {}
        self.uses: dict[_Key, list[_Key]] = {}
        self.exact = not (result.truncated.any
                          or len(program) > limits.max_statements)
        if not self.exact:
            return
        index: dict[WordSeq, list[WordSeq]] = {}
        for r in result.residual:
            cs = ripe_contents(r)
            built = table[r]
            for combo in product(*_endings(cs, result.bracket_free,
                                           index).values()):
                out = built[combo]
                if out is None:
                    continue
                inputs = (r.elements, *map(tuple.__add__, cs, combo))
                self.derivations.setdefault(out.elements, []).append(inputs)
                for key in inputs:
                    self.uses.setdefault(key, []).append(out.elements)

    def deleted(self, s: Statement) -> set[_Key] | None:
        """The elements of the bracket-free statements that the closure of
        the program less its bracket-free statement `s` lacks, or None where
        a full closure must decide: the closure was truncated, the program
        is over the statement cap, `s` is over the token cap (derived again,
        it would be cut there), or a statement derived again may lengthen a
        derivation to `max_rounds`.

        Over-delete what `s` reaches through derivations, put back the
        program's statements other than `s`, then, until nothing changes,
        each statement that has a derivation with no input deleted.  Each
        statement put back that way may be derived one round later than
        before, so the child reaches its fixpoint within `rounds_used - 1`
        plus their number of rounds of derivation.
        """
        if (not self.exact
                or len(s.elements) > self.limits.max_tokens_per_statement):
            return None
        gone = {s.elements}
        stack = [s.elements]
        while stack:
            for out in self.uses.get(stack.pop(), ()):
                if out not in gone:
                    gone.add(out)
                    stack.append(out)
        gone -= self.program
        gone.add(s.elements)
        back = 0
        changed = True
        while changed:
            changed = False
            for t in list(gone):
                if any(map(gone.isdisjoint, self.derivations.get(t, ()))):
                    gone.remove(t)
                    back += 1
                    changed = True
        if self.rounds_used - 1 + back >= self.limits.max_rounds:
            return None
        return gone & self.free


def sample(p: Program, limits: ExpansionLimits, seed: int,
           count: int) -> list[Statement]:
    """Randomly ground bracketed program statements; deterministic per seed.

    Endings are drawn uniformly per content class from the closure pool.
    Draws that fail to ground within `max_rounds` steps are skipped; the
    attempt budget caps the total work so degenerate programs terminate.
    """
    check_count("seed", seed, float("-inf"))
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
            if len(st.elements) > limits.max_tokens_per_statement:
                break
            if st.bracket_free:
                results.append(st)
                break
    return results

"""Independent reference implementations used only for checking results."""

import random
from itertools import product

from bracketc import (CFG, Bracket, BudgetTooSmall, ClosureResult,
                      EmptyCorpus, ExpansionLimits, FrontierPoint, HornProgram,
                      NoBracketedStatements, Program, Statement, Var,
                      expand_statement, induce_slots, match_endings, neighbors,
                      ripe_contents)
from bracketc.compress import _rank, evaluate_program
from bracketc.engine import TruncationFlags


def closure_reference(p: Program, limits: ExpansionLimits) -> ClosureResult:
    """The closure loop as first written: every round expands each residual
    statement against the round-start pool and queues new bracket-free and
    residual statements in separate lists."""
    pool: dict[Statement, None] = {}
    residual: dict[Statement, None] = {}
    for st in p:
        (pool if st.bracket_free else residual)[st] = None

    flags = TruncationFlags()
    rounds_used = 0
    fixpoint = not residual
    while not fixpoint and rounds_used < limits.max_rounds:
        snapshot = list(pool)
        fresh_bf: list[Statement] = []
        fresh_res: list[Statement] = []
        queued: set[Statement] = set()
        capped = False
        for st in residual:
            for out in expand_statement(st, snapshot):
                if out in pool or out in residual or out in queued:
                    continue
                if out.token_count() > limits.max_tokens_per_statement:
                    flags.tokens = True
                    continue
                if len(pool) + len(residual) + len(queued) >= limits.max_statements:
                    flags.statements = True
                    capped = True
                    break
                queued.add(out)
                (fresh_bf if out.bracket_free else fresh_res).append(out)
            if capped:
                break
        rounds_used += 1
        for st in fresh_bf:
            pool[st] = None
        for st in fresh_res:
            residual[st] = None
        if capped:
            break
        if not fresh_bf and not fresh_res:
            fixpoint = True
    if not fixpoint and not flags.statements and rounds_used >= limits.max_rounds:
        flags.rounds = True

    return ClosureResult(
        bracket_free=tuple(pool),
        residual=tuple(residual),
        truncated=flags,
        rounds_used=rounds_used,
    )


def ground(elements, assignment):
    """Each ripe bracket replaced by its class's ending, written apart from
    the engine's substitution."""
    out = []
    for e in elements:
        if not isinstance(e, Bracket):
            out.append(e)
        elif all(isinstance(w, str) for w in e.elements):
            out.extend(assignment[e.elements])
        else:
            out.append(Bracket(ground(e.elements, assignment)))
    return tuple(out)


def sample_reference(p, limits, seed, count):
    """`sample` as first written, over the reference closure: every draw
    step scans the whole pool once per content class, then draws."""
    if count < 0:
        raise ValueError("count must be >= 0")
    bracketed = [st for st in p if not st.bracket_free]
    if not bracketed:
        raise NoBracketedStatements("program has no bracketed statements")
    pool = closure_reference(p, limits).bracket_free
    rng = random.Random(seed)
    results = []
    for _ in range(max(count * 100, 100)):
        if len(results) == count:
            break
        st = rng.choice(bracketed)
        for _ in range(limits.max_rounds):
            choices = {c: sorted(match_endings(c, pool))
                       for c in ripe_contents(st)}
            if not all(choices.values()):
                break
            elements = ground(st.elements,
                              {c: rng.choice(e) for c, e in choices.items()})
            if not elements:
                break
            st = Statement(elements)
            if st.token_count() > limits.max_tokens_per_statement:
                break
            if st.bracket_free:
                results.append(st)
                break
    return results


def compress_reference(corpus, config):
    """The beam search as first written: it keeps the best candidate apart
    from the beam, merges each round's candidates with the beam by program,
    and counts the greedy prefix's size statement by statement."""
    corpus = list(dict.fromkeys(corpus))
    if not corpus:
        raise EmptyCorpus("corpus is empty")
    if config.budget_chars < min(len(str(s)) for s in corpus):
        raise BudgetTooSmall(
            f"budget {config.budget_chars} fits no single corpus statement")

    picked: list[Statement] = []
    total = 0
    for sent in corpus:
        extra = len(str(sent)) + (1 if picked else 0)
        if total + extra <= config.budget_chars:
            picked.append(sent)
            total += extra

    c_set = frozenset(corpus)
    seen: set[Program] = set()

    def score(program):
        seen.add(program)
        return evaluate_program(program, c_set, config)

    starts = [Program(picked), induce_slots(corpus)]
    beam = sorted(map(score, dict.fromkeys(starts)), key=_rank)
    beam = beam[: config.beam_width]
    best = beam[0]

    rng = random.Random(config.seed)
    for _ in range(config.max_iterations):
        produced = [score(prog) for cand in beam
                    for prog in neighbors(cand.program, corpus, config, rng)
                    if prog not in seen]
        if not produced:
            break
        merged = {c.program: c for c in beam + produced}
        new_beam = sorted(merged.values(), key=_rank)[: config.beam_width]
        if _rank(new_beam[0]) < _rank(best):
            best = new_beam[0]
        if [c.program for c in new_beam] == [c.program for c in beam]:
            break
        beam = new_beam
    return best


def forward_chain(h: HornProgram) -> set[tuple[str, ...]]:
    """Naive bottom-up evaluation over the finite constant universe."""
    constants = {a for atom in h.facts for a in atom.args}
    for rule in h.rules:
        for atom in (rule.head, *rule.body):
            constants |= {a for a in atom.args if not isinstance(a, Var)}
    facts = {(atom.pred, *atom.args) for atom in h.facts}
    changed = True
    while changed:
        changed = False
        for rule in h.rules:
            variables = sorted({v.name for atom in rule.body
                                for v in atom.variables()})
            for values in product(sorted(constants), repeat=len(variables)):
                binding = dict(zip(variables, values))

                def ground(atom):
                    return (atom.pred, *(binding[a.name] if isinstance(a, Var)
                                         else a for a in atom.args))

                if all(ground(atom) in facts for atom in rule.body):
                    head = ground(rule.head)
                    if head not in facts:
                        facts.add(head)
                        changed = True
    return facts


def pareto_oracle(points: list[FrontierPoint]) -> set[int]:
    """Indices of non-dominated points by pairwise comparison."""
    kept = set()
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if i == j:
                continue
            rp, rq = p.report, q.report
            ge = (rq.accuracy >= rp.accuracy
                  and rq.completeness >= rp.completeness
                  and rq.size_chars <= rp.size_chars)
            gt = (rq.accuracy > rp.accuracy
                  or rq.completeness > rp.completeness
                  or rq.size_chars < rp.size_chars)
            if ge and gt:
                dominated = True
                break
        if not dominated:
            kept.add(i)
    return kept


def random_cfg(rng, max_string_count=150):
    """A small random grammar whose length-8 language stays desk-sized."""
    from bracketc import cfg_enumerate
    while True:
        nt_count = rng.randint(1, 4)
        nts = ["S", "T", "U", "V"][:nt_count]
        terminals = ["a", "b"]
        productions = []
        for _ in range(rng.randint(2, 8)):
            lhs = rng.choice(nts)
            length = rng.randint(0, 3)
            rhs = tuple(rng.choice(nts if rng.random() < 0.35 else terminals)
                        for _ in range(length))
            productions.append((lhs, rhs))
        g = CFG(frozenset(nts), frozenset(terminals), "S", tuple(productions))
        strings = cfg_enumerate(g, 8)
        if 1 <= len(strings) <= max_string_count:
            return g

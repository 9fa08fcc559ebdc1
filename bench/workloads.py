"""The benchmark's workloads: seeded inputs, the calls into bracketc that
make up one pass, and the check that goes with each call.

A workload's `build(bc, seed)` is its set-up: it generates the inputs from
the seed, parses and encodes them with bracketc, and returns the operations.
`bc` holds the bracketc modules; every call looks its function up on the
module when it runs, so the tracer's wrappers see it.

The seed draws the vocabulary only.  Every word is a rank code followed by
random letters (see `vocabulary`), so two seeds give inputs of the same
shape, the same sizes and the same sort order, and the programs do the same
amount of work on them.  The search in `compress` breaks ties by comparing
program text, so without this the search path, and with it the run time,
would change from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

RANK_LETTERS = "DEFGHIJKLM"  # after the search's CAT<k> words, before NOVEL<k>
TAIL_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass
class Op:
    """One call into bracketc together with the check of its output."""

    name: str
    kind: str  # closure | sample | compress | frontier
    call: Callable[[], object]
    check: Callable[[object], None]


def vocabulary(rng: random.Random, count: int) -> list[str]:
    """`count` distinct six-letter words in a fixed sort order: a three-letter
    rank code decides every comparison, the seed picks the other letters."""
    out = []
    for i in range(count):
        code = "".join(RANK_LETTERS[i // 10 ** p % 10] for p in (2, 1, 0))
        out.append(code + "".join(rng.choice(TAIL_LETTERS) for _ in range(3)))
    return out


# ---------------------------------------------------------------------------
# closure-recursive: many rounds, slow pool growth, the same expansions
# derived again every round.

ADDITION_N = (6, 8, 10)
ADDITION_TOKENS = 7
SAMPLE_N = 8
SAMPLE_COUNT = 50
SAMPLE_SEED = 0
PALINDROME_TOKENS = 24
DYCK_TOKENS = 14


def addition_text(numerals: list[str], n_max: int) -> str:
    """The addition program: successor facts plus six recursive rules."""
    lines = [f"AFTER {numerals[n]} IS {numerals[n + 1]}" for n in range(n_max)]
    lines += [
        f"NUMBER {numerals[0]}",
        "NUMBER [AFTER [NUMBER] IS]",
        "BEFORE [NUMBER] IS [ANOTHER NUMBER] [AFTER [ANOTHER NUMBER] IS [NUMBER]]",
        "ANOTHER NUMBER [NUMBER]",
        f"[NUMBER] + {numerals[0]} = [NUMBER]",
        "[NUMBER] + [ANOTHER NUMBER] [[AFTER [NUMBER] IS] + [BEFORE [ANOTHER NUMBER] IS]]",
    ]
    return "\n".join(lines)


def closure_recursive(bc, seed: int) -> list[Op]:
    rng = random.Random(seed)
    numerals = vocabulary(rng, max(ADDITION_N) + 1)
    a, b, left, right = vocabulary(rng, 4)
    engine, syntax, encoders = bc.engine, bc.syntax, bc.encoders
    limits = engine.ExpansionLimits(max_rounds=100, max_statements=100_000,
                                    max_tokens_per_statement=ADDITION_TOKENS)
    additions = {n: syntax.parse_program(addition_text(numerals, n))
                 for n in ADDITION_N}
    palindrome = encoders.cfg_to_bc(
        encoders.parse_cfg(f"S -> {a} S {a} | {b} S {b} | eps"))
    dyck = encoders.cfg_to_bc(encoders.parse_cfg(f"S -> {left} S {right} S | eps"))

    def cfg_limits(tokens: int):
        return engine.ExpansionLimits(max_rounds=100, max_statements=200_000,
                                      max_tokens_per_statement=tokens)

    ops = [Op(f"addition N={n}", "closure",
              lambda p=p: engine.closure(p, limits),
              lambda r, n=n: checks.check_addition(r, numerals, n))
           for n, p in additions.items()]
    pal_limits, dyck_limits = cfg_limits(PALINDROME_TOKENS), cfg_limits(DYCK_TOKENS)
    ops.append(Op(f"palindrome tokens={PALINDROME_TOKENS}", "closure",
                  lambda: engine.closure(palindrome, pal_limits),
                  lambda r: checks.check_cfg(
                      r, "S", checks.palindromes(a, b, PALINDROME_TOKENS - 2))))
    ops.append(Op(f"dyck tokens={DYCK_TOKENS}", "closure",
                  lambda: engine.closure(dyck, dyck_limits),
                  lambda r: checks.check_cfg(
                      r, "S", checks.dyck_words(left, right, DYCK_TOKENS - 2))))
    ops.append(Op(f"sample addition N={SAMPLE_N}", "sample",
                  lambda: engine.sample(additions[SAMPLE_N], limits, SAMPLE_SEED,
                                                SAMPLE_COUNT),
                  lambda r: checks.check_sample(
                      r, checks.addition_closure(numerals, SAMPLE_N))))
    return ops


# ---------------------------------------------------------------------------
# closure-fanout: one to three rounds, but one round builds a large product.

SIBLING_K = 150
FANOUT_CLASSES = ("A", "B", "C", "D")
FANOUT_WIDTH = 14
CAPPED_WIDTH = 20
CAPPED_STATEMENTS = 200


def fanout_text(classes: dict[str, list[str]]) -> str:
    lines = [f"{head} {w}" for head, ws in classes.items() for w in ws]
    lines.append("X " + " ".join(f"[{head}]" for head in classes))
    return "\n".join(lines)


def closure_fanout(bc, seed: int) -> list[Op]:
    rng = random.Random(seed)
    names = vocabulary(rng, SIBLING_K)
    engine, syntax, encoders = bc.engine, bc.syntax, bc.encoders
    x, y = encoders.Var("X"), encoders.Var("Y")
    rule = encoders.HornRule(
        encoders.Atom("SIBLING", (x, y)),
        (encoders.Atom("FATHER_CHILD", ("TOM", x)),
         encoders.Atom("FATHER_CHILD", ("TOM", y))))
    facts = tuple(encoders.Atom("FATHER_CHILD", ("TOM", n)) for n in names)
    sibling = encoders.horn_to_bc(encoders.HornProgram(facts, (rule,)))

    def classes(width: int) -> dict[str, list[str]]:
        words = vocabulary(rng, width * len(FANOUT_CLASSES))
        return {head: words[i * width:(i + 1) * width]
                for i, head in enumerate(FANOUT_CLASSES)}

    wide, wider = classes(FANOUT_WIDTH), classes(CAPPED_WIDTH)
    fanout = syntax.parse_program(fanout_text(wide))
    capped = syntax.parse_program(fanout_text(wider))
    limits = engine.ExpansionLimits()
    cap = engine.ExpansionLimits(max_statements=CAPPED_STATEMENTS)
    width = len(FANOUT_CLASSES)
    return [
        Op(f"sibling k={SIBLING_K}", "closure",
           lambda: engine.closure(sibling, limits),
           lambda r: checks.check_sibling(r, names)),
        Op(f"fanout {width}x{FANOUT_WIDTH}", "closure",
           lambda: engine.closure(fanout, limits),
           lambda r: checks.check_fanout(r, wide)),
        Op(f"capped fanout {width}x{CAPPED_WIDTH} cap={CAPPED_STATEMENTS}", "closure",
           lambda: engine.closure(capped, cap),
           lambda r: checks.check_capped_fanout(r, wider, CAPPED_STATEMENTS)),
    ]


# ---------------------------------------------------------------------------
# compress-search: many short closures of programs one statement apart.

# Templates over vocabulary words t0..t9; "{x}" is the filler slot.  Every
# template takes all fillers, so the slot categories can be merged.
TEMPLATES = (
    "{t0} {t1} {x} {t2} {t3}",
    "{x} {t4} {t5} {t6}",
    "{t7} {x} {t8}",
    "{t9} {t1} {t4} {x}",
)
FILLERS = 10
COMPRESS_SHARE = 0.5
FRONTIER_SHARES = (0.3, 0.5, 0.7)
# The objective the search reaches at each share of the verbatim size when
# the benchmark was defined.  The rank-coded vocabulary makes the search the
# same on every seed, so a faster search must reach at least these.
RECORDED_OBJECTIVE = {0.3: 0.75, 0.5: 1.4, 0.7: 1.4}


def corpus_lines(seed: int) -> list[str]:
    rng = random.Random(seed)
    words = vocabulary(rng, 10 + FILLERS)
    slots = {f"t{i}": w for i, w in enumerate(words[:10])}
    return [t.format(x=x, **slots) for t in TEMPLATES for x in words[10:]]


def compress_search(bc, seed: int) -> list[Op]:
    lines = corpus_lines(seed)
    corpus = bc.corpus.corpus_from_text("\n".join(lines))
    verbatim = len("\n".join(lines))
    search = bc.compress
    budget = int(verbatim * COMPRESS_SHARE)
    budgets = [int(verbatim * s) for s in FRONTIER_SHARES]
    config = search.SearchConfig(budget_chars=budget)
    lam, limits = config.lambda_accuracy, config.limits
    recorded = [RECORDED_OBJECTIVE[s] for s in FRONTIER_SHARES]
    return [
        Op(f"compress budget={budget}", "compress",
           lambda: search.compress(corpus, config),
           lambda r: checks.check_compress(r, lines, budget, lam, limits,
                                           RECORDED_OBJECTIVE[COMPRESS_SHARE])),
        Op(f"frontier budgets={budgets}", "frontier",
           lambda: search.frontier_sweep(corpus, budgets, config),
           lambda r: checks.check_frontier(r, lines, budgets, lam, recorded)),
    ]


WORKLOADS = {
    "closure-recursive": closure_recursive,
    "closure-fanout": closure_fanout,
    "compress-search": compress_search,
}

"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For each check: a real output of bracketc on a small input must pass, and
the same output with one fault put in must be rejected.  The naive
reference evaluator is also compared with outputs derived by hand.  Exits
with code 1 if any case goes the wrong way.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from fractions import Fraction

import checks
import run
from reference import naive_closure, render
from workloads import Op, addition_text, corpus_lines, fanout_text, vocabulary

failures = []


def case(name: str, check, expect_pass: bool) -> None:
    try:
        check()
        passed, why = True, ""
    except checks.CheckFailed as exc:
        passed, why = False, str(exc)
    ok = passed == expect_pass
    if not ok:
        failures.append(name)
    verdict = "accepts" if passed else "rejects"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}{'  (' + why + ')' if why else ''}")


def main() -> int:
    bc = run.import_bracketc()
    engine, syntax = bc.engine, bc.syntax
    st = syntax.parse_statement
    rng = random.Random(7)

    def with_bf(result, bracket_free):
        return replace(result, bracket_free=tuple(bracket_free))

    def flagged(result, **flags):
        return replace(result, truncated=replace(result.truncated, **flags))

    # addition and sample
    numerals = vocabulary(rng, 6)
    limits = engine.ExpansionLimits(max_tokens_per_statement=7)
    program = syntax.parse_program(addition_text(numerals, 5))
    add = engine.closure(program, limits)
    wrong_sum = st(f"{numerals[1]} + {numerals[1]} = {numerals[3]}")
    sums = [s for s in add.bracket_free if "+" in s.elements]
    case("addition, true closure", lambda: checks.check_addition(add, numerals, 5), True)
    case("addition, a wrong sum added",
         lambda: checks.check_addition(with_bf(add, add.bracket_free + (wrong_sum,)),
                                       numerals, 5), False)
    case("addition, a sum dropped",
         lambda: checks.check_addition(
             with_bf(add, [s for s in add.bracket_free if s != sums[0]]), numerals, 5),
         False)
    case("addition, rounds flag set",
         lambda: checks.check_addition(flagged(add, rounds=True), numerals, 5), False)
    expected = checks.addition_closure(numerals, 5)
    case("reference evaluator equals the addition closure by hand",
         lambda: checks.require_set(
             naive_closure([render(s.elements) for s in program], 100, 7)[0],
             expected, "reference"), True)
    samples = engine.sample(program, limits, 3, 20)
    case("sample, true samples", lambda: checks.check_sample(samples, expected), True)
    case("sample, one outside the closure",
         lambda: checks.check_sample(samples + [st(f"NUMBER {numerals[0]} X")], expected),
         False)
    case("sample, nothing sampled", lambda: checks.check_sample([], expected), False)

    # palindrome and Dyck
    a, b, left, right = vocabulary(rng, 4)
    pal_g = bc.encoders.parse_cfg(f"S -> {a} S {a} | {b} S {b} | eps")
    dyck_g = bc.encoders.parse_cfg(f"S -> {left} S {right} S | eps")
    cfg_limits = engine.ExpansionLimits(max_tokens_per_statement=10)
    pal = engine.closure(bc.encoders.cfg_to_bc(pal_g), cfg_limits)
    dyck = engine.closure(bc.encoders.cfg_to_bc(dyck_g), cfg_limits)
    pal_words, dyck_ws = checks.palindromes(a, b, 8), checks.dyck_words(left, right, 8)
    case("palindrome words equal the grammar's enumeration",
         lambda: checks.require(
             pal_words == set(bc.encoders.cfg_enumerate(pal_g, 8))
             and dyck_ws == set(bc.encoders.cfg_enumerate(dyck_g, 8)),
             "word generators disagree with cfg_enumerate"), True)
    case("palindrome, true closure", lambda: checks.check_cfg(pal, "S", pal_words), True)
    case("palindrome, a non-palindrome added",
         lambda: checks.check_cfg(with_bf(pal, pal.bracket_free + (st(f"S -> {a} {b}"),)),
                                  "S", pal_words), False)
    case("palindrome, a word dropped",
         lambda: checks.check_cfg(with_bf(pal, pal.bracket_free[1:]), "S", pal_words),
         False)
    case("dyck, true closure", lambda: checks.check_cfg(dyck, "S", dyck_ws), True)
    case("dyck, an unbalanced word added",
         lambda: checks.check_cfg(
             with_bf(dyck, dyck.bracket_free + (st(f"S -> {right} {left}"),)),
             "S", dyck_ws), False)
    alias_words = [s for s in dyck.bracket_free if s.elements[0] != "S"]
    case("dyck, a word of the alias dropped",
         lambda: checks.check_cfg(
             with_bf(dyck, [s for s in dyck.bracket_free if s != alias_words[-1]]),
             "S", dyck_ws), False)

    # sibling
    names = vocabulary(rng, 5)
    enc = bc.encoders
    x, y = enc.Var("X"), enc.Var("Y")
    horn = enc.HornProgram(
        tuple(enc.Atom("FATHER_CHILD", ("TOM", n)) for n in names),
        (enc.HornRule(enc.Atom("SIBLING", (x, y)),
                      (enc.Atom("FATHER_CHILD", ("TOM", x)),
                       enc.Atom("FATHER_CHILD", ("TOM", y)))),))
    sib = engine.closure(enc.horn_to_bc(horn), engine.ExpansionLimits())
    case("sibling, true closure", lambda: checks.check_sibling(sib, names), True)
    case("sibling, a pair dropped",
         lambda: checks.check_sibling(
             with_bf(sib, [s for s in sib.bracket_free if s.elements[0] != "SIBLING"
                           or s.elements[1:] != (names[0], names[1])]), names), False)
    case("sibling, a second alias head",
         lambda: checks.check_sibling(
             with_bf(sib, sib.bracket_free + (st(f"OTHER {names[0]}"),)), names), False)

    # fan-out, uncapped and capped
    words = vocabulary(rng, 16)
    classes = {h: words[i * 4:(i + 1) * 4] for i, h in enumerate("ABCD")}
    fan_p = syntax.parse_program(fanout_text(classes))
    fan = engine.closure(fan_p, engine.ExpansionLimits())
    case("fanout, true closure", lambda: checks.check_fanout(fan, classes), True)
    case("fanout, a combination dropped",
         lambda: checks.check_fanout(with_bf(fan, fan.bracket_free[:-1]), classes), False)
    capped = engine.closure(fan_p, engine.ExpansionLimits(max_statements=50))
    swapped = st("X " + " ".join([classes["B"][0], classes["A"][0], classes["C"][0],
                                  classes["D"][0]]))
    case("capped fanout, true closure",
         lambda: checks.check_capped_fanout(capped, classes, 50), True)
    case("capped fanout, endings from the wrong classes",
         lambda: checks.check_capped_fanout(
             with_bf(capped, capped.bracket_free[:-1] + (swapped,)), classes, 50), False)
    case("capped fanout, statement flag unset",
         lambda: checks.check_capped_fanout(flagged(capped, statements=False),
                                            classes, 50), False)
    case("capped fanout, cap exceeded",
         lambda: checks.check_capped_fanout(flagged(fan, statements=True), classes, 50),
         False)

    # compress and frontier on a small templated corpus
    lines = [ln for ln in corpus_lines(11) if ln.count(" ") < 3][:12]
    corpus = bc.corpus.corpus_from_text("\n".join(lines))
    verbatim = len("\n".join(lines))
    search = bc.compress
    budget = int(verbatim * 0.6)
    config = search.SearchConfig(budget_chars=budget, max_iterations=3)
    best = search.compress(corpus, config)
    lam, lim, got = config.lambda_accuracy, config.limits, best.objective
    case("compress, true result",
         lambda: checks.check_compress(best, lines, budget, lam, lim, got), True)
    case("compress, over budget",
         lambda: checks.check_compress(best, lines, budget // 3, lam, lim, got), False)
    report = best.report
    case("compress, accuracy misreported",
         lambda: checks.check_compress(
             replace(best, report=replace(report, accuracy=report.accuracy / 2)),
             lines, budget, lam, lim, got), False)
    case("compress, objective below the recorded one",
         lambda: checks.check_compress(best, lines, budget, lam, lim, got + 0.1), False)
    greedy = search.evaluate_program(
        syntax.Program(corpus[:1]), corpus, config)
    case("compress, objective below the greedy prefix",
         lambda: checks.check_compress(greedy, lines, budget, lam, lim, 0.0), False)
    budgets = [int(verbatim * s) for s in (0.3, 0.7)]
    points = search.frontier_sweep(corpus, budgets, config)
    recorded = [float(p.report.completeness) + lam * float(p.report.accuracy)
                for p in points if p.method_label == "compress"]
    case("frontier, true points",
         lambda: checks.check_frontier(points, lines, budgets, lam, recorded), True)
    case("frontier, an objective below the recorded one",
         lambda: checks.check_frontier(points, lines, budgets, lam,
                                       [recorded[0] + 0.1] + recorded[1:]), False)
    b_row = next(p for p in points if p.method_label == "b")
    case("frontier, reference row b moved",
         lambda: checks.check_frontier(
             [p if p is not b_row else replace(
                 p, report=replace(p.report, completeness=Fraction(1)))
              for p in points], lines, budgets, lam, recorded), False)
    case("frontier, a point over its budget",
         lambda: checks.check_frontier(
             [replace(p, budget_chars=p.report.size_chars - 1)
              if p.method_label == "compress" else p for p in points],
             lines, [p.report.size_chars - 1 for p in points
                     if p.method_label == "compress"], lam, recorded), False)
    case("frontier, fractions inconsistent",
         lambda: checks.check_frontier(
             [replace(p, report=replace(p.report, intersection_count=0))
              if p.method_label == "compress" else p for p in points],
             lines, budgets, lam, recorded), False)

    # the pass loop: a call that returns None fails its check and makes the
    # run incorrect; a call that raises fails, is timed, and leaves it correct
    def raises():
        raise ValueError("broken")

    for label, call, wrong in (("returns None", lambda: None, True),
                               ("raises", raises, False)):
        tally = run.Tally()
        done = run.run_pass([Op(label, "sample", call,
                                lambda r: checks.check_sample(r, expected))], tally, None)
        case(f"pass loop, a call that {label}",
             lambda: checks.require(
                 (tally.attempted, tally.failed, tally.correct) == (1, 1, not wrong)
                 and done["raw"][label] > 0, f"{label}: tally {vars(tally)}"), True)

    print(f"{len(failures)} case(s) went the wrong way" if failures else "all cases ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

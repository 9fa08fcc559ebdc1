"""Command-line entry point: every pipeline stage, scriptable and stable.

Exit codes: 0 success, 1 input error, 2 internal error.  All randomized
subcommands take a seed (defaulted and printed, so every run is
reproducible from its own output).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .compress import SearchConfig, compress, frontier_sweep
from .corpus import TokenizerOptions, load_corpus
from .encoders import cfg_to_bc, horn_to_bc, parse_cfg, parse_horn
from .engine import ExpansionLimits, closure, sample
from .errors import BCError
from .metrics import CSV_HEADER, FrontierPoint, evaluate
from .syntax import (Program, Statement, lines, load_program, parse_statement,
                     program_size, read_text)


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-rounds", type=int)
    parser.add_argument("--max-statements", type=int)
    parser.add_argument("--max-tokens", type=int, dest="max_tokens_per_statement",
                        metavar="MAX_TOKENS")


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fold-case", action="store_true",
                        help="uppercase the corpus while loading")
    parser.add_argument("--keep-punctuation", action="store_false",
                        dest="split_punctuation",
                        help="do not split punctuation into separate tokens")
    parser.add_argument("--sentences", action="store_false",
                        dest="one_statement_per_line",
                        help="split on sentence boundaries instead of lines")


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", type=float, dest="lambda_accuracy",
                        metavar="LAMBDA")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--beam", type=int, dest="beam_width", metavar="BEAM")
    parser.add_argument("--iterations", type=int, dest="max_iterations",
                        metavar="ITERATIONS")
    _add_limit_flags(parser)
    _add_corpus_flags(parser)


def _options(cls, args: argparse.Namespace, **given):
    """cls from `given` and each flag of args that names a field and is set."""
    flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return cls(**{name: v for name, v in flags.items() if v is not None}, **given)


def _search_config(args: argparse.Namespace, **given) -> SearchConfig:
    return _options(SearchConfig, args, limits=_options(ExpansionLimits, args),
                    **given)


def _truncation_header(result, limits: ExpansionLimits) -> list[str]:
    if not result.truncated.any:
        return []
    tripped = [f.name for f in fields(result.truncated)
               if getattr(result.truncated, f.name)]
    return [f"# truncated: {','.join(tripped)} "
            f"(max_rounds={limits.max_rounds} "
            f"max_statements={limits.max_statements} "
            f"max_tokens={limits.max_tokens_per_statement})"]


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_check(args: argparse.Namespace) -> None:
    statements = read_text(args.program,
                           lambda text: [*map(parse_statement, lines(text))])
    program = Program(statements)
    print(f"{len(program)} statements")
    if len(statements) > len(program):
        print(f"# {len(statements) - len(program)} duplicate lines dropped",
              file=sys.stderr)


def _program_first(statements: Sequence[Statement],
                   program: set[Statement]) -> list[str]:
    """Program statements in their order, then derived ones sorted."""
    return [str(s) for s in statements if s in program] + \
        sorted(str(s) for s in statements if s not in program)


def _cmd_expand(args: argparse.Namespace) -> None:
    program = load_program(args.program)
    limits = _options(ExpansionLimits, args)
    result = closure(program, limits)
    given = set(program)
    out = _truncation_header(result, limits)
    out += _program_first(result.bracket_free, given)
    if args.residual:
        out.append("# residual")
        out += _program_first(result.residual, given)
    for line in out:
        print(line)


def _cmd_sample(args: argparse.Namespace) -> None:
    program = load_program(args.program)
    statements = sample(program, _options(ExpansionLimits, args), args.seed,
                        args.count)
    print(f"# seed {args.seed}")
    for s in statements:
        print(s)


def _cmd_metrics(args: argparse.Namespace) -> None:
    program = load_program(args.program)
    corpus = load_corpus(args.corpus, _options(TokenizerOptions, args))
    limits = _options(ExpansionLimits, args)
    result = closure(program, limits)
    report = evaluate(result.bracket_free, corpus, program_size(program),
                      result.truncated.any)
    if args.csv:
        print(CSV_HEADER)
        print(FrontierPoint(report.size_chars, report, "bc").as_csv_row())
    else:
        for line in _truncation_header(result, limits):
            print(line)
        print(report.as_kv())


def _cmd_encode(args: argparse.Namespace) -> None:
    source = read_text(args.source, args.parse)
    _write(args.output, str(args.encode(source)))


def _cmd_compress(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.corpus, _options(TokenizerOptions, args))
    config = _search_config(args)
    cand = compress(corpus, config)
    _write(args.output, str(cand.program))
    print(f"# seed {config.seed}", file=sys.stderr)
    print(cand.report.as_kv(), file=sys.stderr)


def _budget(item: str) -> int:
    try:
        return int(item)
    except ValueError:
        raise ValueError(
            f"--budgets: {item.strip()!r} is not a whole number") from None


def _cmd_frontier(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.corpus, _options(TokenizerOptions, args))
    budgets = [_budget(b) for b in args.budgets.split(",") if b.strip()]
    # frontier_sweep checks the budgets and sets each run's budget_chars
    points = frontier_sweep(corpus, budgets, _search_config(args, budget_chars=1))
    skipped = len(budgets) - sum(p.method_label == "compress" for p in points)
    if skipped:
        print(f"# {skipped} budget(s) skipped: too small for any program",
              file=sys.stderr)
    rows = [CSV_HEADER] + [p.as_csv_row() for p in points]
    _write(args.csv, "\n".join(rows))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bracketc",
        description="Bracket Compression corpus-analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a program")
    p.add_argument("program")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("expand", help="print the bracket-free closure")
    p.add_argument("program")
    p.add_argument("--residual", action="store_true")
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("sample", help="pseudo-random grounded statements")
    p.add_argument("program")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("metrics", help="score a program against a corpus")
    p.add_argument("program")
    p.add_argument("corpus")
    p.add_argument("--csv", action="store_true")
    _add_limit_flags(p)
    _add_corpus_flags(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("encode-cfg", help="translate a CFG file")
    p.add_argument("source", metavar="grammar")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_encode, parse=parse_cfg, encode=cfg_to_bc)

    p = sub.add_parser("encode-horn", help="translate a fact/rule file")
    p.add_argument("source", metavar="rules")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_encode, parse=parse_horn, encode=horn_to_bc)

    p = sub.add_parser("compress", help="search for a size-bounded program")
    p.add_argument("corpus")
    p.add_argument("--budget", type=int, required=True, dest="budget_chars",
                   metavar="BUDGET")
    p.add_argument("-o", "--output", default=None)
    _add_search_flags(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("frontier", help="sweep budgets, emit frontier CSV")
    p.add_argument("corpus")
    p.add_argument("--budgets", required=True)
    p.add_argument("--csv", required=True)
    _add_search_flags(p)
    p.set_defaults(func=_cmd_frontier)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        args.func(args)
    except (BCError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

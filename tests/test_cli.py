import os
import re
import subprocess
import sys

import pytest

from bracketc import (BracketInCorpus, SearchConfig, UnbalancedBrackets, cli,
                      compress, load_corpus, load_program, parse_program)
from bracketc.cli import main
from unreached import PACKAGE

GIRLS = "GIRL LINDA\nGIRL MARY\n[GIRL] LIKES PONIES\n"
GIRLS_CORPUS = "GIRL LINDA\nGIRL MARY\nMARY LIKES PONIES\nLINDA LIKES PONIES\n"


@pytest.fixture
def files(tmp_path):
    prog = tmp_path / "prog.bc"
    prog.write_text(GIRLS, encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(GIRLS_CORPUS, encoding="utf-8")
    return tmp_path, str(prog), str(corpus)


def test_check(files, capsys):
    _, prog, _ = files
    assert main(["check", prog]) == 0
    assert "3 statements" in capsys.readouterr().out


def test_check_reports_duplicate_lines(tmp_path, capsys):
    prog = tmp_path / "dupes.bc"
    prog.write_text(GIRLS + "GIRL MARY\n", encoding="utf-8")
    assert main(["check", str(prog)]) == 0
    out, err = capsys.readouterr()
    assert "3 statements" in out
    assert "# 1 duplicate lines dropped" in err


def test_check_counts_duplicates_but_not_blank_or_comment_lines(tmp_path,
                                                                  capsys):
    prog = tmp_path / "dupes.bc"
    prog.write_text("# girls\nGIRL MARY\n\nGIRL MARY\n[GIRL] LIKES PONIES\n"
                    "  GIRL   MARY \n# girls\n[GIRL] LIKES PONIES\n",
                    encoding="utf-8")
    assert main(["check", str(prog)]) == 0
    assert capsys.readouterr() == ("2 statements\n",
                                   "# 3 duplicate lines dropped\n")


def test_unexpected_exception_is_an_internal_error(files, monkeypatch, capsys):
    def fail(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_program", fail)
    assert main(["expand", files[1]]) == 2
    assert "internal error: boom" in capsys.readouterr().err


def test_check_missing_file(files, capsys):
    assert main(["check", "/nonexistent/prog.bc"]) == 1
    assert "error:" in capsys.readouterr().err


def test_metrics_names_the_file_that_is_not_utf8(files, capsys):
    tmp_path, prog, _ = files
    corpus = tmp_path / "latin1.txt"
    corpus.write_bytes("GIRL MARY\nGIRL ZOË\n".encode("latin-1"))
    assert main(["metrics", prog, str(corpus)]) == 1
    assert capsys.readouterr().err == \
        f"error: {corpus}: byte 17 is not UTF-8 (invalid continuation byte)\n"


def test_metrics_names_the_file_that_does_not_parse(files, capsys):
    tmp_path, prog, corpus = files
    bad_program = tmp_path / "bad.bc"
    bad_program.write_text("A ]\n", encoding="utf-8")
    blank_corpus = tmp_path / "blank.txt"
    blank_corpus.write_text("\n  \n", encoding="utf-8")
    assert main(["metrics", str(bad_program), corpus]) == 1
    assert capsys.readouterr().err == \
        f"error: {bad_program}: unexpected ']' in 'A ]'\n"
    assert main(["metrics", prog, str(blank_corpus)]) == 1
    assert capsys.readouterr().err == \
        f"error: {blank_corpus}: no statements in corpus text\n"


@pytest.mark.parametrize("load, text, error", [
    (load_program, "A [B\n", UnbalancedBrackets),
    (load_corpus, "A [B]\n", BracketInCorpus),
])
def test_a_load_error_keeps_its_type_and_names_the_file(tmp_path, load, text,
                                                        error):
    source = tmp_path / "source"
    source.write_text(text, encoding="utf-8")
    with pytest.raises(error, match=f"^{re.escape(str(source))}: "):
        load(str(source))


# Each kind of input file, with text whose first word a byte-order mark
# would change; `metrics` reads the corpus after the fixture's program.
BOM_INPUTS = {
    "program": (["expand"], "A a\nX [A]\n"),
    "corpus": (["metrics", "PROGRAM"], GIRLS_CORPUS),
    "grammar": (["encode-cfg"], "S -> a S | eps\n"),
    "horn": (["encode-horn"], "girl(mary).\nlikes(X, ponies) :- girl(X).\n"),
}


@pytest.mark.parametrize("command, text", BOM_INPUTS.values(),
                         ids=BOM_INPUTS.keys())
def test_a_leading_byte_order_mark_is_not_read(files, command, text, capsys):
    tmp_path, prog, _ = files
    args = [prog if a == "PROGRAM" else a for a in command]
    outputs = []
    for bom in ("", "\ufeff"):
        source = tmp_path / "source"
        source.write_text(bom + text, encoding="utf-8")
        assert main([*args, str(source)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    if command == ["expand"]:
        assert outputs[1] == "A a\nX a\n"


def test_check_bad_program(tmp_path, capsys):
    bad = tmp_path / "bad.bc"
    bad.write_text("A ]B[\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 1


def test_expand(files, capsys):
    _, prog, _ = files
    assert main(["expand", prog]) == 0
    out = capsys.readouterr().out
    assert "MARY LIKES PONIES" in out
    assert "[GIRL] LIKES PONIES" not in out


def test_expand_residual_and_order(files, capsys):
    _, prog, _ = files
    assert main(["expand", prog, "--residual"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[:2] == ["GIRL LINDA", "GIRL MARY"]
    assert lines[2:4] == sorted(lines[2:4])
    assert lines[4] == "# residual"
    assert lines[5] == "[GIRL] LIKES PONIES"


def test_expand_of_an_empty_program_prints_nothing(tmp_path, capsys):
    prog = tmp_path / "empty.bc"
    prog.write_text("# no statements\n", encoding="utf-8")
    assert main(["expand", str(prog)]) == 0
    assert capsys.readouterr().out == ""


def test_expand_reproducible(files, capsys):
    _, prog, _ = files
    main(["expand", prog])
    first = capsys.readouterr().out
    main(["expand", prog])
    assert capsys.readouterr().out == first


def test_expand_truncation_header(tmp_path, capsys):
    cases = [
        ("NUMBER 0\nNUMBER X [NUMBER]\n", ["--max-rounds", "2"],
         "# truncated: rounds "
         "(max_rounds=2 max_statements=100000 max_tokens=64)"),
        # "B a a a" is over the token cap, then "B b" over the statement cap
        ("A a a a\nA b\nB [A]\n",
         ["--max-statements", "3", "--max-tokens", "3"],
         "# truncated: statements,tokens "
         "(max_rounds=100 max_statements=3 max_tokens=3)"),
    ]
    prog = tmp_path / "capped.bc"
    for text, flags, header in cases:
        prog.write_text(text, encoding="utf-8")
        assert main(["expand", str(prog), *flags]) == 0
        assert capsys.readouterr().out.splitlines()[0] == header


def test_sample_seed_printed(files, capsys):
    _, prog, _ = files
    assert main(["sample", prog, "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# seed 0")
    main(["sample", prog, "--count", "2", "--seed", "7"])
    assert capsys.readouterr().out.startswith("# seed 7")


def test_metrics_identity(files, capsys):
    _, prog, corpus = files
    assert main(["metrics", prog, corpus]) == 0
    out = capsys.readouterr().out
    assert "accuracy=1.000000" in out
    assert "completeness=1.000000" in out


def test_metrics_truncation_header(tmp_path, files, capsys):
    _, _, corpus = files
    prog = tmp_path / "loop.bc"
    prog.write_text("NUMBER 0\nNUMBER X [NUMBER]\n", encoding="utf-8")
    assert main(["metrics", str(prog), corpus, "--max-rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# truncated: rounds (max_rounds=2 ")
    assert "completeness=" in out


def test_metrics_csv(files, capsys):
    _, prog, corpus = files
    assert main(["metrics", prog, corpus, "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ("method,budget,size,accuracy,completeness,"
                        "m,c,intersection,truncated")
    assert lines[1].startswith("bc,")


def test_encode_cfg(tmp_path, capsys):
    grammar = tmp_path / "g.cfg"
    grammar.write_text("S -> A S A | B S B | eps\n", encoding="utf-8")
    out_path = tmp_path / "g.bc"
    assert main(["encode-cfg", str(grammar), "-o", str(out_path)]) == 0
    body = out_path.read_text(encoding="utf-8")
    assert "S -> A [S ->] A" in body


def test_encode_horn(tmp_path, capsys):
    rules = tmp_path / "h.pl"
    rules.write_text("girl(mary).\nlikes(X, ponies) :- girl(X).\n",
                     encoding="utf-8")
    assert main(["encode-horn", str(rules)]) == 0
    out = capsys.readouterr().out
    assert "likes [girl] ponies" in out


@pytest.mark.parametrize("command, source", [("encode-cfg", "grammar"),
                                             ("encode-horn", "rules")])
def test_encode_usage_names_its_source(command, source, capsys):
    assert main([command]) == 1
    err = capsys.readouterr().err
    assert f"usage: bracketc {command} [-h] [-o OUTPUT] {source}" in err
    assert f"the following arguments are required: {source}" in err


USAGE = {
    "check": "[-h] program",
    "expand": "[-h] [--residual] [--max-rounds MAX_ROUNDS] "
              "[--max-statements MAX_STATEMENTS] [--max-tokens MAX_TOKENS] "
              "program",
    "sample": "[-h] [--seed SEED] --count COUNT [--max-rounds MAX_ROUNDS] "
              "[--max-statements MAX_STATEMENTS] [--max-tokens MAX_TOKENS] "
              "program",
    "metrics": "[-h] [--csv] [--max-rounds MAX_ROUNDS] "
               "[--max-statements MAX_STATEMENTS] [--max-tokens MAX_TOKENS] "
               "[--fold-case] [--keep-punctuation] [--sentences] "
               "program corpus",
    "encode-cfg": "[-h] [-o OUTPUT] grammar",
    "encode-horn": "[-h] [-o OUTPUT] rules",
    "compress": "[-h] --budget BUDGET [-o OUTPUT] [--lambda LAMBDA] "
                "[--seed SEED] [--beam BEAM] [--iterations ITERATIONS] "
                "[--max-rounds MAX_ROUNDS] [--max-statements MAX_STATEMENTS] "
                "[--max-tokens MAX_TOKENS] [--fold-case] [--keep-punctuation] "
                "[--sentences] corpus",
    "frontier": "[-h] --budgets BUDGETS --csv CSV [--lambda LAMBDA] "
                "[--seed SEED] [--beam BEAM] [--iterations ITERATIONS] "
                "[--max-rounds MAX_ROUNDS] [--max-statements MAX_STATEMENTS] "
                "[--max-tokens MAX_TOKENS] [--fold-case] [--keep-punctuation] "
                "[--sentences] corpus",
}


@pytest.mark.parametrize("command", sorted(USAGE))
def test_usage_names_each_flag_and_metavar(command, capsys):
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert " ".join(usage.split()) == f"usage: bracketc {command} {USAGE[command]}"


def test_compress_passes_zero_flags_through(files, capsys):
    # 0 is falsy: a flag set to 0 must still override the field's default
    _, _, corpus = files
    assert main(["compress", corpus, "--budget", "80", "--iterations", "0",
                 "--lambda", "0", "--seed", "0", "-o", "-"]) == 0
    want = compress(load_corpus(corpus),
                    SearchConfig(80, lambda_accuracy=0, seed=0, max_iterations=0))
    assert capsys.readouterr().out == f"{want.program}\n"


def test_compress_and_output(files, capsys):
    tmp_path, _, corpus = files
    out_path = tmp_path / "cc.bc"
    assert main(["compress", corpus, "--budget", "60", "--iterations", "2",
                 "-o", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8").strip()
    err = capsys.readouterr().err
    assert "# seed 0" in err and "completeness=" in err


def test_compress_output_dash_is_stdout(files, capsys):
    _, _, corpus = files
    assert main(["compress", corpus, "--budget", "60", "--iterations", "2",
                 "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert parse_program(out) and "completeness=" not in out


def test_frontier_rows(files, tmp_path, capsys):
    _, _, corpus = files
    csv_path = tmp_path / "frontier.csv"
    assert main(["frontier", corpus, "--budgets", "20,60",
                 "--csv", str(csv_path), "--iterations", "2"]) == 0
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1 + 2 + 3  # header + budgets + references
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels[-3:] == ["a", "b", "c"]


def test_frontier_reports_skipped_budget(files, tmp_path, capsys):
    # 3 characters fit no sentence of the corpus, so that budget gives no row
    _, _, corpus = files
    csv_path = tmp_path / "frontier.csv"
    assert main(["frontier", corpus, "--budgets", "3,60",
                 "--csv", str(csv_path), "--iterations", "2"]) == 0
    assert "# 1 budget(s) skipped: too small for any program" in \
        capsys.readouterr().err
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["compress", "a", "b", "c"]


def test_frontier_reads_a_negative_budget_joined_to_its_flag(files, capsys):
    # a separate "-2,40" would be read by argparse as an option
    _, _, corpus = files
    assert main(["frontier", corpus, "--budgets=-2,40", "--csv", "-"]) == 1
    assert "error: budgets must be non-empty and positive" in \
        capsys.readouterr().err


def test_frontier_names_the_flag_and_a_budget_that_is_no_integer(files,
                                                                  capsys):
    _, _, corpus = files
    assert main(["frontier", corpus, "--budgets=40, 2.5", "--csv", "-"]) == 1
    assert capsys.readouterr().err == \
        "error: --budgets: '2.5' is not a whole number\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: bracketc" in capsys.readouterr().out


def test_unknown_flag_rejected(files):
    _, prog, _ = files
    assert main(["check", prog, "--bogus"]) == 1


@pytest.mark.parametrize("args, code, stream, text", [
    (["--help"], 0, "stdout", "usage: bracketc"),
    (["expand", "missing.bc"], 1, "stderr", "error:"),
], ids=["help", "missing-file"])
def test_module_entry_point(tmp_path, args, code, stream, text):
    # the `__main__` block, which no in-process test can run
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-m", "bracketc.cli", *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == code
    assert text in getattr(done, stream)

"""The instrument of `tests/unreached.py`, on small texts compiled in
memory.  Each test runs the code with a `Record` of its own in globals of
its own, so a run of the suite under the tool keeps the records apart."""

from unreached import RECORD, Record

SIGN = '''\
def sign(x):
    """Not executable."""
    if x < 0:
        return "negative"
    return "not negative"
'''

# One statement in each kind of statement list.
EVERY_LIST = '''\
import contextlib


class Box:
    size = 1


for k in range(2):
    while k:
        k -= 1
    else:
        pass
try:
    raise ValueError
except ValueError:
    caught = True
else:
    caught = False
finally:
    done = True
with contextlib.nullcontext():
    inside = True
match Box.size:
    case 1:
        one = True
    case _:
        one = False
'''


def _run(source: str, path: str) -> tuple[Record, dict]:
    record = Record()
    namespace = {RECORD: record}
    exec(record.compile(source, path), namespace)
    return record, namespace


def test_the_branch_not_taken_is_listed():
    record, namespace = _run(SIGN, "<sign>")
    assert namespace["sign"](1) == "not negative"
    assert record.never_ran() == [("<sign>", 4, 'return "negative"')]
    assert record.one_sided() == [("<sign>", 3, "x < 0", "only False")]


def test_every_statement_list_is_probed():
    record, namespace = _run(EVERY_LIST, "<lists>")
    assert namespace["done"] and namespace["inside"] and namespace["one"]
    assert record.never_ran() == [
        ("<lists>", 18, "caught = False"), ("<lists>", 27, "one = False")]
    assert record.one_sided() == []


def test_the_listing_is_what_was_compiled(tmp_path):
    source = tmp_path / "sign.py"
    source.write_text(SIGN, encoding="utf-8")
    record, namespace = _run(source.read_text(encoding="utf-8"), str(source))
    source.write_text("# three lines\n# moved every\n# statement\n" + SIGN,
                      encoding="utf-8")
    assert namespace["sign"](1) == "not negative"
    assert record.never_ran() == [(str(source), 4, 'return "negative"')]

"""Hypothesis strategies for statements and programs over a small alphabet,
so that random programs share prefixes and actually derive statements."""

from hypothesis import strategies as st

from bracketc import (Atom, Bracket, HornProgram, HornRule, Program,
                      Statement, Var)

WORD = st.sampled_from(("A", "B", "C"))


def _bracket(inner, max_size=3):
    return st.lists(inner, max_size=max_size).map(
        lambda es: Bracket(tuple(es)))


# Any nesting, for the syntax properties.
STATEMENT = st.lists(st.recursive(WORD, _bracket, max_leaves=6),
                     min_size=1, max_size=4).map(
    lambda es: Statement(tuple(es)))
PROGRAM = st.lists(STATEMENT, max_size=6).map(Program)

# At most two brackets per statement, each ripe with at most one word or
# holding one such bracket: no statement has more than two content classes,
# so one expansion builds at most |pool|**2 combinations and a closure under
# small limits stays fast.  Half the statements are bracket-free, so that
# brackets find endings.
_RIPE = _bracket(WORD, max_size=1)
_BRACKET = _RIPE | st.tuples(st.lists(WORD, max_size=1), _RIPE).map(
    lambda t: Bracket((*t[0], t[1])))
CLOSURE_STATEMENT = st.lists(WORD | WORD | _BRACKET, min_size=1,
                             max_size=4).filter(
    lambda es: sum(isinstance(e, Bracket) for e in es) <= 2).map(
    lambda es: Statement(tuple(es)))
_WORDS = st.lists(WORD, min_size=1, max_size=3).map(
    lambda ws: Statement(tuple(ws)))
CLOSURE_PROGRAM = st.lists(_WORDS | CLOSURE_STATEMENT, min_size=2,
                           max_size=8).map(Program)

# Corpora of 3-10 distinct sentences over four words, so that sentences
# share templates and every search move finds something to act on.
CORPUS = st.lists(st.lists(st.sampled_from(("a", "b", "c", "d")), min_size=1,
                           max_size=4).map(lambda ws: Statement(tuple(ws))),
                  min_size=3, max_size=10, unique=True)

# Horn sets over three constants and predicates of one arity each, so that
# a binder bracket matches only facts of its own predicate.
_ARITY = {"p": 0, "q": 1, "r": 2, "s": 2}
_CONSTANT = st.sampled_from(("a", "b", "c"))
_TERM = _CONSTANT | st.sampled_from(("X", "Y", "Z")).map(Var)


def _atom(term):
    return st.sampled_from(sorted(_ARITY)).flatmap(
        lambda pred: st.tuples(*[term] * _ARITY[pred]).map(
            lambda args: Atom(pred, args)))


_RULE = st.builds(HornRule, _atom(_TERM),
                  st.lists(_atom(_TERM), min_size=1, max_size=3).map(tuple))
HORN_PROGRAM = st.builds(HornProgram,
                         st.lists(_atom(_CONSTANT), max_size=6).map(tuple),
                         st.lists(_RULE, min_size=1, max_size=3).map(tuple))

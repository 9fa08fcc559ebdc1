"""Encoders: context-free grammars and Horn fact/rule sets into programs.

A production N -> alpha becomes the statement "N -> ..." where every
nonterminal occurrence turns into the bracket [X ->].  Repeated
nonterminals within one right side would collide under the same-content
rule, so repeats get fresh alias words (X1, X2, ...) with alias statements
"X1 -> [X ->]" that let each occurrence vary independently.

Horn facts render predicate-first ("P a b"); rule variables are supplied
by binder brackets whose content is the atom rendering up to the variable
position.  Two variables sharing a binder content get the alias device
("FC2 [FATHER_CHILD TOM]") so they can vary independently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Union

from .engine import match_endings
from .errors import ReservedSymbolClash, UnsupportedRule
from .syntax import (Bracket, Element, Program, Statement, alias, fresh_word,
                     lines, one_word)

ARROW = "->"
# The empty alternative in grammar text; reserved there, not in a `CFG`.
_EPS = "eps"

# A Horn predicate or argument: a word without the atom syntax "(", ")", ",".
_TERM_RE = re.compile(r"[^\s\[\](),]+")


# ---------------------------------------------------------------------------
# Context-free grammars


@dataclass(frozen=True)
class CFG:
    nonterminals: frozenset[str]
    terminals: frozenset[str]
    start: str
    productions: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        for sym in sorted(self.nonterminals | self.terminals):
            one_word(sym, "a grammar symbol")
        if self.start not in self.nonterminals:
            raise ValueError(f"start symbol {self.start!r} is not a nonterminal")
        if self.nonterminals & self.terminals:
            raise ValueError("terminals and nonterminals overlap")
        for lhs, rhs in self.productions:
            if lhs not in self.nonterminals:
                raise ValueError(f"undeclared nonterminal {lhs!r}")
            for sym in rhs:
                if sym not in self.nonterminals and sym not in self.terminals:
                    raise ValueError(f"undeclared symbol {sym!r}")


def parse_cfg(text: str) -> CFG:
    """Lines "N -> a B | eps"; the first left-hand side is the start.
    `eps` stands alone in its alternative and is never a left-hand side."""
    productions: list[tuple[str, tuple[str, ...]]] = []
    nonterminals: list[str] = []
    for stripped in lines(text):
        if ARROW not in stripped:
            raise ValueError(f"grammar line without {ARROW!r}: {stripped!r}")
        lhs, rhs_text = stripped.split(ARROW, 1)
        lhs = one_word(lhs.strip(), stripped)
        if lhs == _EPS:
            raise ReservedSymbolClash(
                f"{_EPS!r} used as a left-hand side: {stripped!r}")
        if lhs not in nonterminals:
            nonterminals.append(lhs)
        for alt in rhs_text.split("|"):
            symbols = tuple(one_word(sym, stripped) for sym in alt.split())
            if not symbols:
                raise ValueError(f"empty alternative, write {_EPS}: {stripped!r}")
            if ARROW in symbols:
                raise ReservedSymbolClash(
                    f"{ARROW!r} used as a grammar symbol: {stripped!r}")
            if symbols == (_EPS,):
                symbols = ()
            elif _EPS in symbols:
                raise ValueError(f"{_EPS!r} beside other symbols: {stripped!r}")
            productions.append((lhs, symbols))
    if not productions:
        raise ValueError("grammar has no productions")
    nts = frozenset(nonterminals)
    terminals = frozenset(
        sym for _, rhs in productions for sym in rhs if sym not in nts)
    return CFG(nts, terminals, nonterminals[0], tuple(productions))


def cfg_to_bc(g: CFG) -> Program:
    """Simulate a CFG: one statement per production plus alias statements."""
    statements: list[Statement] = []
    aliases: dict[tuple[str, int], tuple[Statement, Bracket]] = {}
    taken = {*g.nonterminals, *g.terminals}
    for lhs, rhs in g.productions:
        counts: dict[str, int] = {}
        elements: list[Element] = [lhs, ARROW]
        for sym in rhs:
            if sym in g.terminals:
                elements.append(sym)
                continue
            k = counts[sym] = counts.get(sym, 0) + 1
            if k == 1:
                elements.append(Bracket((sym, ARROW)))
                continue
            if (sym, k) not in aliases:  # the k-th X is X{k-1} unless taken
                word = fresh_word(sym, taken, k - 1)
                aliases[sym, k] = alias((sym, ARROW), word, (ARROW,))
            elements.append(aliases[sym, k][1])
        statements.append(Statement(tuple(elements)))
    statements.extend(statement for statement, _ in aliases.values())
    return Program(statements)


def cfg_enumerate(g: CFG, max_len: int) -> frozenset[tuple[str, ...]]:
    """Exact set of terminal strings of length <= max_len from the start.

    Bottom-up fixpoint over per-nonterminal languages; partial
    concatenations beyond max_len are pruned, so loops, unit chains and
    epsilon productions all terminate.
    """
    lang: dict[str, set[tuple[str, ...]]] = {nt: set() for nt in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            partials: set[tuple[str, ...]] = {()}
            for sym in rhs:
                options: Iterable[tuple[str, ...]]
                if sym in g.terminals:
                    options = [(sym,)]
                else:
                    options = lang[sym]
                partials = {p + o for p in partials for o in options
                            if len(p) + len(o) <= max_len}
                if not partials:
                    break
            for s in partials:
                if s not in lang[lhs]:
                    lang[lhs].add(s)
                    changed = True
    return frozenset(lang[g.start])


def cfg_strings_from_closure(bracket_free: Iterable[Statement], start: str,
                             max_len: int) -> frozenset[tuple[str, ...]]:
    """Strip the "S ->" prefix from derived statements to recover strings."""
    return frozenset(e for e in match_endings((start, ARROW), bracket_free)
                     if len(e) <= max_len)


# ---------------------------------------------------------------------------
# Horn fact/rule sets


@dataclass(frozen=True)
class Var:
    name: str
    #: Written as a bare `_`, so `name` is one `parse_horn` invented.
    anonymous: bool = field(default=False, compare=False)


Term = Union[str, Var]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        for term in (self.pred, *self.args):
            if isinstance(term, str):
                one_word(term, f"an atom of {self.pred}", _TERM_RE)

    def variables(self) -> list[Var]:
        return [a for a in self.args if isinstance(a, Var)]


@dataclass(frozen=True)
class HornRule:
    head: Atom
    body: tuple[Atom, ...]


@dataclass(frozen=True)
class HornProgram:
    facts: tuple[Atom, ...] = ()
    rules: tuple[HornRule, ...] = ()


def _atoms(h: HornProgram) -> list[Atom]:
    return list(h.facts) + [a for r in h.rules for a in (r.head, *r.body)]


def _parse_atom(text: str, taken: set[str]) -> Atom:
    """One atom; each bare `_` becomes a variable not named in `taken`."""
    text = text.strip()
    if "(" not in text:
        if not text:
            raise ValueError("empty atom")
        return Atom(one_word(text, text, _TERM_RE))
    if not text.endswith(")"):
        raise ValueError(f"malformed atom: {text!r}")
    pred, inner = text[:-1].split("(", 1)
    pred = one_word(pred.strip(), text, _TERM_RE)
    args: list[Term] = []
    for part in inner.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty argument in atom: {text!r}")
        if one_word(part, text, _TERM_RE) == "_":
            args.append(Var(fresh_word("_", taken), anonymous=True))
        else:
            args.append(Var(part) if part[0].isupper() or part[0] == "_" else part)
    return Atom(pred, tuple(args))


def parse_horn(text: str) -> HornProgram:
    """Lines "p(a,b)." for facts, "h(X) :- b1(X), b2(X,Y)." for rules.

    Prolog convention: identifiers starting with an uppercase letter or `_`
    are variables, each bare `_` one of its own; the rest are constants.
    """
    facts: list[Atom] = []
    rules: list[HornRule] = []
    for stripped in lines(text, ("#", "%")):
        if stripped.endswith("."):
            stripped = stripped[:-1].strip()
        taken = set(_TERM_RE.findall(stripped))
        if ":-" in stripped:
            head_text, body_text = stripped.split(":-", 1)
            head = _parse_atom(head_text, taken)
            body = tuple(_parse_atom(a, taken) for a in _split_atoms(body_text))
            rules.append(HornRule(head, body))
        else:
            atom = _parse_atom(stripped, taken)
            if atom.variables():
                raise ValueError(f"fact with variables: {stripped!r}")
            facts.append(atom)
    return HornProgram(tuple(facts), tuple(rules))


def _split_atoms(text: str) -> list[str]:
    """Split a rule body on commas outside parentheses; empty parts stay."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    return parts + ["".join(current)]


def _alias_stem(pred: str) -> str:
    """The initials of an underscored predicate, else the predicate."""
    parts = pred.split("_")
    return "".join(p[0] for p in parts if p) if len(parts) > 1 else pred


def horn_to_bc(h: HornProgram) -> Program:
    """Render facts and rules as statements; prefix-recoverable rules only.

    A body atom binds its final argument when that argument is a new
    variable, every earlier argument is a constant or an already-bound
    variable, and the head or a later body atom uses the variable.  Each
    predicate must keep one arity, so that a binder matches only facts of
    its own predicate.  Anything else raises UnsupportedRule.
    """
    statements: list[Statement] = []
    taken: set[str] = set()  # predicates and constants; aliases avoid them
    arity: dict[str, int] = {}
    for atom in _atoms(h):
        if arity.setdefault(atom.pred, len(atom.args)) != len(atom.args):
            raise UnsupportedRule(f"predicate {atom.pred!r} has two arities")
        taken.update(a for a in (atom.pred, *atom.args) if isinstance(a, str))

    for fact in h.facts:
        statements.append(Statement((fact.pred, *fact.args)))  # type: ignore[arg-type]

    for rule in h.rules:
        binders: dict[Var, Bracket] = {}
        guards: list[Bracket] = []
        for i, atom in enumerate(rule.body):
            new_vars = [v for v in atom.variables() if v not in binders]
            if not new_vars:
                guards.append(Bracket(_render_args((atom.pred, *atom.args),
                                                   binders)))
                continue
            if len(new_vars) > 1 or atom.args[-1] != new_vars[0]:
                raise UnsupportedRule(
                    f"cannot recover variables of {atom.pred!r} as an ending")
            var = new_vars[0]
            if not any(var in a.args for a in (rule.head, *rule.body[i + 1:])):
                raise UnsupportedRule(
                    f"{_named('body', var, atom)} is used nowhere else")
            binder = Bracket(_render_args((atom.pred, *atom.args[:-1]), binders))
            if binder in binders.values():
                statement, binder = alias(
                    binder.elements, fresh_word(_alias_stem(atom.pred), taken, 2))
                statements.append(statement)
            binders[var] = binder
        for var in rule.head.variables():
            if var not in binders:
                raise UnsupportedRule(
                    f"{_named('head', var, rule.head)} is not bound by the body")
        head_elements = _render_args((rule.head.pred, *rule.head.args), binders)
        statements.append(Statement(head_elements + tuple(guards)))

    return Program(statements)


def _named(role: str, var: Var, atom: Atom) -> str:
    """How a message names `var` of `atom`: a bare `_` by where it stands."""
    if var.anonymous:
        n = atom.args.index(var) + 1
        return f"anonymous variable '_' (argument {n} of {atom.pred})"
    return f"{role} variable {var.name!r}"


def _render_args(parts: tuple[Term, ...],
                 binders: dict[Var, Bracket]) -> tuple[Element, ...]:
    return tuple(binders[p] if isinstance(p, Var) else p for p in parts)

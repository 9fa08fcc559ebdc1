"""Exception hierarchy shared across the package."""


class BCError(Exception):
    """Base class for all bracketc errors."""


class UnbalancedBrackets(BCError):
    """A statement closes a bracket it never opened, or leaves one open."""


class EmptyStatement(BCError):
    """A top-level statement must contain at least one element."""


class EmptyCorpus(BCError):
    """A corpus (or reference set) turned out to contain no statements."""


class BracketInCorpus(BCError):
    """Corpus text may not contain the reserved characters '[' or ']'."""


class NoBracketedStatements(BCError):
    """Sampling needs at least one bracketed statement to expand."""


class ReservedSymbolClash(BCError):
    """A grammar uses a reserved word as a symbol: the encoding's '->', or
    the text format's 'eps' as a left-hand side."""


class UnsupportedRule(BCError):
    """A Horn rule cannot be rendered with prefix-based bracket matching."""


class BudgetTooSmall(BCError):
    """No legal program fits the requested size budget."""

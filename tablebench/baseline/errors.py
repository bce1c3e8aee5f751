"""Exception types shared across the package."""


class TablingError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(TablingError):
    """Invalid engine/table configuration (bad design-lock combo, thread id, ...)."""


class ProgramError(TablingError):
    """Structurally invalid program (range restriction, non-tabled recursion, ...)."""


class ParseError(ProgramError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class EvaluationError(TablingError):
    """Contract violation during evaluation (double completion, early consume, ...)."""

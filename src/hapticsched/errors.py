"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid configuration. Carries the full list of violations."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class InfeasibleError(RuntimeError):
    """The offered load cannot be carried by the configured service."""

"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid user-supplied configuration (CLI exit code 2)."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation (CLI exit code 3)."""


class InfeasibleError(RuntimeError):
    """An estimate carries no usable information, e.g. p_hat = 0 (CLI exit code 4)."""

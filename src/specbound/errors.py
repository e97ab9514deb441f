"""Exception types shared across the package, and the one resource guard."""


class InvalidInputError(ValueError):
    """An argument violates the operation's domain (bad modulus, range, shape...)."""


class PreconditionError(ValueError):
    """A verification routine was handed data that breaks its stated contract.

    Distinct from a check *failure*: a precondition error means the question
    was ill-posed, not that the inequality under test is violated.
    """


class ResourceLimitError(RuntimeError):
    """A size guard tripped: see :func:`check_budget`."""


class NumericalError(ArithmeticError):
    """Numerical procedure failed to converge or produced corrupted values."""


def max_exponent(base: int, budget: int) -> int:
    """The largest k >= 0 with base**k <= budget, for an integer base >= 2 and budget >= 1."""
    k, power = 0, base
    while power <= budget:
        k, power = k + 1, power * base
    return k


def check_budget(what: str, count: int | float, budget: int, exponent: int = 1) -> None:
    """Raise :class:`ResourceLimitError` unless ``count ** exponent`` is at most ``budget``.

    Every size guard of the package is a call to this function, made before
    the sized object is built.  A NaN count fails.  A power (``exponent`` other
    than 1, ``count`` an integer >= 2) is compared through :func:`max_exponent`
    and never built.  The message reads "<what> = <count>, over the <budget>
    budget", with a power shown as count**exponent and an integer of over 128
    bits, which may be too long to print, by its bit length.
    """
    if (count <= budget) if exponent == 1 else exponent <= max_exponent(count, budget):
        return
    big = isinstance(count, int) and count.bit_length() > 128
    shown = f"a {count.bit_length()}-bit number" if big else str(count)
    if exponent != 1:
        shown = f"({shown})**{exponent}" if big else f"{shown}**{exponent}"
    raise ResourceLimitError(f"{what} = {shown}, over the {budget:.0e} budget")

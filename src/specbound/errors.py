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
    """The largest k >= 0 with base**k <= budget, for budget >= 1; a base below 2 raises."""
    if base < 2:
        raise InvalidInputError(f"power base must be >= 2, got {shown(base)}")
    k, power = 0, base
    while power <= budget:
        k, power = k + 1, power * base
    return k


def shown(value: int | float | str) -> str:
    """``value`` as a message prints it: quoted text or digits, but a text over 39 characters
    by its length and an integer over 128 bits (39 digits) by its bit length."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 39 else f"a {len(value)}-character text"
    if isinstance(value, int) and value.bit_length() > 128:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit number"
    return str(value)


def check_budget(what: str, count: int | float, budget: int, exponent: int = 1) -> None:
    """Raise :class:`ResourceLimitError` unless ``count ** exponent`` is at most ``budget``.

    Every size guard of the package is a call to this function, made before
    the sized object is built.  A NaN count fails.  A power (``exponent`` other
    than 1, ``count`` an integer >= 2) is compared through :func:`max_exponent`
    and never built.  The message reads "<what> = <count>, over the <budget>
    budget", with the count as :func:`shown` prints it and a power as
    count**exponent.
    """
    if (count <= budget) if exponent == 1 else exponent <= max_exponent(count, budget):
        return
    text = shown(count)
    if exponent != 1:
        text = f"{text}**{exponent}" if text == str(count) else f"({text})**{exponent}"
    raise ResourceLimitError(f"{what} = {text}, over the {budget:.0e} budget")

"""Reference helpers shared by the tests: plain versions of what the
engine computes another way."""


def leading(p, order):
    """The maximal (monomial, coefficient) pair of ``p`` under ``order``.

    Raises ``ValueError("no leading term")`` on the zero polynomial.
    """
    if not p.terms:
        raise ValueError("no leading term")
    mono = max(p.terms, key=order.key)
    return mono, p.terms[mono]

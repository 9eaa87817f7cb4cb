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


def degree(pk, word, bound):
    """Total degree of a word of the packing ``pk`` whose degree is at most
    ``bound``.  Below the field limit no prefix sum of the fields carries,
    so the word times ``pk.ones`` holds the sum in its top field."""
    if bound > pk.field:
        return sum(pk.unpack(word))
    return (word * pk.ones >> pk.top) & pk.field


def divides(pk, a, b):
    """Whether monomial ``a`` divides ``b`` (packed by ``pk``, or words)."""
    g = pk.guards
    return ((b | g) - (a & pk.low)) & g == g

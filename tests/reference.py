"""Reference helpers shared by the tests: plain versions of what the
engine computes another way."""

from rbu3.matrices import UTMatrix


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


def psi_columns(a, b, c, d, e, dinv, one):
    """psi's columns, the images of e11, e12, e13, e22, e23, e33, as the
    table in ``build_psi``'s docstring, with ``dinv`` standing for 1/delta:
    over any ring in which ``dinv`` is delta's inverse."""
    m = lambda entries: UTMatrix._filtered(3, entries)
    return {
        (1, 1): m({(1, 1): one, (1, 2): b, (1, 3): c}),
        (1, 2): m({(1, 2): d, (1, 3): e}),
        (1, 3): m({(1, 3): a}),
        (2, 2): m({(1, 2): -b, (1, 3): -(b * e * dinv), (2, 2): one,
                   (2, 3): e * dinv}),
        (2, 3): m({(1, 3): -(a * b * dinv), (2, 3): a * dinv}),
        (3, 3): m({(1, 3): b * e * dinv - c, (2, 3): -(e * dinv), (3, 3): one}),
    }

"""The (anti)automorphism action on operators over U_3.

``build_psi`` produces the five-parameter automorphism family of U_3 (alpha
and delta invertible); ``theta13`` the flip antiautomorphism X -> Z X^T Z
along the antidiagonal.  Conjugating an operator by either kind preserves the
Rota-Baxter identity and the weight, which is what makes canonical forms
meaningful.

Canonicalization routines return a :class:`Witness`: maps applied left to
right, then a scalar, whose action gives the claimed normal form exactly.
``Witness`` itself checks nothing: ``_certified`` checks each canonical form's
witness, and the conjugation search replays each witness it finds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from typing import Mapping

from .matrices import UTMatrix, basis_indices, combine
from .operators import Operator, _cleared, _residual_values
from .poly import (MultiPoly, VarTable, add_terms, as_fraction, as_int,
                   check_fields, distinct_monic, lex, mono_mul)
from .groebner import Limits, PolySystem, buchberger, normal_form

__all__ = [
    "AutoParams",
    "AlgebraMap",
    "PsiStep",
    "ThetaStep",
    "Witness",
    "build_psi",
    "theta13",
    "conjugate_operator",
    "closure_trial",
    "canonicalize_nilpotent",
    "canonicalize_idempotent",
    "find_conjugation",
    "ConjugationSearch",
    "UnitCertificate",
]


@dataclass(frozen=True)
class AutoParams:
    """Parameters (alpha, beta, gamma, delta, epsilon) with alpha, delta != 0."""

    alpha: Fraction = Fraction(1)
    beta: Fraction = Fraction(0)
    gamma: Fraction = Fraction(0)
    delta: Fraction = Fraction(1)
    epsilon: Fraction = Fraction(0)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_fraction(getattr(self, f.name)))
        if not self.alpha or not self.delta:
            raise ValueError("alpha and delta must be invertible")

    def to_json(self):
        return {f.name: str(getattr(self, f.name)) for f in fields(self)}


class AlgebraMap:
    """An invertible linear map on U_n that is multiplicative or antimultiplicative,
    held with its inverse.

    The constructor takes both directions and checks them, so holding an
    instance is holding a certificate: phi(e_ij) phi(e_kl) (in the other
    order for an antiautomorphism) must be phi(e_ij e_kl) on all basis
    pairs, and the inverse columns must send each phi(e_idx) back to e_idx,
    which makes them the two-sided inverse; else ``ValueError``.
    """

    __slots__ = ("n", "kind", "columns", "_inverse")

    def __init__(self, n: int, kind: str, columns: Mapping, inverse: Mapping):
        if kind not in ("automorphism", "antiautomorphism"):
            raise ValueError(f"unknown kind {kind!r}")
        self.n = n
        self.kind = kind
        self.columns = {idx: columns[idx] for idx in basis_indices(n)}
        self._inverse = {idx: inverse[idx] for idx in basis_indices(n)}
        columns, zero = self.columns, UTMatrix.zero(n)
        anti = kind == "antiautomorphism"
        for (i, j), mu in columns.items():
            for (k, l), mv in columns.items():
                product = mv * mu if anti else mu * mv
                if product - (columns[(i, l)] if j == k else zero):
                    raise ValueError("map is not (anti)multiplicative")
        for idx, column in columns.items():
            if self.inverse_apply(column) - UTMatrix.basis(n, *idx):
                raise ValueError("map is not invertible by its inverse columns")

    def apply(self, x: UTMatrix) -> UTMatrix:
        return combine(self.columns, x.entries, self.n)

    def inverse_columns(self):
        return self._inverse

    def inverse_apply(self, x: UTMatrix) -> UTMatrix:
        return combine(self.inverse_columns(), x.entries, self.n)


def build_psi(params: AutoParams) -> AlgebraMap:
    """The five-parameter automorphism of U_3, with its inverse.

    psi is X -> H^{-1} X H, H = [[1, b, c], [0, d, e], [0, 0, a]] with a =
    alpha, ..., e = epsilon (``_psi_matrices``).  Its columns are

        e11 -> e11 + b e12 + c e13          e12 -> d e12 + e e13
        e13 -> a e13                        e22 -> -b e12 - (b e/d) e13 + e22 + (e/d) e23
        e23 -> -(a b/d) e13 + (a/d) e23     e33 -> (b e/d - c) e13 - (e/d) e23 + e33

    and its inverse X -> H X H^{-1} is psi at (1/a, -b/d, (b e/d - c)/a,
    1/d, -e/(a d)).  Both are the int columns of ``_cleared_psi`` over their
    factor, and the map's constructor checks them like any other.
    """
    columns, inverse, factor = _cleared_psi(
        params.alpha, params.beta, params.gamma, params.delta, params.epsilon)
    idxs = basis_indices(3)
    return AlgebraMap(3, "automorphism", *(
        {idx: UTMatrix._filtered(3, {idxs[p]: Fraction(v, factor)
                                     for p, v in pairs})
         for idx, pairs in zip(idxs, side)} for side in (columns, inverse)))


def _psi_matrices(a, b, c, d, e, one) -> tuple:
    """H = [[one, b, c], [0, d, e], [0, 0, a]] and adj(H), the transposed
    cofactors, as ``{(i, j): entry}`` over any ring: the one place psi's
    formulas live.  adj(H) H = H adj(H) = det(H) 1, det(H) = one a d."""
    h = {(1, 1): one, (1, 2): b, (1, 3): c, (2, 2): d, (2, 3): e, (3, 3): a}
    adj = {(1, 1): d * a, (1, 2): -(b * a), (1, 3): b * e - c * d,
           (2, 2): one * a, (2, 3): -(one * e), (3, 3): one * d}
    return h, adj


def _psi_conjugation(h, adj) -> tuple:
    """det(H) psi and det(H) psi^{-1} as X -> adj(H) X H and X -> H X adj(H):
    per e_ij in basis order, the nonzero ``(position, entry)`` pairs of
    column i of the left factor times row j of the right one."""
    at = {idx: k for k, idx in enumerate(basis_indices(3))}
    return tuple([[(at[p, q], v) for p in range(1, i + 1) for q in range(j, 4)
                   if (v := left[p, i] * right[j, q])] for i, j in at]
                 for left, right in ((adj, h), (h, adj)))


def _cleared_psi(a, b, c, d, e) -> tuple:
    """psi at rationals and its inverse as int columns, and their factor:
    with the parameters over their lcm L, the ints give L H, whose
    conjugations are F psi and F psi^{-1}, F = det(L H) = L^3 a d."""
    _psi_certificate()
    L = lcm(1, *(x.denominator for x in (a, b, c, d, e)))
    a, b, c, d, e = (x.numerator * (L // x.denominator) for x in (a, b, c, d, e))
    return (*_psi_conjugation(*_psi_matrices(a, b, c, d, e, L)), L * a * d)


@cache
def _psi_certificate() -> None:
    """Prove, once, that every form of psi is an automorphism with its inverse.

    Over Q[l, alpha, ..., epsilon], l in H's corner where ``_cleared_psi``
    puts L, check with plain ``==`` that adj(H) H = H adj(H) = det(H) 1 and
    that ``_psi_conjugation`` gives adj(H) e_ij H and H e_ij adj(H).  Then
    X -> adj(H) X H / det(H) is multiplicative, as adj(H) X H adj(H) Y H =
    det(H) adj(H) X Y H, and X -> H X adj(H) / det(H) undoes it, at every
    evaluation with det(H) != 0.  Anything else raises ``ValueError``.
    """
    table = VarTable(("ell", "alpha", "beta", "gamma", "delta", "epsilon"))
    one, a, b, c, d, e = (table.var(name) for name in table.names)
    h, adj = _psi_matrices(a, b, c, d, e, one)
    H, A = UTMatrix._filtered(3, h), UTMatrix._filtered(3, adj)
    if not A * H == H * A == UTMatrix.unit(3).scale(one * a * d):
        raise ValueError("psi's adj(H) is not det(H) H^-1")
    idxs = basis_indices(3)
    for side, (left, right) in zip(_psi_conjugation(h, adj), ((A, H), (H, A))):
        for idx, pairs in zip(idxs, side):
            if (UTMatrix._filtered(3, {idxs[k]: v for k, v in pairs})
                    != left * UTMatrix.basis(3, *idx) * right):
                raise ValueError("psi is not conjugation by H")


@cache
def theta13(n: int = 3) -> AlgebraMap:
    """The antidiagonal flip e_ij -> e_{n+1-j, n+1-i}; an involution.

    The map is fixed, so it is built and verified once per ``n``; every
    caller shares that one certified instance.
    """
    columns = {}
    for (i, j) in basis_indices(n):
        columns[(i, j)] = UTMatrix.basis(n, n + 1 - j, n + 1 - i)
    return AlgebraMap(n, "antiautomorphism", columns, columns)


def conjugate_operator(op: Operator, phi: AlgebraMap) -> Operator:
    """phi^{-1} . R . phi; preserves the identity and the weight."""
    if op.n != phi.n:
        raise ValueError("incompatible operands")
    columns = {}
    for idx in basis_indices(op.n):
        columns[idx] = phi.inverse_apply(op.apply(phi.columns[idx]))
    return Operator(op.n, columns, op.weight)


@cache
def _flip(n: int) -> dict:
    """The flip's index permutation, read off the certified ``theta13(n)``."""
    return {idx: cell for idx, column in theta13(n).columns.items()
            for cell in column.entries}


@cache
def _flip_slots(n: int) -> list:
    """The flip on cleared slots s d + p, d = dim U_n: conjugating by it
    sends slot (s, p) to (flip s, flip p)."""
    at = {idx: k for k, idx in enumerate(basis_indices(n))}
    d = len(at)
    flip = [at[_flip(n)[idx]] for idx in at]
    return [flip[x // d] * d + flip[x % d] for x in range(d * d)]


def _conjugated_terms(terms: list, cleared: tuple) -> list:
    """phi^{-1} . R . phi on int coordinates: ``terms`` are D R cleared by
    ``operators._cleared``, and ``cleared`` is phi and its inverse as int
    columns (``(position, int)`` pairs), each F times the rational one, and
    their factor F; the result is D F^2 phi^{-1} R phi cleared alike.
    Column s is phi^{-1}(R(phi(e_s))), two sparse int products summed as
    ``combine`` sums them, where a unit coefficient multiplies nothing: each
    column's entries come in ``conjugate_operator``'s order, and in its
    types once divided by D F^2.
    """
    columns, inverse = cleared[:2]
    d = len(columns)
    images = [[] for _ in range(d)]  # images[q]: R(e_q) as (position, int)
    for x, v in terms:
        images[x // d].append((x % d, v))
    out = []
    for s, column in enumerate(columns):
        image = add_terms({}, ((p, v if a == 1 else a * v)
                               for q, a in column for p, v in images[q]))
        column = add_terms({}, ((p, a if v == 1 else a * v)
                                for q, a in image.items() for p, v in inverse[q]))
        out.extend((s * d + r, c) for r, c in column.items())
    return out


def closure_trial(op: Operator, rng: random.Random) -> bool:
    """One randomized closure check: scaling, then psi and flip conjugation,
    each on int coordinates cleared once from the instance as D R: (1/k) R
    is D R times k's denominator, signed as k, over D |k's numerator|, and
    the flip relabels D R's slots.  psi is U_3's, so other sizes raise."""
    if op.n != 3:
        raise ValueError("closure trials are specific to U_3")
    k = _nonzero_fraction(rng, 9, 7)
    if op.weight:
        raise ValueError("scaling preserves the identity only at weight zero")
    terms = sorted(_cleared(op)[0])
    rb = lambda cleared: not any(_residual_values(op.n, cleared).values())
    scale = k.denominator if k.numerator > 0 else -k.denominator
    if not rb([(x, v * scale) for x, v in terms]):
        return False
    a, b, c = _nonzero_fraction(rng, 6, 4), rng.randint(-5, 5), rng.randint(-5, 5)
    d, e = _nonzero_fraction(rng, 6, 4), rng.randint(-5, 5)
    if not rb(sorted(_conjugated_terms(terms, _cleared_psi(a, b, c, d, e)))):
        return False
    flip = _flip_slots(3)
    return rb(sorted((flip[x], v) for x, v in terms))


def _nonzero_fraction(rng: random.Random, num: int, den: int) -> Fraction:
    """A nonzero p/q, p drawn from -num..num and q from 1..den."""
    value = Fraction(0)
    while not value:
        value = Fraction(rng.randint(-num, num), rng.randint(1, den))
    return value


# -- witnesses ------------------------------------------------------------------


@dataclass(frozen=True)
class PsiStep:
    params: AutoParams

    def to_json(self):
        return {"psi": self.params.to_json()}


@dataclass(frozen=True)
class ThetaStep:
    def to_json(self):
        return "theta13"


@dataclass
class Witness:
    """A composition of maps (applied left to right) plus a scalar factor.

    On an operator: conjugate by each map in order, then scale by the stored
    scalar (the Lemma-1 action R -> (1/k) R).  On an element x the action is
    phi^{-1}(x) for the composed map phi, which matches how R(1) transforms
    under operator conjugation.
    """

    steps: tuple = ()
    scalar: Fraction = Fraction(1)

    def transform_operator(self, op: Operator) -> Operator:
        """The steps on D R, cleared once as in ``closure_trial``: the flip
        relabels its slots in order, psi is ``_conjugated_terms`` and
        multiplies D by its factor squared, and D and k divide at the end.
        psi is U_3's, and k != 1 keeps the identity at weight zero only."""
        k = as_fraction(self.scalar)
        if op.n != 3 and any(isinstance(s, PsiStep) for s in self.steps):
            raise ValueError("incompatible operands")
        if k != 1 and (op.weight or not k):
            raise ValueError("scaling preserves the identity only at weight "
                             "zero" if k else "scaling factor must be nonzero")
        terms, scale = _cleared(op)
        for step in self.steps:
            if isinstance(step, ThetaStep):
                flip = _flip_slots(op.n)
                terms = [(flip[x], v) for x, v in terms]
            else:
                p = step.params
                cleared = _cleared_psi(p.alpha, p.beta, p.gamma, p.delta, p.epsilon)
                terms = _conjugated_terms(terms, cleared)
                scale *= cleared[2] ** 2
        inv, idxs = Fraction(k.denominator, scale * k.numerator), basis_indices(op.n)
        columns = [{} for _ in idxs]
        for x, v in terms:  # a polynomial is not multiplied by 1
            columns[x // len(idxs)][idxs[x % len(idxs)]] = (
                v if inv == 1 and isinstance(v, MultiPoly) else v * inv)
        return Operator(op.n, {idx: UTMatrix._filtered(op.n, column) for idx, column
                               in zip(idxs, columns) if column}, op.weight)

    def act_element(self, x: UTMatrix) -> UTMatrix:
        for step in self.steps:
            phi = theta13() if isinstance(step, ThetaStep) else build_psi(step.params)
            x = phi.inverse_apply(x)
        return x

    def to_json(self):
        return {"maps": [step.to_json() for step in self.steps],
                "scalar": str(self.scalar)}

    @staticmethod
    def from_json(data) -> "Witness":
        maps, scalar = data.get("maps", []), as_fraction(data.get("scalar", "1"))
        check_fields("witness", data, (("maps", type(maps) is list),
                                       ("scalar", scalar != 0)))
        steps = []
        for item in maps:
            if item == "theta13":
                steps.append(ThetaStep())
            elif (type(item) is dict and type(item.get("psi")) is dict
                  and item["psi"].keys() <= {f.name for f in fields(AutoParams)}):
                steps.append(PsiStep(AutoParams(**item["psi"])))
            else:
                raise ValueError(f"bad witness step {item!r}")
        return Witness(tuple(steps), scalar)


# -- canonical forms --------------------------------------------------------------


@dataclass
class CanonicalForm:
    label: str
    form: UTMatrix
    witness: Witness


def _check_rational_u3(x: UTMatrix) -> None:
    if x.n != 3:
        raise ValueError("canonical forms are specific to U_3")
    if any(isinstance(value, MultiPoly) for value in x.entries.values()):
        raise TypeError("rational entries required")


def _certified(x: UTMatrix, result: CanonicalForm) -> CanonicalForm:
    """``result``, once its witness sends ``x`` to its form exactly."""
    if result.witness.act_element(x) != result.form:
        raise AssertionError("witness failed to certify the canonical form")
    return result


def _through_theta(x: UTMatrix, canonicalize) -> CanonicalForm:
    """The form of ``x`` as that of its flip: Theta, then the flip's witness.
    Theta is an involution, so this witness sends ``x`` to the same form."""
    inner = canonicalize(theta13().apply(x))
    witness = Witness((ThetaStep(), *inner.witness.steps), inner.witness.scalar)
    return _certified(x, CanonicalForm(inner.label, inner.form, witness))


def canonicalize_nilpotent(nil: UTMatrix) -> CanonicalForm:
    """Send a strictly upper-triangular element of U_3 to its orbit form.

    The form is one of 0, e12, e13, e12 + e23, and the witness certifies it:
    witness.act_element(input) equals the form exactly.
    """
    if not nil.is_strictly_upper():
        raise ValueError("input must be nilpotent (strictly upper-triangular)")
    _check_rational_u3(nil)
    a = nil.entry(1, 2)
    b = nil.entry(1, 3)
    c = nil.entry(2, 3)
    if not a and not b and not c:
        result = CanonicalForm("zero", UTMatrix.zero(3), Witness())
    elif a and not c:
        steps = (PsiStep(AutoParams(delta=a, epsilon=b)),)
        result = CanonicalForm("e12", UTMatrix.basis(3, 1, 2), Witness(steps))
    elif c and not a:  # the flip of a e12 + b e13
        return _through_theta(nil, canonicalize_nilpotent)
    elif not a and not c:
        steps = (PsiStep(AutoParams(alpha=b)),)
        result = CanonicalForm("e13", UTMatrix.basis(3, 1, 3), Witness(steps))
    else:
        steps = (PsiStep(AutoParams(alpha=a * c, delta=a, epsilon=b)),)
        form = UTMatrix(3, {(1, 2): Fraction(1), (2, 3): Fraction(1)})
        result = CanonicalForm("e12+e23", form, Witness(steps))
    return _certified(nil, result)


def canonicalize_idempotent(idem: UTMatrix) -> CanonicalForm:
    """Send a rank-1 or rank-2 idempotent of U_3 to its orbit form.

    Rank 1 lands on e11 or e22; rank 2 on e11+e22 or e11+e33.  The witness
    replays the constructive parameter choices and certifies the output.
    """
    _check_rational_u3(idem)
    if not idem.is_idempotent():
        raise ValueError("input is not idempotent")
    rank = idem.rank()
    if rank not in (1, 2):
        raise ValueError("rank must be 1 or 2")
    diag = [idem.entry(i, i) for i in (1, 2, 3)]
    if diag in ([0, 0, 1], [0, 1, 1]):  # the flips of the e11 and e11+e22 cases
        return _through_theta(idem, canonicalize_idempotent)
    e = lambda i, j: UTMatrix.basis(3, i, j)
    if rank == 1:
        if diag[0]:
            steps = (PsiStep(AutoParams(beta=idem.entry(1, 2),
                                        gamma=idem.entry(1, 3))),)
            result = CanonicalForm("e11", e(1, 1), Witness(steps))
        else:
            steps = (PsiStep(AutoParams(beta=-idem.entry(1, 2),
                                        epsilon=idem.entry(2, 3))),)
            result = CanonicalForm("e22", e(2, 2), Witness(steps))
    elif diag[1]:
        steps = (PsiStep(AutoParams(gamma=idem.entry(1, 3),
                                    epsilon=idem.entry(2, 3))),)
        result = CanonicalForm("e11+e22", e(1, 1) + e(2, 2), Witness(steps))
    else:
        steps = (PsiStep(AutoParams(beta=idem.entry(1, 2),
                                    epsilon=-idem.entry(2, 3))),)
        result = CanonicalForm("e11+e33", e(1, 1) + e(3, 3), Witness(steps))
    return _certified(idem, result)


# -- conjugation search -------------------------------------------------------------


@dataclass
class ConjugationSearch:
    """Outcome of a conjugation-orbit search.

    ``status`` is one of ``found`` (with a replay-verified witness),
    ``disjoint`` (the constraint ideal is the unit ideal: no single psi,
    with or without theta13 as allowed, and one scale, all independent of
    the parameters matched by name, work for every parameter value; members
    of the two families may still be conjugate at particular values), or
    ``none`` (no rational witness found within the search budget, or
    operators of different weights, which no conjugation relates).

    A ``disjoint`` answer's ``certificate`` holds one proof per searched
    variant, in variant order: a :class:`UnitCertificate` of a raw
    generator, or the ``GroebnerBasis`` ``[1]`` of a system without a
    one-term unit generator, whose ``system`` is the normalized one
    (``find_conjugation``).
    Each unit certificate is rechecked once per process, when it is first
    built, and may be shared with other searches that meet its generator.
    """

    status: str
    witness: Witness | None = None
    certificate: tuple | None = None


_SEARCH_VARS = ("u_aux", "k_scale", "epsilon", "gamma", "beta", "delta", "alpha")
_TRIAL_VALUES = (Fraction(1), Fraction(0), Fraction(-1), Fraction(2),
                 Fraction(-2), Fraction(1, 2))
_BUDGET = 4000  # candidate values tried per back-substitution
_DIVISOR_CAP = 200000  # above its square, _divisors lists small ones only


def _rational_roots(coeffs):
    """Rational roots of a univariate polynomial given as {degree: Fraction}.

    Candidates are ``s/q`` in lowest terms with s dividing the constant and q
    the leading coefficient of the integer polynomial f; each is tested in
    integers as ``q^n f(s/q) = 0``, for f of degree n.  For n < 2 there is
    no divisor walk: a linear f = a1 x + a0 has the one root -a0/a1.  The top
    coefficient is nonzero: the caller reads it off a nonzero polynomial.
    """
    dens = lcm(1, *(c.denominator for c in coeffs.values()))
    ints = {d: int(c * dens) for d, c in coeffs.items()}
    low = min(d for d, c in ints.items() if c)
    roots = []
    if low > 0:
        roots.append(Fraction(0))
        ints = {d - low: c for d, c in ints.items() if c}
    n = max(ints)
    a0, an = abs(ints[0]), abs(ints[n])
    if n < 2:  # a nonzero constant has no root, and a linear f one
        return sorted(roots + [Fraction(-ints[0], ints[1])] if n else roots)
    # highest degree first, zeros included, for Horner's rule
    dense = [ints.get(d, 0) for d in range(n, -1, -1)]
    for s in _divisors(a0):
        for q in _divisors(an):
            if gcd(s, q) != 1:
                continue
            for signed in (s, -s):
                value, qpow = 0, 1
                for c in dense:  # sum of c_d s^d q^(n-d)
                    value = value * signed + c * qpow
                    qpow *= q
                if not value:
                    roots.append(Fraction(signed, q))
    return sorted(roots)


def _divisors(value):
    value = abs(value)
    if value > _DIVISOR_CAP * _DIVISOR_CAP:
        # entries this large do not occur in the searched systems; fall back
        # to small candidates only
        return [1, 2, 3, 5, value]
    small = [d for d in range(1, isqrt(value) + 1) if value % d == 0]
    return sorted(set(small + [value // d for d in small]))


def _primitive(terms: dict) -> dict:
    """A term map's primitive int form: its nonzero terms times the lcm of
    their denominators, over the gcd of the products."""
    den = lcm(1, *(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items() if c}
    g = gcd(0, *ints.values())
    return {m: c // g for m, c in ints.items()}


def _substituted(terms: dict, idx: int, value: Fraction) -> dict:
    """The primitive form of q^n p(s/q), for ``terms`` p, n its degree in
    variable ``idx`` and ``value`` s/q: a nonzero multiple of p at that
    value, as an int term map."""
    s, q = value.numerator, value.denominator
    top = max(m[idx] for m in terms)
    out = {}
    for m, c in terms.items():
        e, m = m[idx], m[:idx] + (0,) + m[idx + 1:]
        out[m] = out.get(m, 0) + c * s ** e * q ** (top - e)
    return _primitive(out)


def _search_points(polys, table, idx, assignment, budget, check_limits):
    """Back-substitute over the variables from last to first; yields dicts.

    ``polys`` are primitive int term maps (``_primitive``), kept so by each
    substitution (``_substituted``): a nonzero multiple of a rational
    polynomial, with its support and its roots.  A variable with a
    univariate polynomial takes its rational roots.  A free one takes the
    plain ``_TRIAL_VALUES`` first, then values that make a later pure-power
    relation rationally solvable: for each binomial ``c*y^m + d*x`` of the
    remaining polynomials, with x this variable and y one assigned later,
    x = -(c/d)*s^m for each trial value s.  A value is substituted only
    into the polynomials in which the variable occurs.  ``check_limits()``
    runs before each candidate is tried.  A level recurses only after a
    decrement that left ``budget[0]`` at 1 or more, and drops its variable
    from all it passes down: ``polys`` is empty at idx -1.
    """
    if idx < 0:
        yield dict(assignment)
        return
    name = table.names[idx]
    univariate, rest = [], []
    for p in polys:
        if not p:
            continue
        vars_here = {i for m in p for i, e in enumerate(m) if e}
        if not vars_here:
            return  # nonzero constant: dead branch
        (univariate if vars_here == {idx} else rest).append(p)
    if univariate:
        smallest = min(univariate, key=lambda p: max(m[idx] for m in p))
        roots = _rational_roots({m[idx]: c for m, c in smallest.items()})
        candidates = [r for r in roots
                      if not any(_substituted(p, idx, r) for p in univariate)]
    else:
        x = tuple(int(i == idx) for i in range(len(table)))
        lifted = []
        for p in rest:
            if len(p) == 2 and x in p:
                (y, c), (_, d) = sorted(p.items(), key=lambda t: t[0] == x)
                powers = [e for e in y[:idx] if e]
                if len(powers) == 1 and not any(y[idx:]):
                    lifted += [Fraction(-c, d) * s ** powers[0] for s in _TRIAL_VALUES]
        candidates = list(dict.fromkeys(_TRIAL_VALUES + tuple(lifted)))
    occurs = [any(m[idx] for m in p) for p in rest]
    for value in candidates:
        budget[0] -= 1
        if budget[0] <= 0:
            return
        check_limits()
        substituted = [_substituted(p, idx, value) if o else p
                       for p, o in zip(rest, occurs)]
        assignment[name] = value
        yield from _search_points(substituted, table, idx - 1, assignment,
                                  budget, check_limits)
        del assignment[name]


def find_conjugation(source: Operator, target: Operator,
                     allow_theta: bool = True, allow_scaling: bool = True,
                     limits: Limits | None = None) -> ConjugationSearch:
    """Search for psi (optionally composed with the flip) and a scalar k with

        conjugate(source, phi) = k * target.

    The constraint system ``R phi = k phi S`` is polynomial in the parameters
    once 1/delta is encoded through the auxiliary relation
    g0 = ``u * alpha * delta * k - 1`` (which also forces alpha, delta, k
    nonzero).  A rational witness point is extracted from the lex Groebner
    basis by triangular back-substitution and re-verified by replay; a unit
    ideal rules out only the searched psi and k (``ConjugationSearch``).

    Monomial rule: the build stops at the first generator that is one term
    m = c u^a k^b alpha^p delta^q in the invertible unknowns and answers
    ``disjoint`` with no Groebner run, by the ``UnitCertificate``
    1 = t^M/m * m - g0 (1 + t + ... + t^(M-1)), where t = u alpha delta k
    (u alpha delta without scaling) and M = max(a, b, p, q).  It depends on
    m and the scaling mode alone, so it is rechecked once per process, when
    first built, and then shared by every search that meets m.

    The constraint is bilinear in the operators' entries and the psi
    unknowns, so it is built without polynomial products: each term of
    ``R psi(e_idx) - k psi(S e_idx)`` is one coefficient product keyed by
    (unknown monomial, parameter monomial), summed cell by cell.  Each cell
    splits into one generator per parameter monomial, since the identity
    must hold for every parameter value.  Ordering rule: the relation comes
    first, so that on a full system a monomial generator in u, k, alpha and
    delta turns it into a constant at its first reduction, and the opening
    interreduction then stops at once with ``[1]``.  After it, cells, terms
    and parameter buckets come out in first appearance as the sums run
    (source side over psi's cells, then target side over S's cells, then
    their difference), and a term or cell that cancels leaves and re-enters
    last, as in summing the matrices; the generator tuple, and so the
    Groebner run, does not depend on how the sums are stored.

    The system is built on ints: scaling both operators by one common
    denominator D makes each generator after the relation D times the
    rational one.  The monomial rule reads these raw generators; then each
    is divided by its largest monomial in u, k, alpha and delta (invertible
    modulo the relation) and by its coefficients' gcd, signed as its lex
    lead, and ``buchberger`` gets the distinct forms made monic.  The ideal,
    so the reduced basis and the witness, stays; a ``disjoint`` Groebner
    certificate holds the normalized system.

    Operators of different weights are answered ``none`` before any system
    is built, since conjugation preserves the weight.  At a nonzero weight
    lambda the scale is fixed to k = 1, whatever ``allow_scaling`` says:
    (1/k) R has weight lambda/k, so no other k keeps the weight.  The
    ``limits`` are started once: both variants share one deadline, which
    each Groebner run and each back-substitution candidate reads.
    """
    if source.n != 3 or target.n != 3:
        raise ValueError("the search is specific to U_3")
    if source.weight != target.weight:
        return ConjugationSearch("none")
    allow_scaling = allow_scaling and not source.weight
    limits = (limits or Limits()).start()

    # one table of parameters serves both variants, and each operator is
    # read once: the flip permutes the basis with unit coefficients, so
    # conjugating the target by it relabels each image key and each cell
    params = VarTable(dict.fromkeys(source.params() + target.params()))
    src, d_src = _image_terms(source, params)
    tgt, d_tgt = _image_terms(target, params)
    if d_src != 1 or d_tgt != 1:  # each coefficient times D is an int
        D = lcm(d_src, d_tgt)
        src, tgt = ({idx: [(cell, [(r, (c * D).numerator) for r, c in pairs])
                           for cell, pairs in cells] for idx, cells in images.items()}
                    for images in (src, tgt))
    variants = [((), tgt)]
    if allow_theta:
        flip = _flip(3)
        variants.append(((ThetaStep(),), {
            flip[idx]: [(flip[cell], pairs) for cell, pairs in cells]
            for idx, cells in tgt.items()}))
    outcomes = []
    for tail, adjusted in variants:
        generators = _search_generators(src, adjusted, allow_scaling)
        result = _psi_only_search(source, target, tail, generators,
                                  allow_scaling, limits)
        if result.status == "found":
            return result
        outcomes.append(result)
    if all(r.status == "disjoint" for r in outcomes):
        return ConjugationSearch("disjoint", certificate=tuple(
            c for r in outcomes for c in r.certificate))
    return ConjugationSearch("none")


@cache
def _search_psi(allow_scaling: bool):
    """psi's columns over the search unknowns, built once per scaling mode.

    They are the fixed factor of the bilinear constraint ``R psi = k psi S``:
    a search multiplies their coefficients with the operators' rational
    coefficients term by term, in the term order kept here, and builds no
    polynomial products of its own (``find_conjugation`` states the
    ordering rule).  Their coefficients are ints, as are the operators'
    once scaled by D, so every one of those products is an int product.

    Returns ``(table, columns, k, relation, t)``.  ``table`` holds only the
    unknowns of ``_SEARCH_VARS`` (without ``k_scale`` when scaling is off).
    ``columns`` is psi in the shape ``_image_terms`` gives an operator:
    the nonzero cells of psi(e_idx) in order, each with its ``(monomial,
    int)`` terms over ``table``.  ``k`` is the exponent vector of the scale
    (all zero when scaling is off), ``relation`` is the int term map of
    t - 1, t = ``u * alpha * delta * k``, and ``t`` its exponent vector.
    As u k is 1/(alpha delta) modulo the relation, each cell is the lex
    normal form of u k adj(H) e_ij H (``_psi_conjugation``) modulo it.
    """
    _psi_certificate()
    names = _SEARCH_VARS if allow_scaling else tuple(
        v for v in _SEARCH_VARS if v != "k_scale")
    table = VarTable(names)
    var = table.var
    one = MultiPoly.const(table, 1)
    k = var("k_scale") if allow_scaling else one
    uk = var("u_aux") * k
    t = uk * var("alpha") * var("delta")
    relation = t - 1
    side, _ = _psi_conjugation(*_psi_matrices(*map(var, (
        "alpha", "beta", "gamma", "delta", "epsilon")), one))
    idxs = basis_indices(3)
    columns = {idx: [(idxs[p], [(m, as_int(c)) for m, c in cell.terms.items()])
                     for p, v in pairs
                     if (cell := normal_form(v * uk, [relation], lex()))]
               for idx, pairs in zip(idxs, side)}
    (k_mono,), (t_mono,) = k.terms, t.terms
    relation = {m: as_int(c) for m, c in relation.terms.items()}
    return table, columns, k_mono, relation, t_mono


def _image_terms(op: Operator, params: VarTable) -> tuple:
    """Each image entry of ``op``, read once as ``(parameter monomial,
    coefficient)`` pairs over ``params``: ``({idx: [(cell, pairs)]}, D)``,
    with no key for a zero image, and D the lcm of the coefficients'
    denominators, gathered in the same loop; integral ones are ints.

    A parametric entry's exponents move to their slots here, where a
    ``retable`` would build one polynomial per entry and search."""
    zero = (0,) * len(params)
    images, den = {}, 1
    for idx, image in op.columns.items():
        cells = []
        for cell, value in image.entries.items():
            if not isinstance(value, MultiPoly):
                if value.denominator == 1:
                    value = value.numerator
                else:
                    den = lcm(den, value.denominator)
                cells.append((cell, ((zero, value),)))
                continue
            slots = [params.index[name] for name in value.table.names]
            pairs = []
            for mono, coeff in value.terms.items():
                lifted = list(zero)
                for slot, e in zip(slots, mono):
                    lifted[slot] += e
                if coeff.denominator == 1:
                    coeff = coeff.numerator
                else:
                    den = lcm(den, coeff.denominator)
                pairs.append((tuple(lifted), coeff))
            cells.append((cell, pairs))
        images[idx] = cells
    return images, den


def _accumulate(cells: dict, cell, products) -> None:
    """Add products into ``cells[cell]`` as summing matrices does: a cell
    that cancels leaves, and re-enters last if a later product brings it
    back."""
    if not add_terms(cells.setdefault(cell, {}), products):
        del cells[cell]


def _search_generators(src, tgt, allow_scaling):
    """The constraint system of ``conjugate(source, psi) = k * adjusted``,
    given the two operators' ``_image_terms`` over one parameter table,
    lazily, in the order ``find_conjugation`` states: the relation, then one
    generator per cell and parameter monomial.  Each is yielded as its term
    map ``{unknown monomial: coefficient}`` over ``_search_psi``'s table."""
    _, psi, k, relation, _ = _search_psi(allow_scaling)
    yield relation
    for idx in basis_indices(3):
        # terms are keyed (unknown monomial, parameter monomial)
        lhs = {}  # R psi(e_idx) = sum over psi's cells p of psi_p * R(e_p)
        for p, psi_terms in psi[idx]:
            for cell, pairs in src.get(p, ()):
                _accumulate(lhs, cell, (((u, r), c1 * c2)
                                        for u, c1 in psi_terms
                                        for r, c2 in pairs))
        rhs = {}  # k psi(S e_idx) = sum over S's cells q of S_q * k psi(e_q)
        for q, pairs in tgt.get(idx, ()):
            for cell, psi_terms in psi[q]:
                _accumulate(rhs, cell, (((mono_mul(u, k), r), c1 * c2)
                                        for r, c1 in pairs
                                        for u, c2 in psi_terms))
        for cell, terms in rhs.items():
            _accumulate(lhs, cell, ((key, -c) for key, c in terms.items()))
        for terms in lhs.values():
            # split by parameter monomials so the identity holds for every
            # parameter value, not just some
            buckets = {}
            for (u, r), coeff in terms.items():
                buckets.setdefault(r, {})[u] = coeff
            yield from buckets.values()


@dataclass(frozen=True)
class UnitCertificate:
    """``(cofactor, generator)`` pairs whose combination ``check`` proves to
    be 1 with the ring's own ``*``, ``+`` and ``==``: a unit ideal."""

    pairs: tuple

    def check(self) -> bool:
        return sum(c * g for c, g in self.pairs) == 1


@cache
def _unit_certificate(mono, coeff: Fraction, allow_scaling: bool):
    """``find_conjugation``'s two-term certificate for the one-term
    generator ``coeff * mono`` in the unknowns of t = relation + 1, built
    and rechecked once per process and then shared; a failed recheck
    raises, which caches nothing."""
    table, _, _, relation, t_mono = _search_psi(allow_scaling)
    power = max(mono)
    quotient = {tuple(power * a - b for a, b in zip(t_mono, mono)): 1 / coeff}
    geometric = {tuple(i * a for a in t_mono): -1 for i in range(power)}
    certificate = UnitCertificate((
        (MultiPoly(table, quotient), MultiPoly(table, {mono: coeff})),
        (MultiPoly(table, geometric), MultiPoly(table, relation))))
    if not certificate.check():
        raise AssertionError("unit certificate failed its recheck")
    return certificate


def _unit_free(terms: dict, units: list) -> list:
    """An int generator over the largest monomial in the ``units`` slots
    that divides it, as ``(monomial, int)`` pairs in descending lex order:
    those unknowns are invertible modulo the relation."""
    low = {i: min(m[i] for m in terms) for i in units}
    return sorted(((tuple(e - low.get(i, 0) for i, e in enumerate(m)), c)
                   for m, c in terms.items()), reverse=True)


def _psi_only_search(source, target, tail, generators, allow_scaling, limits):
    """psi and k with ``conjugate(source, psi then tail) = k * target``:
    ``generators`` is the system built against ``target`` conjugated by
    ``tail`` (the same condition, as the flip is an involution), and each
    point is replayed once, as the full witness against ``target``.  Only a
    system without a one-term unit generator (the monomial rule) reaches
    ``buchberger``, as its distinct unit-free primitive forms
    (``find_conjugation``)."""
    table, _, _, _, t_mono = _search_psi(allow_scaling)
    gens = []
    for terms in generators:
        if len(terms) == 1:
            ((mono, coeff),) = terms.items()
            if all(a or not b for a, b in zip(t_mono, mono)):
                return ConjugationSearch("disjoint", certificate=(
                    _unit_certificate(mono, Fraction(coeff), allow_scaling),))
        gens.append(terms)
    units = [i for i, a in enumerate(t_mono) if a]
    system = PolySystem(table, distinct_monic(
        table, (_unit_free(terms, units) for terms in gens)), lex())
    gb = buchberger(system, limits)
    if len(gb.basis) == 1 and gb.basis[0].is_constant():
        return ConjugationSearch("disjoint", certificate=(gb,))
    # a finished run kept within max_pairs: only the deadline can stop here
    check = lambda: limits.check(gb.stats, lambda: list(gb.basis))
    for point in _search_points([_primitive(p.terms) for p in gb.basis], table,
                                len(table) - 1, {}, [_BUDGET], check):
        # the point zeroes u alpha delta k - 1, so alpha, delta and k are nonzero
        params = AutoParams(**{f.name: point[f.name] for f in fields(AutoParams)})
        witness = Witness((PsiStep(params),) + tail,
                          point.get("k_scale", Fraction(1)))
        if witness.transform_operator(source) == target:
            return ConjugationSearch("found", witness)
    return ConjugationSearch("none")


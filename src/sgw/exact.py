"""Exact sparse multivariate polynomial arithmetic.

Coefficients are the caller's exact numbers, kept as given: Python ints
in practice, ``fractions.Fraction`` only where a caller scales by one.
A polynomial lives in Z[tau_0, .., tau_n, lam] where ``lam`` is
nilpotent of order two: every product discards terms with lam-exponent
>= 2.  Monomials are exponent tuples of length ``num_tau + 1`` (the last
slot is the lam-exponent); zero coefficients are never stored, so two
polynomials are equal iff their term maps are equal.

Nothing here divides.  ``sgw`` does not import this module: the
localization sums run on integer characters, and tests use ``Poly`` as
the reference ring for them.  The tests build the odd weights from
``Poly.tau`` characters, and ``complete_homogeneous`` is the reference
h_c of such weights.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, DomainError


class Poly:
    """Sparse polynomial in tau_0..tau_n and the nilpotent lam."""

    __slots__ = ("num_tau", "terms")

    def __init__(self, num_tau: int, terms: Mapping[tuple[int, ...], object] | None = None):
        self.num_tau = num_tau
        clean: dict[tuple[int, ...], object] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != num_tau + 1:
                    raise DimensionError(f"exponent tuple {mono} needs length {num_tau + 1}")
                if mono[-1] >= 2:
                    continue
                if coeff:
                    clean[tuple(mono)] = coeff
        self.terms = clean

    def __repr__(self) -> str:
        return f"Poly({self.num_tau}, {dict(sorted(self.terms.items()))})"

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, num_tau: int) -> "Poly":
        return cls(num_tau)

    @classmethod
    def const(cls, num_tau: int, value) -> "Poly":
        return cls(num_tau, {(0,) * (num_tau + 1): value})

    @classmethod
    def one(cls, num_tau: int) -> "Poly":
        return cls.const(num_tau, 1)

    @classmethod
    def tau(cls, num_tau: int, index: int) -> "Poly":
        if not 0 <= index < num_tau:
            raise DomainError(f"tau index {index} out of range for {num_tau} variables")
        exp = [0] * (num_tau + 1)
        exp[index] = 1
        return cls(num_tau, {tuple(exp): 1})

    @classmethod
    def lam(cls, num_tau: int) -> "Poly":
        exp = [0] * num_tau + [1]
        return cls(num_tau, {tuple(exp): 1})

    # -- predicates ---------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.num_tau == other.num_tau
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "Poly") -> None:
        if self.num_tau != other.num_tau:
            raise DimensionError(f"mixed variable counts {self.num_tau} vs {other.num_tau}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return self._raw(self.num_tau, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return self._raw(self.num_tau, {m: -c for m, c in self.terms.items()})

    def scale(self, value) -> "Poly":
        if not value:
            return Poly(self.num_tau)
        return self._raw(self.num_tau, {m: value * v for m, v in self.terms.items()})

    def __rmul__(self, value) -> "Poly":
        return self.scale(value)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict[tuple[int, ...], object] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma[-1] + mb[-1] >= 2:
                    continue
                mono = tuple(x + y for x, y in zip(ma, mb))
                acc = out.get(mono, 0) + ca * cb
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return self._raw(self.num_tau, out)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise DomainError("negative polynomial power")
        result = Poly.one(self.num_tau)
        for _ in range(exponent):
            result = result * self
        return result

    @classmethod
    def _raw(cls, num_tau: int, terms: dict) -> "Poly":
        poly = cls.__new__(cls)
        poly.num_tau = num_tau
        poly.terms = terms
        return poly

    # -- evaluation ---------------------------------------------------
    def eval(self, tau_values: Sequence, lambda_value=0):
        if len(tau_values) != self.num_tau:
            raise DimensionError(f"expected {self.num_tau} tau values, got {len(tau_values)}")
        total = 0
        for mono, coeff in self.terms.items():
            term = coeff
            for value, exp in zip(tau_values, mono):
                if exp:
                    term *= value**exp
            if mono[-1]:
                term *= lambda_value
            total += term
        return total


def complete_homogeneous(c: int, weights: Iterable[Poly], num_tau: int) -> Poly:
    """Complete homogeneous symmetric polynomial h_c of the given weights.

    h_c is the sum over all size-c multisets of weights of the product of
    their elements; h_0 = 1.  Computed by the one-pass recurrence
    h_c(w_1..w_m) = h_c(w_1..w_{m-1}) + w_m * h_{c-1}(w_1..w_m), with
    lam-truncation applied by the polynomial product.  This is the
    reference for ``localize._h_values``, which runs the same recurrence in
    any ring.
    """
    if c < 0:
        raise DomainError("h_c needs c >= 0")
    h = [Poly.one(num_tau)] + [Poly.zero(num_tau) for _ in range(c)]
    for w in weights:
        for j in range(1, c + 1):
            h[j] = h[j] + w * h[j - 1]
    return h[c]

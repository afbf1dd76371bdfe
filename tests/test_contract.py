"""What the library refuses, stated once: a table of refused calls, a sweep of the int arguments, a completeness check.

Each row is (callable, args, kwargs, exception type, exact message).  Every test here runs under the ``no_work``
fixture, which makes the localization points, the quantum sweep and the pushforward kernel raise, so every row
also shows that the input is refused before any work starts.  Every refusal is a ``DomainError`` but one:
``euler_data`` is a bare ``lru_cache``, which hashes its argument before its body can check it, so
``euler_data([2])`` raises ``TypeError``.
``exact`` (the tests' reference ring) and ``tables`` (data) take no input, so no row names them.
"""

import inspect
import operator
from fractions import Fraction as F

import pytest

import sgw.localize as localize
import sgw.quantum as quantum
import sgw.taut as taut
from sgw import errors, graphs, point
from sgw.errors import DomainError, UnsupportedError
from sgw.graphs import FixedGraph, check_size, enumerate_graphs, euler_data, ev_exponents, ev_pullback
from sgw.localize import LocalizationJob, invariant, sample_taus, table, traced_invariant
from sgw.point import MAX_K, Invariant, compositions, sgw_point
from sgw.quantum import QElement, star, structure_table
from sgw.taut import TautExpr, integrate, integrate_monomial, point_sum, pushforward_step

pytestmark = pytest.mark.usefixtures("no_work")

MODULES = (errors, graphs, localize, point, quantum, taut)
EXEMPT = {  # public callables without a row, and why
    "localize.graph_contribution": "the per-graph kernel: its arguments come from _evaluate_once",
    "localize.sample_tau": "the tracer's sample counter: its arguments come from _points",
    "graphs.EulerData": "a record that euler_data returns",
    **dict.fromkeys(["errors.integer", "errors.rational", "errors.as_tuple", "errors.instance", "graphs.check_classes"],
                    "an argument rule: the rows of the callables that apply it pin its messages"),
    **dict.fromkeys([f"errors.{name}" for name in ("DomainError", "UnsupportedError", "DimensionError",
                                                    "InconsistencyError", "ResampleSignal")], "an exception class"),
}
K_SET = "localization implemented for k in {1, 2, 3}"
SYMBOLIC = "symbolic strategy supported for n <= 2"
COEFF = "coefficients must be integers or Fractions, got "
POWERS = "L- and q-powers must be non-negative integers, got "
L3 = "monomials live on a moduli space with l >= 3 points"
PSI = "psi factors need depth >= 0 and power >= 1"
KAPPA = "kappa factors need index >= 1 and power >= 1"
GRAPH = FixedGraph(1, 0, 1, frozenset(), 1)
L1 = QElement.basis(1, 1)


def refused(message, call, *args, error=DomainError, **kwargs):
    return call, args, kwargs, error, message


def builders(n, k, message, error=DomainError):
    """One size refusal by each builder: the graph list, a graph, ``euler_data`` of a graph built unchecked, a job."""
    unchecked = tuple.__new__(FixedGraph, (n, 0, 1, frozenset(), k))  # k=True: equal to a graph the cache may hold
    calls = [(enumerate_graphs, n, k), (FixedGraph, n, 0, 1, frozenset(), k), (euler_data.__wrapped__, unchecked)]
    return [refused(message, *call, error=error) for call in calls + [(LocalizationJob, n, k, (0,) * k)]]


def localized(message, n, k, classes, *, error=DomainError, pair=False, **options):
    """One refusal by ``invariant``, ``traced_invariant`` and ``table`` of the tuple, and with ``pair`` of it and its
    reverse: every check comes before the shortcut for tuples of negative codegree, such as (2, 2, 2) on P^2."""
    calls = [(invariant, classes), (traced_invariant, classes), (table, [classes])]
    calls += [(table, [classes, classes[::-1]])] if pair else []
    return [refused(message, call, n, k, arg, error=error, **options) for call, arg in calls]


def two(samples):
    return f"localization needs at least 2 samples, got {samples}"


ROWS = [
    # graphs
    refused(K_SET, enumerate_graphs, 2, 4, error=UnsupportedError),
    *builders("2", 1, "n must be an integer, got '2'"),
    *builders(1.5, 1, "n must be an integer, got 1.5"),
    *builders(0, 1, "n must be >= 1"),
    *builders(2, True, "k must be an integer, got True"),
    *builders(1, 4, K_SET, UnsupportedError),
    *[refused("need 0 <= a < b <= n", FixedGraph, 2, a, b, frozenset({1}), 2)
      for a, b in [(1, 1), (0, 3), (-1, 1), (2, 1)]],
    *[refused("A must be a subset of the marked-point labels", FixedGraph, 2, 0, 1, frozenset(A), 2)
      for A in ([3], [0, 1])],
    *[refused(f"every mark in A must be an integer, got {i!r}", FixedGraph, 2, 0, 1, frozenset({i}), 2)
      for i in (1.0, True)],
    *[refused(f"A needs a frozenset, got {type(A).__name__}", FixedGraph, 2, 0, 1, A, 1) for A in (None, [2])],
    refused("euler_data needs a FixedGraph, got NoneType", euler_data, None),
    refused("unhashable type: 'list'", euler_data, [2], error=TypeError),
    *[row for call in (ev_exponents, ev_pullback) for row in [
        refused(f"{call.__name__} needs a FixedGraph, got NoneType", call, None, (1,)),
        refused("expected 1 classes, got 5", call, GRAPH, 5)]],
    refused("expected 1 classes", ev_exponents, GRAPH, (1, 1)),
    *[refused(f"every class exponent must be an integer, got {a!r}", call, GRAPH, (a,))
      for call, a in [(ev_exponents, 1.5), (ev_exponents, True), (ev_exponents, "1"), (ev_pullback, 1.5)]],
    *[refused(f"class exponent {a} outside [0, 1]", ev_exponents, GRAPH, (a,)) for a in (-1, 2)],
    # localize
    refused("n must be >= 1", LocalizationJob, 0, 1, (0,)),
    refused(K_SET, LocalizationJob, 2, 4, (1, 1, 1, 1), error=UnsupportedError),
    refused("expected 2 classes", LocalizationJob, 2, 2, (1,)),
    refused("class exponent 3 outside [0, 2]", LocalizationJob, 2, 2, (3, 0)),
    refused("class exponent -1 outside [0, 2]", LocalizationJob, 2, 2, (1, -1)),
    refused("expected 1 classes, got None", LocalizationJob, 1, 1, None),
    *localized("every class exponent must be an integer, got True", 1, 1, (True,)),
    *localized("every class exponent must be an integer, got 1.0", 1, 1, (1.0,)),
    *localized("every class exponent must be an integer, got Fraction(1, 1)", 2, 2, (1, F(1))),
    *localized("k must be an integer, got 1.0", 1, 1.0, (1,)),
    *localized("expected 2 classes, got 5", 2, 2, 5),
    *localized("expected 2 classes, got None", 2, 2, None),
    refused("expected a list of class tuples, got None", table, 2, 2, None),
    *[row for n, samples, message in [
        (1.0, 3, "n must be an integer, got 1.0"), (True, 3, "n must be an integer, got True"),
        ("2", 3, "n must be an integer, got '2'"), (-5, 3, "n must be >= 1"), (1, -1, two(-1)),
        (1, 3.0, "samples must be an integer, got 3.0"), (1, 1.5, "samples must be an integer, got 1.5"),
    ] for row in [*localized(message, n, 1, (1,), samples=samples), refused(message, sample_taus, n, samples, 1729)]],
    *localized(two(1), 1, 1, (1,), samples=1, pair=True),
    *localized(two(1), 2, 3, (2, 2, 2), samples=1),
    *localized(two(-4), 2, 3, (2, 2, 2), samples=-4),
    *localized(two(-4), 2, 3, (1, 1, 0), strategy="symbolic", samples=-4),
    *localized(two(1), 3, 4, (1,), strategy="bogus", samples=1, pair=True),
    *localized("unknown strategy 'guess'", 1, 1, (1,), strategy="guess"),
    *localized("unknown strategy 'guess'", 2, 3, (2, 2, 2), strategy="guess"),
    *localized("unknown strategy 'bogus'", 1, 1, (1,), strategy="bogus", pair=True),
    *localized("unknown strategy 'bogus'", 1, 4, (1,), strategy="bogus", pair=True),
    *localized(SYMBOLIC, 3, 1, (1,), strategy="symbolic", pair=True),
    *localized(SYMBOLIC, 3, 4, (1,), strategy="symbolic", pair=True),
    *localized(SYMBOLIC, 3, 2, (1, 1), strategy="symbolic"),
    *localized(SYMBOLIC, 4, 3, (4, 4, 4), strategy="symbolic"),
    *[row for n in ("2", None, 2.5) for row in localized(f"n must be an integer, got {n!r}", n, 2, (1, 1),
                                                        strategy="symbolic")],
    *localized(K_SET, 1, 4, (1, 1, 1, 1), error=UnsupportedError),
    *localized("class exponent 3 outside [0, 2]", 2, 2, (3, 0), strategy="symbolic"),
    # A seed of None would draw from the OS, and a float or a str is a seed that no CLI run can repeat.
    *[refused(f"seed must be an integer, got {seed!r}", call, *args, seed=seed, **options) for call, args, options in [
        (table, (2, 2, [(1, 1)]), {}), (table, (2, 2, [(1, 1)]), {"strategy": "symbolic"}),
        (table, (2, 3, [(2, 2, 2)]), {}), (invariant, (2, 2, (1, 1)), {}), (traced_invariant, (2, 2, (1, 1)), {}),
        (sample_taus, (2, 3), {}), (structure_table, (2,), {}), (star, (1, L1, L1), {}),
    ] for seed in (None, 1.5, "x", True, [1])],
    # point
    *[refused(f"k must be at most {MAX_K}, got {k}", sgw_point, k) for k in (MAX_K + 1, 1500)],
    *[refused(f"k must be an integer, got {k!r}", call, k) for call, k in [(sgw_point, 6.0), (sgw_point, True),
                                                                             (point_sum, True)]],
    *[refused("k must be >= 3", call, k) for call, k in [(sgw_point, 2), (point_sum, 2), (point_sum, -1)]],
    refused("kappa_exp must be an integer, got '2'", Invariant, 1, "2"),
    refused("kappa_exp must be an integer, got 1.5", Invariant, 1, 1.5),
    refused(f"{COEFF}0.1", Invariant, 0.1, -1),
    refused(f"{COEFF}'1/2'", Invariant, "1/2", -1),
    # quantum
    *[refused(message, QElement, n) for n, message in [
        (1.5, "n must be an integer, got 1.5"), (True, "n must be an integer, got True"),
        (0, "n must be >= 1"), (-1, "n must be >= 1")]],
    *[refused(message, QElement, 2, comps) for comps, message in [
        ({(-1, 0): {0: 1}}, f"{POWERS}L^-1 q^0"), ({(1.5, 0): {0: 1}}, f"{POWERS}L^1.5 q^0"),
        ({(0, -1): {0: 1}}, f"{POWERS}L^0 q^-1"), ({(True, 0): {0: 1}}, f"{POWERS}L^True q^0"),
        ({(0, False): {0: 1}}, f"{POWERS}L^0 q^False"), ({(1, 0): {0: 0.1}}, f"{COEFF}0.1"),
        ({(1, 0): {0.5: 1}}, "kappa exponents must be integers, got kappa^0.5"),
        ({(1, 0): {0: 0.0}}, f"{COEFF}0.0"), ({(1, 0): {0: "1/3"}}, f"{COEFF}'1/3'"),
        ({(1, 0): {0: True}}, f"{COEFF}True"), ({(1, 0): {0: False}}, f"{COEFF}False"),
        (1.5, "QElement needs a dict, got float"), ({(0, 0): 5}, "QElement needs a dict, got int"),
    ]],
    *[refused(message, QElement, 1, comps) for comps, message in [
        ({(0, "0"): {0: 1}}, f"{POWERS}L^0 q^'0'"),
        ({(0, 0): {F(1): 1}}, "kappa exponents must be integers, got kappa^Fraction(1, 1)")]],
    *[refused(f"every QElement key must be an (L-power, q-power) pair, got {key!r}", QElement, 1, {key: {0: 1}})
      for key in (5, (1,), (0, 0, 0))],
    refused("basis power 3 outside [0, 2]", QElement.basis, 2, 3),
    *[refused(f"n must be an integer, got {args[0]!r}", call, *args) for call, args in [
        (structure_table, ("2",)), (structure_table, (1.5,)), (structure_table, (None,)),
        (QElement.basis, ("2", 0)), (QElement.basis, (None, 0))]],
    *[refused(f"basis power must be an integer, got {power!r}", QElement.basis, 2, power) for power in ("1", True)],
    refused("operands must live on the same target", star, 2, QElement.basis(1, 0), QElement.basis(2, 0)),
    *[refused(f"operands must be QElements, got {type(x).__name__} and {type(y).__name__}", star, 1, x, y)
      for x, y in [(1, 2), (None, L1), (L1, None), (L1, 0)]],
    # taut
    refused(L3, TautExpr.monomial, 2),
    refused(L3, TautExpr.monomial, 2, psi=[(0, 1)], kappa=[(0, 1)]),
    *[refused(L3, TautExpr, 2, *terms) for terms in [(), ({((), ((1, 1),)): 1},), ({((), ()): 5},)]],
    *[refused(PSI, TautExpr.monomial, 6, psi=psi) for psi in ([(-1, 1)], [(0, 3), (1, -1)])],
    # monomial checks each factor before it drops zero powers and adds the powers of a repeated kappa index
    *[refused(f"depth {m} names a psi-class missing from the {l}-pointed space", TautExpr.monomial, l, psi=[(m, p)])
      for l, m, p in [(6, 3, 1), (5, 9, 0)]],
    *[refused(KAPPA, TautExpr.monomial, 5, kappa=kappa)
      for kappa in ([(1, 2), (1, -2)], [(0, 1)], [(1, 2), (1, -1)], [(0, 0)])],
    refused("pull depths must be pairwise distinct", TautExpr.monomial, 6, psi=[(1, 1), (1, 2)]),
    *[refused(f"every {what} must be an integer, got {bad!r}", TautExpr.monomial, 6, **factors)
      for what, bad, factors in [
        ("power", 1.5, {"psi": [(0, 1.5)]}), ("depth", 0.5, {"psi": [(0.5, 1)]}), ("power", 0.0, {"psi": [(1, 0.0)]}),
        ("kappa index", 1.0, {"kappa": [(1.0, 1)]}), ("power", True, {"kappa": [(1, True)]})]],
    *[refused(f"every {what} factor must be a pair, got {bad!r}", TautExpr.monomial, l, **{what: factors})
      for l, what, bad, factors in [(4, "psi", "2", "2"), (4, "kappa", 1, [1]), (5, "psi", (0, 1, 1), [(0, 1, 1)]),
                                    (5, "kappa", None, None)]],
    *[refused(f"a TautExpr key must be a pair of tuples of (int, int) pairs, got {key!r}", TautExpr, 4, {key: 1})
      for key in (5, (1, 2))],
    *[refused(f"depths must be ascending and kappa indices strictly ascending, got {key!r}", TautExpr, 5, {key: 1})
      for key in [(((1, 1), (0, 1)), ()), (((0, 1),), ((2, 1), (1, 1)))]],
    refused("pull depths must be pairwise distinct", TautExpr, 5, {(((0, 1), (0, 1)), ()): 1}),
    refused("every depth, kappa index and power must be an integer, got (((0, 1.0),), ())", TautExpr, 4,
            {(((0, 1.0),), ()): 1}),
    refused("l must be an integer, got 6.0", TautExpr, 6.0),
    *[refused(f"{COEFF}{coeff!r}", TautExpr.monomial, 4, psi=[(0, 1)], coeff=coeff) for coeff in (0.1, True)],
    *[refused(f"{COEFF}{coeff!r}", TautExpr, 4, {(((0, 1),), ()): coeff}) for coeff in (0.0, "1")],
    refused("TautExpr needs a dict, got list", TautExpr, 4, [2]),
    refused("addition needs a TautExpr, got int", operator.add, TautExpr(4), 3),
    refused("mixed moduli spaces in one expression", operator.add, TautExpr(4), TautExpr(5)),
    refused("pushforward_step needs a TautExpr, got NoneType", pushforward_step, None),
    refused("already on the 3-pointed space", pushforward_step, TautExpr.monomial(3)),
    *[refused(f"integrate needs a TautExpr, got {type(x).__name__}", integrate, x) for x in (None, 3)],
    *[refused(message, integrate_monomial, k, exps) for k, exps, message in [
        (2, (), "k must be >= 3"), (-1, (1,), "k must be >= 3"), (6.0, (1, 1, 1), "k must be an integer, got 6.0"),
        (5, (1,), "expected 2 exponents for k=5"), (4, (), "expected 1 exponents for k=4"),
        (5, None, "expected 2 exponents, got None"), (6, (1, -1, 3), PSI), (5, (-2, 4), PSI),
        (5, (1, "x"), "every exponent must be an integer, got 'x'"),
        (5, (1, [2]), "every exponent must be an integer, got [2]"),
        (6, (1.5, 0, 1.5), "every exponent must be an integer, got 1.5"),
        (6, (True, 1, 1), "every exponent must be an integer, got True"),
        (6, (1, 1, 1.0), "every exponent must be an integer, got 1.0")]],
]

# One valid call of each public callable with an int argument: the sweep gives each such argument, in turn, the values
# below, and -1 unless the argument takes it, in place of its valid one.
VALID = {
    check_size: {"n": 1, "k": 1}, enumerate_graphs: {"n": 1, "k": 1},
    FixedGraph: {"n": 1, "a": 0, "b": 1, "A": frozenset(), "k": 1},
    LocalizationJob: {"n": 1, "k": 1, "classes": (1,)}, sample_taus: {"n": 1, "samples": 2, "seed": 1},
    table: {"n": 1, "k": 1, "class_tuples": [(1,)]},
    invariant: {"n": 1, "k": 1, "classes": (1,)}, traced_invariant: {"n": 1, "k": 1, "classes": (1,)},
    Invariant: {"coeff": 1, "kappa_exp": -1}, compositions: {"total": 1, "parts": 1},
    sgw_point: {"k": 3}, point_sum: {"k": 3},
    QElement: {"n": 1}, QElement.basis: {"n": 1, "power": 0},
    structure_table: {"n": 1}, star: {"n": 1, "x": L1, "y": L1},
    TautExpr: {"l": 3}, TautExpr.monomial: {"l": 3}, integrate_monomial: {"k": 3, "exponents": ()},
}
SWEEP = [
    (call, {**valid, name: bad})
    for call, valid in VALID.items()
    for name, parameter in inspect.signature(call).parameters.items()
    if parameter.annotation in (int, "int")  # "int" under ``from __future__ import annotations``
    for bad in (None, 1.5, "2", True, [2], F(2)) + ((-1,) if name not in ("seed", "kappa_exp") else ())
]


def call_id(call, args, kwargs):
    def show(value):
        return f"QElement({value.n}, {value.comps})" if isinstance(value, QElement) else repr(value)

    return f"{call.__qualname__}({', '.join([*map(show, args), *(f'{k}={show(v)}' for k, v in kwargs.items())])})"


def qualified(call):
    return f"{call.__module__.rpartition('.')[2]}.{call.__qualname__}"


@pytest.mark.parametrize("call,args,kwargs,error,message", ROWS, ids=[call_id(*row[:3]) for row in ROWS])
def test_refused(call, args, kwargs, error, message):
    with pytest.raises(error) as info:
        call(*args, **kwargs)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("call,kwargs", SWEEP, ids=[call_id(call, (), kwargs) for call, kwargs in SWEEP])
def test_int_argument_refused(call, kwargs):
    with pytest.raises(DomainError) as info:
        call(**kwargs)
    assert "\n" not in str(info.value)


def test_every_public_callable_has_a_row():
    # Every public function and class defined in MODULES, and each public method of such a class that takes an argument.
    objects = [obj for module in MODULES for obj in vars(module).values()
               if callable(obj) and getattr(obj, "__module__", None) == module.__name__ and obj.__name__[0] != "_"]
    methods = [getattr(cls, name) for cls in objects if inspect.isclass(cls) and qualified(cls) not in EXEMPT
               for name in vars(cls) if name[0] != "_"]
    public = {qualified(obj) for obj in objects} | {
        qualified(method) for method in methods
        if callable(method) and set(inspect.signature(method).parameters) - {"self"}}
    covered = {qualified(row[0]) for row in ROWS} | {qualified(call) for call in VALID}
    assert EXEMPT.keys() <= public
    assert sorted(public - covered - EXEMPT.keys()) == []

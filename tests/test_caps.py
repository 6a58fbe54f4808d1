"""One cap policy: every size cap is a constant of ``amalgam.errors``, no
function takes a cap or budget with a default, and every guarded site
raises ``CapExceeded`` naming its cap."""

import ast
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from amalgam import errors
from amalgam import kdim
from amalgam.boolalg import FiniteBooleanAlgebra, PrincipalIdeal
from amalgam.boolalg import is_independent_mod_ideal
from amalgam.errors import (
    AP_BUDGET,
    CLOSURE_CAP,
    INDEPENDENCE_CAP,
    JEP_BUDGET,
    WINDOW_CAP,
    AmalgamError,
    CapExceeded,
)
from amalgam.fraisse import check_disjoint_ap, check_jep
from amalgam.k1 import (
    build_member,
    check_K1,
    check_Kminus1,
    minimal_model,
)
from amalgam.k1.embeddings import _match_general
from amalgam.k1.freepart import FreeFn, conj, var
from amalgam.k1.p1 import (
    P1Context,
    P1Element,
    _signature_blocks,
    independent_from_mod_atomic,
    materialize,
)
from amalgam.structures import FiniteStructure, Vocabulary, generate_substructure

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "amalgam"
KNOBS = {"cap", "budget"}
CAP_SUFFIXES = ("_CAP", "_BUDGET")


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _defaulted_parameters(fn: ast.AST) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return names


def test_no_cap_or_budget_parameter_has_a_default():
    knobs = []
    functions = 0
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                functions += 1
                knobs += [f"{path.name}: {getattr(node, 'name', 'lambda')}"
                          f"({name}=)" for name in _defaulted_parameters(node)
                          if name in KNOBS]
    assert functions > 100, "the scan found too few functions"
    assert not knobs, "settable caps:\n" + "\n".join(knobs)


def test_caps_are_assigned_only_in_errors():
    assigned = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for t in targets:
                if isinstance(t, ast.Name) and t.id.endswith(CAP_SUFFIXES):
                    assigned.append((path.name, t.id))
    assert sorted(name for path, name in assigned if path == "errors.py") == \
        ["AP_BUDGET", "CLOSURE_CAP", "INDEPENDENCE_CAP", "JEP_BUDGET",
         "WINDOW_CAP"]
    assert [a for a in assigned if a[0] != "errors.py"] == []


def test_cap_exceeded_carries_name_limit_and_size():
    err = CapExceeded("WINDOW_CAP", WINDOW_CAP + 3)
    assert isinstance(err, AmalgamError)
    assert (err.cap, err.limit, err.seen) == \
        ("WINDOW_CAP", WINDOW_CAP, WINDOW_CAP + 3)
    assert "WINDOW_CAP" in str(err)
    for name in ("SupportOverflow", "ClosureDiverges", "EnumerationOverflow"):
        assert not hasattr(errors, name)


# ---------------------------------------------------------------------------
# Every guarded site, each just past its cap
# ---------------------------------------------------------------------------


def wide_fn(width: int, start: int = 100) -> FreeFn:
    """A function of ``width`` generators, true only where all are 0; the
    table is one bit, so the element is cheap however wide it is."""
    return FreeFn(tuple(range(start, start + width)), 1)


def entangled_family(size: int) -> list[P1Element]:
    """``size`` zero-atomic elements in one support component."""
    return [P1Element(0, conj(var(0), var(i))) for i in range(1, size + 1)]


CTX = P1Context((0, 1))
WIDE = P1Element(0, wide_fn(WINDOW_CAP + 1))
ONE_FN = Vocabulary.make(functions={"f": 2})
B16 = FiniteBooleanAlgebra(4)  # 16 elements, enough for a family past the cap


def long_chain(n: int) -> FiniteStructure:
    """f(x, x) = x + 1 on 0 .. n - 1."""
    table = {(i, i): i + 1 for i in range(n - 1)}
    return FiniteStructure(ONE_FN, tuple(range(n)), functions={"f": table})


def jep_overflow():
    members = list(range(int(JEP_BUDGET ** 0.5) + 1))
    check_jep(SimpleNamespace(members=lambda bound: members), 1)


def ap_overflow():
    cls = SimpleNamespace(
        task_pairs=lambda bound: [("A", "B", None)],
        members=lambda bound: ["C"],
        embeddings=lambda A, C: range(AP_BUDGET + 1),
        amalgamate=lambda *args: None,
    )
    check_disjoint_ap(cls, 1)


def halves(width: int) -> tuple[FreeFn, FreeFn]:
    """Two functions on disjoint supports of ``width`` generators in all."""
    return wide_fn(width // 2), wide_fn(width - width // 2, start=200)


SITES = {
    "freepart._joint": (
        "WINDOW_CAP", lambda: conj(*halves(WINDOW_CAP + 1))),
    "p1._signature_blocks": (
        "WINDOW_CAP", lambda: _signature_blocks(CTX, [WIDE])),
    "p1.materialize": (
        "WINDOW_CAP", lambda: materialize(CTX, [WIDE])),
    "embeddings._match_general": (
        "WINDOW_CAP", lambda: _match_general(
            minimal_model(), minimal_model(), [WIDE], [WIDE])),
    "p1.independent_from_mod_atomic": (
        "INDEPENDENCE_CAP", lambda: independent_from_mod_atomic(
            entangled_family(INDEPENDENCE_CAP + 1), [])),
    "boolalg.is_independent_mod_ideal": (
        "INDEPENDENCE_CAP", lambda: is_independent_mod_ideal(
            B16, range(1, INDEPENDENCE_CAP + 2), [], PrincipalIdeal(B16, 0))),
    "structures.generate_substructure": (
        "CLOSURE_CAP", lambda: generate_substructure(
            long_chain(CLOSURE_CAP + 2), {0})),
    "fraisse.check_jep": ("JEP_BUDGET", jep_overflow),
    "fraisse.check_disjoint_ap": ("AP_BUDGET", ap_overflow),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_guarded_site_raises_cap_exceeded(site):
    cap, run = SITES[site]
    with pytest.raises(CapExceeded) as err:
        run()
    assert err.value.cap == cap
    assert err.value.limit == getattr(errors, cap)
    assert err.value.seen > err.value.limit


def test_closure_at_its_cap_is_evaluated():
    closed = generate_substructure(long_chain(CLOSURE_CAP), {0})
    assert set(closed.universe) == set(range(CLOSURE_CAP))


# ---------------------------------------------------------------------------
# Checkers record a capped clause as not evaluated
# ---------------------------------------------------------------------------


def clause(report, key):
    (item,) = [i for i in report.items if i.key == key]
    return item


def capped_member():
    """A member whose first value is wider than the window cap."""
    M = build_member(0, 1, 1, trunc=2)
    wide = wide_fn(WINDOW_CAP + 1)
    M.f[(0, M.p2[0])] = P1Element(0, wide)
    M.gen_ids = wide.support + M.gen_ids[1:]
    return M


def test_capped_clause_is_not_evaluated_and_not_passed():
    M = capped_member()
    report = check_Kminus1(M)
    generation = clause(report, "km1.generation")
    assert generation.passed is None
    assert "WINDOW_CAP" in generation.detail
    assert report.failing() == []
    assert all(i.passed for i in report.items if i is not generation)
    assert not report.passed


def test_union_reads_the_capped_generation_clause():
    M = capped_member()
    generation = clause(check_Kminus1(M), "km1.generation")
    union = clause(check_K1(M), "k0.union")
    assert union.passed is None
    assert "WINDOW_CAP" in union.detail
    assert union.detail == generation.detail


def test_earlier_failure_survives_a_later_overflow():
    M = capped_member()
    wide, rest = M.gen_ids[:WINDOW_CAP + 1], M.gen_ids[WINDOW_CAP + 1:]
    lonely = max(M.gen_ids) + 1  # a generator no value spans
    # the sweep meets the lonely generator (a failure) before the wide
    # value's generators, whose span would exceed the window cap
    M.gen_ids = (lonely,) + wide + rest
    generation = clause(check_Kminus1(M), "km1.generation")
    assert generation.passed is False
    assert generation.detail == \
        "the values and named generators do not generate the algebra"
    # in the other order the cap is met first
    M.gen_ids = wide + (lonely,) + rest
    generation = clause(check_Kminus1(M), "km1.generation")
    assert generation.passed is None
    assert "WINDOW_CAP" in generation.detail


def test_kdim_records_a_capped_independence_clause(monkeypatch):
    # a member on 4 points whose bound no direct certificate decides, so
    # the check reaches the closure search
    M = kdim.random_member(random.Random(3), 1, 4, range(4), class_cap=3)
    assert kdim.check_membership(M).passed

    def capped(flat, X):
        raise CapExceeded("CLOSURE_CAP", CLOSURE_CAP + 1)

    monkeypatch.setattr(kdim, "closure", capped)
    report = kdim.check_membership(M)
    bound = clause(report, "kr0.independence_bound")
    assert bound.passed is None
    assert "CLOSURE_CAP" in bound.detail
    assert report.failing() == []
    assert not report.passed

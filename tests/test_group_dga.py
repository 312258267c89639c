import inspect
import textwrap
from collections import Counter

import pytest

from prelie_calculus import cli, group_dga
from prelie_calculus.exact_core import ONE, Scalar, ZERO
from prelie_calculus.group_dga import (
    GroupDGA,
    GroupDGAData,
    _monomials,
    check_group_dga,
    s3_instance,
    z2_instance,
)


def trivial_instance() -> GroupDGA:
    """Trivial group on one point with theta = x_1."""
    return GroupDGA(GroupDGAData(
        cayley=((0,),), action=((0,),), theta=(ONE,)))


class TestValidation:
    def test_non_group_table_rejected(self):
        # {0,1} with absorbing 1 is a monoid without inverses
        with pytest.raises(ValueError, match="inverse"):
            GroupDGA(GroupDGAData(
                cayley=((0, 1), (1, 1)), action=((0,), (0,)), theta=(ONE,)))
        # a genuinely non-associative table
        with pytest.raises(ValueError, match="associative"):
            GroupDGA(GroupDGAData(
                cayley=((0, 1, 2), (1, 2, 0), (2, 1, 0)),
                action=((0,), (0,), (0,)), theta=(ONE,)))

    def test_non_homomorphism_rejected(self):
        # Z2 where the non-identity element acts trivially is fine, but
        # an "action" that is not multiplicative must be refused
        with pytest.raises(ValueError, match="homomorphism|identity"):
            GroupDGA(GroupDGAData(
                cayley=((0, 1), (1, 0)),
                action=((1, 0), (0, 1)),
                theta=(ONE, ZERO)))

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            GroupDGA(GroupDGAData(
                cayley=((0,),), action=((1, 1),), theta=(ONE, ZERO)))


class TestTrivialGroup:
    def test_dg_vanishes(self):
        dga = trivial_instance()
        assert dga.is_zero(dga.d(dga.group(0)))

    def test_alpha_form_commutator(self):
        # [alpha_1, d alpha_1] = d alpha_1
        dga = trivial_instance()
        a, y = dga.alpha(0), dga.form(0)
        comm = dga.sub(dga.mul(a, y), dga.mul(y, a))
        assert dga.is_zero(dga.sub(comm, y))

    def test_check_passes(self):
        rep = check_group_dga(trivial_instance(), max_len=3)
        assert rep["passed"]


class TestZ2:
    def test_dg_formula(self):
        # d g = g (x) (x_2 - x_1) for the swap g and theta = x_1
        dga = z2_instance()
        dg = dga.d(dga.group(1))
        n = dga.n
        assert dg == {
            ((0, 0), 1, (n + 0,)): Scalar(-1),
            ((0, 0), 1, (n + 1,)): ONE,
        }

    def test_d_alpha(self):
        dga = z2_instance()
        assert dga.d(dga.alpha(0)) == dga.form(0)

    def test_d_alpha_g(self):
        # d(alpha_i g) = g (x) g^{-1}|>y_i + alpha_i g (x) (g^{-1}|>theta - theta)
        dga = z2_instance()
        ag = dga.mul(dga.alpha(0), dga.group(1))
        d = dga.d(ag)
        assert d == {
            ((0, 0), 1, (1,)): ONE,            # g (x) y_2
            ((1, 0), 1, (2,)): Scalar(-1),     # alpha_1 g (x) -x_1
            ((1, 0), 1, (3,)): ONE,            # alpha_1 g (x) x_2
        }

    def test_form_past_group(self):
        # (psi + v).g = g (x) g^{-1}|>(psi + v)
        dga = z2_instance()
        for f in range(4):
            prod = dga.mul(dga.form(f), dga.group(1))
            moved = dga._act_form(dga.inv[1], f)
            assert prod == {((0, 0), 1, (moved,)): ONE}

    def test_form_past_alpha_g(self):
        # (y_i).(alpha_j g) = alpha_j g (x) g^{-1}|>y_i - delta_ij g (x) g^{-1}|>y_i
        dga = z2_instance()
        g = 1
        for i in range(2):
            for j in range(2):
                ag = dga.mul(dga.alpha(j), dga.group(g))
                prod = dga.mul(dga.form(i), ag)
                moved = dga._act_form(dga.inv[g], i)
                ej = [0, 0]
                ej[j] = 1
                expected = {(tuple(ej), g, (moved,)): ONE}
                if i == j:
                    expected[((0, 0), g, (moved,))] = Scalar(-1)
                assert prod == expected

    def test_check_passes(self):
        rep = check_group_dga(z2_instance(), max_len=3)
        assert rep["passed"]
        assert not rep["warnings"]

    def test_invariant_theta_warns(self):
        bad = GroupDGA(GroupDGAData(
            cayley=((0, 1), (1, 0)),
            action=((0, 1), (1, 0)),
            theta=(ONE, ONE)))
        rep = check_group_dga(bad, max_len=2)
        assert rep["passed"]  # warning only
        assert any("surjective" in w for w in rep["warnings"])


class TestS3:
    def test_omega_per_element(self):
        # omega(sigma - e) = sigma^{-1}|>theta - theta
        dga = s3_instance()
        for g in range(dga.size):
            direct = [ZERO] * 3
            gi = dga.inv[g]
            direct[dga.data.action[gi][0]] = direct[dga.data.action[gi][0]] \
                + ONE
            direct[0] = direct[0] - ONE
            _, vec = dga.omega_tilde(
                dga.sub(dga.group(g), dga.group(dga.identity)))
            assert vec == direct

    def test_omega_tilde_on_alpha_powers(self):
        # omega(alpha_i^m g) = (-1)^(m-1) alpha_{g^{-1}|>i}
        dga = s3_instance()
        g = 1
        elem = {((0, 2, 0), g, ()): ONE}
        psi, vec = dga.omega_tilde(elem)
        j = dga.data.action[dga.inv[g]][1]
        assert psi[j] == Scalar(-1)
        assert all(v.is_zero() for v in vec)
        # mixed support products *-multiply to zero
        psi2, _ = dga.omega_tilde({((1, 1, 0), g, ()): ONE})
        assert all(v.is_zero() for v in psi2)

    def test_check_passes(self):
        rep = check_group_dga(s3_instance(), max_len=2)
        assert rep["passed"]
        assert not rep["warnings"]


class TestAlgebra:
    def test_associativity_sampled(self):
        dga = z2_instance()
        elems = [
            dga.alpha(0),
            dga.add(dga.group(1), dga.form(0)),
            dga.add(dga.form(2), dga.mul(dga.alpha(1), dga.form(1))),
        ]
        for a in elems:
            for b in elems:
                for c in elems:
                    lhs = dga.mul(dga.mul(a, b), c)
                    rhs = dga.mul(a, dga.mul(b, c))
                    assert dga.is_zero(dga.sub(lhs, rhs))

    def test_grassmann_relations(self):
        dga = z2_instance()
        for f in range(4):
            assert dga.is_zero(dga.mul(dga.form(f), dga.form(f)))
        anti = dga.add(dga.mul(dga.form(0), dga.form(2)),
                       dga.mul(dga.form(2), dga.form(0)))
        assert dga.is_zero(anti)

    def test_d_squared_on_mixed_element(self):
        dga = s3_instance()
        e = dga.mul(dga.mul(dga.alpha(0), dga.alpha(0)), dga.group(2))
        assert dga.is_zero(dga.d(dga.d(e)))


def label_products(dga, max_len):
    """Every product of 1 to max_len alphas and group elements with its
    generator labels, built left to right."""
    gens0 = [(("alpha", i), dga.alpha(i)) for i in range(dga.n)] \
        + [(("group", g), dga.group(g)) for g in range(dga.size)]

    def products(depth):
        if depth == 1:
            for lab, elem in gens0:
                yield (lab,), elem
            return
        for labs, elem in products(depth - 1):
            for lab, gen in gens0:
                yield labs + (lab,), dga.mul(elem, gen)

    for depth in range(1, max_len + 1):
        yield from products(depth)


def reference_d_squared(dga, max_len):
    """The d^2 check by the label sweep: the labels of every product of
    at most max_len degree-0 generators whose d^2 is not zero."""
    return [labs for labs, elem in label_products(dga, max_len)
            if not dga.is_zero(dga.d(dga.d(elem)))]


def mutate(monkeypatch, method, old, new):
    """Replace GroupDGA.<method> by its source with old, which must
    occur once, replaced by new."""
    source = textwrap.dedent(inspect.getsource(getattr(GroupDGA, method)))
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), vars(group_dga), namespace)
    monkeypatch.setattr(GroupDGA, method, namespace[method])


# one mutant per witness list, with the s3 witness counts at max-len 3
MUTANTS = {
    "d_sign": (("_d_pieces", "c * coeff * sign", "c * coeff"),
               {"d_squared": 53, "leibniz": 42}),
    "binomial_sign": (("_mul_pieces", "(-1) ** m", "(-1) ** (m + 1)"),
                      {"alpha_form": 3, "leibniz": 3}),
    "omega_sign": (("omega_tilde", "(-1) ** (A[i] - 1)", "(-1) ** A[i]"),
                   {"omega_welldef": 18}),
    "action_sign": (("crossed_action", "(-1) ** sum(A)",
                     "(-1) ** (sum(A) + 1)"),
                    {"omega_module": 3}),
}
INSTANCES = {"trivial": trivial_instance, "z2": z2_instance,
             "s3": s3_instance}


class TestDSquaredCertificate:
    """d^2 is applied once to each monomial alpha^A g that a product of
    at most max_len alphas and group elements reduces to; the label
    sweep is the oracle."""

    @pytest.mark.parametrize("build, monomials, products", [
        (z2_instance, 16, 84), (s3_instance, 70, 819)])
    def test_products_are_the_monomials(self, build, monomials, products):
        dga = build()
        keys = set(_monomials(dga, 3))
        assert len(keys) == len(list(_monomials(dga, 3))) == monomials
        seen = set()
        for count, (_, elem) in enumerate(label_products(dga, 3), 1):
            (key, c), = elem.items()
            assert c == ONE and key[2] == ()
            seen.add(key[:2])
        assert count == products and seen == keys

    def test_d_runs_once_per_monomial(self, monkeypatch):
        calls = []
        true_d = GroupDGA.d

        def d(dga, a):
            calls.append(a)
            return true_d(dga, a)

        monkeypatch.setattr(GroupDGA, "d", d)
        dga = s3_instance()
        check_group_dga(dga, max_len=3)
        # d twice per monomial, three times per Leibniz generator pair
        generators = dga.n + dga.size + 2 * dga.n
        assert len(calls) == 2 * 70 + 3 * generators ** 2

    @pytest.mark.parametrize("mutant", [None, *MUTANTS])
    @pytest.mark.parametrize("max_len", [1, 2, 3])
    @pytest.mark.parametrize("name", INSTANCES)
    def test_certificate_matches_sweep(self, monkeypatch, name, max_len,
                                       mutant):
        """The failing monomials are those of the failing products, so
        the certificate fails exactly when the sweep does."""
        if mutant:
            mutate(monkeypatch, *MUTANTS[mutant][0])
        dga = INSTANCES[name]()
        rep = check_group_dga(dga, max_len=max_len)
        failing = set(reference_d_squared(dga, max_len))
        assert {w[1:] for w in rep["passed"].witnesses
                if w[0] == "d_squared"} == {
            next(iter(elem))[:2]
            for labs, elem in label_products(dga, max_len)
            if labs in failing}


class TestMutants:
    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutant_fills_its_witness_lists(self, monkeypatch, mutant):
        change, expected = MUTANTS[mutant]
        mutate(monkeypatch, *change)
        rep = check_group_dga(s3_instance(), max_len=3)
        assert not rep["passed"]
        assert Counter(w[0] for w in rep["passed"].witnesses) == expected

    def test_cli_exits_1_under_a_mutant(self, monkeypatch, capsys):
        mutate(monkeypatch, *MUTANTS["d_sign"][0])
        assert cli.main(["groupdga", "--instance", "groupdga-s3",
                         "--json"]) == 1
        assert '"passed": false' in capsys.readouterr().out

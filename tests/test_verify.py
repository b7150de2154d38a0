"""Tests for the invariant suite in catspectra.verify: how often it calls the
dense eigensolver, what it does when that fails, and checks that must fail
when a production value is off."""

import re
import sys
from math import inf, nextafter

import numpy as np
import pytest

from catspectra import bounds, charpoly, cli, graphs, oracle, verify
from catspectra.charpoly import IntPolynomial, build_C
from catspectra.model import random_specs, validate_spec


def _count_stacks(monkeypatch) -> list[tuple[str, list]]:
    """Record each stacked dense solve as (calling function, its member matrices)."""
    calls = []
    solve = oracle.sym_eigs_stack

    def counted(mats, *args, **kwargs):
        mats = [np.asarray(m, dtype=float) for m in mats]
        calls.append((sys._getframe(1).f_code.co_name, mats))
        return solve(mats, *args, **kwargs)

    monkeypatch.setattr(oracle, "sym_eigs_stack", counted)
    verify._c_eigs.cache_clear()
    return calls


def _family(spec):
    """C, its deletions C(i) and its 3 x 3 pair blocks, each a member, as in `_c_eigs`."""
    c = build_C(spec).to_dense()
    return ([c] + [np.delete(np.delete(c, s, 0), s, 1) for s in range(1, 2 * spec.k - 2, 2)]
            + [c[2 * j:2 * j + 3, 2 * j:2 * j + 3] for j in range(spec.k - 1)])


def test_verify_solves_each_dense_matrix_once(monkeypatch, capsys):
    calls = _count_stacks(monkeypatch)
    assert cli.main(["verify", "--q", "4,9,1,2"]) == 0
    # k = 4: C, its k - 1 deletions C(i) and its k - 1 leg-pair blocks, 2k - 1 members of
    # one stack; no tree Laplacian
    assert [(caller, len(mats)) for caller, mats in calls] == [("_c_eigs", 7)]
    family = _family(validate_spec((4, 9, 1, 2)))
    assert [m.tobytes() for m in calls[0][1]] == [m.tobytes() for m in family]
    assert verify._c_eigs.cache_info().currsize == 0    # nothing kept past the run
    assert "all invariants passed" in capsys.readouterr().out


# (0, 5, 5, 0, 0): the blocks of (0, 5) and (5, 0) share all three eigenvalues 5, 0 and -1, so
# packed into one matrix they would share eigenspaces, and an eigenvector would name no block
@pytest.mark.parametrize("q", [(4, 9, 1, 2), (0, 0), (3, 0, 0, 2, 0, 7), (1,) * 9, (0, 5, 5, 0, 0)])
def test_each_pair_block_gets_its_own_eigenvalues(q):
    spec = validate_spec(q)
    c = build_C(spec).to_dense()
    got = verify._c_eigs(spec)
    verify._c_eigs.cache_clear()
    assert len(got) == 2 * spec.k - 1
    for j, vals in enumerate(got[spec.k:]):
        block = np.linalg.eigvalsh(c[2 * j:2 * j + 3, 2 * j:2 * j + 3])[::-1]
        assert np.allclose(vals, block, rtol=0.0, atol=1e-12), j


def test_verify_exits_3_when_lapack_fails(monkeypatch, capsys):
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    verify._c_eigs.cache_clear()
    assert cli.main(["verify", "--q", "4,9,0,1"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical non-convergence: "), err
    assert verify._c_eigs.cache_info().currsize == 0


def test_verify_builds_no_dense_tree_matrix(monkeypatch, capsys):
    def refused(g):
        raise AssertionError("verify built a dense matrix of the tree")

    monkeypatch.setattr(graphs, "matrices", refused)
    assert cli.main(["verify", "--q", "4,9,1,2"]) == 0
    assert "all invariants passed" in capsys.readouterr().out


def test_batch_verify_solves_each_c_family_in_one_stacked_call(monkeypatch, capsys):
    # 331 distinct specs, more than 256: a bounded cache of 256 families, or
    # of 256 single matrices, would evict a family before its last check in
    # the check-major run (300 specs of this seed give exactly 256 distinct)
    calls = _count_stacks(monkeypatch)
    assert cli.main(["verify", "--random", "400", "--kmax", "8", "--qmax", "6",
                     "--seed", "7"]) == 0
    assert "all invariants passed on 400 spec(s)" in capsys.readouterr().out
    assert {caller for caller, _ in calls} == {"_c_eigs"}
    families = [tuple(m.tobytes() for m in mats) for _, mats in calls]
    specs = set(random_specs(400, 8, 6, 7))
    assert len(families) == len(specs)
    for spec in specs:
        assert tuple(m.tobytes() for m in _family(spec)) in families
    assert verify._c_eigs.cache_info().currsize == 0


def _nudged(values, factor):
    """The largest value scaled by factor, the others unchanged."""
    top = max(range(len(values)), key=lambda j: values[j])
    return [v * factor if j == top else v for j, v in enumerate(values)]


SPECTRUM_SPECS = [(4, 9, 1, 2), (3, 0, 0, 2, 0, 7), (0, 0), (6, 1, 0, 4, 0)]


def _spectrum_fails(monkeypatch, spec, pairs) -> bool:
    monkeypatch.setattr(charpoly, "laplacian_spectrum", lambda s: pairs)
    return verify._ck_spectrum_tree_count(spec, 1e-8) is not None


@pytest.mark.parametrize("q", SPECTRUM_SPECS)
def test_spectrum_check_catches_a_one_ulp_nudge_of_any_value(monkeypatch, q):
    spec = validate_spec(q)
    assert verify._ck_spectrum_tree_count(spec, 1e-8) is None
    exact = charpoly.laplacian_spectrum(spec)
    for j, (v, m) in enumerate(exact):
        for toward in (-inf, inf):
            pairs = list(exact)
            pairs[j] = (nextafter(v, toward), m)
            assert _spectrum_fails(monkeypatch, spec, pairs), (j, toward)


@pytest.mark.parametrize("q", SPECTRUM_SPECS)
def test_spectrum_check_catches_a_multiplicity_moved_to_a_neighbour(monkeypatch, q):
    spec = validate_spec(q)
    exact = charpoly.laplacian_spectrum(spec)
    for j in range(len(exact) - 1):
        for give, take in ((j, j + 1), (j + 1, j)):
            pairs = list(exact)
            pairs[give] = (pairs[give][0], pairs[give][1] - 1)
            pairs[take] = (pairs[take][0], pairs[take][1] + 1)
            assert _spectrum_fails(monkeypatch, spec, pairs), (give, take)


@pytest.mark.parametrize("q", [(4, 9, 1, 2), (3, 0, 0, 2, 0, 7), (0, 0)])
def test_spectrum_check_catches_mu_oracle_one_ulp_off(monkeypatch, q):
    spec = validate_spec(q)
    mu = oracle.mu_oracle(spec)
    for toward in (-inf, inf):
        monkeypatch.setattr(oracle, "mu_oracle", lambda s, wrong=nextafter(mu, toward): wrong)
        assert verify._ck_spectrum_tree_count(spec, 1e-8) is not None


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("where", ["constant", "middle", "leading"])
@pytest.mark.parametrize("name, check", [("charpoly_p", verify._ck_charpoly_vs_det),
                                         ("laplacian_charpoly", verify._ck_laplacian_charpoly)])
def test_polynomial_checks_catch_one_coefficient_off_by_one(monkeypatch, name, check, where,
                                                            delta):
    spec = validate_spec((4, 9, 0, 1))
    assert check(spec, 1e-8) is None
    exact = getattr(charpoly, name)

    def changed(s):
        coeffs = list(exact(s).coeffs)
        coeffs[{"constant": 0, "middle": len(coeffs) // 2, "leading": -1}[where]] += delta
        return IntPolynomial(tuple(coeffs))

    monkeypatch.setattr(charpoly, name, changed)
    msg = check(spec, 1e-8)
    assert msg is not None and re.search(r"at t=2\^\d+$", msg), msg


@pytest.mark.parametrize("name, check", [("charpoly_p", verify._ck_charpoly_vs_det),
                                         ("laplacian_charpoly", verify._ck_laplacian_charpoly)])
def test_polynomial_checks_evaluate_beyond_every_root_of_the_difference(monkeypatch, name, check):
    # poly + (x - 2^j) agrees with poly at 2^j only; the check's one point must miss every such root
    spec = validate_spec((4, 9, 0, 1))
    exact = getattr(charpoly, name)
    for j in range(200):
        monkeypatch.setattr(charpoly, name, lambda s, j=j: exact(s) + IntPolynomial((-2 ** j, 1)))
        assert check(spec, 1e-8) is not None, j


def test_cardano_check_has_no_hidden_relative_tolerance(monkeypatch):
    spec = validate_spec((9, 5))
    assert verify._ck_cardano_pairs(spec, 1e-8) is None
    exact = bounds.cardano_roots

    class Nudged:
        def __init__(self, sol):
            self.zetas = _nudged(list(sol.zetas), 1 + 1e-6)

    monkeypatch.setattr(bounds, "cardano_roots", lambda q1, q2: Nudged(exact(q1, q2)))
    assert verify._ck_cardano_pairs(spec, 1e-8) is not None


@pytest.mark.parametrize("q", [(4, 9, 0, 1), (0, 0), (1, 1), (3, 0, 0, 2, 0, 7)])
def test_mu_check_certifies_the_double_next_to_the_smallest_root(monkeypatch, q):
    spec = validate_spec(q)
    assert verify._ck_mu_vs_minroot(spec, 1e-8) is None
    mu = oracle.mu_oracle(spec)
    # two ulps off either way, far inside any float tolerance, still fails
    for wrong in (nextafter(nextafter(mu, inf), inf), nextafter(nextafter(mu, 0.0), 0.0)):
        monkeypatch.setattr(oracle, "mu_oracle", lambda s, wrong=wrong: wrong)
        assert verify._ck_mu_vs_minroot(spec, 1e-8) is not None

"""Tests for the invariant suite in catspectra.verify: how often it calls the
dense eigensolver, and checks that must fail when a production value is off."""

from math import inf, nextafter

import pytest

from catspectra import bounds, charpoly, cli, oracle, verify
from catspectra.model import validate_spec


def test_verify_solves_each_dense_matrix_once(monkeypatch, capsys):
    calls = []

    def counted(m, *args, **kwargs):
        calls.append(m.shape)
        return solve(m, *args, **kwargs)

    solve = oracle.sym_eigs
    monkeypatch.setattr(oracle, "sym_eigs", counted)
    verify._c_eigs.cache_clear()
    assert cli.main(["verify", "--q", "4,9,1,2"]) == 0
    # k = 4: the tree Laplacian, the pruned C in laplacian_spectrum, C, the
    # k - 1 deletions C(i) and the k - 1 leg-pair matrices: 3 + 2(k - 1)
    assert len(calls) == 9
    assert verify._c_eigs.cache_info().currsize == 0    # nothing kept past the run
    assert "all invariants passed" in capsys.readouterr().out


def _nudged(values, factor):
    """The largest value scaled by factor, the others unchanged."""
    top = max(range(len(values)), key=lambda j: values[j])
    return [v * factor if j == top else v for j, v in enumerate(values)]


def test_spectrum_shift_check_has_no_hidden_relative_tolerance(monkeypatch):
    spec = validate_spec((4, 9, 1, 2))
    assert verify._ck_spectrum_shift(spec, 1e-8) is None
    exact = charpoly.laplacian_spectrum

    def nudged(s):
        pairs = exact(s)
        return list(zip(_nudged([v for v, _ in pairs], 1 + 1e-6), [m for _, m in pairs]))

    monkeypatch.setattr(charpoly, "laplacian_spectrum", nudged)
    assert verify._ck_spectrum_shift(spec, 1e-8) is not None


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

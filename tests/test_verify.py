"""Tests for the invariant suite in catspectra.verify: how often it calls the
dense eigensolver, and checks that must fail when a production value is off."""

import sys
from math import inf, nextafter

import numpy as np
import pytest

from catspectra import bounds, charpoly, cli, oracle, verify
from catspectra.charpoly import build_C
from catspectra.model import validate_spec


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


def test_verify_solves_each_dense_matrix_once(monkeypatch, capsys):
    calls = _count_stacks(monkeypatch)
    assert cli.main(["verify", "--q", "4,9,1,2"]) == 0
    # k = 4: the tree Laplacian, C with its k - 1 deletions C(i) in one stack
    # and the k - 1 leg-pair matrices in another: 2 + 2(k - 1) matrices in 3 calls
    assert [len(mats) for _, mats in calls] == [1, 4, 3]
    assert verify._c_eigs.cache_info().currsize == 0    # nothing kept past the run
    assert "all invariants passed" in capsys.readouterr().out


def test_batch_verify_solves_each_c_family_in_one_stacked_call(monkeypatch, capsys):
    # 331 distinct specs, more than 256: a bounded cache of 256 families, or
    # of 256 single matrices, would evict a family before its last check in
    # the check-major run (300 specs of this seed give exactly 256 distinct)
    calls = _count_stacks(monkeypatch)
    assert cli.main(["verify", "--random", "400", "--kmax", "8", "--qmax", "6",
                     "--seed", "7"]) == 0
    assert "all invariants passed on 400 spec(s)" in capsys.readouterr().out
    families = [tuple(m.tobytes() for m in mats) for caller, mats in calls if caller == "_c_eigs"]
    specs = set(verify.random_specs(400, 8, 6, 7))
    assert len(families) == len(specs)
    for spec in specs:
        c = build_C(spec).to_dense()
        family = [c] + [np.delete(np.delete(c, s, 0), s, 1) for s in range(1, 2 * spec.k - 2, 2)]
        assert tuple(m.tobytes() for m in family) in families
    assert verify._c_eigs.cache_info().currsize == 0


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

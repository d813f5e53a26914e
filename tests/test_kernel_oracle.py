"""Kernel maxima against a high-precision mpmath oracle.

The oracle probes each kernel over a whole period (or over (0, omega_star]
for gamma_H) with 40-digit arithmetic, refines every local maximum of the
probes by a golden-section search on the value, which needs no tolerance on
the scale of the kernel, and keeps the x -> 0 endpoint value as a
candidate.  It shares no code with the maximizer under test.  A returned
maximum may exceed the oracle by rounding but must never fall below it by
more than 1e-14 relative, since a bound divides by it.
"""

from __future__ import annotations

import math

import pytest
from mpmath import mp

from lgqfi.kernels import Y_CRIT, gamma, gamma_p, gamma_tilde, hp_max
from lgqfi.response import gamma_H

RTOL = 1e-14
PROBES = 600


def _golden_max(f, lo, hi):
    """Largest value of f on [lo, hi], where f is unimodal, by golden-section search."""
    shrink = (mp.sqrt(5) - 1) / 2
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = f(c), f(d)
    # f falls by about f'' dx^2 / 2 near its peak: a 1e-12 relative width leaves ~1e-24
    while hi - lo > mp.mpf(10) ** -12 * hi:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = f(d)
    return max(fc, fd)


def _oracle(f, x_max, endpoint):
    with mp.workdps(40):
        x_max = mp.mpf(x_max)
        xs = [x_max * k / PROBES for k in range(1, PROBES + 1)]
        vals = [f(x) for x in xs]
        best = mp.mpf(endpoint)
        for i, v in enumerate(vals):
            best = max(best, v)
            # a strict rise from the left skips gamma_H's zero plateaus
            if i and v <= vals[i - 1]:
                continue
            if i + 1 < PROBES and v < vals[i + 1]:
                continue
            best = max(best, _golden_max(f, xs[max(i - 1, 0)], xs[min(i + 1, PROBES - 1)]))
        return float(best)


def _coth2(x, y):
    return mp.coth(x / y) ** 2


def _h(x):
    return 2 * mp.cos(x) - mp.cos(2 * x) - 1


def _hp(p, x):
    return (p - 1) * mp.cos(x) - mp.cos((p - 1) * x) - (p - 2)


def _assert_not_below(value, oracle):
    assert value >= oracle - RTOL * abs(oracle)
    assert value <= oracle + 1e-13 * abs(oracle)


YS = [0.05, 0.4, 0.9, Y_CRIT, 1.5, 4.0]


@pytest.mark.parametrize("y", YS)
def test_gamma_against_oracle(y):
    oracle = _oracle(lambda x: _coth2(x, y) * _h(x) / 4, 2.0 * math.pi, y * y / 4)
    _assert_not_below(gamma(y).value, oracle)


@pytest.mark.parametrize("y", YS)
def test_gamma_tilde_against_oracle(y):
    oracle = _oracle(lambda x: _coth2(x, y) * (1 - mp.cos(x)) / 4, 2.0 * math.pi,
                     y * y / 8)
    _assert_not_below(gamma_tilde(y).value, oracle)


@pytest.mark.parametrize("p", [4, 5, 8])
@pytest.mark.parametrize("y", YS)
def test_gamma_p_against_oracle(p, y):
    oracle = _oracle(lambda x: _coth2(x, y) * _hp(p, x) / 4, 2.0 * math.pi,
                     y * y * (p - 1) * (p - 2) / 8)
    _assert_not_below(gamma_p(p, y).value, oracle)


@pytest.mark.parametrize("p", [4, 5, 8])
def test_hp_max_against_oracle(p):
    _assert_not_below(hp_max(p), _oracle(lambda x: _hp(p, x), 2.0 * math.pi, 0.0))


@pytest.mark.parametrize("beta,tau,omega_star", [(1.0, 2.0, 10.0), (0.5, 3.0, 4.0),
                                                  (5.129, 1.850, 21.10)])
def test_gamma_h_against_oracle(beta, tau, omega_star):
    def phi(omega):
        z = beta * omega
        return (1 + mp.exp(-z)) * max(_h(omega * tau), 0) * mp.expm1(z) / z

    _assert_not_below(gamma_H(beta, tau, omega_star), _oracle(phi, omega_star, 0.0))
